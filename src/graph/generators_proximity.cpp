// Proximity generators: ring and torus-grid neighborhoods. These realize the
// paper's motivation (Section 1.1(ii)) that clients may only reach servers
// that are metrically close, and are exactly regular by construction.  Each
// writes its client rows at offsets v * degree, with no edge list.

#include <stdexcept>

#include "graph/generators.hpp"

namespace saer {

BipartiteGraph ring_proximity(NodeId n, std::uint32_t delta) {
  if (delta == 0 || delta > n)
    throw std::invalid_argument("ring_proximity: need 0 < delta <= n");
  std::vector<EdgeId> offsets(static_cast<std::size_t>(n) + 1);
  std::vector<NodeId> adj(static_cast<std::size_t>(n) * delta);
  for (NodeId v = 0; v < n; ++v) {
    offsets[v + 1] = offsets[v] + delta;
    NodeId u = v;
    for (std::uint32_t k = 0; k < delta; ++k, u = u + 1 == n ? 0 : u + 1)
      adj[offsets[v] + k] = u;
  }
  return BipartiteGraph::from_client_rows(n, n, std::move(offsets),
                                          std::move(adj));
}

BipartiteGraph shared_blocks(NodeId n, std::uint32_t delta) {
  if (delta == 0 || delta > n || n % delta != 0)
    throw std::invalid_argument("shared_blocks: need delta | n, 0 < delta <= n");
  std::vector<EdgeId> offsets(static_cast<std::size_t>(n) + 1);
  std::vector<NodeId> adj(static_cast<std::size_t>(n) * delta);
  for (NodeId v = 0; v < n; ++v) {
    offsets[v + 1] = offsets[v] + delta;
    const NodeId block_begin = v - (v % delta);
    for (std::uint32_t k = 0; k < delta; ++k)
      adj[offsets[v] + k] = block_begin + k;
  }
  return BipartiteGraph::from_client_rows(n, n, std::move(offsets),
                                          std::move(adj));
}

BipartiteGraph grid_proximity(NodeId side, std::uint32_t radius) {
  if (side == 0) throw std::invalid_argument("grid_proximity: side must be > 0");
  const std::uint32_t window = 2 * radius + 1;
  if (window > side)
    throw std::invalid_argument("grid_proximity: neighborhood wider than torus");
  const auto n = static_cast<NodeId>(static_cast<std::uint64_t>(side) * side);
  const std::uint64_t degree = std::uint64_t{window} * window;
  std::vector<EdgeId> offsets(static_cast<std::size_t>(n) + 1);
  std::vector<NodeId> adj(static_cast<std::size_t>(n * degree));
  const auto r = static_cast<std::int64_t>(radius);
  for (NodeId v = 0; v < n; ++v) {
    offsets[v + 1] = offsets[v] + degree;
    NodeId* row = adj.data() + offsets[v];
    const std::int64_t x = v % side;
    const std::int64_t y = v / side;
    for (std::int64_t dy = -r; dy <= r; ++dy) {
      for (std::int64_t dx = -r; dx <= r; ++dx) {
        const auto ux = static_cast<std::uint64_t>((x + dx + side) % side);
        const auto uy = static_cast<std::uint64_t>((y + dy + side) % side);
        *row++ = static_cast<NodeId>(uy * side + ux);
      }
    }
  }
  return BipartiteGraph::from_client_rows(n, n, std::move(offsets),
                                          std::move(adj));
}

}  // namespace saer
