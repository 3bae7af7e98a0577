#include "graph/implicit_topology.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace saer {

ImplicitRegularTopology::ImplicitRegularTopology(NodeId n, std::uint32_t delta,
                                                 std::uint64_t seed)
    : n_(n), delta_(delta), graph_seed_(seed), rng_(seed) {
  if (n == 0)
    throw std::invalid_argument("ImplicitRegularTopology: n must be >= 1");
  if (delta == 0 || delta > n)
    throw std::invalid_argument(
        "ImplicitRegularTopology: delta must be in [1, n] (got delta=" +
        std::to_string(delta) + ", n=" + std::to_string(n) + ")");
}

void ImplicitRegularTopology::neighbors(NodeId v,
                                        std::vector<NodeId>& out) const {
  out.clear();
  out.reserve(delta_);
  // Floyd's subset-sampling algorithm: for j = n - Delta .. n - 1 draw
  // t uniform in [0, j] and insert t, falling back to j itself on a
  // collision.  Exactly Delta draws at the fixed coordinates (v, j), so
  // regeneration is stateless and repeatable; every value already present
  // when j is processed came from an earlier iteration and is <= j - 1, so
  // the fallback j always appends at the end and the row stays sorted.
  for (std::uint64_t j = n_ - delta_; j < n_; ++j) {
    const auto t = static_cast<NodeId>(rng_.bounded(v, j, j + 1));
    const auto it = std::lower_bound(out.begin(), out.end(), t);
    if (it != out.end() && *it == t) {
      out.push_back(static_cast<NodeId>(j));
    } else {
      out.insert(it, t);
    }
  }
}

BipartiteGraph ImplicitRegularTopology::materialize() const {
  std::vector<EdgeId> offsets(static_cast<std::size_t>(n_) + 1);
  for (std::size_t v = 0; v < offsets.size(); ++v) offsets[v] = v * delta_;
  std::vector<NodeId> adj(offsets.back());
  std::vector<NodeId> row;
  for (NodeId v = 0; v < n_; ++v) {
    neighbors(v, row);
    std::copy(row.begin(), row.end(),
              adj.begin() + static_cast<std::ptrdiff_t>(offsets[v]));
  }
  return BipartiteGraph::from_client_rows(n_, n_, std::move(offsets),
                                          std::move(adj));
}

}  // namespace saer
