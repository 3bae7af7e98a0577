#include "graph/bipartite_graph.hpp"

#include <algorithm>
#include <array>
#include <numeric>
#include <stdexcept>

namespace saer {

namespace {

// A 60-comparator sorting network for 16 keys (the fewest comparators
// known), in 10 layers: one per line, the last four two per line.  Each pair
// (i, j) leaves the smaller key at i.  tests/test_graph.cpp puts all 2^16
// 0/1 inputs through it, which by the 0-1 principle proves that it sorts.
constexpr std::array<std::array<std::uint8_t, 2>, 60> kSort16 = {{
    {0, 13}, {1, 12}, {2, 15}, {3, 14}, {4, 8}, {5, 6}, {7, 11}, {9, 10},
    {0, 5}, {1, 7}, {2, 9}, {3, 4}, {6, 13}, {8, 14}, {10, 15}, {11, 12},
    {0, 1}, {2, 3}, {4, 5}, {6, 8}, {7, 9}, {10, 11}, {12, 13}, {14, 15},
    {0, 2}, {1, 3}, {4, 10}, {5, 11}, {6, 7}, {8, 9}, {12, 14}, {13, 15},
    {1, 2}, {3, 12}, {4, 6}, {5, 7}, {8, 10}, {9, 11}, {13, 14},
    {1, 4}, {2, 6}, {5, 8}, {7, 10}, {9, 13}, {11, 14},
    {2, 4}, {3, 6}, {9, 12}, {11, 13}, {3, 5}, {6, 8}, {7, 9}, {10, 12},
    {3, 4}, {5, 6}, {7, 8}, {9, 10}, {11, 12}, {6, 7}, {8, 9}}};

/// Sorts a row of at most 16 ids with kSort16, padded with the largest id.
/// Unrolled, the keys stay in registers and each comparator is a
/// conditional move, so a random row costs no branch mispredictions.
void sort_short_row(NodeId* first, NodeId* last) {
  std::array<NodeId, 16> keys{};
  std::fill(std::copy(first, last, keys.begin()), keys.end(), ~NodeId{0});
#pragma GCC unroll 60
  for (const auto [i, j] : kSort16) {
    const NodeId a = keys[i];
    const NodeId b = keys[j];
    const NodeId lo = b < a ? b : a;
    keys[i] = lo;
    keys[j] = a ^ b ^ lo;
  }
  std::copy(keys.begin(), keys.begin() + (last - first), first);
}

}  // namespace

BipartiteGraph BipartiteGraph::from_edges(NodeId num_clients, NodeId num_servers,
                                          std::vector<Edge> edges,
                                          bool allow_multi_edges) {
  std::vector<EdgeId> offsets(static_cast<std::size_t>(num_clients) + 1, 0);
  for (const Edge& e : edges) {
    if (e.client >= num_clients)
      throw std::invalid_argument("BipartiteGraph: client id out of range");
    ++offsets[e.client + 1];
  }
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());

  std::vector<NodeId> adj(edges.size());
  {
    std::vector<EdgeId> cursor(offsets.begin(), offsets.end() - 1);
    for (const Edge& e : edges) adj[cursor[e.client]++] = e.server;
  }
  edges = std::vector<Edge>();  // release before the rows are sorted
  return from_client_rows(num_clients, num_servers, std::move(offsets),
                          std::move(adj), allow_multi_edges);
}

BipartiteGraph BipartiteGraph::from_client_rows(NodeId num_clients,
                                                NodeId num_servers,
                                                std::vector<EdgeId> offsets,
                                                std::vector<NodeId> adj,
                                                bool allow_multi_edges) {
  if (offsets.size() != static_cast<std::size_t>(num_clients) + 1 ||
      offsets.front() != 0 || offsets.back() != adj.size() ||
      !std::is_sorted(offsets.begin(), offsets.end()))
    throw std::invalid_argument(
        "BipartiteGraph: offsets must rise from 0 to adj.size() over "
        "num_clients + 1 entries");

  BipartiteGraph g;
  g.num_clients_ = num_clients;
  g.num_servers_ = num_servers;
  g.server_deg_.assign(num_servers, 0);
  for (NodeId v = 0; v < num_clients; ++v) {
    NodeId* const first = adj.data() + offsets[v];
    NodeId* const last = adj.data() + offsets[v + 1];
    // Below 5 ids std::sort's insertion sort is cheaper than 60 comparators.
    if (last - first > 4 && last - first <= 16)
      sort_short_row(first, last);
    else
      std::sort(first, last);
    if (first != last && *(last - 1) >= num_servers)
      throw std::invalid_argument("BipartiteGraph: server id out of range");
    if (!allow_multi_edges && std::adjacent_find(first, last) != last)
      throw std::invalid_argument("BipartiteGraph: duplicate edge");
    for (auto it = first; it != last; ++it) ++g.server_deg_[*it];
  }
  g.client_off_ = std::move(offsets);
  g.client_adj_ = std::move(adj);
  return g;
}

bool BipartiteGraph::has_edge(NodeId client, NodeId server) const noexcept {
  if (client >= num_clients_ || server >= num_servers_) return false;
  const auto nb = client_neighbors(client);
  return std::binary_search(nb.begin(), nb.end(), server);
}

std::vector<Edge> BipartiteGraph::edges() const {
  std::vector<Edge> out;
  out.reserve(client_adj_.size());
  for (NodeId v = 0; v < num_clients_; ++v)
    for (NodeId u : client_neighbors(v)) out.push_back({v, u});
  return out;
}

void BipartiteGraph::validate() const {
  if (client_off_.size() != static_cast<std::size_t>(num_clients_) + 1 ||
      server_deg_.size() != num_servers_)
    throw std::logic_error("BipartiteGraph: offset array size mismatch");
  if (client_off_.front() != 0)
    throw std::logic_error("BipartiteGraph: offsets must start at 0");
  if (client_off_.back() != client_adj_.size())
    throw std::logic_error("BipartiteGraph: offset/adjacency size mismatch");
  if (!std::is_sorted(client_off_.begin(), client_off_.end()))
    throw std::logic_error("BipartiteGraph: offsets not monotone");

  std::vector<std::uint32_t> recount(num_servers_, 0);
  for (NodeId v = 0; v < num_clients_; ++v) {
    const auto nb = client_neighbors(v);
    if (!std::is_sorted(nb.begin(), nb.end()))
      throw std::logic_error("BipartiteGraph: client adjacency not sorted");
    for (NodeId u : nb) {
      if (u >= num_servers_)
        throw std::logic_error("BipartiteGraph: server id out of range");
      ++recount[u];
    }
  }
  if (recount != server_deg_)
    throw std::logic_error(
        "BipartiteGraph: server degrees disagree with the client rows");
}

}  // namespace saer
