#include "graph/bipartite_graph.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace saer {

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
    const auto first = adj.begin() + static_cast<std::ptrdiff_t>(offsets[v]);
    const auto last = adj.begin() + static_cast<std::ptrdiff_t>(offsets[v + 1]);
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
