// Random-topology generators: regular (union of matchings with repair),
// Erdos-Renyi (geometric skipping), and power-law client degrees.

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <unordered_set>

#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace saer {

namespace {

/// Fisher-Yates shuffle of `perm` with the given generator.
void shuffle_ids(std::vector<NodeId>& perm, Xoshiro256ss& rng) {
  for (std::size_t i = perm.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.bounded(i));
    std::swap(perm[i - 1], perm[j]);
  }
}

/// Sample `k` distinct values from [0, n) (Floyd's algorithm), sorted.
std::vector<NodeId> sample_distinct(NodeId n, std::uint32_t k, Xoshiro256ss& rng) {
  if (k > n) throw std::invalid_argument("sample_distinct: k > n");
  // saer-lint: allow(unordered-iter) -- membership-only; emitted sorted below
  std::unordered_set<NodeId> chosen;
  chosen.reserve(k * 2);
  for (NodeId j = n - k; j < n; ++j) {
    const auto t = static_cast<NodeId>(rng.bounded(static_cast<std::uint64_t>(j) + 1));
    if (!chosen.insert(t).second) chosen.insert(j);
  }
  // saer-lint: allow(unordered-iter) -- order normalized by the sort below
  std::vector<NodeId> out(chosen.begin(), chosen.end());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

BipartiteGraph complete_bipartite(NodeId num_clients, NodeId num_servers) {
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(num_clients) * num_servers);
  for (NodeId v = 0; v < num_clients; ++v)
    for (NodeId u = 0; u < num_servers; ++u) edges.push_back({v, u});
  return BipartiteGraph::from_edges(num_clients, num_servers, std::move(edges));
}

BipartiteGraph random_regular(NodeId n, std::uint32_t delta, std::uint64_t seed) {
  if (delta == 0 || delta > n)
    throw std::invalid_argument("random_regular: need 0 < delta <= n");
  if (delta == n) return complete_bipartite(n, n);  // unique delta-regular graph
  Xoshiro256ss rng(seed);

  // servers[v*delta + m] = server matched to client v in the m-th matching.
  // Client-major layout: the repair pass below scans one client's row per
  // query, so the row must be contiguous (the former matching-major layout
  // made every repair query touch delta cache lines and dominated the
  // build).  Each matching is still sampled as an independent shuffle of
  // the identity, drawing the same RNG sequence as before.  Matchings are
  // shuffled two at a time, so one strided pass over the matrix writes two
  // columns of each row.
  std::vector<NodeId> servers(static_cast<std::size_t>(n) * delta);
  std::vector<NodeId> perm_a(n);
  std::vector<NodeId> perm_b(n);
  for (std::uint32_t m = 0; m < delta; m += 2) {
    const bool pair = m + 1 < delta;
    std::iota(perm_a.begin(), perm_a.end(), NodeId{0});
    shuffle_ids(perm_a, rng);
    if (pair) {
      std::iota(perm_b.begin(), perm_b.end(), NodeId{0});
      shuffle_ids(perm_b, rng);
    }
    NodeId* col = servers.data() + m;
    for (NodeId v = 0; v < n; ++v, col += delta) {
      col[0] = perm_a[v];
      if (pair) col[1] = perm_b[v];
    }
  }
  const auto row = [&](NodeId v) {
    return servers.data() + static_cast<std::size_t>(v) * delta;
  };

  // Repair pass: a "conflict" is client v appearing with the same server in
  // two matchings.  Swapping v's server in matching m with another client
  // w's server in the same matching preserves regularity on both sides.  A
  // swap is "safe" when it removes v's conflict without creating one at v or
  // w, so every safe swap strictly reduces the number of conflicts; unsafe
  // "shake" swaps (with requeue) perturb the rare configurations where no
  // sampled partner is safe.  Expected conflicts are ~delta^2/2 in total and
  // each is fixed in O(delta) expected time, so repair is cheap next to the
  // O(n*delta) shuffles above.
  auto client_has_elsewhere = [&](NodeId v, std::uint32_t m, NodeId server) {
    const NodeId* r = row(v);
    return std::find(r, r + m, server) != r + m ||
           std::find(r + m + 1, r + delta, server) != r + delta;
  };
  auto has_conflict = [&](NodeId v, std::uint32_t m) {
    return client_has_elsewhere(v, m, row(v)[m]);
  };

  std::vector<std::pair<NodeId, std::uint32_t>> queue;
  {
    // Initial conflict collection in O(n*delta) with an epoch-stamped
    // seen table: stamp[s] == epoch once the current row has held s.
    std::vector<std::uint32_t> stamp(n, 0);
    std::uint32_t epoch = 0;
    for (NodeId v = 0; v < n; ++v) {
      ++epoch;
      const NodeId* r = row(v);
      for (std::uint32_t m = 0; m < delta; ++m) {
        const NodeId s = r[m];
        if (stamp[s] == epoch)
          queue.emplace_back(v, m);  // repeats an earlier entry of the row
        else
          stamp[s] = epoch;
      }
    }
  }

  const std::uint64_t max_fixes =
      1000 + 64ULL * static_cast<std::uint64_t>(queue.size() + delta);
  std::uint64_t fixes = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const auto [v, m] = queue[head];
    if (!has_conflict(v, m)) continue;  // stale entry
    if (++fixes > max_fixes)
      throw std::runtime_error("random_regular: repair did not converge");
    bool fixed = false;
    for (int attempt = 0; attempt < 256 && !fixed; ++attempt) {
      const auto w = static_cast<NodeId>(rng.bounded(n));
      if (w == v) continue;
      const NodeId sv = row(v)[m];
      const NodeId sw = row(w)[m];
      if (sv == sw) continue;
      if (client_has_elsewhere(v, m, sw) || client_has_elsewhere(w, m, sv))
        continue;  // swap would not be safe
      std::swap(row(v)[m], row(w)[m]);
      fixed = true;
    }
    if (!fixed) {
      // Shake: unsafe swap with a random partner; both ends are requeued
      // because either may now conflict.
      const auto w = static_cast<NodeId>(rng.bounded(n));
      if (w != v) std::swap(row(v)[m], row(w)[m]);
      queue.emplace_back(v, m);
      queue.emplace_back(w, m);
    }
  }

  // The matrix is already the client rows at offsets v*delta; sorting each
  // row in place yields the graph the former matching-major edge list did.
  std::vector<EdgeId> offsets(static_cast<std::size_t>(n) + 1);
  for (std::size_t v = 0; v < offsets.size(); ++v) offsets[v] = v * delta;
  return BipartiteGraph::from_client_rows(n, n, std::move(offsets),
                                          std::move(servers));
}

BipartiteGraph erdos_renyi_bipartite(NodeId num_clients, NodeId num_servers,
                                     double p, std::uint64_t seed) {
  if (p < 0.0 || p > 1.0)
    throw std::invalid_argument("erdos_renyi_bipartite: p outside [0,1]");
  std::vector<Edge> edges;
  if (p > 0.0) {
    Xoshiro256ss rng(seed);
    if (p >= 1.0) return complete_bipartite(num_clients, num_servers);
    // Geometric skipping over the flattened nc*ns pair index.
    const double log1mp = std::log1p(-p);
    const auto total = static_cast<std::uint64_t>(num_clients) * num_servers;
    std::uint64_t idx = 0;
    while (true) {
      // Geometric skip: number of non-edges before the next edge is
      // Geometric(p), sampled as floor(log(1-U)/log(1-p)).
      const double r = rng.uniform01();
      const double skip = std::floor(std::log1p(-r) / log1mp);
      idx += static_cast<std::uint64_t>(skip) + 1;
      if (idx > total) break;
      const std::uint64_t flat = idx - 1;
      edges.push_back({static_cast<NodeId>(flat / num_servers),
                       static_cast<NodeId>(flat % num_servers)});
    }
  }
  return BipartiteGraph::from_edges(num_clients, num_servers, std::move(edges));
}

BipartiteGraph power_law_clients(NodeId n, std::uint32_t min_delta,
                                 double exponent, std::uint64_t seed) {
  if (min_delta == 0 || min_delta > n)
    throw std::invalid_argument("power_law_clients: need 0 < min_delta <= n");
  if (exponent <= 1.0)
    throw std::invalid_argument("power_law_clients: exponent must be > 1");
  Xoshiro256ss rng(seed);
  std::vector<Edge> edges;
  for (NodeId v = 0; v < n; ++v) {
    // Bounded Pareto sample via inverse transform, truncated at n.
    const double u = rng.uniform01();
    const double raw =
        static_cast<double>(min_delta) / std::pow(1.0 - u, 1.0 / (exponent - 1.0));
    const auto deg = static_cast<std::uint32_t>(
        std::min<double>(std::max<double>(raw, min_delta), n));
    for (NodeId s : sample_distinct(n, deg, rng)) edges.push_back({v, s});
  }
  return BipartiteGraph::from_edges(n, n, std::move(edges));
}

std::uint32_t theorem_degree(NodeId n, double eta) {
  const double log2n = std::log2(static_cast<double>(n));
  const double d = eta * log2n * log2n;
  return static_cast<std::uint32_t>(
      std::min<double>(std::max(1.0, std::round(d)), static_cast<double>(n)));
}

}  // namespace saer
