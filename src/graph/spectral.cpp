#include "graph/spectral.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/rng.hpp"

namespace saer {

namespace {

/// One application of the symmetrized projection-walk operator
/// M = D^{1/2} P D^{-1/2}, where P is the client->server->client walk.
/// Isolated clients act as absorbing states (P row = identity).
void apply_m(const BipartiteGraph& g, const std::vector<double>& sqrt_deg,
             const std::vector<double>& y, std::vector<double>& scratch_server,
             std::vector<double>& out) {
  const NodeId nc = g.num_clients();
  // s[u] = sum_{w in N(u)} x[w] with x = D^{-1/2} y, pushed along client
  // rows: each server adds its terms in ascending w from 0.0, the order a
  // scan of N(u) would take, so the sums are the same doubles.
  std::fill(scratch_server.begin(), scratch_server.end(), 0.0);
  for (NodeId w = 0; w < nc; ++w) {
    const double x = sqrt_deg[w] > 0 ? y[w] / sqrt_deg[w] : y[w];
    for (NodeId u : g.client_neighbors(w)) scratch_server[u] += x;
  }
  // (P x)[v] = (1/deg v) sum_{u in N(v)} s[u] / deg(u); out = D^{1/2} P x.
  for (NodeId v = 0; v < nc; ++v) {
    const auto nb = g.client_neighbors(v);
    if (nb.empty()) {
      out[v] = y[v];  // absorbing isolated client
      continue;
    }
    double acc = 0;
    for (NodeId u : nb) {
      const double du = g.server_degree(u);
      if (du > 0) acc += scratch_server[u] / du;
    }
    // (1/deg v) * acc, then multiply by sqrt(deg v).
    out[v] = acc / sqrt_deg[v];
  }
}

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double norm(const std::vector<double>& a) { return std::sqrt(dot(a, a)); }

}  // namespace

SpectralEstimate estimate_lambda2(const BipartiteGraph& g,
                                  std::uint32_t iterations, double tolerance,
                                  std::uint64_t seed) {
  SpectralEstimate est;
  const NodeId nc = g.num_clients();
  if (nc == 0 || g.num_edges() == 0) return est;

  std::vector<double> sqrt_deg(nc);
  for (NodeId v = 0; v < nc; ++v)
    sqrt_deg[v] = std::sqrt(static_cast<double>(g.client_degree(v)));

  // Top eigenvector of M is phi ~ D^{1/2} 1 (restricted to non-isolated
  // clients); deflating it exposes lambda_2.
  std::vector<double> phi = sqrt_deg;
  {
    const double pn = norm(phi);
    if (pn == 0) return est;
    for (double& p : phi) p /= pn;
  }

  Xoshiro256ss rng(seed);
  std::vector<double> y(nc);
  for (double& v : y) v = rng.uniform(-1.0, 1.0);
  std::vector<double> next(nc), scratch(g.num_servers());

  auto deflate = [&](std::vector<double>& vec) {
    const double coeff = dot(vec, phi);
    for (NodeId v = 0; v < nc; ++v) vec[v] -= coeff * phi[v];
  };

  deflate(y);
  double yn = norm(y);
  if (yn == 0) {  // pathological start; re-randomize deterministically
    for (double& v : y) v = rng.uniform(0.0, 1.0);
    deflate(y);
    yn = norm(y);
    if (yn == 0) return est;
  }
  for (double& v : y) v /= yn;

  double lambda_prev = 2.0;
  for (std::uint32_t it = 1; it <= iterations; ++it) {
    apply_m(g, sqrt_deg, y, scratch, next);
    deflate(next);
    const double rayleigh = dot(y, next);  // y is unit: lambda estimate
    const double nn = norm(next);
    est.iterations = it;
    est.lambda2 = std::abs(rayleigh);
    if (nn < 1e-300) {  // orthogonal complement annihilated: lambda2 ~ 0
      est.lambda2 = 0.0;
      est.converged = true;
      break;
    }
    for (NodeId v = 0; v < nc; ++v) y[v] = next[v] / nn;
    if (std::abs(est.lambda2 - lambda_prev) <=
        tolerance * std::max(1.0, std::abs(est.lambda2))) {
      est.converged = true;
      break;
    }
    lambda_prev = est.lambda2;
  }
  return est;
}

}  // namespace saer
