#include "graph/graph_io.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

namespace saer {

void write_graph(std::ostream& os, const BipartiteGraph& g) {
  os << "saer-bipartite 1\n";
  os << g.num_clients() << ' ' << g.num_servers() << ' ' << g.num_edges()
     << '\n';
  for (NodeId v = 0; v < g.num_clients(); ++v)
    for (NodeId u : g.client_neighbors(v)) os << v << ' ' << u << '\n';
  if (!os) throw std::runtime_error("write_graph: stream failure");
}

void save_graph(const std::string& path, const BipartiteGraph& g) {
  std::ofstream file(path);
  if (!file) throw std::runtime_error("save_graph: cannot open " + path);
  write_graph(file, g);
}

namespace {

/// Bytes left in a seekable stream, or 0 when the stream cannot tell.
std::uint64_t remaining_bytes(std::istream& is) {
  const std::istream::pos_type here = is.tellg();
  if (here == std::istream::pos_type(-1)) return 0;
  is.seekg(0, std::ios::end);
  const std::istream::pos_type end = is.tellg();
  is.seekg(here);
  return end > here ? static_cast<std::uint64_t>(end - here) : 0;
}

}  // namespace

BipartiteGraph read_graph(std::istream& is) {
  std::string line;
  std::uint64_t line_no = 0;
  const auto fail = [&line_no](const std::string& what) {
    throw std::runtime_error("read_graph: line " + std::to_string(line_no) +
                             ": " + what);
  };
  auto next_content_line = [&]() -> std::string {
    while (std::getline(is, line)) {
      ++line_no;
      if (!line.empty() && line[0] != '#') return line;
    }
    throw std::runtime_error("read_graph: unexpected end of input after line " +
                             std::to_string(line_no));
  };

  std::istringstream header(next_content_line());
  std::string magic;
  int version = 0;
  header >> magic >> version;
  if (magic != "saer-bipartite" || version != 1) fail("bad header");

  std::istringstream sizes(next_content_line());
  std::uint64_t nc = 0, ns = 0, m = 0;
  sizes >> nc >> ns >> m;
  if (!sizes) fail("bad size line");
  constexpr std::uint64_t kMaxCount = std::numeric_limits<NodeId>::max();
  if (nc > kMaxCount || ns > kMaxCount)
    fail("client or server count above " + std::to_string(kMaxCount));

  // An edge line takes at least 4 bytes ("v u\n"), so the input bounds the
  // edges it can hold; a header's count alone never sizes an allocation.
  // Unseekable streams grow the vector as lines arrive.
  std::vector<Edge> edges;
  edges.reserve(std::min(m, remaining_bytes(is) / 4));
  for (std::uint64_t i = 0; i < m; ++i) {
    std::istringstream row(next_content_line());
    std::uint64_t v = 0, u = 0;
    row >> v >> u;
    if (!row) fail("bad edge line");
    if (v >= nc)
      fail("client id " + std::to_string(v) + " not below " +
           std::to_string(nc));
    if (u >= ns)
      fail("server id " + std::to_string(u) + " not below " +
           std::to_string(ns));
    edges.push_back({static_cast<NodeId>(v), static_cast<NodeId>(u)});
  }
  return BipartiteGraph::from_edges(static_cast<NodeId>(nc),
                                    static_cast<NodeId>(ns), std::move(edges));
}

BipartiteGraph load_graph(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("load_graph: cannot open " + path);
  return read_graph(file);
}

}  // namespace saer
