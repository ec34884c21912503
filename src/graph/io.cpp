#include "graph/io.hpp"

#include <fstream>
#include <sstream>

#include "graph/builder.hpp"

namespace sfs::graph {
namespace {

constexpr const char* kMagic = "sfsearch-graph v1";

/// Reads the next content line (skipping blank lines and '#' comments).
bool next_line(std::istream& in, std::string& line) {
  while (std::getline(in, line)) {
    const auto pos = line.find('#');
    if (pos != std::string::npos) line.erase(pos);
    // Trim trailing whitespace / CR.
    while (!line.empty() && (line.back() == ' ' || line.back() == '\t' ||
                             line.back() == '\r'))
      line.pop_back();
    std::size_t start = 0;
    while (start < line.size() && (line[start] == ' ' || line[start] == '\t'))
      ++start;
    line.erase(0, start);
    if (!line.empty()) return true;
  }
  return false;
}

}  // namespace

void write_edge_list(std::ostream& out, const Graph& g) {
  out << kMagic << '\n';
  out << g.num_vertices() << ' ' << g.num_edges() << '\n';
  for (const Edge& e : g.edges()) out << e.tail << ' ' << e.head << '\n';
}

Graph read_edge_list(std::istream& in) {
  std::string line;
  SFS_REQUIRE(next_line(in, line), "empty graph stream");
  SFS_REQUIRE(line == kMagic, "bad magic line: expected 'sfsearch-graph v1'");

  SFS_REQUIRE(next_line(in, line), "missing header line");
  std::istringstream header(line);
  std::size_t n = 0;
  std::size_t m = 0;
  SFS_REQUIRE(static_cast<bool>(header >> n >> m), "malformed header line");

  validate_edge_capacity(m);

  // No reserve from the header's count: it is unverified until the rows
  // arrive, and a lying header must fail as a truncated list, not as a
  // multi-gigabyte allocation.
  GraphBuilder b(n);
  for (std::size_t i = 0; i < m; ++i) {
    SFS_REQUIRE(next_line(in, line), "truncated edge list");
    std::istringstream row(line);
    std::uint64_t tail = 0;
    std::uint64_t head = 0;
    SFS_REQUIRE(static_cast<bool>(row >> tail >> head), "malformed edge line");
    SFS_REQUIRE(tail < n && head < n, "edge endpoint out of range");
    b.add_edge(static_cast<VertexId>(tail), static_cast<VertexId>(head));
  }
  return b.build();
}

std::string to_string(const Graph& g) {
  std::ostringstream os;
  write_edge_list(os, g);
  return os.str();
}

Graph from_string(const std::string& text) {
  std::istringstream is(text);
  return read_edge_list(is);
}

// The three raw throws below are deliberate: a missing or unwritable file
// is an environmental I/O failure, not a caller precondition or library
// invariant, and std::runtime_error is this API's documented contract
// (SFS_REQUIRE/SFS_CHECK would misclassify it as invalid_argument or
// logic_error).
void save(const std::string& path, const Graph& g) {
  std::ofstream f(path);
  // SFS_LINT_ALLOW(check-discipline): environmental I/O failure; runtime_error is the documented contract
  if (!f) throw std::runtime_error("cannot open for writing: " + path);
  write_edge_list(f, g);
  // SFS_LINT_ALLOW(check-discipline): environmental I/O failure; runtime_error is the documented contract
  if (!f) throw std::runtime_error("write failed: " + path);
}

Graph load(const std::string& path) {
  std::ifstream f(path);
  // SFS_LINT_ALLOW(check-discipline): environmental I/O failure; runtime_error is the documented contract
  if (!f) throw std::runtime_error("cannot open for reading: " + path);
  return read_edge_list(f);
}

}  // namespace sfs::graph
