#include "graph/graphio.hpp"

#include <limits>
#include <sstream>
#include <stdexcept>

#include "graph/csr.hpp"
#include "graph/ids.hpp"
#include "obs/metrics.hpp"

namespace chordal {

void write_graph(std::ostream& out, const Graph& g) {
  out << g.num_vertices() << ' ' << g.num_edges() << '\n';
  for (auto [u, v] : g.edges()) out << u << ' ' << v << '\n';
}

Graph read_graph(std::istream& in) {
  // Every field is validated before it reaches the assembler, so a hostile
  // or truncated stream produces a runtime_error naming the offending line
  // (line 1 is the "n m" header; edge i lives on line i + 2 of the
  // canonical format) instead of a builder error with no input context.
  // Edges stream straight into CsrAssembler's flat endpoint buffer - no
  // adjacency-list staging - and the telemetry below reports how many input
  // bytes became how many resident slab bytes.
  const std::streampos start_pos = in.tellg();
  auto consumed_bytes = [&in, start_pos]() -> long long {
    const std::streampos here = in.tellg();
    if (start_pos == std::streampos(-1) || here == std::streampos(-1)) {
      return -1;
    }
    return static_cast<long long>(here - start_pos);
  };
  auto fail = [](long long line, const std::string& what) {
    throw std::runtime_error("read_graph: line " + std::to_string(line) +
                             ": " + what);
  };
  long long n = 0;
  long long m = 0;
  if (!(in >> n)) fail(1, "malformed header (expected vertex count)");
  if (n < 0) fail(1, "negative vertex count " + std::to_string(n));
  // The id-width guard: a header beyond VertexId raises the typed overflow
  // error instead of truncating into the slab types.
  const long long vertex_bound =
      static_cast<long long>(std::numeric_limits<VertexId>::max());
  if (n > vertex_bound) {
    throw IdOverflowError(
        "read_graph: line 1: vertex count " + std::to_string(n) +
        " overflows the 32-bit vertex id space [0, " +
        std::to_string(vertex_bound) + "]");
  }
  if (!(in >> m)) fail(1, "malformed header (expected edge count)");
  if (m < 0) fail(1, "negative edge count " + std::to_string(m));
  long long max_edges = n * (n - 1) / 2;
  if (m > max_edges) {
    fail(1, "edge count " + std::to_string(m) + " exceeds n*(n-1)/2 = " +
                std::to_string(max_edges) + " for n = " + std::to_string(n));
  }
  CsrAssembler assembler(n);
  for (long long i = 0; i < m; ++i) {
    long long line = i + 2;
    long long u = 0, v = 0;
    if (!(in >> u >> v)) {
      const long long bytes = consumed_bytes();
      fail(line, "truncated edge list (expected " + std::to_string(m) +
                     " edges, got " + std::to_string(i) +
                     (bytes >= 0 ? "; consumed " + std::to_string(bytes) +
                                       " input bytes, " +
                                       std::to_string(assembler.staged_bytes()) +
                                       " staged"
                                 : "") +
                     ")");
    }
    if (u < 0 || u >= n || v < 0 || v >= n) {
      fail(line, "endpoint out of range in edge (" + std::to_string(u) +
                     ", " + std::to_string(v) + "), valid vertices are [0, " +
                     std::to_string(n) + ")");
    }
    if (u == v) fail(line, "self-loop at vertex " + std::to_string(u));
    assembler.add_edge(u, v);
  }
  const long long staged = static_cast<long long>(assembler.staged_bytes());
  Graph g = assembler.finish();
  if (obs::Registry* reg = obs::current()) {
    const long long bytes = consumed_bytes();
    if (bytes >= 0) {
      reg->gauge("io.read_graph.input_bytes").set(static_cast<double>(bytes));
    }
    reg->gauge("io.read_graph.staged_peak_bytes")
        .set(static_cast<double>(staged));
    reg->gauge("io.read_graph.resident_bytes")
        .set(static_cast<double>(g.memory_bytes()));
  }
  return g;
}

std::string graph_to_string(const Graph& g) {
  std::ostringstream out;
  write_graph(out, g);
  return out.str();
}

Graph graph_from_string(const std::string& text) {
  std::istringstream in(text);
  return read_graph(in);
}

}  // namespace chordal
