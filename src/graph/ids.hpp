// Compact id typedefs for the memory substrate.
//
// Every slab in the pipeline (Graph CSR, clique families, forest adjacency,
// membership maps, workspace assembly buffers) stores vertex and clique ids
// in these storage types. They are 32-bit - the production scale target of
// n = 10^6..10^7 vertices and up to ~10^9 adjacency slots fits comfortably,
// at half the resident bytes of 64-bit slabs. All algorithmic code computes
// on plain int (the public API contract caps n at INT_MAX), so a wider
// storage type would buy no larger input.
//
// Ingest paths (read_graph, CsrAssembler, the streaming generators) narrow
// 64-bit counts into these types through the checked_* helpers below, which
// throw a typed IdOverflowError instead of silently truncating.
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace chordal {

/// Storage type for graph vertex ids inside slabs.
using VertexId = std::int32_t;
/// Storage type for clique (bag) ids inside slabs.
using CliqueId = std::int32_t;
/// Storage type for CSR offsets (indices into adjacency slabs).
using EdgeIndex = std::int32_t;

/// Typed narrowing failure: a 64-bit count or id exceeds the 32-bit id
/// storage. Derives from std::range_error (hence std::runtime_error),
/// so existing hostile-input handling that catches runtime_error still
/// applies while tests can assert on the precise type.
class IdOverflowError : public std::range_error {
 public:
  using std::range_error::range_error;
};

namespace detail {

[[noreturn]] inline void throw_id_overflow(const char* what, long long value,
                                           long long max) {
  throw IdOverflowError(std::string(what) + ": value " +
                        std::to_string(value) +
                        " exceeds the 32-bit id range [0, " +
                        std::to_string(max) + "]");
}

}  // namespace detail

/// Narrows a vertex count or id into VertexId; throws IdOverflowError when
/// it does not fit (never silently truncates).
inline VertexId checked_vertex_id(long long value, const char* what) {
  constexpr long long kMax =
      static_cast<long long>(std::numeric_limits<VertexId>::max());
  if (value < 0 || value > kMax) detail::throw_id_overflow(what, value, kMax);
  return static_cast<VertexId>(value);
}

/// Narrows an adjacency-slot count (2m for a graph with m edges) into
/// EdgeIndex; throws IdOverflowError when it does not fit.
inline EdgeIndex checked_edge_index(long long value, const char* what) {
  constexpr long long kMax =
      static_cast<long long>(std::numeric_limits<EdgeIndex>::max());
  if (value < 0 || value > kMax) detail::throw_id_overflow(what, value, kMax);
  return static_cast<EdgeIndex>(value);
}

}  // namespace chordal
