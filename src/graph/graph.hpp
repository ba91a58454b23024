// Undirected simple graph as one struct-of-arrays CSR slab.
//
// Vertices are 0..n-1. In the LOCAL-model terminology of the paper these are
// the network *nodes*; a node's unique ID is its index (generators can also
// attach a random relabeling where ID symmetry matters, e.g. the Theorem 9
// lower-bound experiment).
//
// Storage is exactly two flat allocations - `offsets_` (n+1 EdgeIndex
// entries) and `adj_` (2m VertexId entries, each neighbor list sorted
// ascending) - in the compact 32-bit id types of graph/ids.hpp. Bulk ingest goes through adopt_csr (a
// move, no copy) or assign_csr (a copy into reused storage for hot-path
// ball rebuilds); both are fed by graph/csr.hpp's CsrAssembler and the
// streaming generators without any vector<vector<int>> staging.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/ids.hpp"

namespace chordal {

class GraphBuilder;

class Graph {
 public:
  Graph() = default;

  int num_vertices() const { return n_; }
  std::size_t num_edges() const { return edge_count_; }

  /// Sorted neighbor list of v.
  std::span<const VertexId> neighbors(int v) const {
    return {adj_.data() + offsets_[v],
            static_cast<std::size_t>(offsets_[v + 1] - offsets_[v])};
  }

  int degree(int v) const {
    return static_cast<int>(offsets_[v + 1] - offsets_[v]);
  }

  /// The raw offset slab (size n+1, monotone); for audits and memory
  /// accounting.
  std::span<const EdgeIndex> offsets_span() const { return offsets_; }

  /// O(log deg) membership test.
  bool has_edge(int u, int v) const;

  /// Maximum degree Delta(G).
  int max_degree() const;

  /// All edges as (u, v) pairs with u < v.
  std::vector<std::pair<int, int>> edges() const;

  /// Subgraph induced by `vertices` (need not be sorted; duplicates are an
  /// error). Vertex i of the result corresponds to vertices[i]; the original
  /// index is returned in `original_of` when non-null.
  Graph induced_subgraph(std::span<const VertexId> vertices,
                         std::vector<int>* original_of = nullptr) const;

  /// Rebuilds this graph in place from a compressed adjacency the caller
  /// assembled directly (offsets of size n+1; each neighbor list sorted
  /// ascending, symmetric, loop-free - unchecked). Reuses the existing
  /// storage, so hot paths can rebuild ball subgraphs without allocating.
  void assign_csr(int n, std::span<const EdgeIndex> offsets,
                  std::span<const VertexId> adj);

  /// Takes ownership of fully assembled CSR slabs (offsets of size n+1 with
  /// offsets[n] == adj.size(); rows sorted ascending, symmetric, loop-free -
  /// only the sizes are checked). This is the bulk-move ingest used by the
  /// streaming generators and CsrAssembler: no element is copied.
  void adopt_csr(int n, std::vector<EdgeIndex>&& offsets,
                 std::vector<VertexId>&& adj);

  /// Bytes resident in the two CSR slabs (capacity, not size - what the
  /// process actually holds).
  std::size_t memory_bytes() const {
    return offsets_.capacity() * sizeof(EdgeIndex) +
           adj_.capacity() * sizeof(VertexId);
  }

  /// Human-readable one-line summary, e.g. "Graph(n=23, m=31)".
  std::string summary() const;

 private:
  friend class GraphBuilder;
  int n_ = 0;
  std::size_t edge_count_ = 0;
  std::vector<EdgeIndex> offsets_;  // size n_+1
  std::vector<VertexId> adj_;       // concatenated sorted neighbor lists
};

/// Incremental edge-list builder; deduplicates edges and rejects loops.
/// Convenient for small and mid-size construction sites; bulk ingest paths
/// (file readers, million-node generators) should use graph/csr.hpp's
/// CsrAssembler or stream straight into adopt_csr instead, which stage one
/// copy less.
class GraphBuilder {
 public:
  explicit GraphBuilder(int n);

  int num_vertices() const { return n_; }
  void add_edge(int u, int v);

  /// Finalizes into a Graph. Sorts and deduplicates the staged edge list in
  /// place (no second staging copy); the builder remains usable afterwards.
  Graph build();

 private:
  int n_;
  std::vector<std::pair<int, int>> edges_;
};

}  // namespace chordal
