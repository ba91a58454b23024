// The clique forest of a chordal graph: the unique maximum weight spanning
// forest of the weighted clique intersection graph W_G under the paper's
// deterministic edge order (Theorem 2 + the Section 3 tie-breaking rule).
//
// The forest is found without enumerating W_G (whose size is
// Theta(sum_v |phi(v)|^2)): a clique tree T from clique-level maximum
// cardinality search yields the distinct minimal separators, and each
// separator S contributes only the pairs (a, top(S)) with C_a cut C_top = S,
// where top(S) is the highest-rank clique containing S. By the cycle
// property no other W_G edge can be chosen, so Kruskal over these
// candidates selects exactly the forest the full W_G would give.
//
// Storage is flat struct-of-arrays throughout: the clique family is a
// CliqueFamily (two slabs), and both the forest adjacency and the
// vertex->clique membership map phi are CSR slabs in the compact id types
// of graph/ids.hpp. Query paths hand out spans; nothing on this class
// allocates per call.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "cliqueforest/family.hpp"
#include "cliqueforest/wcig.hpp"
#include "graph/graph.hpp"

namespace chordal {

/// Reusable scratch for the clique-forest engine (in the style of
/// local/workspace.hpp): flat buffers that keep their capacity across
/// calls, so neither the whole-family MWSF nor the per-family selection
/// allocates once warm. The per-family selection also never clears an
/// O(n) array (its vertex tables are epoch-stamped); the whole-family MWSF
/// is O(n) per call anyway and resets its per-vertex state. One scratch per
/// worker thread; a scratch must not be shared between concurrent calls.
struct ForestScratch {
  /// Grows the stamped vertex tables to cover ids [0, n) (no-op once
  /// sized). Called by family_forest_edges.
  void ensure_vertices(int n) {
    auto size = static_cast<std::size_t>(n);
    if (vertex_stamp.size() < size) {
      vertex_stamp.resize(size, 0);
      vertex_head.resize(size, -1);
    }
  }

  std::uint64_t epoch = 0;
  std::vector<std::uint64_t> vertex_stamp;  // per vertex id, touch epoch
  std::vector<int> vertex_head;  // last entry of the vertex's occ chain
  std::vector<int> counts;               // counting-sort histogram
  std::vector<int> uf_parent, uf_rank;   // scratch union-find
  // Per-family selection (family_forest_edges).
  std::vector<std::pair<int, int>> occ;  // (clique, previous occ index)
  std::vector<int> weights;              // dense family weight matrix
  std::vector<int> pair_a, pair_b;       // bucketed family pairs
  // Whole-family MWSF (max_weight_spanning_forest).
  struct Cover {
    int first_step = -1;  // visit step of the clique that first covered v
    int last = -1;        // latest visited clique containing v
  };
  std::vector<EdgeIndex> member_offsets;  // phi, when the caller has none
  std::vector<CliqueId> member;
  std::vector<int> ranks;                 // non-canonical families only
  std::vector<Cover> cover;               // per vertex, MCS state
  std::vector<int> covered;               // per clique, visited vertices
  std::vector<int> bucket_head;           // MCS queue: stack per count
  std::vector<std::pair<int, int>> queue;  // (clique, next) entry arena
  std::vector<int> visit_order;           // clique tree T, by visit step
  std::vector<int> visit_step;            // per clique
  std::vector<int> parent;                // per clique, -1 for roots
  std::vector<EdgeIndex> label_offsets;   // per step: C cut C_parent
  std::vector<VertexId> labels;
  std::vector<int> vertex_mark;           // separator / top stamps
  std::vector<int> clique_mark;           // separator stamps
  std::vector<char> seen;                 // per T-edge: label handled
  std::vector<int> supersets;             // cliques containing a separator
  std::vector<WcigEdge> edges, edges_tmp;  // candidates, radix buffer
};

class CliqueForest {
 public:
  /// Full pipeline: verify chordality, extract maximal cliques, and select
  /// the unique MWSF of W_G (see max_weight_spanning_forest).
  static CliqueForest build(const Graph& g);

  /// Builds the forest over an explicitly given (canonical, sorted) family
  /// of maximal cliques. `num_graph_vertices` is n of the underlying graph.
  static CliqueForest from_family(CliqueFamily cliques,
                                  int num_graph_vertices);

  /// Nested-vector convenience form of from_family (tests, oracles).
  static CliqueForest from_cliques(std::vector<std::vector<int>> cliques,
                                   int num_graph_vertices);

  int num_cliques() const { return static_cast<int>(cliques_.size()); }
  int num_graph_vertices() const { return num_graph_vertices_; }

  const CliqueFamily& cliques() const { return cliques_; }
  CliqueWord clique(int c) const { return cliques_[static_cast<std::size_t>(c)]; }

  /// Forest adjacency (sorted) over clique indices.
  std::span<const CliqueId> forest_neighbors(int c) const {
    return {adj_.data() + adj_offsets_[c],
            static_cast<std::size_t>(adj_offsets_[c + 1] - adj_offsets_[c])};
  }
  int forest_degree(int c) const {
    return static_cast<int>(adj_offsets_[c + 1] - adj_offsets_[c]);
  }
  std::vector<std::pair<int, int>> forest_edges() const;

  /// phi(v): sorted clique indices containing vertex v. The induced
  /// sub-forest is the subtree T(v) of the paper.
  std::span<const CliqueId> cliques_of(int v) const {
    return {member_.data() + member_offsets_[v],
            static_cast<std::size_t>(member_offsets_[v + 1] -
                                     member_offsets_[v])};
  }

  /// Checks the tree-decomposition axioms plus acyclicity against g.
  /// Intended for tests; throws std::logic_error with a description of the
  /// first violated property.
  void verify(const Graph& g) const;

  /// Bytes resident across all slabs (capacities).
  std::size_t memory_bytes() const {
    return cliques_.memory_bytes() +
           adj_offsets_.capacity() * sizeof(EdgeIndex) +
           adj_.capacity() * sizeof(CliqueId) +
           member_offsets_.capacity() * sizeof(EdgeIndex) +
           member_.capacity() * sizeof(CliqueId);
  }

 private:
  CliqueFamily cliques_;
  std::vector<EdgeIndex> adj_offsets_;     // num_cliques+1; forest adjacency
  std::vector<CliqueId> adj_;              // concatenated sorted rows
  std::vector<EdgeIndex> member_offsets_;  // n+1; phi as a CSR slab
  std::vector<CliqueId> member_;           // ascending clique ids per vertex
  int num_graph_vertices_ = 0;
};

/// The edges of the unique MWSF of the W_G induced by `cliques`, in the
/// order Kruskal chooses them (decreasing deterministic order), exactly as
/// max_weight_spanning_forest_reference emits them. Allocating form of the
/// scratch overload below.
std::vector<WcigEdge> max_weight_spanning_forest(const CliqueFamily& cliques,
                                                 int num_graph_vertices);

/// The engine. It never enumerates W_G; its cost is
/// O(sum |C| log n + sum_S sum_{a in phi(s_S)} |C_a|), near-linear on every
/// workload in this repo (one to a few candidates per clique):
///   1. clique-level maximum cardinality search (Tarjan-Yannakakis) with
///      lazy bucket stacks on covered counts builds a clique tree T; each
///      clique's parent is the latest-visited first-cover clique of its
///      covered vertices, and its label C cut C_parent is the covered set;
///   2. the distinct labels of T are the minimal separators S (an equal
///      label of a later T-edge is flagged while S is processed);
///   3. for each S, top(S) is the highest-rank clique containing S, found
///      in phi(s_S) for the s_S in S with the smallest phi; every other
///      a in phi(s_S) with C_a cut C_top == S yields the candidate
///      (a, top(S), |S|);
///   4. Kruskal over the candidates in the paper's decreasing order
///      (weight, then (min rank, max rank)), sorted by counting passes.
/// Exact by the cycle property: if a clique c of higher rank than both a
/// and b contains C_a cut C_b, then (a,c) and (b,c) precede (a,b), which
/// can never be chosen; and every MWSF edge is a clique-tree edge, labelled
/// by a minimal separator. Ranks are lexicographic word ranks (identity for
/// canonical sorted families, clique_lex_ranks otherwise), so any ordering
/// of the family works. The family must admit a clique tree - true of the
/// maximal cliques of every chordal graph; a family that does not (T fails
/// the running-intersection check) raises std::invalid_argument, and a
/// vertex outside [0, num_graph_vertices) raises std::out_of_range.
void max_weight_spanning_forest(const CliqueFamily& cliques,
                                int num_graph_vertices,
                                ForestScratch& scratch,
                                std::vector<WcigEdge>& out);

/// The original allocating construction (full W_G enumeration via
/// wcig_edges + O(omega) comparator sort + fresh UnionFind), kept verbatim
/// as the differential oracle for the engine: only
/// audit_forest_engine_parity, tests and benches call it, never a library
/// build path. Works on any family, including ones with no clique tree.
/// The CliqueFamily form expands to the nested representation first - it
/// is a cold path by definition.
std::vector<WcigEdge> max_weight_spanning_forest_reference(
    const std::vector<std::vector<int>>& cliques, int num_graph_vertices);
std::vector<WcigEdge> max_weight_spanning_forest_reference(
    const CliqueFamily& cliques, int num_graph_vertices);

/// Per-family MWSF for local views (Lemma 2): selects the spanning forest
/// of W restricted to the family {cliques[c] : c in family} and appends the
/// chosen edges to `out` as (min, max) pairs of clique indices. Requires
/// `cliques` strictly lexicographically sorted (so rank == index and the
/// paper's word tie-breaks are integer comparisons), `family` ascending,
/// and every pair of family cliques intersecting (they share the defining
/// vertex u, making W[phi(u)] complete) - exactly the shape
/// compute_local_view produces. Touches only family-sized scratch: no O(n)
/// membership array, no allocations once the scratch is warm.
void family_forest_edges(const CliqueFamily& cliques,
                         std::span<const CliqueId> family,
                         ForestScratch& scratch,
                         std::vector<std::pair<int, int>>& out);

}  // namespace chordal
