// Weighted clique intersection graph W_G (Section 3 of the paper).
//
// Vertices of W_G are the maximal cliques of a chordal graph G; two cliques
// with a nonempty intersection are joined by an edge weighted by the
// intersection size. The paper's linear order < on edges (weight, then the
// lexicographically smaller clique word, then the larger one) makes the
// maximum weight spanning forest unique, which is what lets independent
// local computations agree on one global clique forest.
//
// W_G has Theta(sum_v |phi(v)|^2) edges, where phi(v) is the set of cliques
// containing v - quadratic on k-trees with hub vertices. The library's
// clique-forest engine (forest.hpp) therefore never enumerates it: it
// generates a near-linear candidate set from a clique tree instead. The
// full enumeration below is the oracle the engine is tested against.
#pragma once

#include <vector>

#include "cliqueforest/family.hpp"

namespace chordal {

struct WcigEdge {
  int a = -1;      // clique index
  int b = -1;      // clique index, a < b
  int weight = 0;  // |C_a cut C_b|
};

/// All edges of W_G for the given clique family over vertices 0..n-1, in
/// O(sum_v |phi(v)|^2) pairs plus one sorted merge per distinct pair.
/// Cliques must be sorted vertex lists. Output edges have a < b and are
/// sorted by (a, b). Oracle only: max_weight_spanning_forest_reference and
/// tests call it; no library build path does.
std::vector<WcigEdge> wcig_edges(const std::vector<std::vector<int>>& cliques,
                                 int num_graph_vertices);

/// The paper's strict total order e < f on W_G edges:
///   w_e < w_f, or (w_e == w_f and l_e < l_f lexicographically), or
///   (both equal and h_e < h_f), where l/h are the lexicographically
///   smaller/larger of the two incident cliques' sorted ID words.
/// Comparing words (not indices) keeps the order meaningful across different
/// local views that number cliques differently. The two overloads implement
/// the same order on the flat and nested clique representations.
bool wcig_edge_less(const WcigEdge& e, const WcigEdge& f,
                    const CliqueFamily& cliques);
bool wcig_edge_less(const WcigEdge& e, const WcigEdge& f,
                    const std::vector<std::vector<int>>& cliques);

/// Membership map: for every graph vertex v, the sorted list of clique
/// indices containing v (the family phi(v)).
std::vector<std::vector<int>> clique_membership(
    const std::vector<std::vector<int>>& cliques, int num_graph_vertices);

}  // namespace chordal
