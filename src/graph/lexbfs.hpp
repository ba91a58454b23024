// Lexicographic breadth-first search (Rose, Tarjan & Lueker).
//
// For a chordal graph the reverse of a Lex-BFS visit order is a perfect
// elimination ordering; this is the standard linear-time chordality
// recognition pipeline and also the source of our maximal-clique extraction.
#pragma once

#include <vector>

#include "graph/graph.hpp"

namespace chordal {

/// Lex-BFS visit order (first visited vertex first) in O(n + m) by linked-
/// list partition refinement. Deterministic: ties are broken by smallest
/// vertex id within the lexicographically largest label class, starting
/// from the smallest-id vertex of each component. Works on any graph (the
/// order is a PEO candidate only for chordal ones).
std::vector<int> lexbfs_order(const Graph& g);

}  // namespace chordal
