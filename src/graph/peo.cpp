#include "graph/peo.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/lexbfs.hpp"

namespace chordal {

EliminationOrder peo_candidate(const Graph& g) {
  EliminationOrder peo;
  peo.order = lexbfs_order(g);
  std::reverse(peo.order.begin(), peo.order.end());
  peo.position.assign(static_cast<std::size_t>(g.num_vertices()), -1);
  for (std::size_t i = 0; i < peo.order.size(); ++i) {
    peo.position[peo.order[i]] = static_cast<int>(i);
  }
  return peo;
}

bool is_perfect_elimination_order(const Graph& g,
                                  const EliminationOrder& peo) {
  const int n = g.num_vertices();
  if (static_cast<int>(peo.order.size()) != n) return false;
  const std::vector<int>& pos = peo.position;
  // Deferred check: for each v, let u = the later neighbor of v closest to v
  // in the order ("follower"). Then the PEO property holds iff
  // N_later(v) \ {u} is always a subset of N(u). The required adjacencies
  // are counting-sorted by follower into one flat slab (u's entries at
  // required[start[u], start[u+1])) and verified with one pass over each
  // follower's neighborhood.
  std::vector<int> follower(static_cast<std::size_t>(n), -1);
  std::vector<EdgeIndex> start(static_cast<std::size_t>(n) + 2, 0);
  for (int v = 0; v < n; ++v) {
    int f = -1;
    EdgeIndex later = 0;
    for (VertexId w : g.neighbors(v)) {
      if (pos[w] <= pos[v]) continue;
      ++later;
      if (f == -1 || pos[w] < pos[f]) f = w;
    }
    follower[v] = f;
    if (f != -1) start[static_cast<std::size_t>(f) + 2] += later - 1;
  }
  for (std::size_t i = 2; i < start.size(); ++i) start[i] += start[i - 1];
  // Filling through start[f + 1] advances it to the end of f's range, which
  // leaves start[u] at the beginning of u's range for every u.
  std::vector<int> required(static_cast<std::size_t>(start[n + 1]));
  for (int v = 0; v < n; ++v) {
    const int f = follower[v];
    if (f == -1) continue;
    for (VertexId w : g.neighbors(v)) {
      if (pos[w] > pos[v] && w != f) {
        required[static_cast<std::size_t>(start[f + 1]++)] = w;
      }
    }
  }
  std::vector<char> mark(static_cast<std::size_t>(n), 0);
  for (int u = 0; u < n; ++u) {
    if (start[u] == start[u + 1]) continue;
    for (VertexId w : g.neighbors(u)) mark[w] = 1;
    bool ok = true;
    for (EdgeIndex i = start[u]; i < start[u + 1]; ++i) {
      ok = ok && mark[required[static_cast<std::size_t>(i)]];
    }
    for (VertexId w : g.neighbors(u)) mark[w] = 0;
    if (!ok) return false;
  }
  return true;
}

bool is_chordal(const Graph& g) {
  return is_perfect_elimination_order(g, peo_candidate(g));
}

EliminationOrder peo_or_throw(const Graph& g) {
  EliminationOrder peo = peo_candidate(g);
  if (!is_perfect_elimination_order(g, peo)) {
    throw std::invalid_argument("peo_or_throw: graph is not chordal");
  }
  return peo;
}

bool is_simplicial(const Graph& g, int v, const std::vector<char>& active) {
  if (!active[v]) {
    throw std::invalid_argument("is_simplicial: inactive vertex");
  }
  std::vector<int> nbrs;
  for (int w : g.neighbors(v)) {
    if (active[w]) nbrs.push_back(w);
  }
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
      if (!g.has_edge(nbrs[i], nbrs[j])) return false;
    }
  }
  return true;
}

}  // namespace chordal
