#include "cliqueforest/forest.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "graph/cliques.hpp"
#include "graph/peo.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "support/union_find.hpp"

namespace chordal {

namespace {

// Scratch union-find over ForestScratch arrays: reset is O(universe), find
// uses path halving, unite by rank. The chosen Kruskal edge set depends
// only on the edge processing order, never on the union-find internals, so
// this is interchangeable with support/union_find.
void uf_reset(ForestScratch& s, int n) {
  auto size = static_cast<std::size_t>(n);
  if (s.uf_parent.size() < size) {
    s.uf_parent.resize(size);
    s.uf_rank.resize(size);
  }
  for (int i = 0; i < n; ++i) {
    s.uf_parent[i] = i;
    s.uf_rank[i] = 0;
  }
}

int uf_find(ForestScratch& s, int x) {
  while (s.uf_parent[x] != x) {
    s.uf_parent[x] = s.uf_parent[s.uf_parent[x]];
    x = s.uf_parent[x];
  }
  return x;
}

bool uf_unite(ForestScratch& s, int a, int b) {
  a = uf_find(s, a);
  b = uf_find(s, b);
  if (a == b) return false;
  if (s.uf_rank[a] < s.uf_rank[b]) std::swap(a, b);
  s.uf_parent[b] = a;
  if (s.uf_rank[a] == s.uf_rank[b]) ++s.uf_rank[a];
  return true;
}

/// phi as a CSR slab: count memberships, prefix-sum, fill ascending in
/// clique index so each vertex's row comes out sorted. Counting at v + 2
/// makes offsets[v + 1] the fill cursor of row v, ending at the row's end,
/// so no separate cursor array is needed.
void build_membership(const CliqueFamily& cliques, int num_graph_vertices,
                      std::vector<EdgeIndex>& offsets,
                      std::vector<CliqueId>& member) {
  const auto n = static_cast<std::size_t>(num_graph_vertices);
  offsets.assign(n + 2, 0);
  for (CliqueWord word : cliques) {
    for (auto v : word) {
      if (v < 0 || v >= num_graph_vertices) {
        throw std::out_of_range("clique_membership: vertex out of range");
      }
      ++offsets[static_cast<std::size_t>(v) + 2];
    }
  }
  for (std::size_t v = 2; v < n + 2; ++v) offsets[v] += offsets[v - 1];
  member.resize(static_cast<std::size_t>(offsets[n + 1]));
  for (std::size_t c = 0; c < cliques.size(); ++c) {
    for (auto v : cliques[c]) {
      member[static_cast<std::size_t>(
          offsets[static_cast<std::size_t>(v) + 1]++)] =
          static_cast<CliqueId>(c);
    }
  }
  offsets.pop_back();
}

/// Stable counting sort of `in` into `out` by key(e) in [0, range).
template <typename Key>
void counting_pass(const std::vector<WcigEdge>& in, std::vector<WcigEdge>& out,
                   int range, std::vector<int>& counts, Key key) {
  counts.assign(static_cast<std::size_t>(range) + 1, 0);
  for (const auto& e : in) ++counts[static_cast<std::size_t>(key(e)) + 1];
  for (int k = 0; k < range; ++k) counts[k + 1] += counts[k];
  out.resize(in.size());
  for (const auto& e : in) out[static_cast<std::size_t>(counts[key(e)]++)] = e;
}

/// The MWSF engine proper (see forest.hpp), over a family whose phi slab
/// (`moff`, `member`) the caller has already built and validated.
void select_forest(const CliqueFamily& cliques, int num_graph_vertices,
                   const std::vector<EdgeIndex>& moff,
                   const std::vector<CliqueId>& member, ForestScratch& s,
                   std::vector<WcigEdge>& out) {
  out.clear();
  const int m = static_cast<int>(cliques.size());
  if (m < 2) return;
  auto phi = [&](int v) {
    return std::span<const CliqueId>(
        member.data() + moff[v],
        static_cast<std::size_t>(moff[v + 1] - moff[v]));
  };
  // The paper's tie-break compares clique words; after ranking the words
  // once it is integer comparison on ranks. Canonical families are strictly
  // sorted, so rank == index.
  const bool canonical = cliques_lex_sorted(cliques);
  if (!canonical) s.ranks = clique_lex_ranks(cliques);
  auto rank = [&](int c) { return canonical ? c : s.ranks[c]; };
  int omega = 0;
  for (CliqueWord word : cliques) {
    omega = std::max(omega, static_cast<int>(word.size()));
  }

  // (1) Clique tree T by clique-level maximum cardinality search: always
  // visit a clique with the most already-visited vertices. Counts only
  // grow, so the queue is one stack per count with lazy deletion in a flat
  // arena: an increment pushes a fresh entry, and popped entries whose
  // clique was visited or has moved up are skipped. At most m + sum |C|
  // entries are pushed.
  const auto mz = static_cast<std::size_t>(m);
  const auto nz = static_cast<std::size_t>(num_graph_vertices);
  s.cover.assign(nz, {-1, -1});
  s.covered.assign(mz, 0);  // visited vertices per clique, -1 once visited
  s.parent.resize(mz);
  s.visit_step.resize(mz);
  s.bucket_head.assign(static_cast<std::size_t>(omega) + 1, -1);
  s.queue.clear();
  s.queue.reserve(mz + cliques.total_vertices());
  s.visit_order.clear();
  s.label_offsets.assign(1, 0);
  s.labels.clear();
  s.labels.reserve(cliques.total_vertices());
  auto push = [&](int c) {
    const int k = s.covered[c];
    s.queue.push_back({c, s.bucket_head[k]});
    s.bucket_head[k] = static_cast<int>(s.queue.size()) - 1;
  };
  for (int c = m - 1; c >= 0; --c) push(c);
  int top_bucket = 0;
  for (int step = 0; step < m; ++step) {
    int c = -1;
    while (c == -1) {
      while (s.bucket_head[top_bucket] == -1) --top_bucket;
      const auto [d, next] = s.queue[static_cast<std::size_t>(
          s.bucket_head[top_bucket])];
      s.bucket_head[top_bucket] = next;
      if (s.covered[d] == top_bucket) c = d;
    }
    s.covered[c] = -1;
    s.visit_step[c] = step;
    s.visit_order.push_back(c);
    // Covered vertices form the label; the parent is the latest-visited
    // clique that first covered one of them (-1 for a root).
    int parent_step = -1;
    const CliqueWord word = cliques[static_cast<std::size_t>(c)];
    for (auto v : word) {
      auto& slot = s.cover[static_cast<std::size_t>(v)];
      if (slot.first_step >= 0) {
        s.labels.push_back(v);
        parent_step = std::max(parent_step, slot.first_step);
        continue;
      }
      slot.first_step = step;
      for (CliqueId d : phi(v)) {
        if (s.covered[d] < 0) continue;
        ++s.covered[d];
        push(d);
        top_bucket = std::max(top_bucket, s.covered[d]);
      }
    }
    // Running intersection: the covered set must lie inside the parent, so
    // that the T-edge label C cut C_parent is exactly the covered set. Over
    // all cliques the labels then total sum_v (|phi(v)| - 1), the bound
    // that only a clique tree attains. A vertex whose latest clique is the
    // parent passes without a search.
    const int parent =
        parent_step < 0
            ? -1
            : s.visit_order[static_cast<std::size_t>(parent_step)];
    for (auto i = static_cast<std::size_t>(s.label_offsets.back());
         i < s.labels.size(); ++i) {
      const auto x = s.labels[i];
      if (s.cover[static_cast<std::size_t>(x)].last == parent) continue;
      const auto row = phi(x);
      if (!std::binary_search(row.begin(), row.end(),
                              static_cast<CliqueId>(parent))) {
        throw std::invalid_argument(
            "max_weight_spanning_forest: clique family admits no clique "
            "tree");
      }
    }
    for (auto v : word) s.cover[static_cast<std::size_t>(v)].last = c;
    s.parent[static_cast<std::size_t>(c)] = parent;
    s.label_offsets.push_back(static_cast<EdgeIndex>(s.labels.size()));
  }

  // (2) + (3) Distinct separators and their candidate edges.
  auto label = [&](int step) {
    const auto lo = s.label_offsets[static_cast<std::size_t>(step)];
    const auto hi = s.label_offsets[static_cast<std::size_t>(step) + 1];
    return std::span<const VertexId>(s.labels.data() + lo,
                                     static_cast<std::size_t>(hi - lo));
  };
  s.edges.clear();
  // Vertex marks: stamp 2i marks the i-th distinct separator, 2i + 1 its
  // top clique; a clique marked 2i contains separator i.
  std::vector<int>& mark = s.vertex_mark;
  mark.assign(nz, -1);
  s.clique_mark.assign(mz, -1);
  // A T-edge is named by its child clique; `seen` flags the edges whose
  // label was already handled as an equal separator of an earlier edge.
  s.seen.assign(mz, 0);
  int stamp = 0;
  auto emit = [&](int a, int b, int weight) {
    s.edges.push_back({std::min(a, b), std::max(a, b), weight});
  };
  for (int step = 1; step < m; ++step) {
    const auto sep = label(step);
    const int c = s.visit_order[static_cast<std::size_t>(step)];
    if (sep.empty() || s.seen[c]) continue;  // a root, or a repeat of S
    const int k = static_cast<int>(sep.size());
    int pivot = sep[0];  // the vertex of S in the fewest cliques
    for (auto v : sep) {
      if (moff[v + 1] - moff[v] < moff[pivot + 1] - moff[pivot]) pivot = v;
    }
    // phi(pivot) holds the cliques containing S: the T-edge's own ends c
    // and its parent, plus any others, found by marking S. top is the
    // highest-rank one; only cliques meeting top in exactly S pair with it.
    const int p = s.parent[static_cast<std::size_t>(c)];
    const int in_sep = stamp++;
    const int in_top = stamp++;
    std::vector<int>& supersets = s.supersets;
    supersets.clear();
    if (moff[pivot + 1] - moff[pivot] > 2) {
      for (auto v : sep) mark[static_cast<std::size_t>(v)] = in_sep;
      for (CliqueId a : phi(pivot)) {
        if (static_cast<int>(a) == c || static_cast<int>(a) == p) continue;
        int hits = 0;
        for (auto v : cliques[static_cast<std::size_t>(a)]) {
          hits += mark[static_cast<std::size_t>(v)] == in_sep;
        }
        if (hits == k) supersets.push_back(static_cast<int>(a));
      }
    }
    if (supersets.empty()) {
      // S lies in c and its parent only: the T-edge is the one candidate,
      // and no other T-edge is labelled S.
      emit(c, p, k);
      continue;
    }
    supersets.push_back(c);
    supersets.push_back(p);
    int top = c;
    for (int a : supersets) {
      s.clique_mark[static_cast<std::size_t>(a)] = in_sep;
      if (rank(a) > rank(top)) top = a;
    }
    // Every other T-edge labelled S joins two cliques containing S.
    for (int a : supersets) {
      const int pa = s.parent[static_cast<std::size_t>(a)];
      const int sa = s.visit_step[static_cast<std::size_t>(a)];
      if (pa != -1 && s.clique_mark[static_cast<std::size_t>(pa)] == in_sep &&
          s.label_offsets[sa + 1] - s.label_offsets[sa] == k) {
        s.seen[static_cast<std::size_t>(a)] = 1;
      }
    }
    for (auto v : cliques[static_cast<std::size_t>(top)]) {
      mark[static_cast<std::size_t>(v)] = in_top;
    }
    for (int a : supersets) {
      if (a == top) continue;
      int shared = 0;
      for (auto v : cliques[static_cast<std::size_t>(a)]) {
        shared += mark[static_cast<std::size_t>(v)] == in_top;
      }
      if (shared == k) emit(a, top, k);
    }
  }

  // (4) Kruskal in decreasing (weight, min rank, max rank) order: three
  // stable counting passes on the complemented keys, least significant
  // (max rank) first.
  counting_pass(s.edges, s.edges_tmp, m, s.counts, [&](const WcigEdge& e) {
    return m - 1 - std::max(rank(e.a), rank(e.b));
  });
  counting_pass(s.edges_tmp, s.edges, m, s.counts, [&](const WcigEdge& e) {
    return m - 1 - std::min(rank(e.a), rank(e.b));
  });
  counting_pass(s.edges, s.edges_tmp, omega + 1, s.counts,
                [omega](const WcigEdge& e) { return omega - e.weight; });
  uf_reset(s, m);
  const std::size_t want = mz - 1;
  for (const auto& e : s.edges_tmp) {
    if (uf_unite(s, e.a, e.b)) {
      out.push_back(e);
      if (out.size() == want) break;
    }
  }
}

}  // namespace

std::vector<WcigEdge> max_weight_spanning_forest_reference(
    const std::vector<std::vector<int>>& cliques, int num_graph_vertices) {
  auto edges = wcig_edges(cliques, num_graph_vertices);
  std::sort(edges.begin(), edges.end(),
            [&cliques](const WcigEdge& e, const WcigEdge& f) {
              return wcig_edge_less(f, e, cliques);  // decreasing order
            });
  UnionFind uf(static_cast<int>(cliques.size()));
  std::vector<WcigEdge> chosen;
  for (const auto& e : edges) {
    if (uf.unite(e.a, e.b)) chosen.push_back(e);
  }
  return chosen;
}

std::vector<WcigEdge> max_weight_spanning_forest_reference(
    const CliqueFamily& cliques, int num_graph_vertices) {
  return max_weight_spanning_forest_reference(cliques.to_nested(),
                                              num_graph_vertices);
}

void max_weight_spanning_forest(const CliqueFamily& cliques,
                                int num_graph_vertices,
                                ForestScratch& scratch,
                                std::vector<WcigEdge>& out) {
  build_membership(cliques, num_graph_vertices, scratch.member_offsets,
                   scratch.member);
  select_forest(cliques, num_graph_vertices, scratch.member_offsets,
                scratch.member, scratch, out);
}

std::vector<WcigEdge> max_weight_spanning_forest(const CliqueFamily& cliques,
                                                 int num_graph_vertices) {
  ForestScratch scratch;
  std::vector<WcigEdge> out;
  max_weight_spanning_forest(cliques, num_graph_vertices, scratch, out);
  return out;
}

void family_forest_edges(const CliqueFamily& cliques,
                         std::span<const CliqueId> family,
                         ForestScratch& scratch,
                         std::vector<std::pair<int, int>>& out) {
  const int f = static_cast<int>(family.size());
  if (f < 2) return;
  // Pairwise intersection weights of the (complete) family graph, as pair
  // multiplicities over the members' vertices: walking each vertex's
  // occurrence chain costs one increment per shared (clique, clique, vertex)
  // triple - no sorted merges, no O(n) membership table.
  int bound = 0;
  for (CliqueId c : family) {
    bound = std::max(
        bound, static_cast<int>(cliques[static_cast<std::size_t>(c)].back()) +
                   1);
  }
  scratch.ensure_vertices(bound);
  const std::uint64_t epoch = ++scratch.epoch;
  scratch.occ.clear();
  scratch.weights.assign(static_cast<std::size_t>(f) * f, 0);
  int max_weight = 0;
  for (int i = 0; i < f; ++i) {
    for (int v : cliques[static_cast<std::size_t>(family[i])]) {
      int prev = scratch.vertex_stamp[v] == epoch ? scratch.vertex_head[v] : -1;
      for (int p = prev; p != -1; p = scratch.occ[p].second) {
        int w = ++scratch.weights[static_cast<std::size_t>(
                                      scratch.occ[p].first) * f + i];
        max_weight = std::max(max_weight, w);
      }
      scratch.vertex_stamp[v] = epoch;
      scratch.vertex_head[v] = static_cast<int>(scratch.occ.size());
      scratch.occ.emplace_back(i, prev);
    }
  }
  // Weight-bucketed counting sort. Family indices ascend with the words of
  // strictly sorted cliques, so the paper's decreasing tie-break order
  // within a weight is simply decreasing (i, j): enumerate pairs in that
  // order and the stable bucket fill preserves it.
  scratch.counts.assign(static_cast<std::size_t>(max_weight) + 1, 0);
  for (int i = f - 2; i >= 0; --i) {
    for (int j = f - 1; j > i; --j) {
      int w = scratch.weights[static_cast<std::size_t>(i) * f + j];
      if (w > 0) ++scratch.counts[w];
    }
  }
  int offset = 0;
  for (int w = max_weight; w >= 1; --w) {
    int count = scratch.counts[w];
    scratch.counts[w] = offset;
    offset += count;
  }
  const int total = offset;
  scratch.pair_a.resize(static_cast<std::size_t>(total));
  scratch.pair_b.resize(static_cast<std::size_t>(total));
  for (int i = f - 2; i >= 0; --i) {
    for (int j = f - 1; j > i; --j) {
      int w = scratch.weights[static_cast<std::size_t>(i) * f + j];
      if (w == 0) continue;
      int pos = scratch.counts[w]++;
      scratch.pair_a[pos] = i;
      scratch.pair_b[pos] = j;
    }
  }
  uf_reset(scratch, f);
  int chosen = 0;
  for (int pos = 0; pos < total && chosen < f - 1; ++pos) {
    if (uf_unite(scratch, scratch.pair_a[pos], scratch.pair_b[pos])) {
      out.emplace_back(static_cast<int>(family[scratch.pair_a[pos]]),
                       static_cast<int>(family[scratch.pair_b[pos]]));
      ++chosen;
    }
  }
}

CliqueForest CliqueForest::build(const Graph& g) {
  // One child span per stage, so a driver that builds its forest under its
  // top span accounts for every millisecond of the build.
  EliminationOrder peo;
  {
    obs::Span span("clique forest: LexBFS + PEO check");
    peo = peo_or_throw(g);
  }
  CliqueFamily family;
  {
    obs::Span span("clique forest: maximal cliques");
    family = maximal_cliques_chordal_family(g, peo);
  }
  obs::Span span("clique forest: MWSF (Theorem 2)");
  return from_family(std::move(family), g.num_vertices());
}

CliqueForest CliqueForest::from_cliques(
    std::vector<std::vector<int>> cliques, int num_graph_vertices) {
  return from_family(CliqueFamily(cliques), num_graph_vertices);
}

CliqueForest CliqueForest::from_family(CliqueFamily cliques,
                                       int num_graph_vertices) {
  CliqueForest forest;
  forest.num_graph_vertices_ = num_graph_vertices;
  forest.cliques_ = std::move(cliques);
  const std::size_t m = forest.cliques_.size();

  build_membership(forest.cliques_, num_graph_vertices,
                   forest.member_offsets_, forest.member_);

  // Forest adjacency as a CSR slab over the MWSF edges.
  std::int64_t chosen = 0;
  std::vector<WcigEdge> edges;
  {
    ForestScratch scratch;
    select_forest(forest.cliques_, num_graph_vertices, forest.member_offsets_,
                  forest.member_, scratch, edges);
  }
  forest.adj_offsets_.assign(m + 1, 0);
  for (const auto& e : edges) {
    ++forest.adj_offsets_[static_cast<std::size_t>(e.a) + 1];
    ++forest.adj_offsets_[static_cast<std::size_t>(e.b) + 1];
  }
  for (std::size_t c = 0; c < m; ++c) {
    forest.adj_offsets_[c + 1] += forest.adj_offsets_[c];
  }
  forest.adj_.resize(static_cast<std::size_t>(forest.adj_offsets_[m]));
  {
    std::vector<EdgeIndex> cursor(forest.adj_offsets_.begin(),
                                  forest.adj_offsets_.end() - 1);
    for (const auto& e : edges) {
      forest.adj_[static_cast<std::size_t>(cursor[e.a]++)] =
          static_cast<CliqueId>(e.b);
      forest.adj_[static_cast<std::size_t>(cursor[e.b]++)] =
          static_cast<CliqueId>(e.a);
      ++chosen;
    }
  }
  for (std::size_t c = 0; c < m; ++c) {
    std::sort(forest.adj_.begin() + forest.adj_offsets_[c],
              forest.adj_.begin() + forest.adj_offsets_[c + 1]);
  }
  // The whole-graph MWSF build (node -1 marks coordinator work on the
  // event timeline).
  obs::trace_emit(nullptr, obs::TraceEventKind::kForestBuild, -1, /*round=*/0,
                  static_cast<std::int64_t>(m), chosen);
  return forest;
}

std::vector<std::pair<int, int>> CliqueForest::forest_edges() const {
  std::vector<std::pair<int, int>> out;
  for (int c = 0; c < num_cliques(); ++c) {
    for (CliqueId d : forest_neighbors(c)) {
      if (c < d) out.emplace_back(c, static_cast<int>(d));
    }
  }
  return out;
}

void CliqueForest::verify(const Graph& g) const {
  // (1) Every vertex lies in at least one clique.
  for (int v = 0; v < g.num_vertices(); ++v) {
    if (cliques_of(v).empty()) {
      throw std::logic_error("clique forest: vertex in no clique");
    }
  }
  // (2) Every edge is inside some clique.
  for (auto [u, v] : g.edges()) {
    bool covered = false;
    for (CliqueId c : cliques_of(u)) {
      const CliqueWord word = clique(static_cast<int>(c));
      covered = covered || std::binary_search(word.begin(), word.end(),
                                              static_cast<VertexId>(v));
    }
    if (!covered) throw std::logic_error("clique forest: edge uncovered");
  }
  // (3) Forest is acyclic: edges <= cliques - components.
  UnionFind uf(num_cliques());
  for (auto [a, b] : forest_edges()) {
    if (!uf.unite(a, b)) {
      throw std::logic_error("clique forest: cycle in forest");
    }
  }
  // (4) phi(v) induces a connected subgraph (the subtree T(v)). One pair of
  // epoch-stamped tables plus a flat queue is reused across all vertices,
  // so the sweep costs O(sum_v work inside T(v)) instead of one O(#cliques)
  // allocation and clear per graph vertex.
  std::vector<std::uint64_t> family_stamp(
      static_cast<std::size_t>(num_cliques()), 0);
  std::vector<std::uint64_t> seen_stamp(
      static_cast<std::size_t>(num_cliques()), 0);
  std::vector<int> queue;
  std::uint64_t epoch = 0;
  for (int v = 0; v < g.num_vertices(); ++v) {
    const auto family = cliques_of(v);
    ++epoch;
    for (CliqueId c : family) family_stamp[c] = epoch;
    queue.clear();
    queue.push_back(static_cast<int>(family.front()));
    seen_stamp[family.front()] = epoch;
    std::size_t reached = 1;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      for (CliqueId d : forest_neighbors(queue[head])) {
        if (family_stamp[d] == epoch && seen_stamp[d] != epoch) {
          seen_stamp[d] = epoch;
          ++reached;
          queue.push_back(static_cast<int>(d));
        }
      }
    }
    if (reached != family.size()) {
      throw std::logic_error("clique forest: T(v) disconnected");
    }
  }
  // (5) Each pair of cliques joined by a forest edge intersects.
  for (auto [a, b] : forest_edges()) {
    const CliqueWord ca = clique(a);
    const CliqueWord cb = clique(b);
    bool intersects = false;
    for (std::size_t i = 0, j = 0; i < ca.size() && j < cb.size();) {
      if (ca[i] < cb[j]) {
        ++i;
      } else if (ca[i] > cb[j]) {
        ++j;
      } else {
        intersects = true;
        break;
      }
    }
    if (!intersects) {
      throw std::logic_error("clique forest: empty-intersection edge");
    }
  }
}

}  // namespace chordal
