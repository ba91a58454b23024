// Allocating reference forms of ball collection and local-view
// reconstruction: the oracles the workspace engines of local/workspace.hpp
// are checked against. Each is written in the most direct way - library
// BFS helpers, Graph::induced_subgraph, and per-vertex deep copies of the
// family cliques fed to the reference Kruskal - so it shares no code with
// the engine beyond clique extraction.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "cliqueforest/forest.hpp"
#include "cliqueforest/local_view.hpp"
#include "graph/bfs.hpp"
#include "graph/cliques.hpp"
#include "graph/graph.hpp"
#include "local/ball.hpp"
#include "local/bandwidth.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace chordal::testing {

/// The distance-`radius` ball of `center` in the subgraph induced by
/// {u : active == nullptr || (*active)[u]}, with the same ledger charge
/// and telemetry the workspace collect_ball records.
inline local::Ball oracle_collect_ball(const Graph& g, int center, int radius,
                                       const std::vector<char>* active = nullptr,
                                       local::RoundLedger* ledger = nullptr) {
  local::Ball ball;
  ball.vertices = active == nullptr
                      ? ball_vertices(g, center, radius)
                      : ball_vertices_restricted(g, center, radius, *active);
  ball.graph = g.induced_subgraph(ball.vertices);
  ball.dist = bfs_distances(ball.graph, 0);
  auto words = static_cast<std::int64_t>(ball.vertices.size() +
                                         2 * ball.graph.num_edges());
  std::int64_t rounds = local::ball_collection_rounds(
      radius, words, g.degree(center), local::current_bandwidth(),
      g.num_vertices());
  if (ledger != nullptr) ledger->charge(center, rounds);
  if (obs::Registry* reg = obs::current()) {
    reg->counter("ball.collections").add(1);
    reg->histogram("ball.volume_words").add(static_cast<double>(words));
    obs::Span::charge_rounds(rounds);
    obs::Span::charge_messages(static_cast<std::int64_t>(ball.vertices.size()),
                               words);
  }
  return ball;
}

/// The local view of `observer` (Section 3): the maximal cliques of the
/// ball graph that hold a vertex within distance radius-1 (those are
/// maximal in G), and for every such trusted vertex u the reference MWSF
/// of W restricted to phi(u), which by Lemma 2 is T(u).
inline LocalView oracle_local_view(const Graph& g, int observer, int radius,
                                   const std::vector<char>* active = nullptr) {
  if (radius < 1) throw std::invalid_argument("local view: radius < 1");
  std::vector<VertexId> ball =
      active == nullptr
          ? ball_vertices(g, observer, radius)
          : ball_vertices_restricted(g, observer, radius, *active);
  std::vector<int> original;
  Graph ball_graph = g.induced_subgraph(ball, &original);
  std::vector<int> dist_in_ball = bfs_distances(ball_graph, 0);
  std::vector<std::vector<int>> kept;
  for (const auto& clique : maximal_cliques_chordal(ball_graph)) {
    bool trusted = false;
    for (int lv : clique) trusted = trusted || dist_in_ball[lv] <= radius - 1;
    if (!trusted) continue;
    std::vector<int> global;
    global.reserve(clique.size());
    for (int lv : clique) global.push_back(original[lv]);
    std::sort(global.begin(), global.end());
    kept.push_back(std::move(global));
  }
  std::sort(kept.begin(), kept.end());
  LocalView view;
  for (const auto& clique : kept) view.cliques.push_word(clique);
  for (int lv = 0; lv < ball_graph.num_vertices(); ++lv) {
    if (dist_in_ball[lv] <= radius - 1) {
      view.trusted_vertices.push_back(original[lv]);
    }
  }
  std::sort(view.trusted_vertices.begin(), view.trusted_vertices.end());
  // phi(u) as a flat (vertex, clique) list sorted by vertex, then clique.
  std::vector<std::pair<int, int>> phi_pairs;
  for (std::size_t c = 0; c < kept.size(); ++c) {
    for (int v : kept[c]) phi_pairs.emplace_back(v, static_cast<int>(c));
  }
  std::sort(phi_pairs.begin(), phi_pairs.end());
  std::vector<std::pair<int, int>> edges;
  std::size_t cursor = 0;
  for (int u : view.trusted_vertices) {
    while (cursor < phi_pairs.size() && phi_pairs[cursor].first < u) ++cursor;
    std::vector<int> family;
    while (cursor < phi_pairs.size() && phi_pairs[cursor].first == u) {
      family.push_back(phi_pairs[cursor].second);
      ++cursor;
    }
    if (family.size() < 2) continue;
    std::vector<std::vector<int>> family_cliques;
    family_cliques.reserve(family.size());
    for (int c : family) family_cliques.push_back(kept[c]);
    for (const auto& e : max_weight_spanning_forest_reference(
             family_cliques, g.num_vertices())) {
      int a = family[e.a];
      int b = family[e.b];
      edges.emplace_back(std::min(a, b), std::max(a, b));
    }
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  view.forest_edges = std::move(edges);
  return view;
}

}  // namespace chordal::testing
