// Differential fuzz suite for the near-linear clique-forest engine: the
// separator-candidate MWSF (max_weight_spanning_forest, which never
// enumerates W_G) and the per-family selection (family_forest_edges) must
// be bit-identical to the allocating reference oracle (full W_G via
// wcig_edges + wcig_edge_less + max_weight_spanning_forest_reference) on
// every workload - including the all-equal-weight tie storms of k-trees
// (with hub vertices in thousands of cliques) and unit-interval chains,
// where only the paper's deterministic (weight, word, word) order separates
// the candidate edges - and every compared forest must pass
// CliqueForest::verify. The oracle is called directly, here and by
// audit_forest_engine_parity; no library build path reaches it. On top of
// the construction-level checks, the drivers (MVC with per-node local
// views, MIS) must produce identical outputs and identical scrubbed
// telemetry at every thread count (1/2/8).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cliqueforest/forest.hpp"
#include "cliqueforest/local_view.hpp"
#include "core/mis.hpp"
#include "core/mvc.hpp"
#include "graph/cliques.hpp"
#include "graph/generators.hpp"
#include "local/workspace.hpp"
#include "local_oracle.hpp"
#include "obs/metrics.hpp"
#include "support/parallel.hpp"
#include "test_util.hpp"

namespace chordal {
namespace {

std::vector<std::array<int, 3>> flat(const std::vector<WcigEdge>& edges) {
  std::vector<std::array<int, 3>> out;
  out.reserve(edges.size());
  for (const auto& e : edges) out.push_back({e.a, e.b, e.weight});
  return out;
}

/// Differential workloads. The k-trees and unit-interval chains are the tie
/// storms: every separator of a k-tree has exactly k vertices, so whole
/// weight classes collide and the word order alone decides the forest.
std::vector<std::pair<std::string, Graph>> engine_workloads() {
  std::vector<std::pair<std::string, Graph>> out;
  out.emplace_back("paper_figure1", testing::paper_figure1_graph());
  for (std::uint64_t seed : {1, 7, 42}) {
    RandomChordalConfig config;
    config.n = 180;
    config.max_clique = 6;
    config.chain_bias = 0.7;
    config.seed = seed;
    out.emplace_back("random_chordal_" + std::to_string(seed),
                     random_chordal(config));
  }
  for (TreeShape shape : {TreeShape::kPath, TreeShape::kCaterpillar,
                          TreeShape::kRandom, TreeShape::kBinary,
                          TreeShape::kSpider}) {
    CliqueTreeConfig config;
    config.num_bags = 70;
    config.shape = shape;
    config.seed = 13;
    out.emplace_back(
        "clique_tree_" + std::to_string(static_cast<int>(shape)),
        random_chordal_from_clique_tree(config).graph);
  }
  out.emplace_back("k_tree_2", random_k_tree(120, 2, 3));
  out.emplace_back("k_tree_4", random_k_tree(150, 4, 9));
  out.emplace_back("staircase_interval",
                   staircase_interval(160, 0.7, 0.1, 5).graph);
  out.emplace_back("unit_interval",
                   random_unit_interval(140, 60.0, 11).graph);
  out.emplace_back("path", path_graph(60));
  out.emplace_back("star", star_graph(12));
  out.emplace_back("complete", complete_graph(12));
  {
    GraphBuilder b(9);  // three components incl. an isolated vertex
    b.add_edge(0, 1);
    b.add_edge(1, 2);
    b.add_edge(0, 2);
    b.add_edge(3, 4);
    b.add_edge(5, 6);
    b.add_edge(6, 7);
    out.emplace_back("disconnected", b.build());
  }
  return out;
}

class ThreadsRestorer {
 public:
  ~ThreadsRestorer() { support::set_num_threads(0); }
};

/// Registry JSON with wall-clock timings removed; everything else, cache.*
/// statistics included, must match byte for byte.
std::string scrub_volatile(const std::string& json) {
  std::string out;
  std::size_t i = 0;
  while (i < json.size()) {
    bool drop = json.compare(i, 10, "\"wall_ms\":") == 0;
    if (!drop) {
      out.push_back(json[i]);
      ++i;
      continue;
    }
    ++i;  // opening quote of the key
    while (i < json.size() && json[i] != '"') ++i;
    i += 2;  // closing quote and ':'
    if (i < json.size() && (json[i] == '{' || json[i] == '[')) {
      int depth = 0;
      do {
        if (json[i] == '{' || json[i] == '[') ++depth;
        if (json[i] == '}' || json[i] == ']') --depth;
        ++i;
      } while (i < json.size() && depth > 0);
    } else {
      while (i < json.size() && json[i] != ',' && json[i] != '}') ++i;
    }
    if (i < json.size() && json[i] == ',') {
      ++i;  // the dropped member's separator
    } else if (!out.empty() && out.back() == ',') {
      out.pop_back();  // dropped the last member of its object
    }
  }
  return out;
}

/// Engine vs oracle on one clique family of `g` (any order): identical
/// chosen edges in identical order, and the forest built from the family
/// passes CliqueForest::verify and carries exactly those edges.
void expect_engine_matches_reference(
    const std::string& name, const Graph& g,
    const std::vector<std::vector<int>>& cliques, ForestScratch& scratch) {
  std::vector<WcigEdge> fast;
  auto reference =
      max_weight_spanning_forest_reference(cliques, g.num_vertices());
  max_weight_spanning_forest(CliqueFamily(cliques), g.num_vertices(), scratch,
                             fast);
  EXPECT_EQ(flat(reference), flat(fast)) << name;
  CliqueForest forest = CliqueForest::from_cliques(cliques, g.num_vertices());
  EXPECT_NO_THROW(forest.verify(g)) << name;
  std::vector<std::pair<int, int>> pairs;
  for (const auto& e : reference) pairs.emplace_back(e.a, e.b);
  std::sort(pairs.begin(), pairs.end());
  EXPECT_EQ(forest.forest_edges(), pairs) << name;
}

/// A k-tree whose vertices attach, with probability 1/2 each, to a k-clique
/// through vertex 0: vertex 0 lands in about half of all cliques, the hub
/// shape that makes W_G quadratic. k = 1 gives a random tree with a star
/// core.
Graph hub_k_tree(int n, int k, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  GraphBuilder b(n);
  std::vector<std::vector<int>> all, through_hub;
  auto add_k_clique = [&](std::vector<int> clique) {
    if (std::find(clique.begin(), clique.end(), 0) != clique.end()) {
      through_hub.push_back(clique);
    }
    all.push_back(std::move(clique));
  };
  for (int u = 0; u <= k; ++u) {
    for (int w = u + 1; w <= k; ++w) b.add_edge(u, w);
  }
  for (int skip = 0; skip <= k; ++skip) {
    std::vector<int> clique;
    for (int u = 0; u <= k; ++u) {
      if (u != skip) clique.push_back(u);
    }
    add_k_clique(std::move(clique));
  }
  for (int v = k + 1; v < n; ++v) {
    const auto& pool = (rng() % 2 == 0 && !through_hub.empty()) ? through_hub
                                                                  : all;
    const std::vector<int> host = pool[rng() % pool.size()];
    for (int u : host) b.add_edge(u, v);
    for (std::size_t drop = 0; drop < host.size(); ++drop) {
      std::vector<int> clique;
      for (std::size_t i = 0; i < host.size(); ++i) {
        if (i != drop) clique.push_back(host[i]);
      }
      clique.push_back(v);
      add_k_clique(std::move(clique));
    }
  }
  return b.build();
}

/// Vertex-disjoint union of `parts`, in order (part i's vertex v becomes
/// v plus the sizes of the parts before it).
Graph disjoint_union(const std::vector<const Graph*>& parts) {
  int n = 0;
  for (const Graph* part : parts) n += part->num_vertices();
  GraphBuilder b(n);
  int base = 0;
  for (const Graph* part : parts) {
    for (auto [u, v] : part->edges()) b.add_edge(base + u, base + v);
    base += part->num_vertices();
  }
  return b.build();
}

TEST(ForestEngine, MwsfMatchesReferenceOnCanonicalFamilies) {
  ForestScratch scratch;  // shared across workloads: epochs must not leak
  for (const auto& [name, g] : engine_workloads()) {
    auto cliques = maximal_cliques_chordal(g);
    ASSERT_TRUE(cliques_lex_sorted(cliques)) << name;
    expect_engine_matches_reference(name, g, cliques, scratch);
  }
}

TEST(ForestEngine, MwsfMatchesReferenceOnShuffledFamilies) {
  // Non-canonical clique order exercises the explicit lexicographic
  // ranking path; the reference compares words directly and is
  // order-robust by construction.
  ForestScratch scratch;
  std::mt19937 rng(20240807);
  for (const auto& [name, g] : engine_workloads()) {
    auto cliques = maximal_cliques_chordal(g);
    std::shuffle(cliques.begin(), cliques.end(), rng);
    expect_engine_matches_reference(name, g, cliques, scratch);
  }
}

TEST(ForestEngine, MwsfMatchesReferenceOnHubKTrees) {
  // k = 1..6 with a forced hub, canonical and shuffled, plus one random
  // 3-tree at n = 2*10^4 (about 5*10^6 W_G pair occurrences for the
  // oracle, about one engine candidate per clique).
  ForestScratch scratch;
  std::mt19937 rng(7);
  for (int k = 1; k <= 6; ++k) {
    for (std::uint64_t seed : {1, 2}) {
      const std::string name =
          "hub_k_tree k=" + std::to_string(k) + " seed=" + std::to_string(seed);
      Graph g = hub_k_tree(400 + 100 * k, k, seed);
      auto cliques = maximal_cliques_chordal(g);
      expect_engine_matches_reference(name, g, cliques, scratch);
      std::shuffle(cliques.begin(), cliques.end(), rng);
      expect_engine_matches_reference(name + " shuffled", g, cliques, scratch);
    }
  }
  Graph big = random_k_tree(20000, 3, 11);
  expect_engine_matches_reference("random_k_tree n=20000 k=3", big,
                                  maximal_cliques_chordal(big), scratch);
}

TEST(ForestEngine, MwsfMatchesReferenceOnDisjointUnions) {
  // Components share no vertex, so W_G and the forest split; isolated
  // vertices and single-clique components become roots of their own.
  ForestScratch scratch;
  std::mt19937 rng(99);
  auto workloads = engine_workloads();
  for (std::size_t i = 0; i + 2 < workloads.size(); i += 3) {
    Graph g = disjoint_union({&workloads[i].second, &workloads[i + 1].second,
                              &workloads[i + 2].second});
    const std::string name = "union of " + workloads[i].first + ", " +
                             workloads[i + 1].first + ", " +
                             workloads[i + 2].first;
    auto cliques = maximal_cliques_chordal(g);
    expect_engine_matches_reference(name, g, cliques, scratch);
    std::shuffle(cliques.begin(), cliques.end(), rng);
    expect_engine_matches_reference(name + " shuffled", g, cliques, scratch);
  }
}

TEST(ForestEngine, RejectsFamilyWithoutCliqueTree) {
  // The three edges of a triangle pairwise intersect but admit no clique
  // tree: no chordal graph has them as its maximal cliques. The engine's
  // running-intersection check rejects the family with a typed error.
  ForestScratch scratch;
  std::vector<WcigEdge> out;
  const CliqueFamily triangle({{0, 1}, {1, 2}, {0, 2}});
  EXPECT_THROW(max_weight_spanning_forest(triangle, 3, scratch, out),
               std::invalid_argument);
  EXPECT_THROW(max_weight_spanning_forest(CliqueFamily({{0, 1}, {1, 5}}), 3,
                                          scratch, out),
               std::out_of_range);
}

TEST(ForestEngine, FamilyEngineMatchesPerFamilyReference) {
  ForestScratch scratch;
  for (const auto& [name, g] : engine_workloads()) {
    CliqueForest forest = CliqueForest::build(g);
    std::vector<std::pair<int, int>> fast;
    for (int v = 0; v < g.num_vertices(); ++v) {
      const auto& family = forest.cliques_of(v);
      if (family.size() < 2) continue;
      std::vector<std::vector<int>> family_cliques;
      for (int c : family) family_cliques.push_back(word_vec(forest.clique(c)));
      std::vector<std::pair<int, int>> reference;
      for (const auto& e : max_weight_spanning_forest_reference(
               family_cliques, g.num_vertices())) {
        reference.emplace_back(family[e.a], family[e.b]);
      }
      fast.clear();
      family_forest_edges(forest.cliques(), family, scratch, fast);
      EXPECT_EQ(reference, fast) << name << " vertex " << v;
    }
  }
}

TEST(ForestEngine, LocalViewsMatchOracleAllPaths) {
  local::BallWorkspace ws;
  LocalView ws_view;
  for (const auto& [name, g] : engine_workloads()) {
    if (g.num_vertices() < 2) continue;
    for (int radius : {2, 4}) {
      for (int v = 0; v < g.num_vertices(); v += 5) {
        LocalView oracle = testing::oracle_local_view(g, v, radius);
        local::compute_local_view(g, v, radius, nullptr, ws, ws_view);
        EXPECT_EQ(oracle.cliques, ws_view.cliques) << name;
        EXPECT_EQ(oracle.forest_edges, ws_view.forest_edges) << name;
        EXPECT_EQ(oracle.trusted_vertices, ws_view.trusted_vertices) << name;
      }
    }
  }
}

TEST(ForestEngine, LocalViewsMatchOracleUnderActivityMask) {
  RandomChordalConfig config;
  config.n = 150;
  config.max_clique = 5;
  config.chain_bias = 0.8;
  config.seed = 77;
  Graph g = random_chordal(config);
  std::vector<char> active(static_cast<std::size_t>(g.num_vertices()), 1);
  for (int v = 0; v < g.num_vertices(); v += 3) active[v] = 0;
  local::BallWorkspace ws;
  LocalView ws_view;
  for (int v = 0; v < g.num_vertices(); ++v) {
    if (!active[v]) continue;
    LocalView oracle = testing::oracle_local_view(g, v, 4, &active);
    local::compute_local_view(g, v, 4, &active, ws, ws_view);
    EXPECT_EQ(oracle.cliques, ws_view.cliques);
    EXPECT_EQ(oracle.forest_edges, ws_view.forest_edges);
    EXPECT_EQ(oracle.trusted_vertices, ws_view.trusted_vertices);
  }
}

TEST(ForestEngine, ReferenceGateProducesIdenticalForests) {
  // The whole build path (clique extraction, phi, adjacency slabs) must
  // land on the oracle's forest, not just the bare MWSF call.
  for (const auto& [name, g] : engine_workloads()) {
    CliqueForest forest = CliqueForest::build(g);
    EXPECT_EQ(forest.cliques(), CliqueFamily(maximal_cliques_chordal(g)))
        << name;
    std::vector<std::pair<int, int>> reference;
    for (const auto& e : max_weight_spanning_forest_reference(
             forest.cliques(), g.num_vertices())) {
      reference.emplace_back(std::min(e.a, e.b), std::max(e.a, e.b));
    }
    std::sort(reference.begin(), reference.end());
    EXPECT_EQ(forest.forest_edges(), reference) << name;
  }
}

TEST(ForestEngine, DriverOutputsAndTelemetryEngineInvariant) {
  // MVC through per-node local views (one Lemma 2 family selection per
  // active node per peel iteration - the engine's hottest consumer) and the
  // full MIS driver: outputs and scrubbed telemetry must be identical at
  // every thread count.
  ThreadsRestorer restore;
  RandomChordalConfig config;
  config.n = 160;
  config.max_clique = 4;
  config.chain_bias = 0.9;
  config.seed = 5;
  Graph g = random_chordal(config);
  core::MvcOptions options;
  options.pruning = core::PruningMode::kPerNodeLocalViews;
  std::vector<core::MvcResult> mvc_results;
  std::vector<core::MisResult> mis_results;
  std::vector<std::string> telemetry;
  std::vector<std::string> labels;
  for (int threads : {1, 2, 8}) {
    support::set_num_threads(threads);
    obs::Registry reg;
    {
      obs::ScopedRegistry scope(reg);
      mvc_results.push_back(core::mvc_chordal(g, options));
      mis_results.push_back(core::mis_chordal(g));
    }
    telemetry.push_back(scrub_volatile(reg.to_json()));
    labels.push_back("threads=" + std::to_string(threads));
  }
  for (std::size_t i = 1; i < mvc_results.size(); ++i) {
    EXPECT_EQ(mvc_results[0].colors, mvc_results[i].colors) << labels[i];
    EXPECT_EQ(mvc_results[0].num_colors, mvc_results[i].num_colors)
        << labels[i];
    EXPECT_EQ(mvc_results[0].rounds, mvc_results[i].rounds) << labels[i];
    EXPECT_EQ(mvc_results[0].pruning_rounds, mvc_results[i].pruning_rounds)
        << labels[i];
    EXPECT_EQ(mvc_results[0].num_layers, mvc_results[i].num_layers)
        << labels[i];
    EXPECT_EQ(mis_results[0].chosen, mis_results[i].chosen) << labels[i];
    EXPECT_EQ(mis_results[0].rounds, mis_results[i].rounds) << labels[i];
    EXPECT_EQ(telemetry[0], telemetry[i]) << "telemetry diverged: "
                                          << labels[i];
  }
}

TEST(ForestEngine, FamilyEngineSteadyStateIsAllocationFree) {
  // After one warm-up pass the scratch buffers must have reached their
  // high-water marks: a second identical pass may not grow any capacity
  // (the observable proxy for "zero steady-state allocations" that does
  // not require hooking the global allocator).
  auto gen = random_chordal_from_clique_tree(
      {.num_bags = 120, .shape = TreeShape::kRandom, .seed = 21});
  CliqueForest forest = CliqueForest::build(gen.graph);
  ForestScratch scratch;
  std::vector<std::pair<int, int>> out;
  auto sweep = [&] {
    for (int v = 0; v < gen.graph.num_vertices(); ++v) {
      out.clear();
      family_forest_edges(forest.cliques(), forest.cliques_of(v), scratch,
                          out);
    }
  };
  sweep();  // warm-up
  const std::array<std::size_t, 6> caps = {
      scratch.occ.capacity(),    scratch.pair_a.capacity(),
      scratch.counts.capacity(), scratch.weights.capacity(),
      scratch.uf_parent.capacity(), scratch.vertex_stamp.capacity()};
  sweep();
  const std::array<std::size_t, 6> caps_after = {
      scratch.occ.capacity(),    scratch.pair_a.capacity(),
      scratch.counts.capacity(), scratch.weights.capacity(),
      scratch.uf_parent.capacity(), scratch.vertex_stamp.capacity()};
  EXPECT_EQ(caps, caps_after);
}

}  // namespace
}  // namespace chordal
