// Path-metric cache parity: PathMetricCache must be bit-identical to the
// plain path_* metrics (its oracles, called directly) on every path an MVC
// and an MIS peel visit, and the drivers built on it must land on the
// outputs Lemma 12 fixes: per-node pruning and the local-decision audits
// agree with the global peel.
#include <gtest/gtest.h>

#include <vector>

#include "cliqueforest/forest.hpp"
#include "cliqueforest/path_cache.hpp"
#include "core/local_decision.hpp"
#include "core/mis.hpp"
#include "core/mvc.hpp"
#include "core/peeling.hpp"
#include "graph/generators.hpp"
#include "test_util.hpp"

namespace chordal {
namespace {

Graph fuzz_graph(std::uint64_t seed) {
  RandomChordalConfig config;
  config.n = 140;
  config.max_clique = 5;
  config.chain_bias = 0.8;
  config.seed = seed;
  return random_chordal(config);
}

/// Runs every cached metric over `paths`, asserting each equals the plain
/// path_* oracle, then merges the log - one merge per call, as peel()
/// merges once per iteration.
void check_cached_metrics(const Graph& g, const CliqueForest& forest,
                          const std::vector<ForestPath>& paths,
                          PathMetricCache& cache) {
  std::vector<PathMetricCache::WorkerLog> logs(1);
  PathScratch scratch;
  PathIntervals storage;
  for (const ForestPath& path : paths) {
    EXPECT_EQ(cached_path_diameter(g, forest, path, scratch, cache, logs[0]),
              path_diameter(g, forest, path, scratch));
    EXPECT_EQ(cached_path_independence(forest, path, scratch, cache, logs[0]),
              path_independence(forest, path, scratch));
    const PathIntervals* rep = cached_path_intervals(forest, path, scratch,
                                                     storage, cache, logs[0]);
    PathIntervals fresh;
    path_intervals(forest, path, scratch, fresh);
    EXPECT_EQ(rep->vertices, fresh.vertices);
    EXPECT_EQ(rep->lo, fresh.lo);
    EXPECT_EQ(rep->hi, fresh.hi);
    EXPECT_EQ(rep->num_positions, fresh.num_positions);
  }
  cache.merge(logs);
}

/// Runs two identical passes of every metric over `g`'s maximal binary
/// paths, asserting cached == plain throughout, and returns the cache stats.
PathMetricCache::Stats path_cache_parity_passes(const Graph& g,
                                                std::size_t* cacheable_count) {
  CliqueForest forest = CliqueForest::build(g);
  std::vector<char> active(static_cast<std::size_t>(forest.num_cliques()), 1);
  auto paths = maximal_binary_paths(forest, active);
  EXPECT_FALSE(paths.empty());
  *cacheable_count = 0;
  for (const ForestPath& path : paths) {
    if (PathMetricCache::cacheable(path)) ++*cacheable_count;
  }
  PathMetricCache cache;
  for (int pass = 0; pass < 2; ++pass) {
    check_cached_metrics(g, forest, paths, cache);
  }
  return cache.stats();
}

/// Replays a finished peel through one metric cache, asserting cached ==
/// plain on every path it visits: each iteration's maximal binary paths
/// (from the recorded activity masks, so surviving paths hit), then the
/// taken layer paths whose interval models the MVC and MIS engines
/// re-derive when solving the layers.
PathMetricCache::Stats peel_path_cache_parity(const Graph& g,
                                              const core::PeelConfig& config) {
  CliqueForest forest = CliqueForest::build(g);
  core::PeelingResult peeling = core::peel(g, forest, config);
  EXPECT_FALSE(peeling.active_at.empty());
  PathMetricCache cache;
  for (const std::vector<char>& active : peeling.active_at) {
    check_cached_metrics(g, forest, maximal_binary_paths(forest, active),
                         cache);
  }
  std::vector<ForestPath> taken;
  for (const auto& layer : peeling.layers) {
    for (const core::LayerPath& lp : layer) taken.push_back(lp.path);
  }
  check_cached_metrics(g, forest, taken, cache);
  return cache.stats();
}

TEST(PathMetricCache, MetricsMatchUncachedAndOnlyLongPathsAreCached) {
  // Mixed workload: only paths of >= kMinCliques cliques enter the map.
  std::size_t cacheable = 0;
  PathMetricCache::Stats stats =
      path_cache_parity_passes(fuzz_graph(13), &cacheable);
  EXPECT_EQ(stats.entries, static_cast<std::int64_t>(cacheable));
  if (cacheable > 0) {
    EXPECT_GT(stats.hits, 0);
  }
}

TEST(PathMetricCache, LongPathHitsOnRepeat) {
  // A path-shaped clique tree is one long maximal binary path, guaranteed
  // past the kMinCliques gate: the second pass must hit on every metric.
  CliqueTreeConfig config;
  config.num_bags = 60;
  config.shape = TreeShape::kPath;
  config.seed = 7;
  std::size_t cacheable = 0;
  PathMetricCache::Stats stats = path_cache_parity_passes(
      random_chordal_from_clique_tree(config).graph, &cacheable);
  EXPECT_GT(cacheable, 0u);
  EXPECT_EQ(stats.entries, static_cast<std::int64_t>(cacheable));
  // Pass 1: three misses per path (diameter, independence, intervals - the
  // map only absorbs the worker log at the end of the pass). Pass 2: three
  // hits per path.
  EXPECT_EQ(stats.misses, 3 * static_cast<std::int64_t>(cacheable));
  EXPECT_EQ(stats.hits, stats.misses);
}

Graph driver_workload() {
  RandomChordalConfig config;
  config.n = 400;
  config.max_clique = 5;
  config.chain_bias = 0.85;
  config.seed = 47;
  return random_chordal(config);
}

// The metric cache on the driver workload, over every path the MVC peel
// visits (hits included) and the layer paths its coloring phase re-derives.
TEST(CacheParity, MvcIdenticalWithAndWithoutCache) {
  Graph g = driver_workload();
  std::size_t cacheable = 0;
  path_cache_parity_passes(g, &cacheable);
  core::MvcResult mvc = core::mvc_chordal(g);
  EXPECT_TRUE(testing::is_proper_coloring(g, mvc.colors));
  core::PeelConfig config;
  config.mode = core::PeelMode::kColoring;
  config.k = mvc.k;
  PathMetricCache::Stats stats = peel_path_cache_parity(g, config);
  EXPECT_GT(stats.hits, 0);
  EXPECT_GT(stats.entries, 0);
}

// The same over the MIS peel: every iteration up to the paper's bound, the
// last one switching to the independence threshold.
TEST(CacheParity, MisIdenticalWithAndWithoutCache) {
  Graph g = driver_workload();
  core::MisResult mis = core::mis_chordal(g);
  EXPECT_TRUE(testing::is_independent_set(g, mis.chosen));
  core::PeelConfig config;
  config.mode = core::PeelMode::kIndependentSet;
  config.d = mis.d;
  config.max_iterations = mis.iterations;
  PathMetricCache::Stats stats = peel_path_cache_parity(g, config);
  EXPECT_GT(stats.hits, 0);
  EXPECT_GT(stats.entries, 0);
}

// Per-node pruning decides every layer from the node's own local view;
// Lemma 12 says its decisions reproduce the global peeling, which reads
// the metric cache and touches no ball - so both must land on the same
// coloring.
TEST(CacheParity, PerNodePruningIdenticalWithAndWithoutCache) {
  RandomChordalConfig config;
  config.n = 160;
  config.max_clique = 4;
  config.chain_bias = 0.9;
  config.seed = 5;
  Graph g = random_chordal(config);
  core::MvcOptions options;
  options.pruning = core::PruningMode::kPerNodeLocalViews;
  core::MvcResult per_node = core::mvc_chordal(g, options);
  core::MvcResult global = core::mvc_chordal(g);
  EXPECT_EQ(per_node.colors, global.colors);
  EXPECT_EQ(per_node.num_colors, global.num_colors);
  EXPECT_EQ(per_node.num_layers, global.num_layers);
}

// The local-decision audits derive each sampled node's decision from its
// own ball and compare it with the global peel: zero mismatches over a
// nonzero number of checked decisions.
TEST(CacheParity, AuditsIdenticalWithAndWithoutCache) {
  RandomChordalConfig config;
  config.n = 200;
  config.max_clique = 4;
  config.chain_bias = 0.9;
  config.seed = 13;
  Graph g = random_chordal(config);
  CliqueForest forest = CliqueForest::build(g);
  const int k = 4;
  core::PeelConfig coloring_config;
  coloring_config.mode = core::PeelMode::kColoring;
  coloring_config.k = k;
  core::PeelingResult coloring_peel = core::peel(g, forest, coloring_config);
  const int d = 4;
  core::PeelConfig mis_config;
  mis_config.mode = core::PeelMode::kIndependentSet;
  mis_config.d = d;
  mis_config.max_iterations = 6;
  core::PeelingResult mis_peel = core::peel(g, forest, mis_config);
  core::LocalDecisionAudit coloring_audit =
      core::audit_local_pruning(g, forest, coloring_peel, k, 2);
  core::LocalDecisionAudit mis_audit =
      core::audit_local_pruning_mis(g, forest, mis_peel, d, 3);
  EXPECT_GT(coloring_audit.decisions_checked, 0);
  EXPECT_EQ(coloring_audit.mismatches, 0);
  EXPECT_GT(mis_audit.decisions_checked, 0);
  EXPECT_EQ(mis_audit.mismatches, 0);
}

}  // namespace
}  // namespace chordal
