// Cross-iteration cache parity: BallCache (balls, local views, ledgers,
// telemetry replay) and PathMetricCache must be bit-identical to the
// uncached recompute paths under arbitrary monotone deactivation schedules
// and radius growth. The oracles - the workspace and allocating
// collect_ball / compute_local_view and the plain path_* metrics - are
// called directly: the fuzz tests drive random chordal graphs through
// random deactivation batches and compare every lookup against a fresh
// collection, and the driver tests replay every path an MVC and an MIS
// peel visit through the metric cache.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "cliqueforest/forest.hpp"
#include "cliqueforest/local_view.hpp"
#include "cliqueforest/path_cache.hpp"
#include "core/local_decision.hpp"
#include "core/mis.hpp"
#include "core/mvc.hpp"
#include "core/peeling.hpp"
#include "graph/generators.hpp"
#include "local/ball.hpp"
#include "local/ball_cache.hpp"
#include "local/workspace.hpp"
#include "obs/metrics.hpp"
#include "test_util.hpp"

namespace chordal {
namespace {

using local::Ball;
using local::BallCache;
using local::RoundLedger;

std::vector<std::vector<int>> adjacency(const Graph& g) {
  std::vector<std::vector<int>> adj;
  adj.reserve(static_cast<std::size_t>(g.num_vertices()));
  for (int v = 0; v < g.num_vertices(); ++v) {
    const auto& nbrs = g.neighbors(v);
    adj.emplace_back(nbrs.begin(), nbrs.end());
  }
  return adj;
}

void expect_same_ball(const Ball& ref, const Ball& got) {
  EXPECT_EQ(ref.vertices, got.vertices);
  EXPECT_EQ(ref.dist, got.dist);
  ASSERT_EQ(ref.graph.num_vertices(), got.graph.num_vertices());
  EXPECT_EQ(ref.graph.num_edges(), got.graph.num_edges());
  EXPECT_EQ(adjacency(ref.graph), adjacency(got.graph));
}

void expect_same_view(const LocalView& ref, const LocalView& got) {
  EXPECT_EQ(ref.cliques, got.cliques);
  EXPECT_EQ(ref.trusted_vertices, got.trusted_vertices);
  EXPECT_EQ(ref.forest_edges, got.forest_edges);
}

Graph fuzz_graph(std::uint64_t seed) {
  RandomChordalConfig config;
  config.n = 140;
  config.max_clique = 5;
  config.chain_bias = 0.8;
  config.seed = seed;
  return random_chordal(config);
}

/// A random deactivation batch over the still-active vertices (possibly
/// empty); deterministic given the rng state.
std::vector<int> random_batch(const std::vector<char>& active,
                              std::mt19937& rng) {
  std::vector<int> batch;
  for (int v = 0; v < static_cast<int>(active.size()); ++v) {
    if (active[v] && rng() % 100 < 12) batch.push_back(v);
  }
  return batch;
}

/// Registry JSON with wall-clock timings and the cache.* counters removed:
/// a cached run publishes cache statistics the direct workspace calls do
/// not, and everything else must match byte for byte.
std::string scrub_volatile(const std::string& json) {
  std::string out;
  std::size_t i = 0;
  while (i < json.size()) {
    bool drop = json.compare(i, 7, "\"cache.") == 0 ||
                json.compare(i, 10, "\"wall_ms\":") == 0;
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

TEST(BallCacheFuzz, CollectBallMatchesFreshUnderDeactivationSchedules) {
  for (std::uint64_t seed : {3u, 17u, 29u}) {
    Graph g = fuzz_graph(seed);
    BallCache cache(g);
    BallCache::Shard& shard = cache.shard(0);
    std::mt19937 rng(static_cast<unsigned>(seed * 1009 + 1));
    for (int epoch = 0; epoch < 6; ++epoch) {
      for (int v = 0; v < g.num_vertices(); ++v) {
        if (!cache.active()[v]) continue;
        // Varying radius exercises hits (same, every other epoch),
        // extensions (larger), and rebuilds (smaller) on one entry history.
        int radius = 2 + (v + epoch / 2) % 3;
        Ball fresh = local::collect_ball(g, v, radius, &cache.active(),
                                         nullptr);
        const Ball& cached = shard.collect_ball(v, radius);
        expect_same_ball(fresh, cached);
      }
      cache.deactivate(random_batch(cache.active(), rng));
    }
    BallCache::Stats stats = cache.stats();
    EXPECT_GT(stats.hits, 0) << "seed " << seed;
    EXPECT_GT(stats.extensions, 0) << "seed " << seed;
    EXPECT_GT(stats.invalidations, 0) << "seed " << seed;
    EXPECT_GT(stats.resident_words, 0) << "seed " << seed;
  }
}

TEST(BallCacheFuzz, RadiusGrowthExtendsBitIdentically) {
  Graph g = fuzz_graph(41);
  BallCache cache(g);
  BallCache::Shard& shard = cache.shard(0);
  std::mt19937 rng(4242);
  // Ascending radii per center force the frontier-resume path; interleaved
  // deactivations force extensions of both pristine and rebuilt entries.
  for (int radius = 1; radius <= 6; ++radius) {
    for (int v = 0; v < g.num_vertices(); ++v) {
      if (!cache.active()[v]) continue;
      Ball fresh = local::collect_ball(g, v, radius, &cache.active(), nullptr);
      expect_same_ball(fresh, shard.collect_ball(v, radius));
    }
    if (radius % 2 == 0) cache.deactivate(random_batch(cache.active(), rng));
  }
  EXPECT_GT(cache.stats().extensions, 0);
}

TEST(BallCacheFuzz, LocalViewMatchesFreshAndRevisionTracksContent) {
  for (std::uint64_t seed : {5u, 23u}) {
    Graph g = fuzz_graph(seed);
    BallCache cache(g);
    BallCache::Shard& shard = cache.shard(0);
    std::mt19937 rng(static_cast<unsigned>(seed * 7 + 3));
    std::vector<std::uint64_t> last_revision(
        static_cast<std::size_t>(g.num_vertices()), 0);
    std::vector<char> had_entry(static_cast<std::size_t>(g.num_vertices()), 0);
    for (int epoch = 0; epoch < 4; ++epoch) {
      for (int v = 0; v < g.num_vertices(); ++v) {
        if (!cache.active()[v]) continue;
        LocalView fresh = compute_local_view(g, v, 4, &cache.active());
        BallCache::ViewRef ref = shard.local_view(v, 4);
        expect_same_view(fresh, *ref.view);
        if (ref.hit) {
          // A hit may only be served while the content version is the one
          // the previous lookup reported.
          EXPECT_TRUE(had_entry[v]);
          EXPECT_EQ(ref.revision, last_revision[v]) << "v=" << v;
        }
        // Same lookup again: must hit with an unchanged revision.
        BallCache::ViewRef again = shard.local_view(v, 4);
        EXPECT_TRUE(again.hit);
        EXPECT_EQ(again.revision, ref.revision);
        expect_same_view(fresh, *again.view);
        last_revision[v] = ref.revision;
        had_entry[v] = 1;
      }
      cache.deactivate(random_batch(cache.active(), rng));
    }
  }
}

TEST(BallCacheFuzz, BallDistMatchesWorkspaceStamps) {
  Graph g = fuzz_graph(11);
  BallCache cache(g);
  BallCache::Shard& shard = cache.shard(0);
  local::BallWorkspace reference_ws;
  LocalView scratch_view;
  std::mt19937 rng(77);
  for (int epoch = 0; epoch < 3; ++epoch) {
    for (int v = 0; v < g.num_vertices(); v += 3) {
      if (!cache.active()[v]) continue;
      local::compute_local_view(g, v, 4, &cache.active(), reference_ws,
                                scratch_view);
      BallCache::ViewRef ref = shard.local_view(v, 4);
      if (ref.hit) shard.ensure_dists(v);
      for (int u = 0; u < g.num_vertices(); ++u) {
        EXPECT_EQ(shard.ball_dist(u), reference_ws.last_ball_dist(u))
            << "center " << v << " vertex " << u;
      }
    }
    cache.deactivate(random_batch(cache.active(), rng));
  }
}

TEST(BallCache, LedgerParityCachedVsUncached) {
  Graph g = fuzz_graph(19);
  BallCache cached(g);
  local::BallWorkspace ws;
  Ball scratch;
  RoundLedger cached_ledger(g.num_vertices());
  RoundLedger uncached_ledger(g.num_vertices());
  std::mt19937 rng(55);
  for (int epoch = 0; epoch < 4; ++epoch) {
    for (int v = 0; v < g.num_vertices(); ++v) {
      if (!cached.active()[v]) continue;
      int radius = 2 + v % 2;
      cached.shard(0).collect_ball(v, radius, &cached_ledger);
      local::collect_ball(g, v, radius, &cached.active(), &uncached_ledger,
                          ws, scratch);
    }
    cached.deactivate(random_batch(cached.active(), rng));
  }
  for (int v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(cached_ledger.clock(v), uncached_ledger.clock(v)) << "v=" << v;
  }
  EXPECT_EQ(cached_ledger.max_clock(), uncached_ledger.max_clock());
  EXPECT_GT(cached.stats().hits, 0);
}

TEST(BallCache, TelemetryReplayMatchesUncached) {
  Graph g = fuzz_graph(31);
  // One lookup schedule, run through the cache and then as direct workspace
  // collections under an identically evolving activity mask.
  obs::Registry cached_reg;
  {
    obs::ScopedRegistry scope(cached_reg);
    BallCache cache(g);
    std::mt19937 rng(99);
    for (int epoch = 0; epoch < 3; ++epoch) {
      for (int v = 0; v < g.num_vertices(); ++v) {
        if (!cache.active()[v]) continue;
        cache.shard(0).collect_ball(v, 3);
      }
      cache.deactivate(random_batch(cache.active(), rng));
    }
  }
  obs::Registry direct_reg;
  {
    obs::ScopedRegistry scope(direct_reg);
    std::vector<char> active(static_cast<std::size_t>(g.num_vertices()), 1);
    local::BallWorkspace ws;
    Ball scratch;
    std::mt19937 rng(99);
    for (int epoch = 0; epoch < 3; ++epoch) {
      for (int v = 0; v < g.num_vertices(); ++v) {
        if (!active[v]) continue;
        local::collect_ball(g, v, 3, &active, nullptr, ws, scratch);
      }
      for (int v : random_batch(active, rng)) active[v] = 0;
    }
  }
  // Hits replay the exact counter bump and histogram sample of a fresh
  // collection, so everything except the cache.* stats is byte-identical.
  EXPECT_EQ(scrub_volatile(cached_reg.to_json()),
            scrub_volatile(direct_reg.to_json()));
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

Graph path_graph(int n) {
  GraphBuilder b(n);
  for (int v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1);
  return b.build();
}

// Regression for the remove/re-insert aliasing hole in the monotone-epoch
// design: a ball rebuilt while v was deactivated does not contain v, so it
// is not indexed under v, and flipping the activity mask back on without
// further invalidation would serve that stale ball forever - missing v and
// everything behind it. reactivate() must kill the entries holding a
// neighbor of v (the only balls a revived v can enter).
TEST(BallCacheDynamic, ReactivationInvalidatesBallsThatCanAbsorb) {
  Graph g = path_graph(5);  // 0-1-2-3-4
  BallCache cache(g);
  BallCache::Shard& shard = cache.shard(0);
  const Ball full = shard.collect_ball(0, 4);
  ASSERT_EQ(full.vertices.size(), 5u);

  int dead[] = {2};
  cache.deactivate(dead);
  const Ball cut = shard.collect_ball(0, 4);  // rebuild: {0, 1}
  ASSERT_EQ(cut.vertices.size(), 2u);

  cache.reactivate(dead);
  // The {0, 1} entry contains 1, a neighbor of 2, so it must have died;
  // a stale hit here would return {0, 1} again.
  Ball fresh = local::collect_ball(g, 0, 4, &cache.active(), nullptr);
  EXPECT_EQ(fresh.vertices.size(), 5u);
  expect_same_ball(fresh, shard.collect_ball(0, 4));
}

TEST(BallCacheDynamic, ReactivationLeavesDisjointBallsCached) {
  Graph g = path_graph(8);
  BallCache cache(g);
  BallCache::Shard& shard = cache.shard(0);
  shard.collect_ball(7, 1);  // ball {6, 7}: no neighbor of 2
  std::int64_t hits_before = cache.stats().hits;
  int dead[] = {2};
  cache.deactivate(dead);
  cache.reactivate(dead);
  // 2's reactivation cannot change a ball that holds no neighbor of 2.
  shard.collect_ball(7, 1);
  EXPECT_EQ(cache.stats().hits, hits_before + 1);
}

TEST(BallCacheDynamic, ActivityGenerationDistinguishesIncarnations) {
  Graph g = path_graph(4);
  BallCache cache(g);
  EXPECT_EQ(cache.activity_generation(1), 0u);
  int batch[] = {1};
  cache.deactivate(batch);
  EXPECT_GT(cache.deactivation_epoch(1), 0u);
  cache.reactivate(batch);
  EXPECT_EQ(cache.activity_generation(1), 1u);
  EXPECT_EQ(cache.deactivation_epoch(1), 0u) << "epoch must reset on revive";
  EXPECT_EQ(cache.active()[1], 1);
  // Reactivating an active vertex is a no-op, not a new incarnation.
  cache.reactivate(batch);
  EXPECT_EQ(cache.activity_generation(1), 1u);
  // A second remove/re-insert cycle is a second incarnation.
  cache.deactivate(batch);
  cache.reactivate(batch);
  EXPECT_EQ(cache.activity_generation(1), 2u);
}

TEST(BallCacheDynamic, InvalidateTouchedKillsExactlyContainingEntries) {
  Graph g = path_graph(8);
  BallCache cache(g);
  BallCache::Shard& shard = cache.shard(0);
  shard.collect_ball(0, 2);  // {0, 1, 2}
  shard.collect_ball(6, 1);  // {5, 6, 7}
  std::int64_t hits_before = cache.stats().hits;
  int touched[] = {1};
  cache.invalidate_touched(touched);
  shard.collect_ball(6, 1);  // untouched region: still a hit
  EXPECT_EQ(cache.stats().hits, hits_before + 1);
  shard.collect_ball(0, 2);  // contained 1: must rebuild
  EXPECT_EQ(cache.stats().hits, hits_before + 1);
  EXPECT_GE(cache.stats().invalidations, 1);
}

TEST(BallCacheDynamic, RebindGrowsTablesAndServesNewSlots) {
  Graph small = path_graph(4);
  BallCache cache(small);
  BallCache::Shard& shard = cache.shard(0);
  shard.collect_ball(0, 2);  // builds the per-vertex tables at n=4
  Graph big = path_graph(6);
  cache.rebind(big);
  // Slots 0..3 have identical rows in both snapshots except 3 (gained 4),
  // which the dynamic layer reports as touched.
  int touched[] = {3, 4};
  cache.invalidate_touched(touched);
  for (int v = 0; v < 6; ++v) {
    Ball fresh = local::collect_ball(big, v, 3, &cache.active(), nullptr);
    expect_same_ball(fresh, shard.collect_ball(v, 3));
  }
  EXPECT_EQ(cache.activity_generation(5), 0u);
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

// Per-node pruning serves every local view from the BallCache; Lemma 12
// says its decisions reproduce the global peeling, which touches no ball
// at all - so the cached pruning must land on the global coloring.
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

// The local-decision audits read every view through the BallCache and
// compare the decision with the (cache-free) global peel: zero mismatches
// over a nonzero number of checked decisions.
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
