// BallWorkspace parity: the library's collect_ball and compute_local_view
// (the workspace forms) must be bit-identical to the allocating oracles of
// local_oracle.hpp, including after heavy reuse of one workspace, under
// restricted active sets, and under the shrinking activity masks of the
// peel drivers, and must charge the same ledger rounds and telemetry.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "cliqueforest/local_view.hpp"
#include "graph/generators.hpp"
#include "local/ball.hpp"
#include "local/workspace.hpp"
#include "local_oracle.hpp"
#include "obs/metrics.hpp"
#include "test_util.hpp"

namespace chordal {
namespace {

using local::Ball;
using local::BallWorkspace;
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

void expect_same_ball(const Ball& ref, const Ball& ws) {
  EXPECT_EQ(ref.vertices, ws.vertices);
  EXPECT_EQ(ref.dist, ws.dist);
  ASSERT_EQ(ref.graph.num_vertices(), ws.graph.num_vertices());
  EXPECT_EQ(ref.graph.num_edges(), ws.graph.num_edges());
  EXPECT_EQ(adjacency(ref.graph), adjacency(ws.graph));
}

void expect_same_view(const LocalView& ref, const LocalView& ws) {
  EXPECT_EQ(ref.cliques, ws.cliques);
  EXPECT_EQ(ref.trusted_vertices, ws.trusted_vertices);
  EXPECT_EQ(ref.forest_edges, ws.forest_edges);
}

TEST(BallWorkspace, CollectBallMatchesAllocatingPath) {
  Graph g = testing::paper_figure1_graph();
  BallWorkspace workspace;
  Ball out;
  for (int radius = 1; radius <= 5; ++radius) {
    for (int v = 0; v < g.num_vertices(); ++v) {
      Ball ref = testing::oracle_collect_ball(g, v, radius, nullptr, nullptr);
      local::collect_ball(g, v, radius, nullptr, nullptr, workspace, out);
      expect_same_ball(ref, out);
    }
  }
}

TEST(BallWorkspace, CollectBallMatchesUnderActiveMask) {
  RandomChordalConfig config;
  config.n = 120;
  config.max_clique = 5;
  config.seed = 7;
  Graph g = random_chordal(config);
  // Deterministic mask knocking out a third of the vertices.
  std::vector<char> active(static_cast<std::size_t>(g.num_vertices()), 1);
  for (int v = 0; v < g.num_vertices(); v += 3) active[v] = 0;
  BallWorkspace workspace;
  Ball out;
  for (int v = 0; v < g.num_vertices(); ++v) {
    if (!active[v]) continue;
    Ball ref = testing::oracle_collect_ball(g, v, 3, &active, nullptr);
    local::collect_ball(g, v, 3, &active, nullptr, workspace, out);
    expect_same_ball(ref, out);
  }
}

TEST(BallWorkspace, ReusedWorkspaceStaysExact) {
  // The whole point of the workspace: repeated collections on one instance
  // must not leak state between calls (epoch stamping, no clears).
  Graph g = caterpillar(30, 2);
  BallWorkspace workspace;
  Ball out;
  for (int pass = 0; pass < 3; ++pass) {
    for (int v = 0; v < g.num_vertices(); ++v) {
      int radius = 1 + (v + pass) % 4;
      Ball ref = testing::oracle_collect_ball(g, v, radius, nullptr, nullptr);
      local::collect_ball(g, v, radius, nullptr, nullptr, workspace, out);
      expect_same_ball(ref, out);
    }
  }
}

TEST(BallWorkspace, ChargesSameLedgerRounds) {
  Graph g = testing::paper_figure1_graph();
  RoundLedger ref_ledger(g.num_vertices());
  RoundLedger ws_ledger(g.num_vertices());
  BallWorkspace workspace;
  Ball out;
  for (int v = 0; v < g.num_vertices(); ++v) {
    testing::oracle_collect_ball(g, v, 2 + v % 3, nullptr, &ref_ledger);
    local::collect_ball(g, v, 2 + v % 3, nullptr, &ws_ledger, workspace, out);
  }
  for (int v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(ref_ledger.clock(v), ws_ledger.clock(v));
  }
  EXPECT_EQ(ref_ledger.max_clock(), ws_ledger.max_clock());
}

TEST(BallWorkspace, ChargesSameTelemetry) {
  Graph g = testing::paper_figure1_graph();
  obs::Registry ref_reg, ws_reg;
  {
    obs::ScopedRegistry scope(ref_reg);
    for (int v = 0; v < g.num_vertices(); ++v) {
      testing::oracle_collect_ball(g, v, 3, nullptr, nullptr);
    }
  }
  {
    obs::ScopedRegistry scope(ws_reg);
    BallWorkspace workspace;
    Ball out;
    for (int v = 0; v < g.num_vertices(); ++v) {
      local::collect_ball(g, v, 3, nullptr, nullptr, workspace, out);
    }
  }
  const obs::Counter* ref_c = ref_reg.find_counter("ball.collections");
  const obs::Counter* ws_c = ws_reg.find_counter("ball.collections");
  ASSERT_NE(ref_c, nullptr);
  ASSERT_NE(ws_c, nullptr);
  EXPECT_EQ(ref_c->value(), ws_c->value());
  const obs::Histogram* ref_h = ref_reg.find_histogram("ball.volume_words");
  const obs::Histogram* ws_h = ws_reg.find_histogram("ball.volume_words");
  ASSERT_NE(ref_h, nullptr);
  ASSERT_NE(ws_h, nullptr);
  EXPECT_EQ(ref_h->count(), ws_h->count());
  EXPECT_EQ(ref_h->mean(), ws_h->mean());
  EXPECT_EQ(ref_h->max(), ws_h->max());
}

TEST(BallWorkspace, LocalViewMatchesAllocatingPath) {
  Graph g = testing::paper_figure1_graph();
  BallWorkspace workspace;
  LocalView out;
  for (int radius = 2; radius <= 6; ++radius) {
    for (int v = 0; v < g.num_vertices(); ++v) {
      LocalView ref = testing::oracle_local_view(g, v, radius, nullptr);
      local::compute_local_view(g, v, radius, nullptr, workspace, out);
      expect_same_view(ref, out);
    }
  }
}

TEST(BallWorkspace, LocalViewMatchesOnRandomChordalWithMask) {
  RandomChordalConfig config;
  config.n = 90;
  config.max_clique = 4;
  config.chain_bias = 0.8;
  config.seed = 21;
  Graph g = random_chordal(config);
  std::vector<char> active(static_cast<std::size_t>(g.num_vertices()), 1);
  for (int v = 1; v < g.num_vertices(); v += 4) active[v] = 0;
  BallWorkspace workspace;
  LocalView out;
  for (int v = 0; v < g.num_vertices(); ++v) {
    if (!active[v]) continue;
    LocalView ref = testing::oracle_local_view(g, v, 4, &active);
    local::compute_local_view(g, v, 4, &active, workspace, out);
    expect_same_view(ref, out);
  }
}

TEST(BallWorkspace, LastBallDistReportsRestrictedDistances) {
  Graph g = path_graph(12);
  BallWorkspace workspace;
  LocalView out;
  local::compute_local_view(g, 5, 3, nullptr, workspace, out);
  for (int v = 0; v < g.num_vertices(); ++v) {
    int expected = std::abs(v - 5) <= 3 ? std::abs(v - 5) : -1;
    EXPECT_EQ(workspace.last_ball_dist(v), expected) << "v=" << v;
  }
}

Graph schedule_graph(std::uint64_t seed) {
  RandomChordalConfig config;
  config.n = 140;
  config.max_clique = 5;
  config.chain_bias = 0.8;
  config.seed = seed;
  return random_chordal(config);
}

/// Deactivates a random ~12% of the still-active vertices, as one peel
/// iteration of the per-node drivers does; deterministic given the rng.
void deactivate_random_batch(std::vector<char>& active, std::mt19937& rng) {
  std::vector<int> batch;
  for (int v = 0; v < static_cast<int>(active.size()); ++v) {
    if (active[v] && rng() % 100 < 12) batch.push_back(v);
  }
  for (int v : batch) active[v] = 0;
}

TEST(BallWorkspace, CollectBallMatchesOracleUnderDeactivationSchedules) {
  // One workspace across a shrinking mask and varying radii, with the
  // ledger charges compared at the end.
  for (std::uint64_t seed : {3u, 17u, 29u}) {
    Graph g = schedule_graph(seed);
    std::vector<char> active(static_cast<std::size_t>(g.num_vertices()), 1);
    RoundLedger ref_ledger(g.num_vertices());
    RoundLedger ws_ledger(g.num_vertices());
    BallWorkspace workspace;
    Ball out;
    std::mt19937 rng(static_cast<unsigned>(seed * 1009 + 1));
    for (int epoch = 0; epoch < 6; ++epoch) {
      for (int v = 0; v < g.num_vertices(); ++v) {
        if (!active[v]) continue;
        int radius = 2 + (v + epoch / 2) % 3;
        Ball ref = testing::oracle_collect_ball(g, v, radius, &active,
                                                &ref_ledger);
        local::collect_ball(g, v, radius, &active, &ws_ledger, workspace, out);
        expect_same_ball(ref, out);
      }
      deactivate_random_batch(active, rng);
    }
    for (int v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(ref_ledger.clock(v), ws_ledger.clock(v)) << "v=" << v;
    }
  }
}

TEST(BallWorkspace, LocalViewMatchesOracleUnderDeactivationSchedules) {
  for (std::uint64_t seed : {5u, 23u}) {
    Graph g = schedule_graph(seed);
    std::vector<char> active(static_cast<std::size_t>(g.num_vertices()), 1);
    BallWorkspace workspace;
    LocalView out;
    std::mt19937 rng(static_cast<unsigned>(seed * 7 + 3));
    for (int epoch = 0; epoch < 4; ++epoch) {
      for (int v = 0; v < g.num_vertices(); ++v) {
        if (!active[v]) continue;
        LocalView ref = testing::oracle_local_view(g, v, 4, &active);
        local::compute_local_view(g, v, 4, &active, workspace, out);
        expect_same_view(ref, out);
      }
      deactivate_random_batch(active, rng);
    }
  }
}

TEST(BallWorkspace, LastBallDistMatchesOracleUnderDeactivationSchedules) {
  // The per-node pruning rule reads ball distances through last_ball_dist:
  // after each view it must give the oracle ball's distance for members
  // and -1 for every other vertex.
  Graph g = schedule_graph(11);
  std::vector<char> active(static_cast<std::size_t>(g.num_vertices()), 1);
  BallWorkspace workspace;
  LocalView out;
  std::mt19937 rng(77);
  for (int epoch = 0; epoch < 3; ++epoch) {
    for (int v = 0; v < g.num_vertices(); v += 3) {
      if (!active[v]) continue;
      local::compute_local_view(g, v, 4, &active, workspace, out);
      Ball ref = testing::oracle_collect_ball(g, v, 4, &active);
      std::vector<int> expected(static_cast<std::size_t>(g.num_vertices()), -1);
      for (std::size_t i = 0; i < ref.vertices.size(); ++i) {
        expected[ref.vertices[i]] = ref.dist[i];
      }
      for (int u = 0; u < g.num_vertices(); ++u) {
        EXPECT_EQ(workspace.last_ball_dist(u), expected[u])
            << "center " << v << " vertex " << u;
      }
    }
    deactivate_random_batch(active, rng);
  }
}

}  // namespace
}  // namespace chordal
