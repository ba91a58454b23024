// Differential suite for the linear-time Lex-BFS: lexbfs_order (linked-list
// partition refinement) must return exactly the order of the original
// ordered-set implementation, kept below as the oracle, on chordal graphs,
// non-chordal graphs (cycles, random G(n, p)), disconnected graphs and the
// n = 0 / n = 1 corners. Every consumer (PEO candidates, chordality
// recognition, clique extraction and with it the canonical clique family)
// inherits the order, so identity here is what keeps every downstream
// output bit-identical.
#include <gtest/gtest.h>

#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "graph/lexbfs.hpp"
#include "test_util.hpp"

namespace chordal {
namespace {

/// The original Lex-BFS: partition groups in a doubly linked list ordered
/// by label (largest first), each group's members in an ordered set so the
/// smallest id breaks ties. O((n + m) log n).
std::vector<int> reference_lexbfs_order(const Graph& g) {
  const int n = g.num_vertices();
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n));
  if (n == 0) return order;

  struct Group {
    std::set<int> members;
    int prev = -1;
    int next = -1;
  };
  std::vector<Group> groups;
  groups.reserve(static_cast<std::size_t>(n) + 1);
  groups.emplace_back();
  int head = 0;
  for (int v = 0; v < n; ++v) groups[0].members.insert(v);

  std::vector<int> group_of(static_cast<std::size_t>(n), 0);
  std::vector<char> visited(static_cast<std::size_t>(n), 0);
  // For the current pivot: split_target[g] = group created in front of g.
  std::vector<int> split_target(static_cast<std::size_t>(n) + 1, -1);
  std::vector<int> split_stamp(static_cast<std::size_t>(n) + 1, -1);

  for (int step = 0; step < n; ++step) {
    // Drop empty leading groups.
    while (head != -1 && groups[head].members.empty()) head = groups[head].next;
    int pivot = *groups[head].members.begin();
    groups[head].members.erase(groups[head].members.begin());
    visited[pivot] = 1;
    order.push_back(pivot);

    for (int w : g.neighbors(pivot)) {
      if (visited[w]) continue;
      int gw = group_of[w];
      if (split_stamp[gw] != step) {
        // Create a new group immediately in front of gw (larger label).
        split_stamp[gw] = step;
        groups.emplace_back();
        int ng = static_cast<int>(groups.size()) - 1;
        split_target[gw] = ng;
        groups[ng].prev = groups[gw].prev;
        groups[ng].next = gw;
        if (groups[gw].prev != -1) groups[groups[gw].prev].next = ng;
        groups[gw].prev = ng;
        if (head == gw) head = ng;
        if (split_stamp.size() < groups.size() + 1) {
          split_stamp.resize(groups.size() + 1, -1);
          split_target.resize(groups.size() + 1, -1);
        }
      }
      int ng = split_target[gw];
      groups[gw].members.erase(w);
      groups[ng].members.insert(w);
      group_of[w] = ng;
    }
  }
  return order;
}

Graph cycle_graph(int n) {
  GraphBuilder b(n);
  for (int v = 0; v < n; ++v) b.add_edge(v, (v + 1) % n);
  return b.build();
}

Graph gnp(int n, double p, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::bernoulli_distribution coin(p);
  GraphBuilder b(n);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (coin(rng)) b.add_edge(u, v);
    }
  }
  return b.build();
}

void expect_same_order(const std::string& name, const Graph& g) {
  EXPECT_EQ(reference_lexbfs_order(g), lexbfs_order(g)) << name;
}

TEST(LexBfs, EmptyAndSingleton) {
  EXPECT_TRUE(lexbfs_order(Graph()).empty());
  EXPECT_TRUE(lexbfs_order(GraphBuilder(0).build()).empty());
  EXPECT_EQ(lexbfs_order(GraphBuilder(1).build()), std::vector<int>{0});
  expect_same_order("two isolated", GraphBuilder(2).build());
}

TEST(LexBfs, MatchesReferenceOnChordalGraphs) {
  expect_same_order("paper_figure1", testing::paper_figure1_graph());
  expect_same_order("path", path_graph(50));
  expect_same_order("star", star_graph(20));
  expect_same_order("complete", complete_graph(15));
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    RandomChordalConfig config;
    config.n = 20 + static_cast<int>(seed) * 7;
    config.max_clique = 2 + static_cast<int>(seed % 7);
    config.chain_bias = static_cast<double>(seed % 10) / 10.0;
    config.seed = seed;
    expect_same_order("random_chordal " + std::to_string(seed),
                      random_chordal(config));
    expect_same_order(
        "k_tree " + std::to_string(seed),
        random_k_tree(30 + static_cast<int>(seed) * 5,
                      1 + static_cast<int>(seed % 6), seed));
  }
  for (TreeShape shape : {TreeShape::kPath, TreeShape::kCaterpillar,
                          TreeShape::kRandom, TreeShape::kBinary,
                          TreeShape::kSpider}) {
    CliqueTreeConfig config;
    config.num_bags = 60;
    config.shape = shape;
    config.seed = 3;
    expect_same_order("clique_tree " + std::to_string(static_cast<int>(shape)),
                      random_chordal_from_clique_tree(config).graph);
  }
  expect_same_order("staircase", staircase_interval(300, 0.7, 0.1, 5).graph);
  expect_same_order("streaming_k_tree", streaming_k_tree(3000, 3, 2));
}

TEST(LexBfs, MatchesReferenceOnNonChordalGraphs) {
  for (int n : {4, 5, 9, 40}) {
    expect_same_order("cycle " + std::to_string(n), cycle_graph(n));
  }
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    for (double p : {0.02, 0.1, 0.4}) {
      expect_same_order(
          "gnp seed=" + std::to_string(seed) + " p=" + std::to_string(p),
          gnp(60 + static_cast<int>(seed) * 3, p, seed));
    }
  }
}

TEST(LexBfs, MatchesReferenceOnDisconnectedGraphs) {
  // Isolated vertices, a cycle and a chordal part interleaved by id, so
  // every component restart must pick the smallest unvisited id.
  GraphBuilder b(30);
  for (int v = 0; v + 3 < 30; v += 3) b.add_edge(v, v + 3);  // a path
  b.add_edge(1, 4);
  b.add_edge(4, 7);
  b.add_edge(7, 10);
  b.add_edge(10, 1);  // a 4-cycle
  b.add_edge(13, 16);
  b.add_edge(16, 19);
  b.add_edge(13, 19);  // a triangle
  expect_same_order("mixed components", b.build());
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    expect_same_order("sparse gnp " + std::to_string(seed),
                      gnp(120, 0.01, seed));
  }
}

}  // namespace
}  // namespace chordal
