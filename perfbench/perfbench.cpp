// perfbench - the repository's end-to-end benchmark.
//
// One process runs one workload as a closed loop with a single caller: a
// stream of seeded chordal graphs of one family. Each graph is handed to
// the library as an edge stream (CsrAssembler ingest) and adopted by
// DynamicChordal - together the set-up - and then driven through the
// public API from outside:
//
//   solve   = is_chordal + core::mvc_chordal + core::mis_chordal at the
//             paper's default eps, every result checked (core::checks, plus
//             the Theorem 3/7 ratios against omega and alpha from
//             baselines::, computed per graph outside the timed calls);
//   updates = a fixed number of applied updates of the seeded E17 churn mix
//             (bench/bench_dynamic.cpp) through DynamicChordal, each timed;
//             certified rejections are expected and are not failures.
//
// Per-graph metrics, update latency percentiles among them, are reported as
// medians over the run's graphs, update throughput as the median over the
// run's blocks of consecutive updates.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--threads <t>]
//
// --trace 0 reports end-to-end metrics of untraced calls. --trace 1
// installs an obs::Registry, wraps every public call of every layer in a
// benchmark span (the library's own phase spans nest below) and reports
// per-layer metrics instead. The last stdout line is one JSON object
// {correct, attempted, failed, metrics}; the line before it names the
// workload, seed and worker count.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <map>
#include <new>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "baselines/baselines.hpp"
#include "cliqueforest/forest.hpp"
#include "core/checks.hpp"
#include "core/dynamic.hpp"
#include "core/mis.hpp"
#include "core/mvc.hpp"
#include "core/peeling.hpp"
#include "graph/cliques.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/lexbfs.hpp"
#include "graph/peo.hpp"
#include "interval/col_int_graph.hpp"
#include "interval/rep.hpp"
#include "obs/metrics.hpp"
#include "obs/rss.hpp"
#include "obs/span.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

// Process-wide allocation counter (the bench_scale / bench_forest pattern)
// for the per-layer *_allocs metrics.
namespace {
std::atomic<long long> g_allocs{0};
}  // namespace

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

using namespace chordal;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

constexpr double kMb = 1024.0 * 1024.0;

struct Workload {
  const char* name;
  bool interval;      // streaming_interval_graph, else streaming_k_tree(k=3)
  long long n;
  double min_len;     // interval lengths (interval families only)
  double max_len;
  long long updates;  // applied updates per graph
  long long block;    // applied updates per throughput sample
};

// Why these two: see BENCHMARK.json. A k-tree's cost follows its few hub
// vertices and varies widely from graph to graph, so the k-tree graphs are
// small enough for a run to take the median over dozens of them. Update cost
// is heavy-tailed on both families (on an interval graph the slowest 1% of
// updates take about a fifth of the churn's time), so every graph is churned
// for several blocks of updates and throughput is a median over blocks. A
// graph's p99 update latency has at least ten updates above it.
const Workload kWorkloads[] = {
    {"interval", true, 100'000, 4.0, 8.0, 10'000, 2'000},
    {"ktree", false, 10'000, 0, 0, 1'200, 300},
};

// Dense intervals (omega about 42-45), where ColIntGraph's window solver
// leads mvc_chordal. Its time swings from 0.1 s to 11 s between seeds, too
// far for a bounded end-to-end metric, so the interval workload's traced
// pass solves one such graph and reports it per layer, unfiltered.
constexpr Workload kDenseIntervals = {"interval-dense", true, 10'000, 16.0,
                                      32.0, 0, 0};

// Every untraced run sets up, solves and churns at least this many graphs
// after its warm-up graph, so each per-graph metric is a median of at least
// three samples.
constexpr int kMinGraphs = 3;

/// Seed of the i-th graph of a run: a pure function of (seed, i).
std::uint64_t instance_seed(std::uint64_t seed, int i) {
  std::uint64_t state = seed * 0x100000001b3ULL + static_cast<std::uint64_t>(i);
  return splitmix64(state);
}

struct Instance {
  Graph graph;
  std::vector<double> left, right;  // interval geometry, empty for k-trees
};

/// Generation (the benchmark's input maker) plus CSR ingest (the library's
/// bulk-ingest path): the library only ever sees the edge stream.
Instance make_instance(const Workload& w, std::uint64_t seed) {
  Instance inst;
  Graph generated;
  if (w.interval) {
    StreamingIntervalConfig config;
    config.n = w.n;
    config.min_len = w.min_len;
    config.max_len = w.max_len;
    config.seed = seed;
    StreamingInterval gen = streaming_interval_graph(config);
    generated = std::move(gen.graph);
    inst.left = std::move(gen.left);
    inst.right = std::move(gen.right);
  } else {
    generated = streaming_k_tree(w.n, 3, seed);
  }
  CsrAssembler csr(generated.num_vertices());
  csr.reserve_edges(static_cast<long long>(generated.num_edges()));
  for (int u = 0; u < generated.num_vertices(); ++u) {
    for (VertexId v : generated.neighbors(u)) {
      if (u < static_cast<int>(v)) csr.add_edge(u, v);
    }
  }
  inst.graph = csr.finish();
  return inst;
}

// ---------------------------------------------------------------------------
// Checked solve
// ---------------------------------------------------------------------------

struct Reference {
  int omega = 0;  // chi(G) == omega(G) on chordal graphs
  int alpha = 0;
};

Reference reference(const Graph& g) {
  return {baselines::chromatic_number_chordal(g),
          baselines::independence_number_chordal(g)};
}

struct SolveSample {
  double solve_ms = 0, mvc_ms = 0, mis_ms = 0;
  core::MvcResult mvc;
  core::MisResult mis;
  bool chordal = false;
};

SolveSample solve(const Graph& g) {
  SolveSample s;
  const auto t0 = Clock::now();
  s.chordal = is_chordal(g);
  const auto t1 = Clock::now();
  s.mvc = core::mvc_chordal(g, {});
  s.mvc_ms = ms_since(t1);
  const auto t2 = Clock::now();
  s.mis = core::mis_chordal(g, {});
  s.mis_ms = ms_since(t2);
  s.solve_ms = ms_since(t0);
  return s;
}

/// Empty when the coloring is proper and within (1+eps) * omega, else the
/// failed check.
std::string check_coloring(const Graph& g, const core::MvcResult& mvc,
                           int omega) {
  try {
    core::require_proper_coloring(g, mvc.colors);
  } catch (const std::exception& e) {
    return e.what();
  }
  if (mvc.num_colors > (1.0 + core::MvcOptions{}.eps) * omega) {
    return "coloring uses " + std::to_string(mvc.num_colors) +
           " colors > (1+eps) * omega, omega = " + std::to_string(omega);
  }
  return {};
}

/// Empty when the solve is correct, else the first failed check.
std::string check_solve(const Graph& g, const SolveSample& s,
                        const Reference& ref) {
  if (!s.chordal) return "is_chordal rejected a chordal graph";
  if (std::string error = check_coloring(g, s.mvc, ref.omega);
      !error.empty()) {
    return error;
  }
  try {
    core::require_independent_set(g, s.mis.chosen);
  } catch (const std::exception& e) {
    return e.what();
  }
  if (static_cast<double>(s.mis.chosen.size()) *
          (1.0 + core::MisOptions{}.eps) <
      ref.alpha) {
    return "MIS of size " + std::to_string(s.mis.chosen.size()) +
           " below alpha / (1+eps), alpha = " + std::to_string(ref.alpha);
  }
  return {};
}

// ---------------------------------------------------------------------------
// Update loop: the E17 churn mix of bench/bench_dynamic.cpp
// ---------------------------------------------------------------------------

enum UpdateKind { kInsertEdge, kDeleteEdge, kInsertVertex, kDeleteVertex };
constexpr const char* kKindNames[] = {"insert_edge", "delete_edge",
                                      "insert_vertex", "delete_vertex"};

struct ChurnResult {
  long long attempted = 0;
  long long applied = 0;
  long long rejected = 0;  // certified refusals (ChordalityViolation)
  long long failed = 0;    // any other exception
  // Applied updates per second of each run of `block` applied updates,
  // rejections included in its time.
  std::vector<double> block_rates;
  std::vector<double> latency_us;  // applied updates
  std::vector<double> kind_us[4];
  std::string first_error;
};

/// Random alive vertex with degree in [1, max_deg]; -1 when the sampling
/// budget runs out.
int pick_vertex(const DynamicGraph& g, Rng& rng, int max_deg) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    int v = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(g.num_slots())));
    if (g.alive(v) && g.degree(v) >= 1 && g.degree(v) <= max_deg) return v;
  }
  return -1;
}

/// Greedy clique inside N[u], capped at 4 vertices: always a valid
/// insert_vertex neighborhood.
std::vector<int> clique_around(const DynamicGraph& g, int u, Rng& rng) {
  std::vector<int> clique{u};
  auto nbrs = g.neighbors(u);
  if (nbrs.empty()) return clique;
  std::size_t start = rng.next_below(nbrs.size());
  for (std::size_t i = 0; i < nbrs.size() && clique.size() < 4; ++i) {
    int w = static_cast<int>(nbrs[(start + i) % nbrs.size()]);
    bool joins = true;
    for (int c : clique) {
      if (c != u && !g.has_edge(w, c)) {
        joins = false;
        break;
      }
    }
    if (joins) clique.push_back(w);
  }
  return clique;
}

template <typename Fn>
bool timed_update(UpdateKind kind, Fn&& fn, ChurnResult* out) {
  ++out->attempted;
  auto t0 = Clock::now();
  try {
    fn();
  } catch (const ChordalityViolation&) {
    ++out->rejected;
    return false;
  } catch (const std::exception& e) {
    if (out->failed++ == 0) out->first_error = e.what();
    return false;
  }
  double us = ms_since(t0) * 1000.0;
  out->latency_us.push_back(us);
  out->kind_us[kind].push_back(us);
  ++out->applied;
  return true;
}

/// Runs the mix until `updates` updates have been applied, taking a
/// throughput sample every `block` of them (`updates` is a multiple of
/// `block`); the sequence of attempts is a pure function of the graph and
/// the seed.
ChurnResult run_churn(DynamicChordal& dc, long long updates, long long block,
                      std::uint64_t seed) {
  Rng rng(seed);
  ChurnResult out;
  std::deque<std::pair<int, int>> deleted;
  std::vector<int> nbrs;
  auto block_t0 = Clock::now();
  long long block_applied = 0;
  long long block_end = block;  // the next multiple of block to reach
  while (out.applied < updates) {
    std::uint64_t roll = rng.next_below(100);
    if (roll < 60 && !deleted.empty()) {
      auto [u, v] = deleted.front();
      deleted.pop_front();
      if (dc.graph().alive(u) && dc.graph().alive(v) &&
          !dc.graph().has_edge(u, v)) {
        timed_update(kInsertEdge, [&] { dc.insert_edge(u, v); }, &out);
      }
    } else if (roll < 60) {
      int v = pick_vertex(dc.graph(), rng, 1 << 20);
      if (v < 0) continue;
      auto adj = dc.graph().neighbors(v);
      int w = static_cast<int>(adj[rng.next_below(adj.size())]);
      if (timed_update(kDeleteEdge, [&] { dc.delete_edge(v, w); }, &out)) {
        deleted.emplace_back(v, w);
        if (deleted.size() > 4096) deleted.pop_front();
      }
    } else if (roll < 80) {
      int v = pick_vertex(dc.graph(), rng, 64);
      if (v < 0) continue;
      nbrs.clear();
      for (VertexId w : dc.graph().neighbors(v)) {
        nbrs.push_back(static_cast<int>(w));
      }
      timed_update(kDeleteVertex, [&] { dc.delete_vertex(v); }, &out);
      timed_update(kInsertVertex, [&] { (void)dc.insert_vertex(nbrs); },
                   &out);
    } else {
      int u = pick_vertex(dc.graph(), rng, 1 << 20);
      if (u < 0) continue;
      std::vector<int> clique = clique_around(dc.graph(), u, rng);
      int z = -1;
      timed_update(kInsertVertex, [&] { z = dc.insert_vertex(clique); },
                   &out);
      if (z >= 0) {
        timed_update(kDeleteVertex, [&] { dc.delete_vertex(z); }, &out);
      }
    }
    if (out.applied >= block_end) {
      const auto now = Clock::now();
      out.block_rates.push_back(
          static_cast<double>(out.applied - block_applied) /
          std::chrono::duration<double>(now - block_t0).count());
      block_t0 = now;
      block_applied = out.applied;
      block_end += block;
    }
  }
  return out;
}

/// The E17 invariants after churn: the maintained coloring is proper and
/// uses exactly omega colors, and the maintained MIS is independent.
std::string check_dynamic(const DynamicChordal& dc) {
  const DynamicGraph& g = dc.graph();
  int mis = 0;
  for (int v : g.alive_vertices()) {
    if (dc.color(v) < 0) return "vertex " + std::to_string(v) + " uncolored";
    mis += dc.in_mis(v) ? 1 : 0;
    for (VertexId w : g.neighbors(v)) {
      if (dc.color(v) == dc.color(static_cast<int>(w))) {
        return "edge " + std::to_string(v) + "-" + std::to_string(w) +
               " monochromatic";
      }
      if (dc.in_mis(v) && dc.in_mis(static_cast<int>(w))) {
        return "MIS contains edge " + std::to_string(v) + "-" +
               std::to_string(w);
      }
    }
  }
  if (dc.num_colors() != dc.max_clique_size()) {
    return "colors " + std::to_string(dc.num_colors()) + " != omega " +
           std::to_string(dc.max_clique_size());
  }
  if (mis != dc.mis_size()) return "mis_size disagrees with in_mis";
  return {};
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct Metric {
  double value;
  const char* unit;
};
using Metrics = std::map<std::string, Metric>;

struct Tally {
  long long attempted = 0;
  long long failed = 0;
  std::string first_error;

  void record(const std::string& error) {
    ++attempted;
    if (!error.empty() && failed++ == 0) first_error = error;
  }
  void absorb(const ChurnResult& c) {
    attempted += c.attempted;
    if (c.failed > 0 && failed == 0) first_error = c.first_error;
    failed += c.failed;
  }
};

/// Quantile q of the samples; 0 when a failing run left none.
double quantile(std::vector<double> v, double q) {
  return v.empty() ? 0.0 : percentile(std::move(v), q);
}
double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Runs one graph's work; an exception it throws is a failed operation.
template <typename Fn>
void guarded(Tally* tally, Fn&& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    tally->record(std::string("exception: ") + e.what());
  }
}

/// Calls body(i) for i = 0, 1, ...: at least `min_calls` times, then as
/// long as the slowest call so far still fits in what is left of `seconds`.
template <typename Body>
int run_for(double seconds, int min_calls, Body&& body) {
  const auto t0 = Clock::now();
  double slowest_ms = 0;
  int calls = 0;
  while (calls < min_calls ||
         ms_since(t0) + slowest_ms <= 1000.0 * seconds) {
    const auto call_t0 = Clock::now();
    body(calls++);
    slowest_ms = std::max(slowest_ms, ms_since(call_t0));
  }
  return calls;
}

void print_result(const Tally& tally, const Metrics& metrics) {
  for (const auto& [name, m] : metrics) {
    std::printf("  %-36s %16.6f %s\n", name.c_str(), m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              tally.failed == 0 ? "true" : "false", tally.attempted,
              tally.failed);
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), m.value, m.unit);
    first = false;
  }
  std::printf("}}\n");
}

// ---------------------------------------------------------------------------
// Untraced run: end-to-end metrics
// ---------------------------------------------------------------------------

/// One sample per graph of every end-to-end metric, each reported as its
/// median, except update throughput: one sample per churn block, pooled
/// over the run's graphs. A k-tree's slowest updates hit its hubs, so the
/// latency percentiles are taken per graph, where one graph's hubs cannot
/// set the run's tail.
struct GraphSamples {
  std::vector<double> setup_s, solve_ms, mvc_ms, mis_ms, mvc_rounds,
      mis_rounds, color_ratio, mis_ratio, updates_per_s, update_us_p50,
      update_us_p99;
};

/// Sets up, solves and churns one graph of the stream.
void run_graph(const Workload& w, std::uint64_t seed, GraphSamples* out,
               Tally* tally) {
  const auto t0 = Clock::now();
  const Instance inst = make_instance(w, seed);
  DynamicChordal dc(inst.graph);
  out->setup_s.push_back(ms_since(t0) / 1000.0);

  const Graph& g = inst.graph;
  const Reference ref = reference(g);
  const SolveSample s = solve(g);
  tally->record(check_solve(g, s, ref));
  out->solve_ms.push_back(s.solve_ms);
  out->mvc_ms.push_back(s.mvc_ms);
  out->mis_ms.push_back(s.mis_ms);
  out->mvc_rounds.push_back(static_cast<double>(s.mvc.rounds));
  out->mis_rounds.push_back(static_cast<double>(s.mis.rounds));
  out->color_ratio.push_back(static_cast<double>(s.mvc.num_colors) /
                             ref.omega);
  out->mis_ratio.push_back(
      static_cast<double>(ref.alpha) /
      static_cast<double>(std::max<std::size_t>(1, s.mis.chosen.size())));

  const ChurnResult churn = run_churn(dc, w.updates, w.block, seed);
  tally->absorb(churn);
  tally->record(check_dynamic(dc));
  out->updates_per_s.insert(out->updates_per_s.end(),
                            churn.block_rates.begin(), churn.block_rates.end());
  out->update_us_p50.push_back(quantile(churn.latency_us, 0.50));
  out->update_us_p99.push_back(quantile(churn.latency_us, 0.99));
}

void end_to_end(const Workload& w, std::uint64_t seed, double seconds) {
  Tally tally;
  GraphSamples g, warmup;
  // The first graph warms the heap and the caches; its samples are dropped.
  run_for(seconds, kMinGraphs + 1, [&](int i) {
    guarded(&tally, [&] {
      run_graph(w, instance_seed(seed, i), i == 0 ? &warmup : &g, &tally);
    });
  });

  Metrics m;
  m["setup_s"] = {median(g.setup_s), "s"};
  m["solve_ms"] = {median(g.solve_ms), "ms"};
  m["mvc_ms"] = {median(g.mvc_ms), "ms"};
  m["mis_ms"] = {median(g.mis_ms), "ms"};
  m["peak_rss_mb"] = {static_cast<double>(obs::peak_rss_bytes()) / kMb, "MB"};
  m["mvc_rounds"] = {median(g.mvc_rounds), "rounds"};
  m["mis_rounds"] = {median(g.mis_rounds), "rounds"};
  m["color_ratio"] = {median(g.color_ratio), "ratio"};
  m["mis_ratio"] = {median(g.mis_ratio), "ratio"};
  m["success_rate"] = {
      1.0 - static_cast<double>(tally.failed) /
                static_cast<double>(tally.attempted),
      "ratio"};
  m["updates_per_s"] = {median(g.updates_per_s), "1/s"};
  m["update_us_p50"] = {median(g.update_us_p50), "us"};
  m["update_us_p99"] = {median(g.update_us_p99), "us"};
  std::printf("workload=%s seed=%llu threads=%d graphs=%zu\n", w.name,
              static_cast<unsigned long long>(seed), support::num_threads(),
              g.setup_s.size());
  if (tally.failed > 0) {
    std::printf("first failure: %s\n", tally.first_error.c_str());
  }
  print_result(tally, m);
}

// ---------------------------------------------------------------------------
// Traced run: per-layer metrics
// ---------------------------------------------------------------------------

const obs::SpanNode* child(const obs::SpanNode& node, std::string_view name) {
  for (const auto& c : node.children) {
    if (c->name == name) return c.get();
  }
  return nullptr;
}

double wall(const obs::SpanNode* node) {
  return node != nullptr ? node->wall_ms : 0.0;
}

/// Sum of the walls of `node`'s children whose name starts with `prefix`.
double children_wall(const obs::SpanNode* node, std::string_view prefix) {
  double total = 0;
  if (node == nullptr) return total;
  for (const auto& c : node->children) {
    if (std::string_view(c->name).starts_with(prefix)) total += c->wall_ms;
  }
  return total;
}

long long counter(const obs::Registry& reg, const char* name) {
  const obs::Counter* c = reg.find_counter(name);
  return c != nullptr ? c->value() : 0;
}

// The library's own phase-span names (core/mvc_distributed.cpp,
// core/mis_chordal.cpp); a rename there shows up as a zero here.
constexpr const char* kMvcSpan = "MVC Algorithm 2 (Theorem 4)";
constexpr const char* kMvcPruning = "pruning:";
constexpr const char* kMvcColoring = "layer coloring:";
constexpr const char* kMvcCorrection = "color correction";
constexpr const char* kMisSpan = "MIS Algorithm 6 (Theorems 7/8)";
constexpr const char* kMisPruning = "pruning:";
constexpr const char* kMisLayer = "peeling layer ";

/// The walls of the library's MVC phase spans below a benchmark span that
/// wraps one mvc_chordal call.
struct MvcSplit {
  double call = 0, pruning = 0, coloring = 0, correction = 0;
};

MvcSplit mvc_split(const obs::SpanNode* call) {
  const obs::SpanNode* top = call != nullptr ? child(*call, kMvcSpan) : nullptr;
  return {wall(call), children_wall(top, kMvcPruning),
          children_wall(top, kMvcColoring), children_wall(top, kMvcCorrection)};
}

/// One traced pass over every layer of the pipeline on one graph. Each
/// public call runs inside a benchmark span of its own; the library's phase
/// spans nest below.
Metrics traced_pass(const Workload& w, std::uint64_t seed, Tally* tally) {
  const Instance inst = make_instance(w, seed);
  const Graph& g = inst.graph;
  const int n = g.num_vertices();

  // Untraced solve first: the traced solve below is compared against it for
  // the tracing overhead, and it supplies the eps-derived scales.
  const SolveSample plain = solve(g);
  const int k = plain.mvc.k;

  Metrics m;
  obs::Registry reg;
  Reference ref;
  SolveSample traced;
  {
    obs::ScopedRegistry scope(reg);
    { obs::Span s("graph.is_chordal"); (void)is_chordal(g); }
    { obs::Span s("graph.lexbfs"); (void)lexbfs_order(g); }
    long long a0 = g_allocs.load();
    CliqueFamily family;
    {
      obs::Span s("graph.cliques");
      family = maximal_cliques_chordal_family(g);
    }
    m["graph.cliques_allocs"] = {static_cast<double>(g_allocs.load() - a0),
                                 "count"};
    a0 = g_allocs.load();
    CliqueForest forest;
    {
      obs::Span s("cliqueforest.build");
      forest = CliqueForest::from_family(std::move(family), n);
    }
    m["cliqueforest.build_allocs"] = {
        static_cast<double>(g_allocs.load() - a0), "count"};
    double wg_pairs = 0;
    for (int v = 0; v < n; ++v) {
      double c = static_cast<double>(forest.cliques_of(v).size());
      wg_pairs += c * (c - 1) / 2;
    }
    m["cliqueforest.wg_pairs"] = {wg_pairs, "count"};
    m["cliqueforest.num_cliques"] = {
        static_cast<double>(forest.num_cliques()), "count"};
    m["cliqueforest.forest_mb"] = {
        static_cast<double>(forest.memory_bytes()) / kMb, "MB"};
    m["graph.csr_mb"] = {static_cast<double>(g.memory_bytes()) / kMb, "MB"};

    {
      obs::Span s("core.peel_coloring");
      core::PeelConfig config;
      config.mode = core::PeelMode::kColoring;
      config.k = k;
      m["core.peel_layers"] = {
          static_cast<double>(core::peel(g, forest, config).num_layers),
          "count"};
    }
    {
      obs::Span s("core.peel_mis");
      core::PeelConfig config;
      config.mode = core::PeelMode::kIndependentSet;
      config.d = plain.mis.d;
      config.max_iterations = plain.mis.iterations;
      (void)core::peel(g, forest, config);
    }

    // ColIntGraph on the generator's own intervals (interval families).
    double col_violations = 0;
    if (!inst.left.empty()) {
      interval::PathIntervals rep =
          interval::from_geometry(inst.left, inst.right);
      obs::Span s("interval.col_int_graph");
      col_violations = interval::col_int_graph(rep, k).palette_violations;
    }
    m["interval.palette_violations"] = {col_violations, "count"};

    {
      obs::Span s("core.is_chordal");
      traced.chordal = is_chordal(g);
    }
    {
      obs::Span s("core.mvc_chordal");
      traced.mvc = core::mvc_chordal(g, {});
    }
    {
      obs::Span s("core.mis_chordal");
      traced.mis = core::mis_chordal(g, {});
    }
    {
      obs::Span s("checks.baselines");
      ref = reference(g);
    }
    {
      obs::Span s("checks.verify");
      tally->record(check_solve(g, plain, ref));
      tally->record(check_solve(g, traced, ref));
    }

    // The dense-interval companion of the interval workload.
    double dense_violations = 0, dense_mvc_violations = 0;
    if (w.interval) {
      const Instance dense = make_instance(kDenseIntervals, seed);
      interval::PathIntervals rep =
          interval::from_geometry(dense.left, dense.right);
      {
        obs::Span s("interval_dense.col_int_graph");
        dense_violations = interval::col_int_graph(rep, k).palette_violations;
      }
      core::MvcResult mvc;
      {
        obs::Span s("interval_dense.mvc_chordal");
        mvc = core::mvc_chordal(dense.graph, {});
      }
      dense_mvc_violations = mvc.palette_violations;
      tally->record(check_coloring(
          dense.graph, mvc, baselines::chromatic_number_chordal(dense.graph)));
    }
    m["interval_dense.palette_violations"] = {dense_violations, "count"};
    m["interval_dense.mvc_palette_violations"] = {dense_mvc_violations,
                                                  "count"};
  }
  m["core.mvc.recolored_vertices"] = {
      static_cast<double>(traced.mvc.recolored_vertices), "count"};
  m["core.mvc.palette_violations"] = {
      static_cast<double>(traced.mvc.palette_violations), "count"};
  m["core.mis.absorbing_components"] = {
      static_cast<double>(traced.mis.absorbing_components), "count"};
  m["core.mis.approx_components"] = {
      static_cast<double>(traced.mis.approx_components), "count"};

  const obs::SpanNode& root = reg.span_root();
  m["graph.is_chordal_ms"] = {wall(child(root, "graph.is_chordal")), "ms"};
  m["graph.lexbfs_ms"] = {wall(child(root, "graph.lexbfs")), "ms"};
  m["graph.cliques_ms"] = {wall(child(root, "graph.cliques")), "ms"};
  m["cliqueforest.build_ms"] = {wall(child(root, "cliqueforest.build")),
                                "ms"};
  m["core.peel_coloring_ms"] = {wall(child(root, "core.peel_coloring")),
                                "ms"};
  m["core.peel_mis_ms"] = {wall(child(root, "core.peel_mis")), "ms"};
  m["interval.col_int_graph_ms"] = {
      wall(child(root, "interval.col_int_graph")), "ms"};

  const MvcSplit mvc = mvc_split(child(root, "core.mvc_chordal"));
  m["core.mvc.pruning_ms"] = {mvc.pruning, "ms"};
  m["core.mvc.layer_coloring_ms"] = {mvc.coloring, "ms"};
  m["core.mvc.correction_ms"] = {mvc.correction, "ms"};
  m["core.mvc.unattributed_ms"] = {
      mvc.call - mvc.pruning - mvc.coloring - mvc.correction, "ms"};

  const obs::SpanNode* mis_call = child(root, "core.mis_chordal");
  const obs::SpanNode* mis_top =
      mis_call != nullptr ? child(*mis_call, kMisSpan) : nullptr;
  const double mis_pruning = children_wall(mis_top, kMisPruning);
  const double mis_layers = children_wall(mis_top, kMisLayer);
  m["core.mis.pruning_ms"] = {mis_pruning, "ms"};
  m["core.mis.layer_solve_ms"] = {mis_layers, "ms"};
  m["core.mis.unattributed_ms"] = {wall(mis_call) - mis_pruning - mis_layers,
                                   "ms"};

  const double hits = static_cast<double>(counter(reg, "cache.path.hits"));
  const double misses =
      static_cast<double>(counter(reg, "cache.path.misses"));
  m["core.path_cache_hit_ratio"] = {
      hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio"};

  m["checks.verify_ms"] = {wall(child(root, "checks.verify")), "ms"};
  m["checks.baselines_ms"] = {wall(child(root, "checks.baselines")), "ms"};
  const double traced_solve =
      wall(child(root, "core.is_chordal")) + mvc.call + wall(mis_call);
  m["obs.trace_overhead_pct"] = {
      100.0 * (traced_solve - plain.solve_ms) / plain.solve_ms, "%"};

  const MvcSplit dense = mvc_split(child(root, "interval_dense.mvc_chordal"));
  m["interval_dense.col_int_graph_ms"] = {
      wall(child(root, "interval_dense.col_int_graph")), "ms"};
  m["interval_dense.mvc_ms"] = {dense.call, "ms"};
  m["interval_dense.layer_coloring_ms"] = {dense.coloring, "ms"};

  // Dynamic layer: per-kind latency and the repair work counters.
  DynamicChordal dc(g);
  ChurnResult churn = run_churn(dc, w.updates, w.block, seed);
  tally->absorb(churn);
  tally->record(check_dynamic(dc));
  const DynamicStats& stats = dc.stats();
  for (int kind = 0; kind < 4; ++kind) {
    m[std::string("dynamic.") + kKindNames[kind] + "_us"] = {
        median(churn.kind_us[kind]), "us"};
  }
  m["dynamic.reject_ratio"] = {static_cast<double>(churn.rejected) /
                                   static_cast<double>(churn.attempted),
                               "ratio"};
  m["dynamic.fastpath_ratio"] = {
      stats.edge_inserts > 0 ? static_cast<double>(stats.fastpath_accepts) /
                                   static_cast<double>(stats.edge_inserts)
                             : 0.0,
      "ratio"};
  m["dynamic.path_steps"] = {static_cast<double>(stats.path_steps), "count"};
  m["dynamic.edge_swaps"] = {static_cast<double>(stats.edge_swaps), "count"};
  m["dynamic.color_changes"] = {static_cast<double>(stats.color_changes),
                                "count"};
  return m;
}

void per_layer(const Workload& w, std::uint64_t seed, double seconds) {
  Tally tally;
  // One traced pass per graph of the untraced run's stream, while time
  // remains; every metric reports its median over the passes.
  std::map<std::string, std::vector<double>> values;
  std::map<std::string, const char*> units;
  const int passes = run_for(seconds, 1, [&](int i) {
    guarded(&tally, [&] {
      for (const auto& [name, metric] :
           traced_pass(w, instance_seed(seed, i), &tally)) {
        values[name].push_back(metric.value);
        units[name] = metric.unit;
      }
    });
  });
  Metrics m;
  for (const auto& [name, v] : values) m[name] = {median(v), units[name]};
  std::printf("workload=%s seed=%llu threads=%d traced_passes=%d\n", w.name,
              static_cast<unsigned long long>(seed), support::num_threads(),
              passes);
  if (tally.failed > 0) {
    std::printf("first failure: %s\n", tally.first_error.c_str());
  }
  print_result(tally, m);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--threads <t>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  long long seed = -1;
  double seconds = 0;
  int trace = -1;
  int threads = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::atoll(value);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--threads") {
      threads = std::atoi(value);
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || seed < 0 || seconds <= 0 || (trace != 0 && trace != 1)) {
    return usage();
  }
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", workload.c_str());
    return usage();
  }
  if (threads > 0) support::set_num_threads(threads);
  if (trace == 1) {
    per_layer(*w, static_cast<std::uint64_t>(seed), seconds);
  } else {
    end_to_end(*w, static_cast<std::uint64_t>(seed), seconds);
  }
  return 0;
}
