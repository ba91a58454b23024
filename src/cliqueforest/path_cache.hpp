// Content-keyed memo for the per-path peeling metrics.
//
// The threshold metrics of Algorithms 1 and 6 - path diameter, path
// independence number, and the Lemma 7 interval model they are derived
// from - are pure functions of (G, forest, path.cliques): the activity mask
// never enters them. A maximal binary path that survives a peel iteration
// reappears with the same clique sequence, so the drivers used to recompute
// identical metrics for it every iteration (and the MVC engine recomputes
// the same interval models again in its coloring and correction phases).
// PathMetricCache memoizes the metrics under the clique sequence as key;
// entries can never go stale, so there is no invalidation at all. (A path
// that changes - loses cliques, or flips orientation when an attachment
// dies - has a different key and simply misses.)
//
// Only paths of at least kMinCliques cliques are cached. Short paths cost
// about as much to recompute as to hash, copy, and merge - and the peeling
// threshold guarantees the paths that *survive* to be re-queried are
// exactly the short ones (long paths exceed the threshold and get peeled) -
// so caching them is pure overhead. Long paths keep the win that matters:
// the MVC engine re-derives their interval models in its coloring and
// correction phases, and those hits skip the expensive derivations.
//
// Concurrency: the map is read-only inside parallel regions; workers record
// computed entries and hit/miss tallies into per-worker WorkerLogs, and the
// driver merges the logs in worker order between regions. Within one region
// the evaluated paths partition the active cliques, so keys are unique and
// the merged map plus all counters are bit-identical at any CHORDAL_THREADS
// value. One cache serves exactly one (graph, forest) pair.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cliqueforest/paths.hpp"

namespace chordal {

class PathMetricCache {
 public:
  struct Record {
    int diameter = -1;      // -1 = not computed yet
    int independence = -1;  // -1 = not computed yet
    std::shared_ptr<const PathIntervals> intervals;  // null = not stored
  };

  struct Stats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t entries = 0;
    std::int64_t resident_words = 0;
  };

  /// Per-worker buffer: entries computed and hit/miss tallies recorded
  /// during a parallel region, merged by the coordinator afterwards.
  class WorkerLog {
   public:
    void hit() { ++hits_; }
    void miss() { ++misses_; }
    void record(const std::vector<int>& key, Record&& record) {
      additions_.emplace_back(key, std::move(record));
    }

   private:
    friend class PathMetricCache;
    std::vector<std::pair<std::vector<int>, Record>> additions_;
    std::int64_t hits_ = 0;
    std::int64_t misses_ = 0;
  };

  PathMetricCache() = default;
  ~PathMetricCache();
  PathMetricCache(const PathMetricCache&) = delete;
  PathMetricCache& operator=(const PathMetricCache&) = delete;

  /// Minimum clique-sequence length for a path to be cached (see header
  /// comment). The test depends only on the path itself, so hit/miss
  /// counters stay thread- and schedule-invariant.
  static constexpr std::size_t kMinCliques = 8;
  static bool cacheable(const ForestPath& path) {
    return path.cliques.size() >= kMinCliques;
  }

  /// Lookup by the path's clique sequence; nullptr when absent. Safe to
  /// call concurrently from workers (the map is immutable inside regions).
  const Record* find(const ForestPath& path) const;

  /// Folds the per-worker logs into the map, in worker order (fields of a
  /// key recorded twice are merged first-writer-wins per field). Clears the
  /// logs for reuse. Coordinator-side only.
  void merge(std::span<WorkerLog> logs);

  Stats stats() const;

  /// Adds cache.path.hits / cache.path.misses counters and the
  /// cache.path.resident_words sample to obs::current(). Called once by the
  /// destructor; explicit calls make the destructor a no-op.
  void publish_stats();

 private:
  struct KeyHash {
    std::size_t operator()(const std::vector<int>& key) const {
      std::size_t h = 0x9e3779b97f4a7c15ULL ^ key.size();
      for (int x : key) {
        h = (h ^ static_cast<std::size_t>(static_cast<std::uint32_t>(x))) *
            0x100000001b3ULL;
      }
      return h;
    }
  };

  bool published_ = false;
  std::unordered_map<std::vector<int>, Record, KeyHash> map_;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
  std::int64_t resident_words_ = 0;
};

/// Cached forms of the path metrics: identical return values to the plain
/// workspace forms (asserted by tests), served from `cache` when possible.
/// Computed results (including the interval model, which every metric
/// materializes anyway) are recorded into `log` for the next merge. Paths
/// below kMinCliques go straight to the plain workspace calls.
int cached_path_diameter(const Graph& g, const CliqueForest& forest,
                         const ForestPath& path, PathScratch& scratch,
                         const PathMetricCache& cache,
                         PathMetricCache::WorkerLog& log);
int cached_path_independence(const CliqueForest& forest,
                             const ForestPath& path, PathScratch& scratch,
                             const PathMetricCache& cache,
                             PathMetricCache::WorkerLog& log);
/// Returns the interval model of the path: a pointer into the cache on a
/// hit (stable - records hold shared_ptrs and merge is first-writer-wins),
/// otherwise `storage` filled by path_intervals, which must outlive the use
/// of the result.
const PathIntervals* cached_path_intervals(const CliqueForest& forest,
                                           const ForestPath& path,
                                           PathScratch& scratch,
                                           PathIntervals& storage,
                                           const PathMetricCache& cache,
                                           PathMetricCache::WorkerLog& log);

}  // namespace chordal
