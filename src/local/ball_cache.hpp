// Cross-iteration ball/view cache with monotone-deactivation invalidation.
//
// The pruning drivers (Algorithm 3 / Lemma 12) have every active node
// re-derive its layer decision from its distance-10k ball at each peel
// iteration, and the simulator used to pay full price for that: a fresh BFS
// and local-view reconstruction per node per iteration. Lemma 5 makes that
// recomputation almost always redundant - between iterations the induced
// subgraph only ever *shrinks* (vertices are deactivated, never activated),
// and a node's restricted ball is determined entirely by the vertices
// inside it:
//
//   * every shortest restricted path that realizes a ball distance lies
//     inside the ball (its interior vertices sit at strictly smaller
//     distance), so deactivating vertices *outside* the ball cannot change
//     any member's distance, and
//   * a non-member was at restricted distance > r at build time and
//     deactivation only increases restricted distances, so it stays out.
//
// Hence a cached ball for v is bit-valid exactly until some vertex inside
// it is deactivated. BallCache tracks that with per-vertex deactivation
// epochs plus a reverse member index: deactivating v walks only the entries
// v belongs to (no scan of the cache), flipping their validity flag, so the
// per-lookup validity check is O(1). Growing a radius-r entry to r' resumes
// the BFS at the cached frontier (dist == r suffix) instead of re-flooding
// from the center; the discovery order of a fresh BFS is reproduced
// exactly, so the extended ball is bit-identical to a fresh collection.
//
// The cache is a simulator-speed optimization, never a round-complexity
// change: cache hits replay the exact RoundLedger charge and telemetry
// (counters, histogram samples, span round/message charges) of a fresh
// collection, so ledgers and telemetry JSON stay byte-identical to the
// uncached path. Stale entries rebuild through the PR-2 BallWorkspace path
// (a rebuild re-BFSing only inside the stale ball was rejected: the stale
// CSR enumerates neighbors in ball-local id order, which would change the
// BFS discovery order and break bit-identity with fresh collection).
//
// Invalidation-bound centers bypass: peeling deactivates vertices spread
// across the whole graph every iteration, so when the query radius reaches
// a constant fraction of the graph's diameter (the audits' 10k balls on
// small worklads) every entry dies before it is ever served and the cache
// would pay registration and residency for nothing. A per-entry wasted-
// rebuild counter detects that regime: after kMaxWastedRebuilds rebuilds
// that were invalidated without a single hit or extension, the center stops
// caching (each lookup recomputes exactly, at uncached cost) until the
// cache is destroyed. The policy depends only on the center's own entry
// history, so counters stay thread-invariant.
//
// Concurrency: one Shard per parallel_for worker. A shard owns the entries
// of the centers its worker processes (the static index partition gives
// every center a fixed worker for the cache's lifetime) plus its own
// workspace and reverse index, so parallel regions touch disjoint shard
// state. deactivate() must only be called between parallel regions (it is
// coordinator-side and walks all shards). Hit/miss accounting is per-shard
// and summed on read; because entry histories per center are independent of
// the partition, the cache.* counters are bit-identical at any
// CHORDAL_THREADS value.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cliqueforest/local_view.hpp"
#include "graph/graph.hpp"
#include "local/ball.hpp"
#include "local/workspace.hpp"

namespace chordal::local {

class BallCache {
 public:
  class Shard;

  /// Result of a local-view lookup. `revision` is the entry's content
  /// version: two lookups of the same center returning equal revisions are
  /// guaranteed to have bit-identical ball and view, so drivers can memoize
  /// work derived from the view (see core/local_decision.cpp). `hit` means
  /// the call was served entirely from cache; on a hit the shard's distance
  /// stamps are *not* refreshed - call Shard::ensure_dists first if
  /// ball_dist queries are needed.
  struct ViewRef {
    const Ball* ball;
    const LocalView* view;
    std::uint64_t revision;
    bool hit;
  };

  struct Stats {
    std::int64_t hits = 0;           // served fully from cache
    std::int64_t misses = 0;         // full BFS rebuild (or view rebuild)
    std::int64_t extensions = 0;     // radius grown by frontier BFS
    std::int64_t invalidations = 0;  // entries killed by deactivation
    std::int64_t resident_words = 0; // words held by valid entries now
  };

  /// Shards match support::num_threads() at construction; all vertices
  /// start active.
  explicit BallCache(const Graph& g);
  ~BallCache();
  BallCache(const BallCache&) = delete;
  BallCache& operator=(const BallCache&) = delete;

  const Graph& graph() const { return *g_; }

  /// The activity mask lookups are restricted to. Owned by the cache so
  /// invalidation and the mask can never drift apart; drivers read it in
  /// place of their former local masks.
  const std::vector<char>& active() const { return active_; }

  /// Deactivates the given vertices (idempotent for already-inactive ones)
  /// and invalidates exactly the entries whose ball contains one of them,
  /// via the reverse member index - no cache scan. Coordinator-side only:
  /// never call inside a parallel region.
  void deactivate(std::span<const int> vertices);

  /// Deactivation/invalidation batches applied so far (the per-vertex epoch
  /// clock).
  std::uint64_t epoch() const { return epoch_; }

  /// Batch in which v was deactivated, or 0 while it is still active.
  /// Reset to 0 when v is reactivated - the epoch alone cannot distinguish
  /// incarnations, which is what activity_generation is for.
  std::uint64_t deactivation_epoch(int v) const { return deact_epoch_[v]; }

  /// True invalidation for the dynamic layer: kills every cached entry
  /// whose ball contains one of `vertices` (via the reverse member index),
  /// without touching the activity mask. Called after graph mutations (see
  /// rebind) with the adjacency-changed vertex set. Coordinator-side only.
  void invalidate_touched(std::span<const int> vertices);

  /// Re-activates previously deactivated vertices (idempotent for active
  /// ones). Monotone deactivation epochs cannot express this: a ball that
  /// excludes v because v was inactive at build time is *not* indexed under
  /// v, yet a fresh BFS could now absorb v - so besides flipping the mask
  /// this kills every entry containing v or a current graph neighbor of v
  /// (only balls holding a neighbor at distance <= r-1 can grow to reach
  /// v), resets v's deactivation epoch, and bumps its activity generation.
  /// Coordinator-side only.
  void reactivate(std::span<const int> vertices);

  /// Incarnation counter: bumped each time v is reactivated. Consumers that
  /// key derived state by vertex id use it to detect slot reuse across a
  /// remove/re-insert cycle instead of aliasing the old incarnation.
  std::uint64_t activity_generation(int v) const { return activity_gen_[v]; }

  /// Swaps in a fresh graph snapshot (DynamicChordal::materialize keeps
  /// slot ids stable) and grows the per-vertex tables for new slots (born
  /// active). The caller must then invalidate_touched the adjacency-changed
  /// slots and reconcile activity (reactivate revived slots, deactivate
  /// killed ones). Entries whose ball region is untouched stay bit-valid:
  /// their members' rows and the restricted distances are unchanged in the
  /// new snapshot.
  void rebind(const Graph& g);

  Shard& shard(std::size_t worker) { return *shards_[worker]; }
  std::size_t num_shards() const { return shards_.size(); }

  /// Totals across shards.
  Stats stats() const;

  /// Adds cache.hits/misses/extensions/invalidations counters and the
  /// cache.resident_words gauge to obs::current(). Called once by the
  /// destructor; explicit calls mark the stats published so the destructor
  /// becomes a no-op.
  void publish_stats();

 private:
  friend class Shard;

  void reset_dist_stamps();

  const Graph* g_;
  std::vector<char> active_;
  std::vector<std::uint64_t> deact_epoch_;
  std::vector<std::uint64_t> activity_gen_;
  std::uint64_t epoch_ = 0;
  bool published_ = false;
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// Per-worker cache shard. Never shared between concurrent workers.
class BallCache::Shard {
 public:
  /// Identical observable behavior to local::collect_ball(g, center,
  /// radius, &cache.active(), ledger, ws, out): same Ball, same ledger
  /// charge, same telemetry - but served from cache when possible. The
  /// returned reference is stable until the next lookup of this center on
  /// this shard (or its invalidation).
  const Ball& collect_ball(int center, int radius,
                           RoundLedger* ledger = nullptr);

  /// Identical view to local::compute_local_view(g, center, radius,
  /// &cache.active(), ws, out). After a non-hit return the distance stamps
  /// answer for `center`; after a hit call ensure_dists first.
  ViewRef local_view(int center, int radius);

  /// Distance from the current stamp center to v inside its cached ball,
  /// or -1 when v is outside it. The cache-aware replacement for
  /// BallWorkspace::last_ball_dist.
  int ball_dist(int v) const {
    return dist_src_ != nullptr && ws_.visit_stamp[v] == ws_.epoch
               ? (*dist_src_)[static_cast<std::size_t>(ws_.local_id[v])]
               : -1;
  }

  /// Re-stamps the distance tables from `center`'s cached entry so
  /// ball_dist answers for it. O(ball) when the stamp center changes, O(1)
  /// when it is already current. `center` must have a valid entry (i.e. the
  /// preceding lookup for it returned hit).
  void ensure_dists(int center);

  BallWorkspace& workspace() { return ws_; }

 private:
  friend class BallCache;

  struct Entry {
    int center = -1;
    int radius = -1;
    std::int32_t slot = -1;
    bool valid = false;
    bool has_view = false;
    bool used_since_build = false;   // hit or extension since last rebuild
    std::uint8_t wasted_rebuilds = 0;  // consecutive never-used invalidations
    std::uint32_t build_id = 0;    // reverse-index registration tag; bumps
                                   // on full rebuild only, so members added
                                   // by extension share the live tag
    std::uint64_t revision = 0;    // content version; bumps on rebuild AND
                                   // extension (drives ViewRef memoization)
    std::uint64_t built_epoch = 0;
    std::int64_t resident_words = 0;
    Ball ball;
    LocalView view;
  };

  struct MemberRef {
    std::int32_t slot;
    std::uint32_t build_id;
  };

  explicit Shard(BallCache* owner) : owner_(owner) {}

  Entry& entry_for(int center);
  void rebuild(Entry& e, int center, int radius);
  void extend(Entry& e, int to_radius);
  void add_view(Entry& e, int radius);
  void register_members(const Entry& e, std::size_t from_index);
  /// Kills every live entry whose ball contains v; returns the number of
  /// entries invalidated and adds their resident words to *words_freed
  /// (both thread-count invariant, unlike any per-shard ordering).
  int invalidate_refs(int v, std::int64_t* words_freed);
  /// Extends the per-vertex tables after a rebind grew the graph.
  void grow_tables(std::size_t n);
  void stamp_dists(const Entry& e);
  void charge_collect(const Ball& ball, int radius, RoundLedger* ledger);

  BallCache* owner_;
  BallWorkspace ws_;
  std::vector<std::int32_t> slot_of_;            // per center, -1 = none
  std::vector<Entry> entries_;
  std::vector<std::vector<MemberRef>> member_of_;  // per vertex
  std::uint64_t revision_counter_ = 0;
  const std::vector<int>* dist_src_ = nullptr;  // dist array of the stamp
  int dists_for_ = -1;                          // center of current stamp
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
  std::int64_t extensions_ = 0;
  std::int64_t invalidations_ = 0;
  std::int64_t resident_words_ = 0;
};

}  // namespace chordal::local
