#include "local/ball_cache.hpp"

#include <algorithm>
#include <cassert>

#include "local/bandwidth.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "support/parallel.hpp"

namespace chordal::local {

namespace {

// Rebuilds of one center that died without serving a hit (or extension)
// before the center stops caching. Peel-style drivers whose deactivations
// touch every ball each iteration trip this after two iterations, bounding
// the cache's overhead (registration, residency) at roughly two wasted
// rebuilds per center; hit-friendly regimes never trip it.
constexpr std::uint8_t kMaxWastedRebuilds = 2;

std::int64_t ball_words(const Ball& ball) {
  return static_cast<std::int64_t>(ball.vertices.size() +
                                   2 * ball.graph.num_edges());
}

std::int64_t view_words(const LocalView& view) {
  std::int64_t words = static_cast<std::int64_t>(
      view.trusted_vertices.size() + 2 * view.forest_edges.size());
  for (const auto& clique : view.cliques) {
    words += static_cast<std::int64_t>(clique.size());
  }
  return words;
}

/// Grows an exact radius-`from_radius` ball to `to_radius` by resuming the
/// BFS at the cached frontier. Reproduces a fresh collect_ball_core run
/// bit-for-bit: the cached vertex list is exactly the prefix a fresh BFS
/// would discover (entry validity guarantees no member was deactivated, so
/// member distances are unchanged; interior vertices were already fully
/// expanded at build time), and frontier/new vertices expand against the
/// current activity mask exactly as a fresh run would. Leaves ws stamped
/// with the full extended ball.
void extend_ball_core(const Graph& g, int from_radius, int to_radius,
                      const std::vector<char>& active, BallWorkspace& ws,
                      Ball& ball) {
  ws.ensure(g);
  const std::uint64_t visit = ++ws.epoch;
  const std::size_t old_size = ball.vertices.size();
  for (std::size_t i = 0; i < old_size; ++i) {
    ws.visit_stamp[ball.vertices[i]] = visit;
    ws.local_id[ball.vertices[i]] = static_cast<int>(i);
  }
  // dist is nondecreasing in BFS order, so the unexpanded frontier
  // (dist == from_radius) is a suffix of the cached list.
  std::size_t head = old_size;
  while (head > 0 && ball.dist[head - 1] == from_radius) --head;
  for (; head < ball.vertices.size(); ++head) {
    int u = static_cast<int>(ball.vertices[head]);
    int du = ball.dist[head];
    if (du >= to_radius) continue;
    for (VertexId w : g.neighbors(u)) {
      if (ws.visit_stamp[w] == visit) continue;
      if (!active[w]) continue;
      ws.visit_stamp[w] = visit;
      ws.local_id[w] = static_cast<int>(ball.vertices.size());
      ball.vertices.push_back(w);
      ball.dist.push_back(du + 1);
    }
  }
  if (ball.vertices.size() == old_size) return;  // CSR already exact
  // Reassemble the induced CSR over the extended set: cached vertices can
  // gain edges to the new ring. Identical to the collect_ball_core tail.
  const int k = static_cast<int>(ball.vertices.size());
  ws.offsets.assign(static_cast<std::size_t>(k) + 1, 0);
  for (int i = 0; i < k; ++i) {
    for (VertexId w : g.neighbors(static_cast<int>(ball.vertices[i]))) {
      if (ws.visit_stamp[w] == visit) ++ws.offsets[i + 1];
    }
  }
  for (int i = 0; i < k; ++i) ws.offsets[i + 1] += ws.offsets[i];
  ws.adj.resize(static_cast<std::size_t>(ws.offsets[k]));
  for (int i = 0; i < k; ++i) {
    EdgeIndex cursor = ws.offsets[i];
    for (VertexId w : g.neighbors(static_cast<int>(ball.vertices[i]))) {
      if (ws.visit_stamp[w] == visit) {
        ws.adj[static_cast<std::size_t>(cursor++)] =
            static_cast<VertexId>(ws.local_id[w]);
      }
    }
    std::sort(ws.adj.begin() + ws.offsets[i], ws.adj.begin() + cursor);
  }
  ball.graph.assign_csr(k, ws.offsets, ws.adj);
}

}  // namespace

BallCache::BallCache(const Graph& g)
    : g_(&g),
      active_(static_cast<std::size_t>(g.num_vertices()), 1),
      deact_epoch_(static_cast<std::size_t>(g.num_vertices()), 0),
      activity_gen_(static_cast<std::size_t>(g.num_vertices()), 0) {
  int workers = support::num_threads();
  shards_.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    shards_.emplace_back(new Shard(this));
  }
}

BallCache::~BallCache() { publish_stats(); }

void BallCache::deactivate(std::span<const int> vertices) {
  ++epoch_;
  for (int v : vertices) {
    if (!active_[v]) continue;
    active_[v] = 0;
    deact_epoch_[v] = epoch_;
    int killed = 0;
    std::int64_t words_freed = 0;
    for (auto& shard : shards_) {
      killed += shard->invalidate_refs(v, &words_freed);
    }
    if (killed > 0) {
      // One event per deactivated vertex, aggregated over shards: the set
      // of live entries containing v is thread-count invariant, but their
      // distribution across shards (and hence any per-entry emission
      // order) is not. Coordinator-side, so route past stale worker
      // wiring of the shard workspaces.
      obs::trace_emit(nullptr, obs::TraceEventKind::kCacheInvalidate, v,
                      static_cast<std::int32_t>(epoch_), killed, words_freed);
    }
  }
  // Distance stamps may refer to an entry that just died; force re-stamping.
  reset_dist_stamps();
}

void BallCache::reset_dist_stamps() {
  for (auto& shard : shards_) {
    shard->dists_for_ = -1;
    shard->dist_src_ = nullptr;
  }
}

void BallCache::invalidate_touched(std::span<const int> vertices) {
  ++epoch_;
  for (int v : vertices) {
    if (v < 0 || static_cast<std::size_t>(v) >= active_.size()) continue;
    int killed = 0;
    std::int64_t words_freed = 0;
    for (auto& shard : shards_) {
      killed += shard->invalidate_refs(v, &words_freed);
    }
    if (killed > 0) {
      obs::trace_emit(nullptr, obs::TraceEventKind::kCacheInvalidate, v,
                      static_cast<std::int32_t>(epoch_), killed, words_freed);
    }
  }
  reset_dist_stamps();
}

void BallCache::reactivate(std::span<const int> vertices) {
  ++epoch_;
  for (int v : vertices) {
    if (v < 0 || static_cast<std::size_t>(v) >= active_.size()) continue;
    if (active_[v]) continue;
    active_[v] = 1;
    deact_epoch_[v] = 0;
    ++activity_gen_[v];
    // A cached ball is not indexed under v (v was inactive at build time),
    // yet after reactivation a fresh BFS from its center could absorb v -
    // exactly when the ball holds a neighbor of v at distance <= r-1. Kill
    // every entry containing v (stale-incarnation refs) or any current
    // neighbor of v; the rest are bit-valid as-is.
    int killed = 0;
    std::int64_t words_freed = 0;
    for (auto& shard : shards_) {
      killed += shard->invalidate_refs(v, &words_freed);
    }
    for (VertexId w : g_->neighbors(v)) {
      for (auto& shard : shards_) {
        killed += shard->invalidate_refs(static_cast<int>(w), &words_freed);
      }
    }
    if (killed > 0) {
      obs::trace_emit(nullptr, obs::TraceEventKind::kCacheInvalidate, v,
                      static_cast<std::int32_t>(epoch_), killed, words_freed);
    }
  }
  reset_dist_stamps();
}

void BallCache::rebind(const Graph& g) {
  g_ = &g;
  auto n = static_cast<std::size_t>(g.num_vertices());
  if (active_.size() < n) {
    active_.resize(n, 1);
    deact_epoch_.resize(n, 0);
    activity_gen_.resize(n, 0);
  }
  for (auto& shard : shards_) shard->grow_tables(n);
  reset_dist_stamps();
}

BallCache::Stats BallCache::stats() const {
  Stats s;
  for (const auto& shard : shards_) {
    s.hits += shard->hits_;
    s.misses += shard->misses_;
    s.extensions += shard->extensions_;
    s.invalidations += shard->invalidations_;
    s.resident_words += shard->resident_words_;
  }
  return s;
}

void BallCache::publish_stats() {
  if (published_) return;
  published_ = true;
  obs::Registry* reg = obs::current();
  if (reg == nullptr) return;
  Stats s = stats();
  reg->counter("cache.hits").add(s.hits);
  reg->counter("cache.misses").add(s.misses);
  reg->counter("cache.extensions").add(s.extensions);
  reg->counter("cache.invalidations").add(s.invalidations);
  reg->histogram("cache.resident_words").add(
      static_cast<double>(s.resident_words));
}

BallCache::Shard::Entry& BallCache::Shard::entry_for(int center) {
  if (slot_of_.empty()) {
    slot_of_.assign(static_cast<std::size_t>(owner_->g_->num_vertices()), -1);
  }
  std::int32_t slot = slot_of_[static_cast<std::size_t>(center)];
  if (slot < 0) {
    slot = static_cast<std::int32_t>(entries_.size());
    entries_.emplace_back();
    entries_.back().slot = slot;
    entries_.back().center = center;
    slot_of_[static_cast<std::size_t>(center)] = slot;
  }
  return entries_[static_cast<std::size_t>(slot)];
}

void BallCache::Shard::register_members(const Entry& e,
                                        std::size_t from_index) {
  if (member_of_.empty()) {
    member_of_.resize(static_cast<std::size_t>(owner_->g_->num_vertices()));
  }
  for (std::size_t i = from_index; i < e.ball.vertices.size(); ++i) {
    member_of_[static_cast<std::size_t>(e.ball.vertices[i])].push_back(
        {e.slot, e.build_id});
  }
}

int BallCache::Shard::invalidate_refs(int v, std::int64_t* words_freed) {
  if (member_of_.empty()) return 0;
  int killed = 0;
  auto& refs = member_of_[static_cast<std::size_t>(v)];
  for (MemberRef ref : refs) {
    Entry& e = entries_[static_cast<std::size_t>(ref.slot)];
    if (e.valid && e.build_id == ref.build_id) {
      e.valid = false;
      resident_words_ -= e.resident_words;
      *words_freed += e.resident_words;
      ++killed;
      e.resident_words = 0;
      ++invalidations_;
      if (e.used_since_build) {
        e.wasted_rebuilds = 0;
      } else if (e.wasted_rebuilds < kMaxWastedRebuilds) {
        ++e.wasted_rebuilds;
      }
    }
  }
  refs.clear();
  return killed;
}

void BallCache::Shard::grow_tables(std::size_t n) {
  // Lazily-built tables stay empty until first use; built ones must cover
  // the new slot range (new slots: no entry, no memberships).
  if (!slot_of_.empty() && slot_of_.size() < n) slot_of_.resize(n, -1);
  if (!member_of_.empty() && member_of_.size() < n) member_of_.resize(n);
}

void BallCache::Shard::rebuild(Entry& e, int center, int radius) {
  ++misses_;
  if (e.valid) {
    resident_words_ -= e.resident_words;
    e.resident_words = 0;
  }
  detail::collect_ball_core(*owner_->g_, center, radius, &owner_->active_,
                            ws_, e.ball);
  e.radius = radius;
  e.has_view = false;
  e.used_since_build = false;
  e.revision = ++revision_counter_;
  ++e.build_id;
  e.built_epoch = owner_->epoch_;
  if (e.wasted_rebuilds >= kMaxWastedRebuilds) {
    // Invalidation-bound center: serve the fresh ball but stop caching it,
    // so the reverse index and resident set stop churning (see header).
    e.valid = false;
    e.resident_words = 0;
  } else {
    e.valid = true;
    e.resident_words = ball_words(e.ball);
    resident_words_ += e.resident_words;
    register_members(e, 0);
  }
  obs::trace_emit(ws_.trace, obs::TraceEventKind::kCacheMiss, center,
                  static_cast<std::int32_t>(owner_->epoch_), radius,
                  static_cast<std::int64_t>(e.ball.vertices.size()));
  dist_src_ = &e.ball.dist;
  dists_for_ = center;
}

void BallCache::Shard::extend(Entry& e, int to_radius) {
  ++extensions_;
  resident_words_ -= e.resident_words;
  const std::size_t old_size = e.ball.vertices.size();
  extend_ball_core(*owner_->g_, e.radius, to_radius, owner_->active_, ws_,
                   e.ball);
  e.radius = to_radius;
  e.has_view = false;  // the view was derived at the old radius
  e.used_since_build = true;  // the cached prefix did useful work
  e.revision = ++revision_counter_;
  e.resident_words = ball_words(e.ball);
  resident_words_ += e.resident_words;
  register_members(e, old_size);  // same build_id: live-tagged for refs
  obs::trace_emit(ws_.trace, obs::TraceEventKind::kCacheExtend, e.center,
                  static_cast<std::int32_t>(owner_->epoch_), to_radius,
                  static_cast<std::int64_t>(e.ball.vertices.size()));
  dist_src_ = &e.ball.dist;
  dists_for_ = e.center;
}

void BallCache::Shard::add_view(Entry& e, int radius) {
  detail::view_from_ball(e.ball, radius, ws_, e.view);
  e.has_view = true;
  if (!e.valid) return;  // bypassed entry: not resident, never served again
  std::int64_t words = view_words(e.view);
  e.resident_words += words;
  resident_words_ += words;
}

void BallCache::Shard::stamp_dists(const Entry& e) {
  ws_.ensure(*owner_->g_);
  const std::uint64_t visit = ++ws_.epoch;
  for (std::size_t i = 0; i < e.ball.vertices.size(); ++i) {
    ws_.visit_stamp[e.ball.vertices[i]] = visit;
    ws_.local_id[e.ball.vertices[i]] = static_cast<int>(i);
  }
  dist_src_ = &e.ball.dist;
  dists_for_ = e.center;
}

void BallCache::Shard::ensure_dists(int center) {
  if (dists_for_ == center) return;
  Entry& e = entry_for(center);
  assert(e.valid);
  stamp_dists(e);
}

void BallCache::Shard::charge_collect(const Ball& ball, int radius,
                                      RoundLedger* ledger) {
  // Exactly the observable side effects of local::collect_ball, replayed
  // from the cached ball so hit and miss paths are indistinguishable in
  // ledgers and telemetry. ball_collection_rounds is a pure function of
  // (radius, volume, degree, model) and the cached ball is bit-identical to
  // a fresh collection, so the congest-aware charge replays identically.
  const int center = static_cast<int>(ball.vertices[0]);
  std::int64_t words = ball_words(ball);
  std::int64_t rounds = ball_collection_rounds(
      radius, words, owner_->g_->degree(center), current_bandwidth(),
      owner_->g_->num_vertices());
  if (ledger != nullptr) {
    ledger->charge(center, rounds);
  }
  if (obs::Registry* reg = obs::current()) {
    reg->counter("ball.collections").add(1);
    reg->histogram("ball.volume_words").add(static_cast<double>(words));
    obs::Span::charge_rounds(rounds);
    obs::Span::charge_messages(
        static_cast<std::int64_t>(ball.vertices.size()), words);
  } else if (ws_.obs_active) {
    ws_.obs.add_counter("ball.collections", 1);
    ws_.obs.add_histogram("ball.volume_words", static_cast<double>(words));
    ws_.obs.charge_rounds(rounds);
    ws_.obs.charge_messages(static_cast<std::int64_t>(ball.vertices.size()),
                            words);
  }
}

const Ball& BallCache::Shard::collect_ball(int center, int radius,
                                           RoundLedger* ledger) {
  Entry& e = entry_for(center);
  if (e.valid && e.radius == radius) {
    ++hits_;
    e.used_since_build = true;
    obs::trace_emit(ws_.trace, obs::TraceEventKind::kCacheHit, center,
                    static_cast<std::int32_t>(owner_->epoch_), radius,
                    static_cast<std::int64_t>(e.ball.vertices.size()));
  } else if (e.valid && e.radius < radius) {
    extend(e, radius);
  } else {
    rebuild(e, center, radius);
  }
  charge_collect(e.ball, radius, ledger);
  return e.ball;
}

BallCache::ViewRef BallCache::Shard::local_view(int center, int radius) {
  Entry& e = entry_for(center);
  if (e.valid && e.radius == radius && e.has_view) {
    ++hits_;
    e.used_since_build = true;
    obs::trace_emit(ws_.trace, obs::TraceEventKind::kCacheHit, center,
                    static_cast<std::int32_t>(owner_->epoch_), radius,
                    static_cast<std::int64_t>(e.ball.vertices.size()));
    return {&e.ball, &e.view, e.revision, true};
  }
  if (e.valid && e.radius == radius) {
    ++misses_;  // cached ball, missing view: skip the BFS, redo the view
    e.used_since_build = true;
    obs::trace_emit(ws_.trace, obs::TraceEventKind::kCacheMiss, center,
                    static_cast<std::int32_t>(owner_->epoch_), radius,
                    static_cast<std::int64_t>(e.ball.vertices.size()));
    stamp_dists(e);
  } else if (e.valid && e.radius < radius) {
    extend(e, radius);
  } else {
    rebuild(e, center, radius);
  }
  add_view(e, radius);
  return {&e.ball, &e.view, e.revision, false};
}

}  // namespace chordal::local
