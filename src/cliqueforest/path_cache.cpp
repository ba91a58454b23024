#include "cliqueforest/path_cache.hpp"

#include "obs/metrics.hpp"

namespace chordal {

namespace {

std::int64_t intervals_words(const PathIntervals& rep) {
  return static_cast<std::int64_t>(rep.vertices.size() * 3 + 1);
}

}  // namespace

PathMetricCache::~PathMetricCache() { publish_stats(); }

const PathMetricCache::Record* PathMetricCache::find(
    const ForestPath& path) const {
  auto it = map_.find(path.cliques);
  return it == map_.end() ? nullptr : &it->second;
}

void PathMetricCache::merge(std::span<WorkerLog> logs) {
  for (WorkerLog& log : logs) {
    hits_ += log.hits_;
    misses_ += log.misses_;
    log.hits_ = 0;
    log.misses_ = 0;
    for (auto& [key, record] : log.additions_) {
      Record& dst = map_[key];
      if (dst.diameter < 0) dst.diameter = record.diameter;
      if (dst.independence < 0) dst.independence = record.independence;
      if (dst.intervals == nullptr && record.intervals != nullptr) {
        resident_words_ += intervals_words(*record.intervals);
        dst.intervals = std::move(record.intervals);
      }
    }
    log.additions_.clear();
  }
}

PathMetricCache::Stats PathMetricCache::stats() const {
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.entries = static_cast<std::int64_t>(map_.size());
  s.resident_words = resident_words_;
  return s;
}

void PathMetricCache::publish_stats() {
  if (published_) return;
  published_ = true;
  obs::Registry* reg = obs::current();
  if (reg == nullptr) return;
  reg->counter("cache.path.hits").add(hits_);
  reg->counter("cache.path.misses").add(misses_);
  reg->histogram("cache.path.resident_words")
      .add(static_cast<double>(resident_words_));
}

int cached_path_diameter(const Graph& g, const CliqueForest& forest,
                         const ForestPath& path, PathScratch& scratch,
                         const PathMetricCache& cache,
                         PathMetricCache::WorkerLog& log) {
  if (!PathMetricCache::cacheable(path)) {
    return path_diameter(g, forest, path, scratch);
  }
  const PathMetricCache::Record* rec = cache.find(path);
  if (rec != nullptr && rec->diameter >= 0) {
    log.hit();
    return rec->diameter;
  }
  PathMetricCache::Record add;
  int diameter;
  if (rec != nullptr && rec->intervals != nullptr) {
    log.hit();  // the expensive stage (interval model) came from cache
    diameter = path_diameter_from_intervals(g, *rec->intervals, scratch);
  } else {
    log.miss();
    path_intervals(forest, path, scratch, scratch.rep);
    diameter = path_diameter_from_intervals(g, scratch.rep, scratch);
    add.intervals = std::make_shared<PathIntervals>(scratch.rep);
  }
  add.diameter = diameter;
  log.record(path.cliques, std::move(add));
  return diameter;
}

int cached_path_independence(const CliqueForest& forest,
                             const ForestPath& path, PathScratch& scratch,
                             const PathMetricCache& cache,
                             PathMetricCache::WorkerLog& log) {
  if (!PathMetricCache::cacheable(path)) {
    return path_independence(forest, path, scratch);
  }
  const PathMetricCache::Record* rec = cache.find(path);
  if (rec != nullptr && rec->independence >= 0) {
    log.hit();
    return rec->independence;
  }
  PathMetricCache::Record add;
  int independence;
  if (rec != nullptr && rec->intervals != nullptr) {
    log.hit();
    independence = path_independence_from_intervals(*rec->intervals, scratch);
  } else {
    log.miss();
    path_intervals(forest, path, scratch, scratch.rep);
    independence = path_independence_from_intervals(scratch.rep, scratch);
    add.intervals = std::make_shared<PathIntervals>(scratch.rep);
  }
  add.independence = independence;
  log.record(path.cliques, std::move(add));
  return independence;
}

const PathIntervals* cached_path_intervals(const CliqueForest& forest,
                                           const ForestPath& path,
                                           PathScratch& scratch,
                                           PathIntervals& storage,
                                           const PathMetricCache& cache,
                                           PathMetricCache::WorkerLog& log) {
  if (!PathMetricCache::cacheable(path)) {
    path_intervals(forest, path, scratch, storage);
    return &storage;
  }
  const PathMetricCache::Record* rec = cache.find(path);
  if (rec != nullptr && rec->intervals != nullptr) {
    log.hit();
    return rec->intervals.get();
  }
  log.miss();
  path_intervals(forest, path, scratch, storage);
  PathMetricCache::Record add;
  add.intervals = std::make_shared<PathIntervals>(storage);
  log.record(path.cliques, std::move(add));
  return &storage;
}

}  // namespace chordal
