// Algorithm 5: deterministic distributed (1 + eps)-approximation for
// Maximum Independent Set on interval graphs, O((1/eps) log* n) rounds
// (Theorems 5 and 6).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "interval/rep.hpp"

namespace chordal::interval {

struct IntervalMisResult {
  std::vector<std::size_t> chosen;  // local indices into the input model
  std::int64_t rounds = 0;
  int k = 0;                        // ceil(2.5/eps + 0.5)
};

/// Largest scale k = ceil(2.5/eps + 0.5) approx_mis_interval accepts: the
/// 10k diameter threshold must fit in int, so
/// eps >= 2.5 / kMaxIntervalMisScale, about 1.2e-8. mis_chordal's eps / 8
/// always lies inside this range.
inline constexpr int kMaxIntervalMisScale =
    std::numeric_limits<int>::max() / 10;

/// Runs Algorithm 5 on the interval model. eps in (0, 1) with
/// ceil(2.5/eps + 0.5) <= kMaxIntervalMisScale; anything else (NaN
/// included) throws std::invalid_argument before any narrowing.
IntervalMisResult approx_mis_interval(const PathIntervals& rep, double eps);

}  // namespace chordal::interval
