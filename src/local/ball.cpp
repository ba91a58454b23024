#include "local/ball.hpp"

namespace chordal::local {

void RoundLedger::synchronize(std::span<const int> nodes) {
  std::int64_t latest = 0;
  for (int v : nodes) latest = std::max(latest, clock_[v]);
  for (int v : nodes) clock_[v] = latest;
}

std::int64_t RoundLedger::max_clock() const {
  std::int64_t latest = 0;
  for (auto c : clock_) latest = std::max(latest, c);
  return latest;
}

}  // namespace chordal::local
