#pragma once
// The one retry ladder: the server's degraded-mode reload retries and the
// replication edge's reconnects both schedule through backoff(). Callers
// decorrelate their schedules by seed, never by a second copy of the body.

#include <algorithm>
#include <chrono>
#include <cstdint>

#include "rpslyzer/util/rand.hpp"

namespace rpslyzer::util {

/// Deterministic capped exponential backoff with multiplicative jitter in
/// [0.75, 1.25]·step: attempt 0 ≈ initial, doubling up to `max_backoff`,
/// never below 1 ms. Pure — a retry schedule is unit-testable without a
/// clock. Degenerate knobs are clamped (initial ≥ 1 ms, max ≥ initial).
inline std::chrono::milliseconds backoff(unsigned attempt, std::chrono::milliseconds initial,
                                         std::chrono::milliseconds max_backoff,
                                         std::uint64_t seed) noexcept {
  if (initial.count() <= 0) initial = std::chrono::milliseconds(1);
  if (max_backoff < initial) max_backoff = initial;
  const std::uint64_t cap = static_cast<std::uint64_t>(max_backoff.count());
  std::uint64_t base = static_cast<std::uint64_t>(initial.count());
  for (unsigned i = 0; i < attempt && base < cap; ++i) base *= 2;
  base = std::min(base, cap);
  const std::uint64_t z = splitmix64_at(seed, static_cast<std::uint64_t>(attempt));
  const std::uint64_t jittered = base * (750 + z % 501) / 1000;
  return std::chrono::milliseconds(std::clamp<std::uint64_t>(jittered, 1, cap));
}

}  // namespace rpslyzer::util
