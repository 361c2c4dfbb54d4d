#pragma once
// Order statistics shared by every workload: medians, nearest-rank
// percentiles, and the tail rule the benchmark reports by — the highest
// percentile, up to p99, that still has at least ten samples beyond it, so
// a "p99" is never quoted from a run too short to contain one.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace pipebench {

/// Nearest-rank percentile of `values` (p in [0, 100]); 0 when empty.
inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(values.size(), static_cast<std::size_t>(rank)) - 1;
  return values[index];
}

inline double median(const std::vector<double>& values) { return percentile(values, 50.0); }

/// Samples strictly above the nearest-rank p-th percentile position.
inline std::size_t samples_beyond(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  return n > rank ? n - rank : 0;
}

struct Tail {
  double percentile = 100.0;  // which percentile `value` is (100 = the maximum)
  double value = 0.0;
};

/// The highest of p99 / p95 / p90 / p75 / p50 with at least ten samples
/// beyond it. Below 20 samples no candidate qualifies and the maximum is
/// reported as percentile 100.
inline Tail tail(const std::vector<double>& values) {
  Tail t;
  for (double p : {99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (samples_beyond(values.size(), p) >= 10) {
      t.percentile = p;
      t.value = percentile(values, p);
      return t;
    }
  }
  t.value = values.empty() ? 0.0 : *std::max_element(values.begin(), values.end());
  return t;
}

/// 64-bit FNV-1a, the digest used by every correctness oracle.
inline std::uint64_t fnv1a(const void* data, std::size_t size,
                           std::uint64_t h = 1469598103934665603ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace pipebench
