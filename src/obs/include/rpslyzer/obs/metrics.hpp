#pragma once
// Lock-cheap metrics registry: named counters, gauges, and fixed-bucket
// histograms with Prometheus text exposition.
//
// The daemon (rpslyzerd) and the batch pipeline share one process-global
// registry (MetricsRegistry::global()) for subsystem-wide series — loader
// outcomes, query-engine op counts, failpoint fires — while components that
// exist more than once per process (each server::Server) own a private
// registry so their counters stay exact per instance. Exposition merges any
// set of registries into one valid Prometheus page (`to_prometheus`).
//
// Fast path: recording through a held Counter&/Gauge&/Histogram& handle is
// one relaxed atomic load of the global enable flag plus one relaxed RMW —
// no lock, no lookup, no allocation. Handles are resolved once at
// construction time (registry lookups take a mutex and are not for hot
// paths). `set_metrics_enabled(false)` turns every record operation into a
// load + predicted branch, mirroring util/failpoint's one-atomic fast path;
// it is a startup-time kill switch, not a runtime toggle — flipping it
// mid-run skips increments and lets paired gauges drift.
//
// Naming scheme (enforced by convention, see DESIGN.md "Telemetry"):
//   rpslyzer_<subsystem>_<noun>[_<unit>][_total]
// Label cardinality must be bounded by compiled-in sets (IRR source names,
// outcome enums, query ops, failpoint sites) — never by user input.

#include <atomic>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rpslyzer::obs {

namespace detail {
extern std::atomic<bool> metrics_enabled;

inline void atomic_add_double(std::atomic<double>& target, double delta) noexcept {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed,
                                       std::memory_order_relaxed)) {
  }
}
}  // namespace detail

/// Process-wide recording switch (default on). One relaxed load per record.
inline bool metrics_on() noexcept {
  return detail::metrics_enabled.load(std::memory_order_relaxed);
}
void set_metrics_enabled(bool on) noexcept;

/// Label set attached to one metric instance, e.g. {{"source", "RIPE"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricType : std::uint8_t { kCounter, kGauge, kHistogram };

/// Monotone counter. Thread-safe; relaxed atomics only.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    if (!metrics_on()) return;
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept { return v_.load(std::memory_order_relaxed); }
  /// Tests/registry reset only — counters are monotone in production.
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Instantaneous signed value (open connections, queue depth, health code).
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    if (!metrics_on()) return;
    v_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t delta) noexcept {
    if (!metrics_on()) return;
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept { return v_.load(std::memory_order_relaxed); }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Fixed-bucket histogram in the Prometheus style: `bounds` are ascending
/// inclusive upper bounds (`le`); one implicit overflow bucket absorbs the
/// tail. Observation is one relaxed RMW plus a CAS-add on the sum.
class Histogram {
 public:
  /// One read of every bucket plus sum. `count` is the sum of the buckets
  /// read, so it always equals the +Inf bucket (as Prometheus requires) and
  /// percentiles computed from the snapshot never contradict its count.
  struct Snapshot {
    std::vector<std::uint64_t> buckets;  // bounds.size() + 1 (last = overflow)
    std::uint64_t count = 0;
    double sum = 0;

    /// Upper bound of the bucket holding the p-th percentile sample
    /// (p in [0,100]); overflow-bucket hits clamp to the last finite bound.
    /// 0 with no samples.
    double percentile(double p, const std::vector<double>& bounds) const noexcept;
    double mean() const noexcept {
      return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }
  };

  explicit Histogram(std::vector<double> bounds);

  void observe(double v) noexcept {
    if (!metrics_on()) return;
    buckets_[bucket_for(v)].fetch_add(1, std::memory_order_relaxed);
    detail::atomic_add_double(sum_, v);
  }

  Snapshot snapshot() const noexcept;
  std::uint64_t count() const noexcept { return snapshot().count; }
  const std::vector<double>& bounds() const noexcept { return bounds_; }
  double percentile(double p) const noexcept { return snapshot().percentile(p, bounds_); }
  void reset() noexcept;

 private:
  std::size_t bucket_for(double v) const noexcept;

  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<double> sum_{0};
};

/// `count` exponential bounds starting at `start`, each `factor` larger:
/// the standard latency bucket layout (e.g. 1 µs … 16 s doubling).
std::vector<double> exponential_bounds(double start, double factor, std::size_t count);

/// One family gathered for exposition: pre-rendered sample lines under a
/// shared HELP/TYPE header.
struct GatheredFamily {
  std::string help;
  MetricType type = MetricType::kCounter;
  std::vector<std::string> lines;
};
using GatheredFamilies = std::map<std::string, GatheredFamily, std::less<>>;

/// Receives samples from registered collector callbacks at scrape time.
/// Collectors mirror counters kept elsewhere (cache shards, failpoint hit
/// counts) or computed gauges (corpus generation, uptime) into the page
/// without forcing those subsystems onto registry storage.
class CollectSink {
 public:
  void counter(std::string_view name, std::string_view help, const Labels& labels,
               double value);
  void gauge(std::string_view name, std::string_view help, const Labels& labels,
             double value);

 private:
  friend class MetricsRegistry;
  explicit CollectSink(GatheredFamilies& families) : families_(families) {}
  void sample(std::string_view name, std::string_view help, MetricType type,
              const Labels& labels, double value);
  GatheredFamilies& families_;
};

/// Owns metric storage and renders it. Handles returned by counter() /
/// gauge() / histogram() are stable for the registry's lifetime; calling
/// again with the same (name, labels) returns the same object, so handle
/// resolution is idempotent and safe from multiple threads.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry for subsystem metrics (loader, query engine,
  /// failpoints). Never destroyed, usable during static teardown.
  static MetricsRegistry& global();

  Counter& counter(std::string_view name, std::string_view help,
                   const Labels& labels = {});
  Gauge& gauge(std::string_view name, std::string_view help, const Labels& labels = {});
  Histogram& histogram(std::string_view name, std::string_view help,
                       std::vector<double> bounds, const Labels& labels = {});

  using Collector = std::function<void(CollectSink&)>;
  void register_collector(Collector fn);

  /// Render this registry (stored metrics + collectors) as Prometheus text
  /// exposition format, families sorted by name.
  std::string to_prometheus() const;

  /// Zero every stored metric and drop collectors (tests only; handles stay
  /// valid).
  void reset();

 private:
  friend std::string to_prometheus(
      std::initializer_list<const MetricsRegistry*> registries);

  struct Instance {
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct StoredFamily {
    std::string help;
    MetricType type = MetricType::kCounter;
    std::vector<Instance> instances;  // label-set order of first registration
  };

  void gather(GatheredFamilies& out) const;

  mutable std::mutex mu_;
  std::map<std::string, StoredFamily, std::less<>> families_;
  std::vector<Collector> collectors_;
};

/// Merge several registries into one exposition page (e.g. the global
/// registry plus a server's private one). Family names should be disjoint
/// across registries; duplicate families concatenate their samples.
std::string to_prometheus(std::initializer_list<const MetricsRegistry*> registries);

}  // namespace rpslyzer::obs
