#include "rpslyzer/obs/trace.hpp"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>

#include "rpslyzer/json/json.hpp"
#include "rpslyzer/util/rand.hpp"

namespace rpslyzer::obs {

namespace detail {
std::atomic<bool> trace_enabled{false};
constinit thread_local std::uint64_t current_trace = 0;
}  // namespace detail

namespace {

std::uint64_t steady_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t thread_cpu_ns() noexcept {
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// Small dense thread index for the exported `tid` field: stable within a
/// process run and friendlier to chrome://tracing's row layout than OS ids.
std::uint32_t thread_index() noexcept {
  static std::atomic<std::uint32_t> next{0};
  thread_local std::uint32_t index = next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

thread_local std::uint32_t span_depth = 0;

}  // namespace

std::uint64_t next_trace_id() noexcept {
  // splitmix64 finalizer over a process-wide counter seeded from the clock:
  // unique per run, well mixed, and never 0 (0 means "no trace context").
  static std::atomic<std::uint64_t> counter{steady_now_ns() | 1};
  const std::uint64_t x = util::mix64(
      counter.fetch_add(util::kSplitMix64Gamma, std::memory_order_relaxed));
  return x == 0 ? 1 : x;
}

std::string trace_hex(std::uint64_t id) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(id));
  return std::string(buf, 16);
}

bool parse_trace_hex(std::string_view text, std::uint64_t* out) noexcept {
  if (text.empty() || text.size() > 16) return false;
  std::uint64_t value = 0;
  for (char c : text) {
    value <<= 4;
    if (c >= '0' && c <= '9') {
      value |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      value |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      value |= static_cast<std::uint64_t>(c - 'A' + 10);
    } else {
      return false;
    }
  }
  *out = value;
  return true;
}

Tracer& Tracer::global() {
  static Tracer* instance = new Tracer();  // leaked: usable at any exit stage
  return *instance;
}

void Tracer::set_enabled(bool on) {
  if (on) {
    clear();
    epoch_ns_.store(steady_now_ns(), std::memory_order_relaxed);
  }
  detail::trace_enabled.store(on, std::memory_order_relaxed);
}

std::uint64_t Tracer::now_since_epoch_us() const noexcept {
  const std::uint64_t epoch = epoch_ns_.load(std::memory_order_relaxed);
  const std::uint64_t now = steady_now_ns();
  return now > epoch ? (now - epoch) / 1000 : 0;
}

void Tracer::record(SpanRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (records_.size() >= kMaxRecords) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  records_.push_back(std::move(record));
}

std::vector<SpanRecord> Tracer::records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

std::uint64_t Tracer::dropped() const noexcept {
  return dropped_.load(std::memory_order_relaxed);
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  records_.clear();
  dropped_.store(0, std::memory_order_relaxed);
}

std::string Tracer::chrome_trace() const {
  json::Array events;
  {
    std::lock_guard<std::mutex> lock(mu_);
    events.reserve(records_.size());
    for (const SpanRecord& record : records_) {
      json::Object event;
      event.emplace("name", record.name);
      event.emplace("cat", "rpslyzer");
      event.emplace("ph", "X");
      event.emplace("ts", static_cast<std::int64_t>(record.start_us));
      event.emplace("dur", static_cast<std::int64_t>(record.wall_us));
      event.emplace("pid", 1);
      event.emplace("tid", static_cast<std::int64_t>(record.tid));
      json::Object args;
      if (!record.arg.empty()) args.emplace("arg", record.arg);
      if (record.trace != 0) args.emplace("trace", trace_hex(record.trace));
      args.emplace("cpu_us", static_cast<std::int64_t>(record.cpu_us));
      args.emplace("depth", static_cast<std::int64_t>(record.depth));
      event.emplace("args", std::move(args));
      events.push_back(json::Value(std::move(event)));
    }
  }
  json::Object document;
  document.emplace("traceEvents", std::move(events));
  document.emplace("displayTimeUnit", "ms");
  const std::uint64_t dropped = dropped_.load(std::memory_order_relaxed);
  if (dropped > 0) {
    document.emplace("rpslyzerDroppedSpans", static_cast<std::int64_t>(dropped));
  }
  return json::dump(json::Value(std::move(document)));
}

bool Tracer::write_chrome_trace(const std::string& path, std::string* error) const {
  const std::string body = chrome_trace();
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    if (error != nullptr) *error = "cannot open " + path + " for writing";
    return false;
  }
  const bool ok = std::fwrite(body.data(), 1, body.size(), file) == body.size();
  const bool closed = std::fclose(file) == 0;
  if (!(ok && closed)) {
    if (error != nullptr) *error = "short write to " + path;
    return false;
  }
  return true;
}

std::string Tracer::summary_table() const {
  struct Aggregate {
    std::uint64_t count = 0;
    std::uint64_t wall_us = 0;
    std::uint64_t cpu_us = 0;
  };
  std::map<std::string, Aggregate> by_stage;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const SpanRecord& record : records_) {
      Aggregate& agg = by_stage[record.name];
      ++agg.count;
      agg.wall_us += record.wall_us;
      agg.cpu_us += record.cpu_us;
    }
  }
  std::vector<std::pair<std::string, Aggregate>> rows(by_stage.begin(), by_stage.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.wall_us > b.second.wall_us;
  });

  std::size_t name_width = 5;  // "stage"
  for (const auto& [name, agg] : rows) name_width = std::max(name_width, name.size());

  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-*s %8s %12s %12s %12s\n",
                static_cast<int>(name_width), "stage", "count", "wall_ms", "cpu_ms",
                "mean_us");
  out += line;
  for (const auto& [name, agg] : rows) {
    const double wall_ms = static_cast<double>(agg.wall_us) / 1000.0;
    const double cpu_ms = static_cast<double>(agg.cpu_us) / 1000.0;
    const double mean_us =
        agg.count == 0 ? 0.0
                       : static_cast<double>(agg.wall_us) / static_cast<double>(agg.count);
    std::snprintf(line, sizeof(line), "%-*s %8llu %12.3f %12.3f %12.1f\n",
                  static_cast<int>(name_width), name.c_str(),
                  static_cast<unsigned long long>(agg.count), wall_ms, cpu_ms, mean_us);
    out += line;
  }
  const std::uint64_t dropped = dropped_.load(std::memory_order_relaxed);
  if (dropped > 0) {
    std::snprintf(line, sizeof(line), "(%llu spans dropped past the %zu-record cap)\n",
                  static_cast<unsigned long long>(dropped),
                  static_cast<std::size_t>(kMaxRecords));
    out += line;
  }
  return out;
}

void Span::begin(std::string_view name, std::string_view arg) {
  name_ = name;
  arg_ = std::string(arg);
  depth_ = span_depth++;
  start_us_ = Tracer::global().now_since_epoch_us();
  start_cpu_ns_ = thread_cpu_ns();
}

void Span::finish() {
  Tracer& tracer = Tracer::global();
  const std::uint64_t end_us = tracer.now_since_epoch_us();
  const std::uint64_t end_cpu_ns = thread_cpu_ns();
  --span_depth;
  SpanRecord record;
  record.name = std::string(name_);
  record.arg = std::move(arg_);
  record.start_us = start_us_;
  record.wall_us = end_us > start_us_ ? end_us - start_us_ : 0;
  record.cpu_us = end_cpu_ns > start_cpu_ns_ ? (end_cpu_ns - start_cpu_ns_) / 1000 : 0;
  record.tid = thread_index();
  record.depth = depth_;
  record.trace = current_trace_id();
  tracer.record(std::move(record));
}

}  // namespace rpslyzer::obs
