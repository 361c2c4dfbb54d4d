// Telemetry layer tests: metrics registry (concurrency, Prometheus golden
// format, collectors), structured logging (levels, JSON, rate limiting), and
// trace spans (nesting, chrome-trace export validated with src/json).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "rpslyzer/json/json.hpp"
#include "rpslyzer/obs/failpoint_bridge.hpp"
#include "rpslyzer/obs/flight.hpp"
#include "rpslyzer/obs/log.hpp"
#include "rpslyzer/obs/metrics.hpp"
#include "rpslyzer/obs/trace.hpp"
#include "rpslyzer/util/failpoint.hpp"

namespace rpslyzer::obs {
namespace {

namespace fp = util::failpoint;

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, CounterConcurrencyExactTotals) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      // Resolving the handle from every thread exercises the idempotent
      // lookup path; all threads must land on the same storage.
      Counter& counter = registry.counter("obs_test_total", "test");
      for (int i = 0; i < kIncrements; ++i) counter.inc();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(registry.counter("obs_test_total", "test").value(),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST(MetricsRegistry, LabeledInstancesAreDistinct) {
  MetricsRegistry registry;
  Counter& a = registry.counter("obs_ops_total", "ops", {{"op", "a"}});
  Counter& b = registry.counter("obs_ops_total", "ops", {{"op", "b"}});
  EXPECT_NE(&a, &b);
  a.inc(3);
  b.inc(5);
  EXPECT_EQ(registry.counter("obs_ops_total", "ops", {{"op", "a"}}).value(), 3u);
  EXPECT_EQ(registry.counter("obs_ops_total", "ops", {{"op", "b"}}).value(), 5u);
}

TEST(MetricsRegistry, HistogramConcurrentObservationsStayCoherent) {
  MetricsRegistry registry;
  Histogram& histogram =
      registry.histogram("obs_seconds", "test", exponential_bounds(0.001, 2.0, 10));
  constexpr int kThreads = 4;
  constexpr int kObservations = 20000;
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&histogram, &go, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < kObservations; ++i) {
        histogram.observe(0.0005 * static_cast<double>((i + t) % 8));
      }
    });
  }
  go.store(true, std::memory_order_release);
  // Concurrent snapshots must always account for every bucket increment
  // belonging to the count they report.
  for (int i = 0; i < 200; ++i) {
    const Histogram::Snapshot snap = histogram.snapshot();
    std::uint64_t bucket_total = 0;
    for (std::uint64_t bucket : snap.buckets) bucket_total += bucket;
    ASSERT_EQ(bucket_total, snap.count);
  }
  for (auto& writer : writers) writer.join();
  const Histogram::Snapshot final_snap = histogram.snapshot();
  EXPECT_EQ(final_snap.count, static_cast<std::uint64_t>(kThreads) * kObservations);
  std::uint64_t bucket_total = 0;
  for (std::uint64_t bucket : final_snap.buckets) bucket_total += bucket;
  EXPECT_EQ(bucket_total, final_snap.count);
}

TEST(MetricsRegistry, PrometheusGoldenFormat) {
  MetricsRegistry registry;
  registry.counter("rpslyzer_test_requests_total", "Requests served", {{"op", "g"}})
      .inc(42);
  registry.gauge("rpslyzer_test_depth", "Queue depth").set(-3);
  Histogram& histogram =
      registry.histogram("rpslyzer_test_seconds", "Latency", {0.1, 1.0});
  histogram.observe(0.05);
  histogram.observe(0.5);
  histogram.observe(5.0);

  const std::string expected =
      "# HELP rpslyzer_test_depth Queue depth\n"
      "# TYPE rpslyzer_test_depth gauge\n"
      "rpslyzer_test_depth -3\n"
      "# HELP rpslyzer_test_requests_total Requests served\n"
      "# TYPE rpslyzer_test_requests_total counter\n"
      "rpslyzer_test_requests_total{op=\"g\"} 42\n"
      "# HELP rpslyzer_test_seconds Latency\n"
      "# TYPE rpslyzer_test_seconds histogram\n"
      "rpslyzer_test_seconds_bucket{le=\"0.1\"} 1\n"
      "rpslyzer_test_seconds_bucket{le=\"1\"} 2\n"
      "rpslyzer_test_seconds_bucket{le=\"+Inf\"} 3\n"
      "rpslyzer_test_seconds_sum 5.5499999999999998\n"
      "rpslyzer_test_seconds_count 3\n";
  EXPECT_EQ(registry.to_prometheus(), expected);
}

TEST(MetricsRegistry, LabelValuesAreEscaped) {
  MetricsRegistry registry;
  registry.counter("obs_escape_total", "test", {{"path", "a\\b\"c\nd"}}).inc();
  const std::string page = registry.to_prometheus();
  EXPECT_NE(page.find("obs_escape_total{path=\"a\\\\b\\\"c\\nd\"} 1\n"),
            std::string::npos);
}

TEST(MetricsRegistry, CollectorsRunAtScrapeTime) {
  MetricsRegistry registry;
  std::uint64_t source = 7;
  registry.register_collector([&source](CollectSink& sink) {
    sink.counter("obs_mirrored_total", "mirrored", {{"site", "x"}},
                 static_cast<double>(source));
    sink.gauge("obs_live", "live", {}, 1.5);
  });
  source = 9;  // the scrape must see the value at scrape time, not registration
  const std::string page = registry.to_prometheus();
  EXPECT_NE(page.find("obs_mirrored_total{site=\"x\"} 9\n"), std::string::npos);
  EXPECT_NE(page.find("obs_live 1.5\n"), std::string::npos);
  EXPECT_NE(page.find("# TYPE obs_live gauge\n"), std::string::npos);
}

TEST(MetricsRegistry, MergedExpositionSpansRegistries) {
  MetricsRegistry first;
  MetricsRegistry second;
  first.counter("obs_first_total", "first").inc(1);
  second.counter("obs_second_total", "second").inc(2);
  const std::string page = to_prometheus({&first, &second});
  EXPECT_NE(page.find("obs_first_total 1\n"), std::string::npos);
  EXPECT_NE(page.find("obs_second_total 2\n"), std::string::npos);
}

TEST(MetricsRegistry, DisabledRecordingIsSkipped) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("obs_gated_total", "test");
  set_metrics_enabled(false);
  counter.inc(100);
  set_metrics_enabled(true);
  EXPECT_EQ(counter.value(), 0u);
  counter.inc();
  EXPECT_EQ(counter.value(), 1u);
}

// ---------------------------------------------------------------------------
// Structured logging
// ---------------------------------------------------------------------------

class LogCapture {
 public:
  LogCapture() {
    set_log_sink([this](std::string_view line) { lines_.emplace_back(line); });
  }
  ~LogCapture() {
    set_log_sink(nullptr);
    set_log_level(LogLevel::kWarn);
    set_log_json(false);
  }
  const std::vector<std::string>& lines() const { return lines_; }

 private:
  std::vector<std::string> lines_;
};

TEST(Log, LevelGateFiltersBelowThreshold) {
  LogCapture capture;
  set_log_level(LogLevel::kWarn);
  log_info("test", "dropped info");
  log_debug("test", "dropped debug");
  log_warn("test", "kept warn", {{"key", "value"}, {"n", 42}});
  ASSERT_EQ(capture.lines().size(), 1u);
  const std::string& line = capture.lines()[0];
  EXPECT_NE(line.find("WARN"), std::string::npos);
  EXPECT_NE(line.find("test"), std::string::npos);
  EXPECT_NE(line.find("kept warn"), std::string::npos);
  EXPECT_NE(line.find("key=value"), std::string::npos);
  EXPECT_NE(line.find("n=42"), std::string::npos);
}

TEST(Log, TextValuesWithSpacesAreQuoted) {
  LogCapture capture;
  set_log_level(LogLevel::kInfo);
  log_info("test", "quoting", {{"reason", "no such file"}});
  ASSERT_EQ(capture.lines().size(), 1u);
  EXPECT_NE(capture.lines()[0].find("reason=\"no such file\""), std::string::npos);
}

TEST(Log, JsonLinesParseWithOwnJsonParser) {
  LogCapture capture;
  set_log_level(LogLevel::kInfo);
  set_log_json(true);
  log_info("loader", "source degraded",
           {{"source", "RIPE"}, {"bytes", 1234u}, {"ratio", 0.5}, {"ok", false}});
  ASSERT_EQ(capture.lines().size(), 1u);
  const json::Value parsed = json::parse(capture.lines()[0]);
  const json::Object& object = parsed.as_object();
  EXPECT_EQ(object.at("level").as_string(), "info");
  EXPECT_EQ(object.at("component").as_string(), "loader");
  EXPECT_EQ(object.at("msg").as_string(), "source degraded");
  EXPECT_EQ(object.at("source").as_string(), "RIPE");
  EXPECT_EQ(object.at("bytes").as_int(), 1234);
  EXPECT_DOUBLE_EQ(object.at("ratio").as_double(), 0.5);
  EXPECT_FALSE(object.at("ok").as_bool());
}

TEST(Log, RateLimitCapsBurstPerWindow) {
  LogCapture capture;
  set_log_level(LogLevel::kInfo);
  const std::uint32_t attempts = kRateLimitBurst + 10;
  for (std::uint32_t i = 0; i < attempts; ++i) {
    log_info("ratelimit-test", "flood message", {{"i", i}});
  }
  EXPECT_EQ(capture.lines().size(), kRateLimitBurst);
  // A different (component, message) key is unaffected by the flood.
  log_info("ratelimit-test", "another message");
  EXPECT_EQ(capture.lines().size(), kRateLimitBurst + 1);
  // When the window rolls over, the first line through reports how many
  // were suppressed.
  std::this_thread::sleep_for(kRateLimitWindow + std::chrono::milliseconds(50));
  log_info("ratelimit-test", "flood message");
  ASSERT_EQ(capture.lines().size(), kRateLimitBurst + 2);
  EXPECT_NE(capture.lines().back().find("suppressed=10"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Trace spans
// ---------------------------------------------------------------------------

TEST(Trace, DisabledSpansRecordNothing) {
  Tracer::global().set_enabled(false);
  {
    Span span("obs.test.noop");
    EXPECT_FALSE(span.active());
  }
  EXPECT_TRUE(Tracer::global().records().empty());
}

TEST(Trace, SpanNestingDepthAndChromeTraceExport) {
  Tracer& tracer = Tracer::global();
  tracer.set_enabled(true);
  {
    Span outer("obs.test.outer", "corpus");
    {
      Span inner("obs.test.inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  tracer.set_enabled(false);
  const std::vector<SpanRecord> records = tracer.records();
  ASSERT_EQ(records.size(), 2u);
  // Spans complete inner-first.
  EXPECT_EQ(records[0].name, "obs.test.inner");
  EXPECT_EQ(records[0].depth, 1u);
  EXPECT_EQ(records[1].name, "obs.test.outer");
  EXPECT_EQ(records[1].depth, 0u);
  EXPECT_EQ(records[1].arg, "corpus");
  EXPECT_GE(records[1].wall_us, records[0].wall_us);
  // The inner span starts no earlier and ends no later than the outer one.
  EXPECT_GE(records[0].start_us, records[1].start_us);
  EXPECT_LE(records[0].start_us + records[0].wall_us,
            records[1].start_us + records[1].wall_us);

  // The exported document is valid JSON in chrome://tracing shape, parsed
  // with our own parser.
  const json::Value parsed = json::parse(tracer.chrome_trace());
  const json::Object& document = parsed.as_object();
  const json::Array& events = document.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 2u);
  for (const json::Value& event : events) {
    const json::Object& fields = event.as_object();
    EXPECT_EQ(fields.at("ph").as_string(), "X");
    EXPECT_EQ(fields.at("pid").as_int(), 1);
    EXPECT_GE(fields.at("dur").as_int(), 0);
    EXPECT_TRUE(fields.contains("ts"));
    EXPECT_TRUE(fields.contains("name"));
  }

  const std::string table = tracer.summary_table();
  EXPECT_NE(table.find("obs.test.outer"), std::string::npos);
  EXPECT_NE(table.find("obs.test.inner"), std::string::npos);
  tracer.clear();
}

TEST(Trace, EnablingClearsPriorRecords) {
  Tracer& tracer = Tracer::global();
  tracer.set_enabled(true);
  { Span span("obs.test.first"); }
  EXPECT_EQ(tracer.records().size(), 1u);
  tracer.set_enabled(true);  // re-enable = fresh session
  EXPECT_TRUE(tracer.records().empty());
  tracer.set_enabled(false);
  tracer.clear();
}

// ---------------------------------------------------------------------------
// Failpoint observability bridge
// ---------------------------------------------------------------------------

TEST(FailpointBridge, FiringEmitsLogAndMetric) {
  install_failpoint_observer();
  LogCapture capture;
  set_log_level(LogLevel::kWarn);
  fp::clear_all();
  ASSERT_TRUE(fp::set("obs.test.site", "2*error(boom)"));
  EXPECT_TRUE(fp::hit("obs.test.site").is_error());
  EXPECT_TRUE(fp::hit("obs.test.site").is_error());
  EXPECT_FALSE(fp::hit("obs.test.site"));  // budget exhausted

  ASSERT_EQ(capture.lines().size(), 2u);
  EXPECT_NE(capture.lines()[0].find("failpoint"), std::string::npos);
  EXPECT_NE(capture.lines()[0].find("obs.test.site"), std::string::npos);
  EXPECT_NE(capture.lines()[0].find("boom"), std::string::npos);

  const std::string page = MetricsRegistry::global().to_prometheus();
  EXPECT_NE(page.find("rpslyzer_failpoint_fires_total{site=\"obs.test.site\"} 2"),
            std::string::npos);
  fp::clear_all();
}

// ---------------------------------------------------------------------------
// Prometheus exposition hardening (escaping, determinism, merging)
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, HelpTextIsEscaped) {
  MetricsRegistry registry;
  registry.counter("obs_help_total", "path C:\\tmp\nsecond line").inc();
  const std::string page = registry.to_prometheus();
  // Backslash and newline must be escaped in HELP; a raw newline would
  // truncate the comment and turn "second line" into a syntax error.
  EXPECT_NE(page.find("# HELP obs_help_total path C:\\\\tmp\\nsecond line\n"),
            std::string::npos);
  EXPECT_EQ(page.find("tmp\nsecond"), std::string::npos);
}

TEST(MetricsRegistry, Utf8LabelValuesPassThroughUnescaped) {
  MetricsRegistry registry;
  registry.counter("obs_utf8_total", "test", {{"名前", "käse—☃"}}).inc(2);
  const std::string page = registry.to_prometheus();
  // Prometheus text format is UTF-8 native: only backslash, quote, and
  // newline are escaped in label values; multi-byte sequences pass raw.
  EXPECT_NE(page.find("obs_utf8_total{名前=\"käse—☃\"} 2\n"), std::string::npos);
}

TEST(MetricsRegistry, EmptyHelpFallsBackToUndocumented) {
  MetricsRegistry registry;
  registry.counter("obs_undoc_total", "").inc();
  const std::string page = registry.to_prometheus();
  EXPECT_NE(page.find("# HELP obs_undoc_total (undocumented)\n"), std::string::npos);
}

TEST(MetricsRegistry, ExpositionIsSortedByNameThenLabels) {
  MetricsRegistry registry;
  // Registered deliberately out of order, both across families and across
  // label sets within one family.
  registry.counter("obs_zz_total", "late family").inc(1);
  registry.counter("obs_aa_total", "early family", {{"op", "z"}}).inc(3);
  registry.counter("obs_aa_total", "early family", {{"op", "a"}}).inc(2);
  const std::string page = registry.to_prometheus();
  const std::size_t family_a = page.find("# HELP obs_aa_total");
  const std::size_t family_z = page.find("# HELP obs_zz_total");
  const std::size_t op_a = page.find("obs_aa_total{op=\"a\"} 2\n");
  const std::size_t op_z = page.find("obs_aa_total{op=\"z\"} 3\n");
  ASSERT_NE(family_a, std::string::npos);
  ASSERT_NE(family_z, std::string::npos);
  ASSERT_NE(op_a, std::string::npos);
  ASSERT_NE(op_z, std::string::npos);
  EXPECT_LT(family_a, family_z);
  EXPECT_LT(op_a, op_z);
  // Byte-identical across scrapes: nothing in the render depends on
  // registration order or wall time.
  EXPECT_EQ(page, registry.to_prometheus());
}

TEST(MetricsRegistry, MergedRegistriesUnifySameNameDisjointLabels) {
  MetricsRegistry first;
  MetricsRegistry second;
  first.counter("obs_shared_total", "Shared counter", {{"site", "a"}}).inc(1);
  second.counter("obs_shared_total", "", {{"site", "b"}}).inc(2);
  const std::string page = to_prometheus({&first, &second});
  // One family header (first non-empty help wins), then both instances as
  // sorted sample lines — not two families or a dropped instance.
  EXPECT_NE(page.find("# HELP obs_shared_total Shared counter\n"), std::string::npos);
  EXPECT_EQ(page.find("(undocumented)"), std::string::npos);
  const std::size_t site_a = page.find("obs_shared_total{site=\"a\"} 1\n");
  const std::size_t site_b = page.find("obs_shared_total{site=\"b\"} 2\n");
  ASSERT_NE(site_a, std::string::npos);
  ASSERT_NE(site_b, std::string::npos);
  EXPECT_LT(site_a, site_b);
  // Exactly one TYPE line for the family.
  const std::size_t type_first = page.find("# TYPE obs_shared_total counter\n");
  ASSERT_NE(type_first, std::string::npos);
  EXPECT_EQ(page.find("# TYPE obs_shared_total", type_first + 1), std::string::npos);
}

// ---------------------------------------------------------------------------
// Trace context propagation
// ---------------------------------------------------------------------------

TEST(TraceContext, ScopesNestAndRestore) {
  EXPECT_EQ(current_trace_id(), 0u);
  {
    TraceContext outer(0x1234);
    EXPECT_EQ(current_trace_id(), 0x1234u);
    {
      TraceContext inner(0x5678);
      EXPECT_EQ(current_trace_id(), 0x5678u);
    }
    EXPECT_EQ(current_trace_id(), 0x1234u);
  }
  EXPECT_EQ(current_trace_id(), 0u);
}

TEST(TraceContext, GeneratedIdsAreNonZeroAndDistinct) {
  const std::uint64_t a = next_trace_id();
  const std::uint64_t b = next_trace_id();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
}

TEST(TraceContext, HexRoundTripAndRejection) {
  const std::uint64_t id = 0x0123456789abcdefULL;
  EXPECT_EQ(trace_hex(id), "0123456789abcdef");
  std::uint64_t parsed = 0;
  ASSERT_TRUE(parse_trace_hex("0123456789abcdef", &parsed));
  EXPECT_EQ(parsed, id);
  ASSERT_TRUE(parse_trace_hex("FF", &parsed));  // short + uppercase accepted
  EXPECT_EQ(parsed, 0xffu);
  EXPECT_FALSE(parse_trace_hex("", &parsed));
  EXPECT_FALSE(parse_trace_hex("0123456789abcdef0", &parsed));  // 17 digits
  EXPECT_FALSE(parse_trace_hex("xyz", &parsed));
  EXPECT_FALSE(parse_trace_hex("12 34", &parsed));
}

TEST(TraceContext, SpansInheritTheAmbientTraceId) {
  Tracer& tracer = Tracer::global();
  tracer.set_enabled(true);
  {
    TraceContext scope(0xabcdef);
    Span span("obs.test.traced");
  }
  { Span span("obs.test.untraced"); }
  tracer.set_enabled(false);
  const std::vector<SpanRecord> records = tracer.records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].trace, 0xabcdefu);
  EXPECT_EQ(records[1].trace, 0u);
  const std::string chrome = tracer.chrome_trace();
  EXPECT_NE(chrome.find("0000000000abcdef"), std::string::npos);
  tracer.clear();
}

TEST(TraceContext, AmbientTraceRidesLogLines) {
  LogCapture capture;
  set_log_level(LogLevel::kWarn);
  {
    TraceContext scope(0xbeef);
    log_warn("obs_test", "inside context");
    log_warn("obs_test", "explicit wins", {{"trace", "custom"}});
  }
  log_warn("obs_test", "outside context");
  ASSERT_EQ(capture.lines().size(), 3u);
  EXPECT_NE(capture.lines()[0].find("trace=000000000000beef"), std::string::npos);
  EXPECT_NE(capture.lines()[1].find("trace=custom"), std::string::npos);
  EXPECT_EQ(capture.lines()[1].find("000000000000beef"), std::string::npos);
  EXPECT_EQ(capture.lines()[2].find("trace="), std::string::npos);
}

TEST(TraceContext, CrossThreadSpansKeepPerThreadNestingAndDeterministicExport) {
  Tracer& tracer = Tracer::global();
  tracer.set_enabled(true);
  constexpr int kThreads = 4;
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([t] {
      // Each worker runs under its own trace context; nesting depth is
      // thread-local, so concurrent workers must not see each other's
      // depth.
      TraceContext scope(static_cast<std::uint64_t>(t) + 1);
      Span outer("obs.test.pool.outer");
      Span inner("obs.test.pool.inner");
    });
  }
  for (auto& thread : pool) thread.join();
  tracer.set_enabled(false);
  const std::vector<SpanRecord> records = tracer.records();
  ASSERT_EQ(records.size(), 2u * kThreads);
  std::uint64_t inner_seen = 0;
  for (const SpanRecord& record : records) {
    ASSERT_GE(record.trace, 1u);
    ASSERT_LE(record.trace, static_cast<std::uint64_t>(kThreads));
    if (record.name == "obs.test.pool.inner") {
      EXPECT_EQ(record.depth, 1u);
      ++inner_seen;
    } else {
      EXPECT_EQ(record.depth, 0u);
    }
  }
  EXPECT_EQ(inner_seen, static_cast<std::uint64_t>(kThreads));
  // The export is a pure function of the recorded spans: two renders of
  // the same session are byte-identical, worker interleaving and all.
  const std::string once = tracer.chrome_trace();
  const std::string twice = tracer.chrome_trace();
  EXPECT_EQ(once, twice);
  EXPECT_NO_THROW(json::parse(once));
  tracer.clear();
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

FlightRecord make_record(std::uint64_t trace_id, const char* verb = "!gas") {
  FlightRecord record;
  record.trace_id = trace_id;
  std::snprintf(record.verb, sizeof(record.verb), "%s", verb);
  record.end_us = trace_id * 10;
  record.generation = 2;
  record.queue_us = 3;
  record.eval_us = 40;
  record.total_us = 43;
  record.bytes = 100;
  record.cache = 'm';
  record.outcome = 'A';
  return record;
}

TEST(FlightRecorder, ZeroCapacityIsDisabled) {
  FlightRecorder recorder(0);
  EXPECT_FALSE(recorder.enabled());
  recorder.record(make_record(1));  // must be a safe no-op
  EXPECT_EQ(recorder.total(), 0u);
  EXPECT_TRUE(recorder.snapshot().empty());
}

TEST(FlightRecorder, RingWrapsOldestFirstAndCountsDrops) {
  FlightRecorder recorder(4);
  ASSERT_EQ(recorder.capacity(), 4u);
  for (std::uint64_t i = 1; i <= 10; ++i) recorder.record(make_record(i));
  EXPECT_EQ(recorder.total(), 10u);
  EXPECT_EQ(recorder.dropped(), 6u);
  const std::vector<FlightRecord> records = recorder.snapshot();
  ASSERT_EQ(records.size(), 4u);
  // Oldest surviving record first; ids 1..6 were overwritten.
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].trace_id, 7 + i);
  }
  EXPECT_FALSE(recorder.find(9).empty());
  EXPECT_TRUE(recorder.find(3).empty());  // overwritten
}

TEST(FlightRecorder, SlowLogSurvivesRingWraparound) {
  FlightRecorder recorder(4);
  FlightRecord slow = make_record(42, "!slowq");
  slow.total_us = 50000;
  recorder.record(slow);
  recorder.note_slow(slow);
  for (std::uint64_t i = 100; i < 120; ++i) recorder.record(make_record(i));
  EXPECT_FALSE(recorder.find(42).empty());  // served from the slow log
  const std::vector<FlightRecord> kept = recorder.slow_snapshot();
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].trace_id, 42u);
  EXPECT_EQ(kept[0].total_us, 50000u);
}

TEST(FlightRecorder, FormatRendersEveryField) {
  const std::string line = format_flight_record(make_record(0xab, "!trace"));
  EXPECT_NE(line.find("trace=00000000000000ab"), std::string::npos);
  EXPECT_NE(line.find("verb=!trace"), std::string::npos);
  EXPECT_NE(line.find("outcome=A"), std::string::npos);
  EXPECT_NE(line.find("cache=m"), std::string::npos);
  EXPECT_NE(line.find("queue-us=3"), std::string::npos);
  EXPECT_NE(line.find("eval-us=40"), std::string::npos);
  EXPECT_NE(line.find("total-us=43"), std::string::npos);
}

TEST(FlightRecorder, ConcurrentWritersAndReadersStayCoherent) {
  // Exercised under TSan by scripts/sanitize_check.sh: racing writers and a
  // snapshotting reader must be data-race-free (every slot access is an
  // atomic word), and every record a snapshot returns must be internally
  // consistent — the seqlock discards torn reads rather than surfacing
  // them.
  FlightRecorder recorder(64);
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 20000;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad_reads{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const FlightRecord& record : recorder.snapshot()) {
        // Writers always store total_us == trace_id % 1000 + queue_us; a
        // torn record would violate it.
        if (record.total_us != record.trace_id % 1000 + record.queue_us) {
          bad_reads.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&recorder, w] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        const std::uint64_t id = static_cast<std::uint64_t>(w) * kPerWriter + i + 1;
        FlightRecord record = make_record(id);
        record.queue_us = static_cast<std::uint32_t>(w);
        record.total_us = static_cast<std::uint32_t>(id % 1000 + record.queue_us);
        recorder.record(record);
      }
    });
  }
  for (auto& writer : writers) writer.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(bad_reads.load(), 0u);
  EXPECT_EQ(recorder.total(), static_cast<std::uint64_t>(kWriters) * kPerWriter);
  EXPECT_EQ(recorder.snapshot().size(), recorder.capacity());
}

TEST(FlightRecorder, TwoSlotRingUnderEightWritersNeverTearsOrLosesTheNewest) {
  // With far more writers than slots, writers one ring lap apart share a
  // slot all the time — the collision a production-sized ring sees only
  // when a writer is preempted mid-record. A writer must never store into
  // or publish a slot a newer ticket owns: a snapshot may never return a
  // torn record, and once the writers are done each slot must hold the
  // newest ticket that mapped to it.
  FlightRecorder recorder(2);
  constexpr int kWriters = 8;
  constexpr std::uint64_t kPerWriter = 20000;
  const auto coherent = [](const FlightRecord& record) {
    return record.end_us == record.trace_id * 10 && record.generation == record.trace_id &&
           record.bytes == static_cast<std::uint32_t>(record.trace_id) &&
           record.total_us == record.trace_id % 1000 + record.queue_us;
  };
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad_reads{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const FlightRecord& record : recorder.snapshot()) {
        if (!coherent(record)) bad_reads.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&recorder, w] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        const std::uint64_t id = static_cast<std::uint64_t>(w) * kPerWriter + i + 1;
        FlightRecord record = make_record(id);
        record.generation = id;
        record.bytes = static_cast<std::uint32_t>(id);
        record.queue_us = static_cast<std::uint32_t>(w);
        record.total_us = static_cast<std::uint32_t>(id % 1000 + record.queue_us);
        recorder.record(record);
      }
    });
  }
  for (auto& writer : writers) writer.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(bad_reads.load(), 0u);
  EXPECT_EQ(recorder.total(), static_cast<std::uint64_t>(kWriters) * kPerWriter);
  const std::vector<FlightRecord> last = recorder.snapshot();
  EXPECT_EQ(last.size(), recorder.capacity());
  for (const FlightRecord& record : last) EXPECT_TRUE(coherent(record));
}

}  // namespace
}  // namespace rpslyzer::obs
