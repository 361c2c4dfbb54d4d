#pragma once
// Pipeline trace spans with chrome://tracing export.
//
// A Span is an RAII stopwatch around one pipeline stage:
//
//   {
//     obs::Span span("irr.parse", source_name);
//     parse_dump(...);
//   }  // span records wall + thread-CPU time on destruction
//
// Spans nest naturally — each thread keeps a thread-local depth counter, so
// "irr.load" encloses per-source "irr.open"/"irr.read"/"irr.parse"/
// "irr.merge" children and the exported trace shows the containment.
//
// Tracing is off by default. When disabled, constructing a Span is one
// relaxed atomic load and a branch (same discipline as metrics_on()), cheap
// enough to leave spans permanently compiled into per-query dispatch.
// When enabled, completed spans accumulate in Tracer::global() (bounded;
// overflow is counted, not stored) until exported:
//
//   - chrome_trace() / write_chrome_trace(path): chrome://tracing
//     "traceEvents" JSON (complete "X" events, microsecond timestamps),
//     loadable in chrome://tracing or Perfetto. Wired to `--trace-out`.
//   - summary_table(): per-stage aggregate (count, wall, CPU) as a
//     fixed-width text table, printed at the end of `rpslyzer load`.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace rpslyzer::obs {

namespace detail {
/// Process-wide tracing gate, mirrored by Tracer::set_enabled(). Lives at
/// namespace scope (constant-initialized) rather than inside Tracer::global()
/// so the disabled Span fast path is one relaxed load + branch with no
/// static-init guard and no out-of-line call.
extern std::atomic<bool> trace_enabled;
}  // namespace detail

/// True when spans are being recorded. One relaxed load.
inline bool tracing_on() noexcept {
  return detail::trace_enabled.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Trace context: a per-thread 64-bit trace id that follows one query through
// dispatch → cache lookup → worker eval → verify. The server assigns (or the
// client supplies, via `!id <hex>`) an id per accepted query; workers install
// it with a TraceContext scope before evaluating, so every Span recorded and
// every structured log line emitted inside the scope can carry the id and one
// query becomes greppable end to end. 0 means "no trace context".

namespace detail {
/// constinit tells every including translation unit that the variable needs
/// no dynamic initialization, so accesses are plain thread-pointer-relative
/// loads and stores. Without it gcc routes each access through a TLS
/// wrapper that first tests a weak, here always null, init-function
/// address; in sanitizer builds gcc 12 then branches its null check of the
/// variable's address on the flags of that test (the address itself is
/// computed by a flag-preserving lea), so UBSan reported "store to null
/// pointer" for a store that was valid.
extern constinit thread_local std::uint64_t current_trace;
}  // namespace detail

/// The trace id installed on this thread (0 = none). One thread-local read.
inline std::uint64_t current_trace_id() noexcept { return detail::current_trace; }

/// RAII scope installing `id` as the thread's trace context; restores the
/// previous id on destruction so nested scopes (reload inside query handling)
/// unwind correctly.
class TraceContext {
 public:
  explicit TraceContext(std::uint64_t id) noexcept
      : previous_(detail::current_trace) {
    detail::current_trace = id;
  }
  ~TraceContext() { detail::current_trace = previous_; }
  TraceContext(const TraceContext&) = delete;
  TraceContext& operator=(const TraceContext&) = delete;

 private:
  std::uint64_t previous_;
};

/// Draw a fresh non-zero trace id. splitmix64 over a process-wide counter:
/// ids are unique within a run and well-mixed (no sequential correlation
/// leaking queue order to clients that echo them).
std::uint64_t next_trace_id() noexcept;

/// 16 lowercase hex digits, the canonical wire/log spelling of a trace id.
std::string trace_hex(std::uint64_t id);

/// Parse 1–16 hex digits (either case). False on empty/overlong/non-hex.
bool parse_trace_hex(std::string_view text, std::uint64_t* out) noexcept;

/// One completed span. Timestamps are microseconds since the tracer epoch
/// (the moment tracing was last enabled), wall clock is steady.
struct SpanRecord {
  std::string name;   ///< stage name, e.g. "irr.parse" (bounded set)
  std::string arg;    ///< free detail, e.g. the source name ("" = none)
  std::uint64_t start_us = 0;
  std::uint64_t wall_us = 0;
  std::uint64_t cpu_us = 0;  ///< CLOCK_THREAD_CPUTIME_ID delta
  std::uint32_t tid = 0;     ///< small per-process thread index, not an OS id
  std::uint32_t depth = 0;   ///< nesting depth on this thread (0 = top level)
  std::uint64_t trace = 0;   ///< trace context active when the span closed (0 = none)
};

class Tracer {
 public:
  /// The process-wide tracer. Never destroyed.
  static Tracer& global();

  /// Enabling (re)sets the epoch and clears prior records.
  void set_enabled(bool on);
  bool enabled() const noexcept { return tracing_on(); }

  void record(SpanRecord record);
  std::vector<SpanRecord> records() const;
  std::uint64_t dropped() const noexcept;
  void clear();

  /// chrome://tracing JSON document ({"traceEvents": [...]}).
  std::string chrome_trace() const;
  /// Write chrome_trace() to `path`; false + *error on I/O failure.
  bool write_chrome_trace(const std::string& path, std::string* error = nullptr) const;

  /// Per-stage aggregate: name, count, total/mean wall, total CPU — sorted
  /// by total wall time descending. Multi-line table ready for stderr.
  std::string summary_table() const;

  /// Spans stored before overflow counting kicks in.
  static constexpr std::size_t kMaxRecords = 1u << 20;

 private:
  friend class Span;
  std::uint64_t now_since_epoch_us() const noexcept;

  std::atomic<std::uint64_t> epoch_ns_{0};  // steady_clock ns at enable time
  std::atomic<std::uint64_t> dropped_{0};
  mutable std::mutex mu_;
  std::vector<SpanRecord> records_;
};

/// RAII span; records into Tracer::global() when tracing is enabled.
/// Must be destroyed on the thread that created it.
class Span {
 public:
  explicit Span(std::string_view name, std::string_view arg = {})
      : active_(tracing_on()) {
    if (active_) begin(name, arg);
  }
  ~Span() {
    if (active_) finish();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool active() const noexcept { return active_; }

 private:
  // Cold: only reached while tracing is enabled.
  void begin(std::string_view name, std::string_view arg);
  void finish();

  bool active_;
  std::string_view name_;  // callers pass string literals / outliving names
  std::string arg_;
  std::uint64_t start_us_;
  std::uint64_t start_cpu_ns_;
  std::uint32_t depth_;
};

}  // namespace rpslyzer::obs
