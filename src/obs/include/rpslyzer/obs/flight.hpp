#pragma once
// Per-query flight recorder: a fixed-size lock-free ring of the last N
// query outcomes, always on in production (unlike spans, which are opt-in
// and record everything). Each accepted query leaves one FlightRecord —
// trace id, verb, stage timings, cache hit/miss, generation, response
// bytes, outcome — so `!trace <id>` can reconstruct a single query after
// the fact and `!slow` / deadline-miss snapshots surface the tail.
//
// Concurrency: writers are the worker pool plus the event loop; readers
// are admin verbs (`!slow`, `!trace`) and post-mortem snapshot dumps.
// Each slot is a seqlock: a writer claims a monotonically increasing
// ticket (slot = ticket & mask), CASes the slot's sequence from an older
// published value to its odd busy mark ticket*2+1, stores the payload as
// relaxed atomic words, then publishes ticket*2+2 with release. A writer
// never stores into a slot a newer ticket owns: it drops its (already
// evicted) record instead, and it waits only when it laps an older writer
// that is still mid-write on the same slot — a whole ring of records
// issued during one write. So at most one writer touches a slot's words
// at a time, and once writers quiesce every slot holds its newest ticket.
// A reader validates the sequence before and after copying the words and
// simply skips slots that were mid-write or got overwritten — no lock, no
// retry loop. All payload accesses are atomic, so the race a torn read
// represents is benign *and* TSan-clean.
//
// Cost discipline: `record()` starts with one relaxed load of the
// enabled flag (same pattern as tracing_on()); the disabled path must
// stay under 10 ns and the enabled path under 100 ns — gated by
// bench/perf_flight.cpp (BENCH_flight.json).

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

namespace rpslyzer::obs {

/// One recorded query. Trivially copyable: the ring stores it as packed
/// 64-bit atomic words.
struct FlightRecord {
  std::uint64_t trace_id = 0;  ///< trace context of the query (never 0 once recorded)
  char verb[16] = {};          ///< first token of the query line, NUL-padded
  std::uint64_t end_us = 0;    ///< microseconds since recorder construction
  std::uint64_t generation = 0;  ///< corpus generation that answered
  std::uint32_t queue_us = 0;  ///< accept → worker pickup (0 for inline verbs)
  std::uint32_t eval_us = 0;   ///< worker evaluation (cache miss path) or 0
  std::uint32_t total_us = 0;  ///< accept → response enqueued
  std::uint32_t bytes = 0;     ///< framed response size
  char cache = '-';            ///< 'h' hit, 'm' miss, '-' not a cached verb
  char outcome = '?';          ///< first response byte: A/C/D/F, or 'T' timeout
  char reserved[6] = {};       ///< pad to an 8-byte multiple for word packing
};
static_assert(std::is_trivially_copyable_v<FlightRecord>, "ring stores raw words");
static_assert(sizeof(FlightRecord) % 8 == 0, "records pack into u64 words");

/// `trace=<hex> verb=... outcome=A cache=h gen=N bytes=N queue-us=N
/// eval-us=N total-us=N t-us=N` — the one-line spelling shared by `!slow`,
/// ring snapshots, and tests.
std::string format_flight_record(const FlightRecord& record);

class FlightRecorder {
 public:
  /// `capacity` is rounded up to a power of two (min 2). A zero capacity
  /// constructs a disabled recorder that drops everything.
  explicit FlightRecorder(std::size_t capacity);

  /// One relaxed load; callers should branch on this before composing a
  /// FlightRecord so the disabled path does no work at all.
  bool enabled() const noexcept { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) noexcept { enabled_.store(on, std::memory_order_relaxed); }

  /// Append one record (no-op when disabled). Lock-free, multi-producer.
  void record(const FlightRecord& record) noexcept;

  /// Copy `record` into the bounded slow-query log (mutex-protected cold
  /// path; callers gate on their `--slow-ms` threshold first). Keeps the
  /// most recent kSlowCapacity entries.
  void note_slow(const FlightRecord& record);

  /// The surviving ring contents, oldest first. Slots mid-write or
  /// overwritten during the scan are skipped, not retried.
  std::vector<FlightRecord> snapshot() const;

  /// All surviving records (ring + slow log, deduplicated by identity not
  /// attempted — ring wins) matching `trace_id`, oldest first.
  std::vector<FlightRecord> find(std::uint64_t trace_id) const;

  /// Slow-log contents, oldest first.
  std::vector<FlightRecord> slow_snapshot() const;

  /// Records ever accepted / evicted from the ring by wraparound. The
  /// eviction count is the "recorder drop count" edges report in their
  /// heartbeat digest.
  std::uint64_t total() const noexcept { return next_.load(std::memory_order_relaxed); }
  std::uint64_t dropped() const noexcept;

  std::size_t capacity() const noexcept { return mask_ + 1; }

  static constexpr std::size_t kSlowCapacity = 128;

 private:
  static constexpr std::size_t kWords = sizeof(FlightRecord) / 8;
  struct Slot {
    std::atomic<std::uint64_t> seq{0};  // 0 = never written; odd = mid-write
    std::atomic<std::uint64_t> words[kWords] = {};
  };

  bool read_slot(const Slot& slot, std::uint64_t want_ticket, FlightRecord* out) const;

  std::atomic<bool> enabled_;
  std::atomic<std::uint64_t> next_{0};  // tickets issued
  std::size_t mask_;
  std::unique_ptr<Slot[]> slots_;

  mutable std::mutex slow_mu_;
  std::vector<FlightRecord> slow_;  // bounded circular, slow_start_ = oldest
  std::size_t slow_start_ = 0;
};

}  // namespace rpslyzer::obs
