#include "rpslyzer/obs/flight.hpp"

#include <cstdio>
#include <thread>

#include "rpslyzer/obs/trace.hpp"

namespace rpslyzer::obs {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 2;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

std::string format_flight_record(const FlightRecord& record) {
  char verb[sizeof(record.verb) + 1];
  std::memcpy(verb, record.verb, sizeof(record.verb));
  verb[sizeof(record.verb)] = '\0';
  char line[256];
  std::snprintf(line, sizeof(line),
                "trace=%s verb=%s outcome=%c cache=%c gen=%llu bytes=%u "
                "queue-us=%u eval-us=%u total-us=%u t-us=%llu",
                trace_hex(record.trace_id).c_str(), verb[0] != '\0' ? verb : "?",
                record.outcome, record.cache,
                static_cast<unsigned long long>(record.generation), record.bytes,
                record.queue_us, record.eval_us, record.total_us,
                static_cast<unsigned long long>(record.end_us));
  return std::string(line);
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : enabled_(capacity > 0), mask_(round_up_pow2(capacity == 0 ? 2 : capacity) - 1) {
  slots_ = std::make_unique<Slot[]>(mask_ + 1);
  slow_.reserve(kSlowCapacity);
}

void FlightRecorder::record(const FlightRecord& record) noexcept {
  if (!enabled()) return;
  const std::uint64_t ticket = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[ticket & mask_];
  // Claim the slot: CAS it from a published (even) older sequence to our
  // odd busy mark. A newer ticket's mark means a later writer already owns
  // the slot and our record is evicted: drop it. An older writer still
  // mid-write keeps the slot until it publishes, so wait for it; only one
  // writer ever stores payload words into a slot at a time.
  const std::uint64_t busy = ticket * 2 + 1;
  std::uint64_t seq = slot.seq.load(std::memory_order_relaxed);
  for (;;) {
    if (seq >= busy) return;
    if (seq % 2 == 1) {
      std::this_thread::yield();
      seq = slot.seq.load(std::memory_order_relaxed);
      continue;
    }
    // Acquire pairs with the previous owner's publish, so its payload
    // stores are ordered before ours.
    if (slot.seq.compare_exchange_weak(seq, busy, std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
      break;
    }
  }
  // Orders the busy mark before the payload stores for a reader whose
  // acquire fence observes one of them (read_slot's second check).
  std::atomic_thread_fence(std::memory_order_release);
  std::uint64_t words[kWords];
  std::memcpy(words, &record, sizeof(record));
  for (std::size_t i = 0; i < kWords; ++i) {
    slot.words[i].store(words[i], std::memory_order_relaxed);
  }
  slot.seq.store(busy + 1, std::memory_order_release);
}

bool FlightRecorder::read_slot(const Slot& slot, std::uint64_t want_ticket,
                               FlightRecord* out) const {
  const std::uint64_t want_seq = want_ticket * 2 + 2;
  if (slot.seq.load(std::memory_order_acquire) != want_seq) return false;
  std::uint64_t words[kWords];
  for (std::size_t i = 0; i < kWords; ++i) {
    words[i] = slot.words[i].load(std::memory_order_relaxed);
  }
  std::atomic_thread_fence(std::memory_order_acquire);
  if (slot.seq.load(std::memory_order_relaxed) != want_seq) return false;
  std::memcpy(out, words, sizeof(*out));
  return true;
}

std::vector<FlightRecord> FlightRecorder::snapshot() const {
  const std::uint64_t end = next_.load(std::memory_order_acquire);
  const std::uint64_t capacity = mask_ + 1;
  const std::uint64_t begin = end > capacity ? end - capacity : 0;
  std::vector<FlightRecord> out;
  out.reserve(static_cast<std::size_t>(end - begin));
  for (std::uint64_t ticket = begin; ticket < end; ++ticket) {
    FlightRecord record;
    if (read_slot(slots_[ticket & mask_], ticket, &record)) out.push_back(record);
  }
  return out;
}

std::vector<FlightRecord> FlightRecorder::find(std::uint64_t trace_id) const {
  std::vector<FlightRecord> out;
  for (const FlightRecord& record : snapshot()) {
    if (record.trace_id == trace_id) out.push_back(record);
  }
  if (out.empty()) {
    // The ring may have wrapped past it; the slow log keeps outliers longer.
    for (const FlightRecord& record : slow_snapshot()) {
      if (record.trace_id == trace_id) out.push_back(record);
    }
  }
  return out;
}

void FlightRecorder::note_slow(const FlightRecord& record) {
  std::lock_guard<std::mutex> lock(slow_mu_);
  if (slow_.size() < kSlowCapacity) {
    slow_.push_back(record);
  } else {
    slow_[slow_start_] = record;
    slow_start_ = (slow_start_ + 1) % kSlowCapacity;
  }
}

std::vector<FlightRecord> FlightRecorder::slow_snapshot() const {
  std::lock_guard<std::mutex> lock(slow_mu_);
  std::vector<FlightRecord> out;
  out.reserve(slow_.size());
  for (std::size_t i = 0; i < slow_.size(); ++i) {
    out.push_back(slow_[(slow_start_ + i) % slow_.size()]);
  }
  return out;
}

std::uint64_t FlightRecorder::dropped() const noexcept {
  const std::uint64_t total = next_.load(std::memory_order_relaxed);
  const std::uint64_t capacity = mask_ + 1;
  return total > capacity ? total - capacity : 0;
}

}  // namespace rpslyzer::obs
