#include "rpslyzer/delta/pipeline.hpp"

#include <chrono>
#include <stdexcept>

#include "rpslyzer/irr/index.hpp"
#include "rpslyzer/obs/metrics.hpp"
#include "rpslyzer/obs/trace.hpp"
#include "rpslyzer/util/failpoint.hpp"

namespace rpslyzer::delta {

namespace fp = util::failpoint;

namespace {

struct Metrics {
  obs::Counter& batches_applied;
  obs::Counter& batches_refused;
  obs::Counter& ops_applied;
  obs::Counter& ops_skipped;
  obs::Gauge& dirty_objects;
  obs::Gauge& journal_serial;
  obs::Histogram& apply_seconds;
};

Metrics& metrics() {
  auto& registry = obs::MetricsRegistry::global();
  static Metrics m{
      registry.counter("rpslyzer_delta_batches_applied_total",
                       "Journal batches applied and published"),
      registry.counter("rpslyzer_delta_batches_refused_total",
                       "Journal batches refused atomically"),
      registry.counter("rpslyzer_delta_ops_applied_total",
                       "Journal ADD/DEL operations applied"),
      registry.counter("rpslyzer_delta_ops_skipped_total",
                       "Journal operations skipped as idempotent serial replay"),
      registry.gauge("rpslyzer_delta_dirty_objects",
                     "Stored objects the last applied batch added, changed or deleted"),
      registry.gauge("rpslyzer_delta_journal_serial",
                     "Last applied journal serial"),
      registry.histogram("rpslyzer_delta_apply_seconds",
                         "End-to-end journal batch apply duration",
                         obs::exponential_bounds(1e-4, 4.0, 12)),
  };
  return m;
}

CompileStats compile_stats(const compile::CompiledPolicySnapshot& snapshot) {
  CompileStats stats;
  stats.route_sets_recompiled = snapshot.index().ir().route_sets.size();
  stats.regexes_recompiled = snapshot.compiled_regexes();
  return stats;
}

}  // namespace

DeltaPipeline::DeltaPipeline(std::vector<std::pair<std::string, std::string>> dumps,
                             std::string_view relationships_serial1) {
  store_.init(dumps);
  util::Diagnostics diags;
  auto relations = std::make_shared<relations::AsRelations>(
      relations::AsRelations::parse(relationships_serial1, diags));
  if (relations->link_count() == 0 && diags.error_count() > 0) {
    throw std::runtime_error("delta: unusable relationships text: " +
                             diags.all().front().message);
  }
  relations_ = std::move(relations);

  auto gen = std::make_shared<Generation>();
  gen->ir = std::make_shared<const ir::Ir>(store_.materialize());
  gen->index = std::make_shared<const irr::Index>(*gen->ir);
  gen->snapshot = compile::CompiledPolicySnapshot::build(gen->index, relations_);
  gen->stats = compile_stats(*gen->snapshot);
  publish(std::move(gen));

  reclaimer_ = std::thread([this] { reclaim_loop(); });
}

DeltaPipeline::~DeltaPipeline() {
  {
    std::lock_guard<std::mutex> lock(reclaim_mutex_);
    reclaim_stop_ = true;
  }
  reclaim_cv_.notify_one();
  if (reclaimer_.joinable()) reclaimer_.join();
}

void DeltaPipeline::retire(std::shared_ptr<const Generation> generation) {
  if (generation == nullptr) return;
  // Enqueue only — no notify. Waking the reclaimer here can preempt the
  // apply thread (on saturated hosts the scheduler hands it the CPU at the
  // notify), pulling the teardown right back onto the path we are evicting
  // it from. The reclaimer's timed wait picks the queue up within its poll
  // interval instead; only shutdown notifies.
  std::lock_guard<std::mutex> lock(reclaim_mutex_);
  retired_.push_back(std::move(generation));
}

void DeltaPipeline::reclaim_loop() {
  constexpr auto kPollInterval = std::chrono::milliseconds(20);
  std::unique_lock<std::mutex> lock(reclaim_mutex_);
  for (;;) {
    reclaim_cv_.wait_for(lock, kPollInterval,
                         [this] { return reclaim_stop_; });
    if (retired_.empty()) {
      if (reclaim_stop_) return;
      continue;
    }
    std::vector<std::shared_ptr<const Generation>> drained = std::move(retired_);
    retired_.clear();
    lock.unlock();
    // The actual teardown (if these are the last references), off every lock
    // so apply() and readers never wait on it.
    drained.clear();
    lock.lock();
  }
}

std::shared_ptr<const Generation> DeltaPipeline::current() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return current_;
}

std::shared_ptr<const compile::CompiledPolicySnapshot> DeltaPipeline::current_snapshot()
    const {
  auto gen = current();
  return {gen, gen->snapshot.get()};
}

std::uint64_t DeltaPipeline::applied_serial() const {
  return current()->serial;
}

void DeltaPipeline::publish(std::shared_ptr<const Generation> generation) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  current_ = std::move(generation);
}

ApplyResult DeltaPipeline::apply(const JournalBatch& batch) {
  ApplyResult result;
  std::lock_guard<std::mutex> apply_lock(apply_mutex_);
  obs::Span span("delta.apply");
  const auto start = std::chrono::steady_clock::now();
  auto& m = metrics();

  const auto refuse = [&](std::string error) {
    result.refused = true;
    result.error = std::move(error);
    m.batches_refused.inc();
    std::lock_guard<std::mutex> lock(state_mutex_);
    ++batches_refused_;
    last_error_ = result.error;
  };

  if (const auto hit = fp::hit("delta.apply"); hit.is_error()) {
    refuse(hit.message.empty() ? "delta.apply failpoint" : hit.message);
    return result;
  }

  auto previous = current();
  std::size_t skipped = 0;
  std::string error;
  auto prepared = store_.prepare(batch, previous->serial, &skipped, &error);
  result.ops_skipped = skipped;
  if (!prepared.has_value()) {
    refuse(std::move(error));
    return result;
  }
  if (skipped != 0) m.ops_skipped.inc(skipped);
  if (prepared->empty()) {
    // Pure replay: every serial was already applied. Success, no new
    // generation.
    std::lock_guard<std::mutex> lock(state_mutex_);
    ops_skipped_ += skipped;
    return result;
  }

  auto undo = store_.apply(*prepared);
  bool ok = false;
  std::shared_ptr<const Generation> next;
  try {
    auto ir = std::make_shared<const ir::Ir>(store_.materialize());
    auto index = std::make_shared<const irr::Index>(*ir);

    const auto compile_start = std::chrono::steady_clock::now();
    auto snapshot = compile::CompiledPolicySnapshot::build(index, relations_);
    result.compile_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - compile_start)
            .count();

    auto gen = std::make_shared<Generation>();
    gen->ir = std::move(ir);
    gen->index = std::move(index);
    gen->snapshot = std::move(snapshot);
    gen->serial = prepared->back().serial;
    gen->number = previous->number + 1;
    gen->stats = compile_stats(*gen->snapshot);
    gen->dirty_objects = store_.changed_identities(undo);
    next = std::move(gen);
    ok = true;
  } catch (const std::exception& e) {
    error = std::string("apply failed: ") + e.what();
  }

  if (!ok) {
    store_.revert(std::move(undo));
    refuse(std::move(error));
    return result;
  }

  result.applied = true;
  result.ops_applied = prepared->size();
  result.dirty_objects = next->dirty_objects;

  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  m.batches_applied.inc();
  m.ops_applied.inc(prepared->size());
  m.dirty_objects.set(static_cast<std::int64_t>(next->dirty_objects));
  m.journal_serial.set(static_cast<std::int64_t>(next->serial));
  m.apply_seconds.observe(elapsed.count());

  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    current_ = next;
    ++batches_applied_;
    ops_applied_ += prepared->size();
    ops_skipped_ += skipped;
    last_error_.clear();
  }
  // Tear the superseded generation down on the reclaimer thread: freeing a
  // corpus-sized Ir + index + snapshot costs as much as the compile itself
  // and must not extend the apply critical path.
  retire(std::move(previous));
  return result;
}

std::string DeltaPipeline::stats_line() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  const Generation& gen = *current_;
  std::string line = "delta: serial=" + std::to_string(gen.serial) +
                     " generation=" + std::to_string(gen.number) +
                     " batches=" + std::to_string(batches_applied_) +
                     " refused=" + std::to_string(batches_refused_) +
                     " ops=" + std::to_string(ops_applied_) +
                     " skipped=" + std::to_string(ops_skipped_) +
                     " dirty=" + std::to_string(gen.dirty_objects);
  if (!last_error_.empty()) line += " last_error=\"" + last_error_ + "\"";
  return line;
}

}  // namespace rpslyzer::delta
