#pragma once
// The delta pipeline: journal batches in, atomically published
// compiled-snapshot generations out.
//
// Per batch the pipeline (1) validates the ops, (2) applies them to the
// CorpusStore under an undo log, (3) materializes the merged ir::Ir and
// indexes it, and (4) compiles it with CompiledPolicySnapshot::build — the
// same from-scratch compile every other load path uses. Publish is atomic:
// the new generation becomes visible only after the compile succeeds; any
// failure rolls the store back and the last-good generation keeps serving.
//
// Failpoints: "delta.apply" (error refuses the batch before any mutation),
// plus "compile.build" inside the compile (error refuses the batch after
// the store rolls back). Metrics: the rpslyzer_delta_* family (DESIGN.md).

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "rpslyzer/compile/snapshot.hpp"
#include "rpslyzer/delta/corpus_store.hpp"
#include "rpslyzer/delta/journal.hpp"
#include "rpslyzer/relations/relations.hpp"

namespace rpslyzer::delta {

/// Compile accounting for one generation. Every generation is a full
/// CompiledPolicySnapshot::build, so nothing is reused from the previous
/// one: the reuse counts are always 0.
struct CompileStats {
  bool full_rebuild = true;
  std::size_t route_sets_reused = 0;
  std::size_t regexes_reused = 0;
  std::size_t route_sets_recompiled = 0;  // every route-set in the corpus
  std::size_t regexes_recompiled = 0;     // every AS-path regex lowered
};

/// One published generation. Members are declared in dependency order (the
/// index references the ir, the snapshot holds the index), so destruction
/// tears down in the reverse, safe order.
struct Generation {
  std::shared_ptr<const ir::Ir> ir;
  std::shared_ptr<const irr::Index> index;
  std::shared_ptr<const compile::CompiledPolicySnapshot> snapshot;
  std::uint64_t serial = 0;        // last applied journal serial (0 initially)
  std::uint64_t number = 1;        // generation counter; 1 = initial build
  CompileStats stats;
  std::size_t dirty_objects = 0;   // stored objects the batch changed
};

struct ApplyResult {
  bool applied = false;   // a new generation was published
  bool refused = false;   // batch rejected atomically; store untouched
  std::string error;      // refusal / failure detail
  std::size_t ops_applied = 0;
  std::size_t ops_skipped = 0;  // serial <= already applied (replay)
  /// Distinct identities whose stored paragraph the batch added, replaced
  /// with different text, or deleted (CorpusStore::changed_identities).
  std::size_t dirty_objects = 0;
  /// The CompiledPolicySnapshot::build portion of the apply. Excludes the
  /// store mutation and the corpus materialize/index cost.
  double compile_seconds = 0.0;
};

class DeltaPipeline {
 public:
  /// Builds the initial generation from dump texts (priority order) and a
  /// CAIDA serial-1 relationships text. Throws on an unusable relationships
  /// text; dump diagnostics are tolerated like the batch loader's.
  DeltaPipeline(std::vector<std::pair<std::string, std::string>> dumps,
                std::string_view relationships_serial1);
  /// Drains and joins the background reclaimer.
  ~DeltaPipeline();

  /// The current generation (never null after construction).
  std::shared_ptr<const Generation> current() const;

  /// Aliasing pointer to the current snapshot that keeps the whole
  /// generation (ir, index, snapshot) alive — the server's corpus loader
  /// contract.
  std::shared_ptr<const compile::CompiledPolicySnapshot> current_snapshot() const;

  /// Apply one batch. Serialized internally; readers of current() are never
  /// blocked by an in-flight apply.
  ApplyResult apply(const JournalBatch& batch);

  std::uint64_t applied_serial() const;

  /// One-line status for !stats: serial, generation, counters and the last
  /// batch's changed-object count.
  std::string stats_line() const;

  const CorpusStore& store() const noexcept { return store_; }
  std::shared_ptr<const relations::AsRelations> relations() const { return relations_; }

 private:
  void publish(std::shared_ptr<const Generation> generation);
  /// Queue a no-longer-current generation for teardown on the reclaimer
  /// thread. Freeing a full corpus of maps and pools costs milliseconds —
  /// comparable to the compile itself — so it must not ride on the apply
  /// path (or on a reader dropping the last reference late).
  void retire(std::shared_ptr<const Generation> generation);
  void reclaim_loop();

  std::mutex apply_mutex_;          // serializes apply()
  mutable std::mutex state_mutex_;  // guards current_ + counters below
  CorpusStore store_;               // mutated only under apply_mutex_
  std::shared_ptr<const relations::AsRelations> relations_;
  std::shared_ptr<const Generation> current_;

  std::uint64_t batches_applied_ = 0;
  std::uint64_t batches_refused_ = 0;
  std::uint64_t ops_applied_ = 0;
  std::uint64_t ops_skipped_ = 0;
  std::string last_error_;

  // Background teardown of retired generations (see retire()).
  std::mutex reclaim_mutex_;
  std::condition_variable reclaim_cv_;
  std::vector<std::shared_ptr<const Generation>> retired_;
  bool reclaim_stop_ = false;
  std::thread reclaimer_;
};

}  // namespace rpslyzer::delta
