// Delta pipeline: journal semantics, atomic refusal, and the
// differential-equivalence spine.
//
// The central property under test is byte equality: after every applied
// churn batch, the published CompiledPolicySnapshot must answer every
// probe — set expansions, origin queries, Appendix-C verification reports —
// byte-for-byte identically to the oracle, Rpslyzer::from_texts over the
// store's own dump texts (the ordinary batch loader, the same reference
// `journal apply --verify-full` uses). Seeded churn sequences exercise
// add/del/modify of policy and set objects, serial gaps, duplicate serials
// (replay), and DELs of nonexistent objects; failpoint runs prove the same
// equality across delta.apply refusals and compile.build rollbacks.

#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "rpslyzer/delta/corpus_store.hpp"
#include "rpslyzer/delta/equiv.hpp"
#include "rpslyzer/delta/journal.hpp"
#include "rpslyzer/delta/pipeline.hpp"
#include "rpslyzer/rpslyzer.hpp"
#include "rpslyzer/synth/churn.hpp"
#include "rpslyzer/synth/generator.hpp"
#include "rpslyzer/util/failpoint.hpp"

namespace rpslyzer::delta {
namespace {

namespace fp = util::failpoint;

std::uint32_t seed_from_env() {
  if (const char* env = std::getenv("RPSLYZER_FUZZ_SEED")) {
    return static_cast<std::uint32_t>(std::strtoul(env, nullptr, 10));
  }
  return 20260806u;
}

/// One small synthetic corpus shared by every test in the binary: the
/// generator is deterministic, and the pipelines under test copy the texts.
struct Corpus {
  std::vector<std::pair<std::string, std::string>> dumps;  // priority order
  std::map<std::string, std::string> dump_map;             // churn catalog
  std::string relationships;
};

const Corpus& corpus() {
  static const Corpus c = [] {
    synth::SynthConfig config;
    config.scale = 0.05;
    config.seed = 11;
    synth::InternetGenerator generator(config);
    Corpus built;
    built.dump_map = generator.irr_dumps();
    for (const auto& name : synth::irr_names()) {
      built.dumps.emplace_back(name, generator.irr_dumps().at(name));
    }
    built.relationships = generator.caida_serial1();
    return built;
  }();
  return c;
}

/// Probe caps sized for test runtime; equality over a capped probe set is
/// still equality over every surface class (queries, tries, reports).
EquivalenceOptions test_equiv_options() {
  EquivalenceOptions options;
  options.max_sets = 60;
  options.max_asns = 60;
  options.max_routes = 40;
  return options;
}

/// The oracle: the store's dump texts loaded and compiled from scratch by
/// the ordinary batch loader.
std::shared_ptr<const compile::CompiledPolicySnapshot> oracle(const DeltaPipeline& pipeline) {
  auto lyzer = std::make_shared<Rpslyzer>(
      Rpslyzer::from_texts(pipeline.store().source_texts(), corpus().relationships));
  auto snapshot = lyzer->snapshot();
  return {std::move(lyzer), snapshot.get()};
}

void expect_matches_oracle(const DeltaPipeline& pipeline, const std::string& context) {
  const EquivalenceResult eq =
      compare_snapshots(pipeline.current_snapshot(), oracle(pipeline), test_equiv_options());
  EXPECT_TRUE(eq.equal) << context << ": " << eq.mismatches << "/" << eq.probes
                        << " probes mismatched\n"
                        << eq.first_mismatch;
  EXPECT_EQ(eq.digest_left, eq.digest_right) << context;
}

JournalBatch single_op_batch(std::uint64_t serial, JournalOp::Kind kind,
                             std::string source, std::string paragraph) {
  JournalBatch batch;
  batch.first_serial = batch.last_serial = serial;
  batch.ops.push_back({kind, serial, std::move(source), std::move(paragraph)});
  return batch;
}

class DeltaTest : public ::testing::Test {
 protected:
  void SetUp() override { fp::clear_all(); }
  void TearDown() override { fp::clear_all(); }
};

// ---------------------------------------------------------------------------
// Journal format
// ---------------------------------------------------------------------------

TEST(JournalFormat, RenderParseRoundTrip) {
  JournalBatch batch;
  batch.first_serial = 7;
  batch.last_serial = 12;
  batch.ops.push_back({JournalOp::Kind::kAdd, 7, "RADB",
                       "aut-num: AS64500\nimport: from AS64501 accept ANY\n"});
  batch.ops.push_back(
      {JournalOp::Kind::kDel, 12, "RIPE", "route: 192.0.2.0/24\norigin: AS64500\n"});
  std::string error;
  const auto parsed = parse_journal(render_journal(batch), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(*parsed, batch);
}

TEST(JournalFormat, RefusalsAreAtomicWithReasons) {
  const std::string valid =
      "%START 3\n\nADD 3 RADB\n\naut-num: AS1\n\n%END 3\n";
  ASSERT_TRUE(parse_journal(valid).has_value());

  const std::pair<std::string, std::string> cases[] = {
      {"missing %START", "ADD 3 RADB\n\naut-num: AS1\n\n%END 3\n"},
      {"truncated (no %END)", "%START 3\n\nADD 3 RADB\n\naut-num: AS1\n"},
      {"CRLF endings", "%START 3\r\n\r\nADD 3 RADB\r\n\r\naut-num: AS1\r\n\r\n%END 3\r\n"},
      {"trailing content", valid + "leftover\n"},
      {"empty batch", "%START 3\n\n%END 3\n"},
      {"non-increasing serials",
       "%START 3\n\nADD 3 RADB\n\naut-num: AS1\n\nADD 3 RADB\n\naut-num: AS2\n\n%END 3\n"},
      {"%END serial mismatch", "%START 3\n\nADD 3 RADB\n\naut-num: AS1\n\n%END 9\n"},
      {"garbage paragraph", "%START 3\n\nADD 3 RADB\n\nnot an rpsl object\n\n%END 3\n"},
  };
  for (const auto& [label, text] : cases) {
    std::string error;
    EXPECT_FALSE(parse_journal(text, &error).has_value()) << label;
    EXPECT_FALSE(error.empty()) << label;
  }
}

TEST(JournalFormat, FileNamesSortInSerialOrder) {
  EXPECT_EQ(journal_file_name(42), "batch-000000042.nrtm");
  EXPECT_LT(journal_file_name(999), journal_file_name(1000));
}

// ---------------------------------------------------------------------------
// Differential equivalence under seeded churn
// ---------------------------------------------------------------------------

TEST_F(DeltaTest, ChurnBatchesStayByteIdenticalToFullCompile) {
  DeltaPipeline pipeline(corpus().dumps, corpus().relationships);

  synth::ChurnConfig churn_config;
  churn_config.seed = seed_from_env();
  churn_config.ops_per_batch = 12;
  synth::ChurnGenerator churn(corpus().dump_map, churn_config);

  for (int b = 0; b < 40; ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    const JournalBatch batch = churn.next_batch();
    const ApplyResult result = pipeline.apply(batch);
    ASSERT_FALSE(result.refused) << result.error;
    EXPECT_EQ(result.ops_applied + result.ops_skipped, batch.ops.size());
    expect_matches_oracle(pipeline, "batch " + std::to_string(b));
  }
  EXPECT_TRUE(pipeline.current()->stats.full_rebuild);
  EXPECT_EQ(pipeline.current()->stats.route_sets_reused, 0u);
  EXPECT_EQ(pipeline.current()->stats.regexes_reused, 0u);
}

TEST_F(DeltaTest, IncrementalMatchesLoaderFromScratchCompile) {
  // Several batches with no comparison in between: the store's canonical
  // texts must still round-trip to the same compiled artifact at the end.
  DeltaPipeline pipeline(corpus().dumps, corpus().relationships);
  synth::ChurnConfig churn_config;
  churn_config.seed = seed_from_env() ^ 0x5bd1e995u;
  churn_config.ops_per_batch = 10;
  synth::ChurnGenerator churn(corpus().dump_map, churn_config);
  for (int b = 0; b < 5; ++b) {
    const ApplyResult result = pipeline.apply(churn.next_batch());
    ASSERT_FALSE(result.refused) << result.error;
  }
  expect_matches_oracle(pipeline, "after 5 batches");
}

// ---------------------------------------------------------------------------
// Journal semantics: replay, gaps, nonexistent DELs
// ---------------------------------------------------------------------------

TEST_F(DeltaTest, DuplicateSerialsAreSkippedIdempotently) {
  DeltaPipeline pipeline(corpus().dumps, corpus().relationships);
  const auto batch = single_op_batch(5, JournalOp::Kind::kAdd, "RADB",
                                     "as-set: AS-DELTATEST\nmembers: AS64500\n");
  const ApplyResult first = pipeline.apply(batch);
  ASSERT_TRUE(first.applied);
  EXPECT_EQ(first.ops_applied, 1u);
  const std::uint64_t generation = pipeline.current()->number;

  // Same batch again: pure replay. Success, no new generation published.
  const ApplyResult again = pipeline.apply(batch);
  EXPECT_FALSE(again.applied);
  EXPECT_FALSE(again.refused);
  EXPECT_EQ(again.ops_skipped, 1u);
  EXPECT_EQ(pipeline.current()->number, generation);
  EXPECT_EQ(pipeline.applied_serial(), 5u);
}

TEST_F(DeltaTest, SerialGapsBetweenBatchesAreLegal) {
  DeltaPipeline pipeline(corpus().dumps, corpus().relationships);
  ASSERT_TRUE(pipeline
                  .apply(single_op_batch(10, JournalOp::Kind::kAdd, "RADB",
                                         "as-set: AS-GAP-A\nmembers: AS64500\n"))
                  .applied);
  // Serial jumps from 10 to 1000: NRTM serials are sparse in the wild.
  ASSERT_TRUE(pipeline
                  .apply(single_op_batch(1000, JournalOp::Kind::kAdd, "RADB",
                                         "as-set: AS-GAP-B\nmembers: AS-GAP-A\n"))
                  .applied);
  EXPECT_EQ(pipeline.applied_serial(), 1000u);
}

TEST_F(DeltaTest, DelOfNonexistentObjectIsANoOpNotARefusal) {
  DeltaPipeline pipeline(corpus().dumps, corpus().relationships);
  const std::uint64_t generation = pipeline.current()->number;
  const ApplyResult result = pipeline.apply(single_op_batch(
      3, JournalOp::Kind::kDel, "RADB", "as-set: AS-NEVER-EXISTED\n"));
  ASSERT_FALSE(result.refused) << result.error;
  EXPECT_TRUE(result.applied);
  // The object was absent before and after: no stored paragraph changed.
  EXPECT_EQ(result.dirty_objects, 0u);
  EXPECT_GT(pipeline.current()->number, generation);
}

TEST_F(DeltaTest, UnknownSourceRefusesAtomically) {
  DeltaPipeline pipeline(corpus().dumps, corpus().relationships);
  const auto before = pipeline.current();
  const ApplyResult result = pipeline.apply(single_op_batch(
      4, JournalOp::Kind::kAdd, "NO-SUCH-IRR", "as-set: AS-X\nmembers: AS1\n"));
  EXPECT_TRUE(result.refused);
  EXPECT_FALSE(result.error.empty());
  // Last-good generation still serving, store untouched, serial unchanged.
  EXPECT_EQ(pipeline.current().get(), before.get());
  EXPECT_EQ(pipeline.applied_serial(), 0u);

  // The pipeline is not poisoned: a valid batch still applies.
  EXPECT_TRUE(pipeline
                  .apply(single_op_batch(4, JournalOp::Kind::kAdd, "RADB",
                                         "as-set: AS-X\nmembers: AS64500\n"))
                  .applied);
}

// ---------------------------------------------------------------------------
// Failpoints: delta.apply refusal, compile.build rollback
// ---------------------------------------------------------------------------

TEST_F(DeltaTest, ApplyFailpointRefusesBeforeAnyMutation) {
  DeltaPipeline pipeline(corpus().dumps, corpus().relationships);
  const auto before = pipeline.current();
  ASSERT_TRUE(fp::set("delta.apply", "1*error(injected apply fault)"));
  const auto batch = single_op_batch(6, JournalOp::Kind::kAdd, "RADB",
                                     "as-set: AS-FAULTED\nmembers: AS64500\n");
  const ApplyResult faulted = pipeline.apply(batch);
  EXPECT_TRUE(faulted.refused);
  EXPECT_EQ(faulted.error, "injected apply fault");
  EXPECT_EQ(pipeline.current().get(), before.get());

  // The refusal is transient: the identical batch applies once the fault
  // clears (the 1* budget above is already spent).
  const ApplyResult retried = pipeline.apply(batch);
  EXPECT_TRUE(retried.applied) << retried.error;
  EXPECT_EQ(pipeline.applied_serial(), 6u);
}

TEST_F(DeltaTest, ChurnUnderIntermittentFaultsStaysEquivalent) {
  DeltaPipeline pipeline(corpus().dumps, corpus().relationships);

  synth::ChurnConfig churn_config;
  churn_config.seed = seed_from_env() ^ 0x165667b1u;
  churn_config.ops_per_batch = 10;
  synth::ChurnGenerator churn(corpus().dump_map, churn_config);

  for (int b = 0; b < 20; ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    const JournalBatch batch = churn.next_batch();
    if (b % 5 == 1) {
      // A one-shot apply fault: the batch refuses, then the retry applies.
      ASSERT_TRUE(fp::set("delta.apply", "1*error"));
      EXPECT_TRUE(pipeline.apply(batch).refused);
    }
    if (b % 7 == 3) {
      // A one-shot compile fault after the store mutated: the store rolls
      // back, the batch refuses, and the retry applies from the same state.
      const auto before = pipeline.current();
      ASSERT_TRUE(fp::set("compile.build", "1*error"));
      EXPECT_TRUE(pipeline.apply(batch).refused);
      EXPECT_EQ(pipeline.current().get(), before.get());
    }
    ASSERT_TRUE(pipeline.apply(batch).applied);
    expect_matches_oracle(pipeline, "batch " + std::to_string(b));
  }
}

// ---------------------------------------------------------------------------
// Store and stats surfaces
// ---------------------------------------------------------------------------

TEST_F(DeltaTest, StatsLineCarriesSerialAndDirtySize) {
  DeltaPipeline pipeline(corpus().dumps, corpus().relationships);
  EXPECT_NE(pipeline.stats_line().find("serial=0"), std::string::npos);
  ASSERT_TRUE(pipeline
                  .apply(single_op_batch(9, JournalOp::Kind::kAdd, "RADB",
                                         "as-set: AS-STATS\nmembers: AS64500\n"))
                  .applied);
  const std::string line = pipeline.stats_line();
  EXPECT_NE(line.find("serial=9"), std::string::npos) << line;
  EXPECT_NE(line.find("batches=1"), std::string::npos) << line;
  EXPECT_NE(line.find("dirty="), std::string::npos) << line;
}

TEST_F(DeltaTest, DirtyObjectsCountOnlyChangedParagraphs) {
  DeltaPipeline pipeline(corpus().dumps, corpus().relationships);
  const std::string text = "as-set: AS-RECOUNT\nmembers: AS64500\n";
  const ApplyResult added =
      pipeline.apply(single_op_batch(21, JournalOp::Kind::kAdd, "RADB", text));
  ASSERT_TRUE(added.applied) << added.error;
  EXPECT_EQ(added.dirty_objects, 1u);

  // Re-ADD of the identical paragraph: applied, but nothing changed.
  const ApplyResult same =
      pipeline.apply(single_op_batch(22, JournalOp::Kind::kAdd, "RADB", text));
  ASSERT_TRUE(same.applied) << same.error;
  EXPECT_EQ(same.dirty_objects, 0u);

  // An ADD that modifies the stored paragraph counts once.
  const ApplyResult modified = pipeline.apply(single_op_batch(
      23, JournalOp::Kind::kAdd, "RADB", "as-set: AS-RECOUNT\nmembers: AS64501\n"));
  ASSERT_TRUE(modified.applied) << modified.error;
  EXPECT_EQ(modified.dirty_objects, 1u);
  EXPECT_EQ(pipeline.current()->dirty_objects, 1u);
}

TEST_F(DeltaTest, StoreRoundTripsModifyAndDelete) {
  CorpusStore store;
  store.init({{"RADB", "as-set: AS-ONE\nmembers: AS1\n\naut-num: AS1\n"},
              {"RIPE", "as-set: AS-ONE\nmembers: AS2\n"}});
  const auto first_member = [&store] {
    const ir::Ir ir = store.materialize();
    const auto it = ir.as_sets.find("AS-ONE");
    return it == ir.as_sets.end() || it->second.members.size() != 1
               ? ir::Asn{0}
               : it->second.members[0].asn;
  };
  // Priority: RADB's definition shadows RIPE's.
  EXPECT_EQ(first_member(), 1u);

  // DEL the RADB copy: the RIPE definition becomes the merged view.
  JournalBatch del = single_op_batch(1, JournalOp::Kind::kDel, "RADB",
                                     "as-set: AS-ONE\n");
  std::size_t skipped = 0;
  std::string error;
  auto prepared = store.prepare(del, 0, &skipped, &error);
  ASSERT_TRUE(prepared.has_value()) << error;
  auto undo = store.apply(*prepared);
  EXPECT_EQ(store.changed_identities(undo), 1u);
  EXPECT_EQ(first_member(), 2u);

  // revert() restores the pre-batch world exactly.
  store.revert(std::move(undo));
  EXPECT_EQ(first_member(), 1u);
}

}  // namespace
}  // namespace rpslyzer::delta
