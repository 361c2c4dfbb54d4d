// Differential proof for the ingestion pipeline: at any thread count the
// loader's merged Ir, per-source outcomes/counts, diagnostics, and
// serialized index must be byte-identical to the one-thread run on the
// synthetic 13-IRR corpus, with and without failpoint injection (counted
// budgets included); and a sharded parse_dump, down to one object per
// shard, must equal the single-shard parse. Runs under TSan via
// scripts/sanitize_check.sh to catch shard-merge races.

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "rpslyzer/ir/json_io.hpp"
#include "rpslyzer/irr/index.hpp"
#include "rpslyzer/irr/loader.hpp"
#include "rpslyzer/json/json.hpp"
#include "rpslyzer/synth/generator.hpp"
#include "rpslyzer/util/failpoint.hpp"
#include "rpslyzer/util/strings.hpp"

namespace rpslyzer::irr {
namespace {

namespace fp = util::failpoint;

class ParallelLoader : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("rpslyzer-parallel-" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    synth::SynthConfig config;
    config.scale = 0.05;
    config.seed = 11;
    synth::InternetGenerator generator(config);
    for (const auto& [name, text] : generator.irr_dumps()) {
      std::ofstream out(dir_ / (util::lower(name) + ".db"), std::ios::binary);
      out << text;
    }
  }
  void TearDown() override {
    fp::clear_all();
    std::filesystem::remove_all(dir_);
  }

  LoadResult load_with(unsigned threads) {
    LoadOptions options;
    options.threads = threads;
    return load_irrs(table1_sources(dir_), options);
  }

  static std::string slurp(const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return std::move(buffer).str();
  }

  static void expect_same_counts(const IrrCounts& a, const IrrCounts& b) {
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.bytes, b.bytes);
    EXPECT_EQ(a.objects, b.objects);
    EXPECT_EQ(a.aut_nums, b.aut_nums);
    EXPECT_EQ(a.routes, b.routes);
    EXPECT_EQ(a.imports, b.imports);
    EXPECT_EQ(a.exports, b.exports);
    EXPECT_EQ(a.as_sets, b.as_sets);
    EXPECT_EQ(a.route_sets, b.route_sets);
    EXPECT_EQ(a.peering_sets, b.peering_sets);
    EXPECT_EQ(a.filter_sets, b.filter_sets);
  }

  // Diagnostics must agree entry for entry, including line numbers (the
  // shard lexer offsets them) and ordering (the merge is deterministic).
  static void expect_same_diagnostics(const util::Diagnostics& a,
                                      const util::Diagnostics& b) {
    ASSERT_EQ(a.all().size(), b.all().size());
    for (std::size_t i = 0; i < a.all().size(); ++i) {
      const util::Diagnostic& x = a.all()[i];
      const util::Diagnostic& y = b.all()[i];
      EXPECT_EQ(x.severity, y.severity) << "diagnostic " << i;
      EXPECT_EQ(x.kind, y.kind) << "diagnostic " << i;
      EXPECT_EQ(x.message, y.message) << "diagnostic " << i;
      EXPECT_EQ(x.object_key, y.object_key) << "diagnostic " << i;
      EXPECT_EQ(x.location, y.location) << "diagnostic " << i;
    }
  }

  static void expect_identical(const LoadResult& reference, const LoadResult& other,
                               const std::string& label) {
    SCOPED_TRACE(label);
    EXPECT_TRUE(reference.ir == other.ir);
    EXPECT_EQ(reference.raw_route_objects, other.raw_route_objects);

    ASSERT_EQ(reference.outcomes.size(), other.outcomes.size());
    for (std::size_t i = 0; i < reference.outcomes.size(); ++i) {
      EXPECT_EQ(reference.outcomes[i].name, other.outcomes[i].name);
      EXPECT_EQ(reference.outcomes[i].status, other.outcomes[i].status);
      EXPECT_EQ(reference.outcomes[i].detail, other.outcomes[i].detail);
    }

    ASSERT_EQ(reference.counts.size(), other.counts.size());
    for (std::size_t i = 0; i < reference.counts.size(); ++i) {
      expect_same_counts(reference.counts[i], other.counts[i]);
    }
    expect_same_diagnostics(reference.diagnostics, other.diagnostics);

    // The exported (serialized) index: byte-identical JSON.
    EXPECT_EQ(json::dump(ir::to_json(reference.ir)), json::dump(ir::to_json(other.ir)));
  }

  std::filesystem::path dir_;
};

TEST_F(ParallelLoader, ThreadCountsAreByteIdentical) {
  const LoadResult reference = load_with(1);
  ASSERT_GT(reference.ir.object_count(), 0u);
  for (unsigned threads : {2u, 8u}) {
    expect_identical(reference, load_with(threads), "threads=" + std::to_string(threads));
  }
}

TEST_F(ParallelLoader, IndexQueriesAgree) {
  const LoadResult reference = load_with(1);
  const LoadResult parallel = load_with(8);
  Index reference_index(reference.ir);
  Index parallel_index(parallel.ir);
  for (const auto& [asn, an] : reference.ir.aut_nums) {
    const auto a = reference_index.origins_of(asn);
    const auto b = parallel_index.origins_of(asn);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << asn;
  }
}

TEST_F(ParallelLoader, MissingAndExtraDumpsMatchSerial) {
  // Knock out two dumps (degraded) and corrupt one into a pathological
  // object (quarantined): every thread count must report the exact same
  // per-source outcomes and corpus.
  std::filesystem::remove(dir_ / "ripe.db");
  std::filesystem::remove(dir_ / "altdb.db");
  {
    std::ofstream out(dir_ / "radb.db", std::ios::binary);  // overwrite
    out << std::string(1u << 20, 'x') << ":\n";             // one endless pseudo-object
  }
  LoadOptions small_guard;
  small_guard.max_object_bytes = 256u << 10;  // far above any legit object
  small_guard.threads = 1;
  const LoadResult reference = load_irrs(table1_sources(dir_), small_guard);
  small_guard.threads = 4;
  const LoadResult parallel = load_irrs(table1_sources(dir_), small_guard);
  EXPECT_EQ(reference.count_with(SourceStatus::kDegraded), 2u);
  EXPECT_EQ(reference.count_with(SourceStatus::kQuarantined), 1u);
  expect_identical(reference, parallel, "degraded+quarantined corpus");
}

// Failpoint injection at every thread count. All failpoints are evaluated
// on the coordinating thread in priority order, so a counted budget
// ("1*error") lands on the highest-priority sources no matter which reader
// finishes first: exactly the first `faulted` sources carry the fault.
// APNIC is padded with 4 MiB of blank lines so that it is the slowest read
// (a budget spent by whichever reader finishes first would then miss it),
// and the counted cases repeat because a misplaced budget shows up only
// under some schedules.
TEST_F(ParallelLoader, FailpointInjectionMatchesSerial) {
  {
    std::ofstream out(dir_ / "apnic.db", std::ios::binary | std::ios::app);
    out << std::string(4u << 20, '\n');
  }
  const struct {
    const char* spec;
    std::size_t faulted;  // leading sources in priority order
    SourceStatus status;
    int rounds;
  } cases[] = {
      {"irr.read=error", 13u, SourceStatus::kQuarantined, 1},
      {"irr.read=truncate(1000)", 13u, SourceStatus::kQuarantined, 1},
      {"irr.parse=error", 13u, SourceStatus::kQuarantined, 1},
      {"irr.parse=truncate(4096)", 0u, SourceStatus::kOk, 1},
      {"irr.read=1*error(x)", 1u, SourceStatus::kQuarantined, 4},
      {"irr.read=1*truncate(10)", 1u, SourceStatus::kQuarantined, 4},
      {"irr.open=2*error(x)", 2u, SourceStatus::kDegraded, 4},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.spec);
    const auto load_armed = [&](unsigned threads) {
      std::string error;
      EXPECT_TRUE(fp::configure(c.spec, &error)) << error;
      LoadResult result = load_with(threads);
      fp::clear_all();
      return result;
    };
    const LoadResult reference = load_armed(1);
    for (int round = 0; round < c.rounds; ++round) {
      for (unsigned threads : {1u, 2u, 8u}) {
        const std::string label =
            "threads=" + std::to_string(threads) + " round=" + std::to_string(round);
        const LoadResult result = load_armed(threads);
        expect_identical(reference, result, label);
        ASSERT_EQ(result.outcomes.size(), 13u);
        for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
          ASSERT_EQ(result.outcomes[i].status,
                    i < c.faulted ? c.status : SourceStatus::kOk)
              << label << " source " << result.outcomes[i].name;
        }
      }
    }
  }
}

// A fault inside a shard worker must quarantine only that source, with its
// census zeroed: the blast radius of a shard exception is the source,
// never the load. The counted budget lands on APNIC, the first source
// parsed.
TEST_F(ParallelLoader, ShardFaultQuarantinesOnlyItsSource) {
  ASSERT_TRUE(fp::set("irr.shard", "1*error(shard blew up)"));
  const LoadResult result = load_with(4);
  EXPECT_EQ(fp::hit_count("irr.shard"), 1u);
  EXPECT_EQ(result.count_with(SourceStatus::kQuarantined), 1u);
  EXPECT_EQ(result.count_with(SourceStatus::kOk), 12u);
  const SourceOutcome* apnic = result.outcome("APNIC");
  ASSERT_NE(apnic, nullptr);
  EXPECT_EQ(apnic->status, SourceStatus::kQuarantined);
  EXPECT_EQ(apnic->detail, "exception mid-load: irr.shard: shard blew up");
  IrrCounts zeroed;
  zeroed.name = "APNIC";
  expect_same_counts(result.counts.front(), zeroed);
  EXPECT_GT(result.ir.object_count(), 0u);
}

TEST_F(ParallelLoader, ShardedParseDumpMatchesSingleShard) {
  // Every dump, shard targets from one object per shard (1 cuts at every
  // blank-line boundary) up to the loader's kShardBytes, against the
  // single-shard reference: same Ir, census, and diagnostics.
  for (const IrrSource& source : table1_sources(dir_)) {
    const std::string text = slurp(source.path);
    util::Diagnostics reference_diag;
    IrrCounts reference_counts;
    const ir::Ir reference = parse_dump(text, source.name, reference_diag, &reference_counts);
    for (unsigned threads : {2u, 8u}) {
      for (std::size_t shard_bytes : {std::size_t{1}, std::size_t{64}, std::size_t{777},
                                      std::size_t{4096}, kShardBytes}) {
        SCOPED_TRACE(source.name + " threads=" + std::to_string(threads) +
                     " shard_bytes=" + std::to_string(shard_bytes));
        util::Diagnostics diag;
        IrrCounts counts;
        const ir::Ir sharded =
            parse_dump(text, source.name, diag, &counts, threads, shard_bytes);
        EXPECT_TRUE(reference == sharded);
        expect_same_counts(reference_counts, counts);
        expect_same_diagnostics(reference_diag, diag);
      }
    }
  }
}

}  // namespace
}  // namespace rpslyzer::irr
