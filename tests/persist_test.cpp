// Snapshot persistence must be invisible to correctness: an mmap-loaded
// snapshot has to produce the exact HopCheck sequences and query bytes of
// the in-memory snapshot it was serialized from, over the full synthetic
// corpus. The rest of the suite drives the failure half of the contract:
// corrupted, truncated, and version-mismatched files are refused with
// SnapshotError (never UB, never a partial load), write-side faults leave
// no file behind, a daemon reloading a bad snapshot quarantines itself on
// the last good generation, and the on-disk generation cache treats every
// defect as a miss.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <unistd.h>

#include "rpslyzer/compile/snapshot.hpp"
#include "rpslyzer/irr/loader.hpp"
#include "rpslyzer/obs/metrics.hpp"
#include "rpslyzer/persist/arena.hpp"
#include "rpslyzer/persist/cache.hpp"
#include "rpslyzer/persist/snapshot_io.hpp"
#include "rpslyzer/query/query.hpp"
#include "rpslyzer/rpslyzer.hpp"
#include "rpslyzer/server/client.hpp"
#include "rpslyzer/server/server.hpp"
#include "rpslyzer/synth/generator.hpp"
#include "rpslyzer/util/failpoint.hpp"
#include "rpslyzer/verify/verifier.hpp"

namespace rpslyzer {
namespace {

namespace fp = util::failpoint;

// ---------------------------------------------------------------------------
// Round-trip differential over the synthesized corpus
// ---------------------------------------------------------------------------

struct Pipeline {
  synth::InternetGenerator generator;
  Rpslyzer lyzer;
  std::vector<bgp::Route> routes;
  std::filesystem::path snap_path;

  Pipeline()
      : generator([] {
          synth::SynthConfig config;
          config.seed = 33;
          config.tier1_count = 4;
          config.tier2_count = 10;
          config.tier3_count = 30;
          config.stub_count = 150;
          config.collectors = 6;
          return config;
        }()),
        lyzer([&] {
          std::vector<std::pair<std::string, std::string>> ordered;
          for (const auto& name : synth::irr_names()) {
            ordered.emplace_back(name, generator.irr_dumps().at(name));
          }
          return Rpslyzer::from_texts(ordered, generator.caida_serial1());
        }()) {
    for (const auto& dump : generator.bgp_dumps()) {
      for (auto& route : bgp::parse_table_dump(dump)) routes.push_back(std::move(route));
    }
    snap_path = std::filesystem::temp_directory_path() /
                ("rpslyzer-persist-" + std::to_string(::getpid()) + ".rps");
    persist::write_snapshot(*lyzer.snapshot(), snap_path);
  }
  ~Pipeline() { std::filesystem::remove(snap_path); }
};

Pipeline& pipeline() {
  static Pipeline p;
  return p;
}

void expect_same_hops(const std::vector<verify::HopCheck>& got,
                      const std::vector<verify::HopCheck>& want, std::size_t route) {
  ASSERT_EQ(got.size(), want.size()) << "route " << route;
  for (std::size_t h = 0; h < want.size(); ++h) {
    EXPECT_EQ(got[h].from, want[h].from) << "route " << route << " hop " << h;
    EXPECT_EQ(got[h].to, want[h].to) << "route " << route << " hop " << h;
    EXPECT_EQ(got[h].export_result.status, want[h].export_result.status)
        << "route " << route << " hop " << h;
    EXPECT_EQ(got[h].export_result.items, want[h].export_result.items)
        << "route " << route << " hop " << h;
    EXPECT_EQ(got[h].import_result.status, want[h].import_result.status)
        << "route " << route << " hop " << h;
    EXPECT_EQ(got[h].import_result.items, want[h].import_result.items)
        << "route " << route << " hop " << h;
  }
}

TEST(PersistRoundTrip, LoadedSnapshotReportsSourceAndMetadata) {
  auto& p = pipeline();
  auto loaded = persist::open_snapshot(p.snap_path);
  ASSERT_NE(loaded, nullptr);
  auto memory = p.lyzer.snapshot();
  EXPECT_EQ(loaded->build_id(), memory->build_id());
  EXPECT_EQ(loaded->interned_symbols(), memory->interned_symbols());
  EXPECT_EQ(loaded->trie_nodes(), memory->trie_nodes());
  EXPECT_EQ(memory->source(), "memory");
  EXPECT_EQ(loaded->source(), "file:" + p.snap_path.string());
  EXPECT_EQ(persist::verify_snapshot(p.snap_path), memory->build_id());
}

TEST(PersistRoundTrip, VerifierMatchesInMemorySnapshotForEveryRoute) {
  auto& p = pipeline();
  ASSERT_GT(p.routes.size(), 1000u);
  auto loaded = persist::open_snapshot(p.snap_path);
  verify::Verifier memory(p.lyzer.snapshot());
  verify::Verifier mapped(loaded);
  for (std::size_t i = 0; i < p.routes.size(); ++i) {
    expect_same_hops(mapped.verify_route(p.routes[i]), memory.verify_route(p.routes[i]),
                     i);
    if (::testing::Test::HasFailure()) break;  // one detailed mismatch is enough
  }
}

TEST(PersistRoundTrip, VerifierReportsAreByteIdentical) {
  auto& p = pipeline();
  auto loaded = persist::open_snapshot(p.snap_path);
  verify::Verifier memory(p.lyzer.snapshot());
  verify::Verifier mapped(loaded);
  const std::size_t step = std::max<std::size_t>(1, p.routes.size() / 200);
  for (std::size_t i = 0; i < p.routes.size(); i += step) {
    EXPECT_EQ(mapped.report(p.routes[i]), memory.report(p.routes[i])) << "route " << i;
    if (::testing::Test::HasFailure()) break;
  }
}

TEST(PersistRoundTrip, QueryResponsesAreByteIdentical) {
  auto& p = pipeline();
  auto loaded = persist::open_snapshot(p.snap_path);
  query::QueryEngine memory(*p.lyzer.snapshot());
  query::QueryEngine mapped(*loaded);
  std::size_t compared = 0;
  for (const auto& [name, set] : p.lyzer.ir().as_sets) {
    for (const std::string& q : {"!i" + name + ",1", "!a" + name, "!a4" + name,
                                 "!a6" + name}) {
      EXPECT_EQ(mapped.evaluate(q), memory.evaluate(q)) << q;
    }
    if (++compared >= 64) break;
  }
  for (const auto& [name, set] : p.lyzer.ir().route_sets) {
    const std::string q = "!i" + name + ",1";
    EXPECT_EQ(mapped.evaluate(q), memory.evaluate(q)) << q;
    if (++compared >= 96) break;
  }
  for (const auto& [asn, an] : p.lyzer.ir().aut_nums) {
    const std::string q = "!gAS" + std::to_string(asn);
    EXPECT_EQ(mapped.evaluate(q), memory.evaluate(q)) << q;
    if (++compared >= 160) break;
  }
  EXPECT_GT(compared, 96u);
}

// ---------------------------------------------------------------------------
// Re-derived AS-path regexes over a hand-written multi-IRR corpus
// ---------------------------------------------------------------------------
// The file stores no rule tables and no NFAs: open re-derives both from the
// decoded IR. This corpus puts AS-path filters everywhere a rule can hold
// one — import, export and mp-import; inside AND/OR/NOT; on both sides of
// EXCEPT and REFINE; in a filter-set's filter and mp-filter — plus a `~+`
// regex (no NFA: backtracking fallback) and an ASN-range class (Skipped
// when paper-faithful).

constexpr const char* kRipeDump =
    "aut-num: AS64500\n"
    "import: from AS64501 accept <^AS64501+$>\n"
    "import: from AS64502 accept <^AS64502 AS64503*$> AND NOT <AS64666>\n"
    "import: from AS64503 accept <^AS64503$> OR AS-CUST\n"
    "import: from AS64504 accept <^AS64504+$>; EXCEPT from AS64504 accept <^AS64504 AS64666$>\n"
    "import: from AS64505 accept FLTR-PATHS\n"
    "export: to AS64501 announce <^AS64500 [AS64512-AS65535]*$>\n"
    "export: to AS64502 announce AS64500 OR <^AS64500 AS-CUST~+$>\n"
    "mp-import: afi ipv6.unicast from AS64501 accept <^AS64501 .*$>\n"
    "mp-import: afi any.unicast from AS64503 accept NOT <AS64666>; "
    "REFINE afi any.unicast from AS64503 accept <^AS64503 [AS64512-AS65535]*$>\n\n"
    "as-set: AS-CUST\nmembers: AS64510, AS64511\n\n"
    "route-set: RS-CUST\nmembers: 192.0.2.0/24^+\n\n"
    "filter-set: FLTR-PATHS\n"
    "filter: <^AS64505 AS-CUST*$>\n"
    "mp-filter: <^AS64505 AS-CUST~+$>\n\n"
    "route: 192.0.2.0/24\norigin: AS64510\n";

constexpr const char* kRadbDump =
    "aut-num: AS64501\n"
    "import: from AS64500 accept NOT <AS64666>\n"
    "export: to AS64500 announce <^AS64501+ AS-CUST$>\n\n"
    "route: 198.51.100.0/24\norigin: AS64511\n\n"
    "route6: 2001:db8::/32\norigin: AS64510\n";

// AS-path filters in the two dumps above (13 in AS64500's rules and the
// filter-set, 2 in AS64501's).
constexpr std::size_t kRegexFilters = 15;

struct RegexCorpus {
  Rpslyzer lyzer;
  std::vector<bgp::Route> routes;
  std::filesystem::path snap_path;

  RegexCorpus()
      : lyzer(Rpslyzer::from_texts({{"RIPE", kRipeDump}, {"RADB", kRadbDump}},
                                   "64501|64500|-1\n64500|64502|-1\n64500|64503|0\n"
                                   "64501|64510|-1\n64503|64511|-1\n")) {
    // Every path of 2-4 hops without repeats over the ASes the rules name.
    const std::vector<ir::Asn> ases = {64500, 64501, 64502, 64503, 64504,
                                       64505, 64510, 64511, 64666, 65000};
    std::vector<std::vector<ir::Asn>> paths;
    for (ir::Asn a : ases) paths.push_back({a});
    for (std::size_t start = 0, len = 1; len < 4; ++len) {
      const std::size_t end = paths.size();
      for (std::size_t i = start; i < end; ++i) {
        for (ir::Asn next : ases) {
          if (next == paths[i].back()) continue;
          std::vector<ir::Asn> path = paths[i];
          path.push_back(next);
          paths.push_back(std::move(path));
        }
      }
      start = end;
    }
    for (const char* prefix : {"192.0.2.0/24", "198.51.100.0/24", "2001:db8::/32"}) {
      for (const auto& path : paths) {
        if (path.size() > 1) routes.push_back({*net::Prefix::parse(prefix), path});
      }
    }
    snap_path = std::filesystem::temp_directory_path() /
                ("rpslyzer-persist-regex-" + std::to_string(::getpid()) + ".rps");
    persist::write_snapshot(*lyzer.snapshot(), snap_path);
  }
  ~RegexCorpus() { std::filesystem::remove(snap_path); }
};

RegexCorpus& regex_corpus() {
  static RegexCorpus c;
  return c;
}

TEST(PersistRegexRoundTrip, EveryRegexIsRederivedOnOpen) {
  auto& c = regex_corpus();
  auto loaded = persist::open_snapshot(c.snap_path);
  EXPECT_EQ(c.lyzer.snapshot()->compiled_regexes(), kRegexFilters);
  EXPECT_EQ(loaded->compiled_regexes(), kRegexFilters);
  EXPECT_EQ(loaded->interned_symbols(), c.lyzer.snapshot()->interned_symbols());
}

TEST(PersistRegexRoundTrip, HopChecksMatchInMemoryInBothSkipModes) {
  auto& c = regex_corpus();
  auto loaded = persist::open_snapshot(c.snap_path);
  for (const bool faithful : {true, false}) {
    SCOPED_TRACE(faithful ? "paper_faithful_skips" : "engines evaluate everything");
    verify::VerifyOptions options;
    options.paper_faithful_skips = faithful;
    verify::Verifier memory(c.lyzer.snapshot(), options);
    verify::Verifier mapped(loaded, options);
    std::set<verify::Status> seen;
    for (std::size_t i = 0; i < c.routes.size(); ++i) {
      const std::vector<verify::HopCheck> want = memory.verify_route(c.routes[i]);
      expect_same_hops(mapped.verify_route(c.routes[i]), want, i);
      if (::testing::Test::HasFailure()) return;
      for (const auto& hop : want) {
        seen.insert(hop.export_result.status);
        seen.insert(hop.import_result.status);
      }
    }
    // The corpus reaches more than one verdict class, or the comparison
    // above would prove nothing about the regexes.
    EXPECT_GE(seen.size(), 3u);
    if (faithful) EXPECT_TRUE(seen.contains(verify::Status::kSkip));
  }
}

// ---------------------------------------------------------------------------
// Closure tables must agree with the decoded IR
// ---------------------------------------------------------------------------
// Files re-published through ArenaWriter keep a valid checksum, so only the
// restore-side cross-check against the IR can refuse them.

class PersistClosureMismatch : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("rpslyzer-persist-mismatch-" + std::to_string(::getpid()) + ".rps");
  }
  void TearDown() override { std::filesystem::remove(path_); }

  /// Copy the regex corpus's snapshot with `id`'s payload passed through
  /// `edit`, then return open_snapshot's error (empty when it opened).
  template <typename Edit>
  std::string open_with_edited(persist::SectionId id, Edit edit) {
    const persist::ArenaView view = persist::ArenaView::open(regex_corpus().snap_path);
    persist::ArenaWriter writer;
    for (std::uint32_t raw = 0; raw < 64; ++raw) {
      const auto section = static_cast<persist::SectionId>(raw);
      if (!view.has_section(section)) continue;
      const std::span<const std::byte> bytes = view.section(section);
      std::vector<std::byte> payload(bytes.begin(), bytes.end());
      if (section == id) edit(payload);
      writer.add_section(section, std::move(payload));
    }
    writer.write(path_, view.build_id());
    try {
      persist::open_snapshot(path_);
    } catch (const persist::SnapshotError& e) {
      return e.what();
    }
    return {};
  }

  static void put_u32(std::vector<std::byte>& bytes, std::size_t offset, std::uint32_t v) {
    ASSERT_LE(offset + 4, bytes.size());
    std::memcpy(bytes.data() + offset, &v, 4);
  }

  std::filesystem::path path_;
};

TEST_F(PersistClosureMismatch, UneditedCopyOpens) {
  EXPECT_EQ(open_with_edited(persist::SectionId::kAutNums, [](auto&) {}), "");
}

TEST_F(PersistClosureMismatch, ConeEntryNamingAnAsOutsideTheIrIsRefused) {
  // aut-nums layout: u32 count, then {u32 asn, u64 offset, u64 length}.
  const std::string error =
      open_with_edited(persist::SectionId::kAutNums,
                       [](std::vector<std::byte>& b) { put_u32(b, 4, 4200000000u); });
  EXPECT_NE(error.find("section aut-nums"), std::string::npos) << error;
  EXPECT_NE(error.find("absent from its IR"), std::string::npos) << error;
}

TEST_F(PersistClosureMismatch, ConeTableOmittingAnAutNumIsRefused) {
  const std::string error = open_with_edited(
      persist::SectionId::kAutNums, [](std::vector<std::byte>& b) {
        put_u32(b, 0, 1);  // keep only the first entry
        b.resize(4 + 20);
      });
  EXPECT_NE(error.find("section aut-nums"), std::string::npos) << error;
  EXPECT_NE(error.find("1 entries for 2 aut-nums"), std::string::npos) << error;
}

TEST_F(PersistClosureMismatch, AsSetEntryNamingARouteSetIsRefused) {
  // Symbol ids are dense in intern order, as-sets first: the first id past
  // the as-sets is the first route-set. as-sets layout: u32 count, then
  // {u32 symbol id, u32 flags, u64 offset, u64 length}.
  const ir::Ir& ir = regex_corpus().lyzer.ir();
  ASSERT_FALSE(ir.route_sets.empty());
  const auto route_set_id = static_cast<std::uint32_t>(ir.as_sets.size());
  const std::string error =
      open_with_edited(persist::SectionId::kAsSets,
                       [&](std::vector<std::byte>& b) { put_u32(b, 4, route_set_id); });
  EXPECT_NE(error.find("section as-sets"), std::string::npos) << error;
  EXPECT_NE(error.find("names no as-set"), std::string::npos) << error;
}

// ---------------------------------------------------------------------------
// The checksum/cache-key digest must see every byte
// ---------------------------------------------------------------------------

TEST(Digest64, AnySingleByteFlipAtAnyPositionChangesTheDigest) {
  // Regression: the first word-wise FNV variant only diffused upward, so a
  // flip in the high bytes of a word near the end of the buffer could be
  // multiplied past bit 63 and erased. Exercise every byte position across
  // lane, word-tail, and byte-tail regions.
  std::string base(157, '\0');
  for (std::size_t i = 0; i < base.size(); ++i) base[i] = static_cast<char>('a' + i % 26);
  const std::uint64_t want = persist::digest64(base);
  for (std::size_t i = 0; i < base.size(); ++i) {
    for (const char flip : {char(0x01), char(0x80)}) {
      std::string mutated = base;
      mutated[i] = static_cast<char>(mutated[i] ^ flip);
      EXPECT_NE(persist::digest64(mutated), want)
          << "byte " << i << " flip 0x" << std::hex << int(flip);
    }
  }
}

TEST(Digest64, LengthAndSeedAreSignificant) {
  EXPECT_NE(persist::digest64(std::string_view("abc")),
            persist::digest64(std::string_view("abc\0", 4)));
  EXPECT_NE(persist::digest64(std::string_view("abc"), 1),
            persist::digest64(std::string_view("abc"), 2));
  EXPECT_EQ(persist::digest64(std::string_view("abc")),
            persist::digest64(std::string_view("abc")));
}

// ---------------------------------------------------------------------------
// Corrupted, truncated, and mismatched files are refused
// ---------------------------------------------------------------------------

class PersistCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    fp::clear_all();
    path_ = std::filesystem::temp_directory_path() /
            ("rpslyzer-persist-corrupt-" + std::to_string(::getpid()) + ".rps");
    std::filesystem::copy_file(pipeline().snap_path, path_,
                               std::filesystem::copy_options::overwrite_existing);
  }
  void TearDown() override {
    fp::clear_all();
    std::filesystem::remove(path_);
  }

  void flip_byte(std::size_t offset) {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(static_cast<std::streamoff>(offset));
    char b = 0;
    f.read(&b, 1);
    b ^= 0x5a;
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&b, 1);
  }

  std::string open_error() {
    try {
      persist::open_snapshot(path_);
    } catch (const persist::SnapshotError& e) {
      return e.what();
    }
    return {};
  }

  std::filesystem::path path_;
};

TEST_F(PersistCorruption, ChecksumRegionByteFlipIsRejected) {
  // Anywhere past the fixed header is checksummed — section table included.
  const std::uint64_t size = std::filesystem::file_size(path_);
  for (const std::size_t offset :
       {persist::kFixedHeaderSize, static_cast<std::size_t>(size / 2),
        static_cast<std::size_t>(size - 1)}) {
    SetUp();  // fresh copy per flip
    flip_byte(offset);
    EXPECT_NE(open_error().find("checksum mismatch"), std::string::npos)
        << "offset " << offset;
  }
}

TEST_F(PersistCorruption, TruncationMidSectionIsRejected) {
  const std::uint64_t size = std::filesystem::file_size(path_);
  for (const std::uint64_t keep : {size - 1, size * 2 / 3, size / 5}) {
    SetUp();
    std::filesystem::resize_file(path_, keep);
    EXPECT_FALSE(open_error().empty()) << "kept " << keep << " of " << size;
  }
  // Even a header-only stub must be refused.
  SetUp();
  std::filesystem::resize_file(path_, 16);
  EXPECT_FALSE(open_error().empty());
}

TEST_F(PersistCorruption, FormatVersionBumpIsRejected) {
  flip_byte(8);  // format_version lives right after the u64 magic
  EXPECT_NE(open_error().find("format version mismatch"), std::string::npos);
}

TEST_F(PersistCorruption, BadMagicIsRejected) {
  flip_byte(0);
  EXPECT_NE(open_error().find("not a snapshot file"), std::string::npos);
}

TEST_F(PersistCorruption, MissingFileIsRejected) {
  std::filesystem::remove(path_);
  EXPECT_FALSE(open_error().empty());
}

// ---------------------------------------------------------------------------
// Section context in decode errors
// ---------------------------------------------------------------------------
// Whole-file corruption is caught by the checksum; these files are
// checksum-VALID but semantically broken, so the failure surfaces during
// section decode — and must name the section and its byte offset, not just
// say "corrupt snapshot".

TEST(PersistSectionContext, TruncatedPayloadNamesSectionAndOffset) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("rpslyzer-persist-section-" + std::to_string(::getpid()) + ".rps");
  persist::ArenaWriter writer;
  persist::ByteWriter ir;
  ir.u16(0xbeef);  // far too short for the IR codec's first count
  writer.add_section(persist::SectionId::kIr, std::move(ir));
  writer.write(path, 1);
  try {
    persist::open_snapshot(path);
    FAIL() << "expected SnapshotError";
  } catch (const persist::SnapshotError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("section ir"), std::string::npos) << what;
    EXPECT_NE(what.find("offset"), std::string::npos) << what;
  }
  std::filesystem::remove(path);
}

TEST(PersistSectionContext, MissingSectionIsNamed) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("rpslyzer-persist-nosection-" + std::to_string(::getpid()) + ".rps");
  persist::ArenaWriter writer;  // no sections at all
  writer.write(path, 1);
  try {
    persist::open_snapshot(path);
    FAIL() << "expected SnapshotError";
  } catch (const persist::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("missing required section ir"), std::string::npos)
        << e.what();
  }
  std::filesystem::remove(path);
}

TEST(PersistSectionContext, SectionNamesCoverEveryId) {
  for (std::uint32_t id = 2; id <= 11; ++id) {
    EXPECT_STRNE(persist::section_name(static_cast<persist::SectionId>(id)), "unknown");
  }
  // Format 1's symbols (1) and NFA (12) sections are retired.
  for (const std::uint32_t id : {1u, 12u, 99u}) {
    EXPECT_STREQ(persist::section_name(static_cast<persist::SectionId>(id)), "unknown");
  }
}

// ---------------------------------------------------------------------------
// Write-side and open-side failpoints
// ---------------------------------------------------------------------------

class PersistFault : public ::testing::Test {
 protected:
  void SetUp() override {
    fp::clear_all();
    path_ = std::filesystem::temp_directory_path() /
            ("rpslyzer-persist-fault-" + std::to_string(::getpid()) + ".rps");
    std::filesystem::remove(path_);
  }
  void TearDown() override {
    fp::clear_all();
    std::filesystem::remove(path_);
  }

  std::filesystem::path path_;
};

TEST_F(PersistFault, WriteErrorLeavesNoFileBehind) {
  ASSERT_TRUE(fp::set("persist.write", "error"));
  EXPECT_THROW(persist::write_snapshot(*pipeline().lyzer.snapshot(), path_),
               persist::SnapshotError);
  EXPECT_FALSE(std::filesystem::exists(path_));
  // Disarmed, the same write succeeds.
  fp::clear_all();
  EXPECT_GT(persist::write_snapshot(*pipeline().lyzer.snapshot(), path_), 0u);
  EXPECT_TRUE(std::filesystem::exists(path_));
}

TEST_F(PersistFault, WriteTruncationProducesAFileTheLoaderRefuses) {
  ASSERT_TRUE(fp::set("persist.write", "truncate(4096)"));
  persist::write_snapshot(*pipeline().lyzer.snapshot(), path_);
  ASSERT_TRUE(std::filesystem::exists(path_));
  EXPECT_EQ(std::filesystem::file_size(path_), 4096u);
  EXPECT_THROW(persist::open_snapshot(path_), persist::SnapshotError);
}

TEST_F(PersistFault, OpenFailpointRefusesBeforeMapping) {
  persist::write_snapshot(*pipeline().lyzer.snapshot(), path_);
  ASSERT_TRUE(fp::set("persist.open", "error"));
  EXPECT_THROW(persist::open_snapshot(path_), persist::SnapshotError);
  fp::clear_all();
  EXPECT_NE(persist::open_snapshot(path_), nullptr);
}

TEST_F(PersistFault, VerifyFailpointForcesChecksumMismatch) {
  persist::write_snapshot(*pipeline().lyzer.snapshot(), path_);
  ASSERT_TRUE(fp::set("persist.verify", "error"));
  try {
    persist::open_snapshot(path_);
    FAIL() << "expected SnapshotError";
  } catch (const persist::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum mismatch"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Server reload: a bad snapshot quarantines on the last good generation
// ---------------------------------------------------------------------------

server::ServerConfig test_config() {
  server::ServerConfig config;
  config.port = 0;
  config.worker_threads = 2;
  config.cache_capacity = 64;
  config.idle_timeout = std::chrono::milliseconds(0);
  return config;
}

TEST_F(PersistFault, ServerFallsBackToLastGoodOnCorruptSnapshotReload) {
  persist::write_snapshot(*pipeline().lyzer.snapshot(), path_);
  const std::filesystem::path snap = path_;
  server::Server daemon(test_config(), [snap] { return persist::open_snapshot(snap); });
  std::string error;
  ASSERT_TRUE(daemon.start(&error)) << error;
  auto client = server::Client::connect("127.0.0.1", daemon.port());
  ASSERT_TRUE(client.has_value());

  const std::string query =
      "!gAS" + std::to_string(pipeline().lyzer.ir().aut_nums.begin()->first);
  ASSERT_TRUE(client->send_line(query));
  auto first = client->read_response();
  ASSERT_TRUE(first.has_value());

  // Corrupt the file in place (checksum region) and ask for a reload: the
  // loader throws SnapshotError, so the daemon must refuse the generation
  // and keep answering from the one it already has.
  {
    std::fstream f(snap, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(persist::kFixedHeaderSize + 7));
    char b = 0x7f;
    f.write(&b, 1);
  }
  ASSERT_TRUE(client->send_line("!reload"));
  auto refused = client->read_response();
  ASSERT_TRUE(refused.has_value());
  EXPECT_NE(refused->find("F reload failed"), std::string::npos) << *refused;
  EXPECT_EQ(daemon.generation(), 1u);
  EXPECT_EQ(daemon.health().state, server::Health::kDegraded);
  ASSERT_TRUE(client->send_line(query));
  EXPECT_EQ(client->read_response(), first);

  // Repair the file; the next reload publishes a fresh generation.
  persist::write_snapshot(*pipeline().lyzer.snapshot(), snap);
  ASSERT_TRUE(client->send_line("!reload"));
  EXPECT_EQ(client->read_response(), "C\n");
  EXPECT_EQ(daemon.generation(), 2u);
  EXPECT_EQ(daemon.health().state, server::Health::kHealthy);
  ASSERT_TRUE(client->send_line(query));
  EXPECT_EQ(client->read_response(), first);

  client->send_line("!q");
  daemon.stop();
}

// ---------------------------------------------------------------------------
// Generation cache: content-keyed, defect-tolerant
// ---------------------------------------------------------------------------

class PersistCache : public ::testing::Test {
 protected:
  void SetUp() override {
    fp::clear_all();
    dir_ = std::filesystem::temp_directory_path() /
           ("rpslyzer-persist-cache-" + std::to_string(::getpid()));
    corpus_ = dir_ / "corpus";
    cache_dir_ = dir_ / "cache";
    std::filesystem::create_directories(corpus_);
    write("ripe.db",
          "aut-num: AS64500\n"
          "import: from AS64501 accept ANY\n"
          "export: to AS64501 announce AS64500\n\n"
          "route: 10.0.0.0/8\norigin: AS64500\n");
    write("relationships.txt", "64500|64501|-1|irr\n");
  }
  void TearDown() override {
    fp::clear_all();
    std::filesystem::remove_all(dir_);
  }

  void write(const std::string& name, const std::string& text) {
    std::ofstream out(corpus_ / name, std::ios::binary);
    out << text;
  }

  std::filesystem::path dir_;
  std::filesystem::path corpus_;
  std::filesystem::path cache_dir_;
};

TEST_F(PersistCache, KeyIsStableAndTracksEveryInput) {
  const irr::LoadOptions options;
  const persist::CacheKey base = persist::derive_cache_key(corpus_, options);
  EXPECT_EQ(base, persist::derive_cache_key(corpus_, options));
  EXPECT_EQ(base.hex().size(), 16u);

  // One changed byte in a dump, a new dump, a changed relationships file,
  // and a changed load option each derive a different key.
  write("ripe.db",
        "aut-num: AS64500\n"
        "import: from AS64501 accept ANY\n"
        "export: to AS64501 announce AS64500\n\n"
        "route: 10.0.0.0/9\norigin: AS64500\n");
  const persist::CacheKey changed_dump = persist::derive_cache_key(corpus_, options);
  EXPECT_NE(changed_dump, base);

  write("radb.db", "aut-num: AS64502\n");
  const persist::CacheKey added_dump = persist::derive_cache_key(corpus_, options);
  EXPECT_NE(added_dump, changed_dump);

  write("relationships.txt", "64500|64501|0|irr\n");
  const persist::CacheKey changed_rel = persist::derive_cache_key(corpus_, options);
  EXPECT_NE(changed_rel, added_dump);

  irr::LoadOptions bigger;
  bigger.max_object_bytes = 1 << 20;
  EXPECT_NE(persist::derive_cache_key(corpus_, bigger), changed_rel);
}

TEST_F(PersistCache, MissThenStoreThenHit) {
  auto& hits = obs::MetricsRegistry::global().counter(
      "rpslyzer_persist_cache_hits_total", "");
  auto& misses = obs::MetricsRegistry::global().counter(
      "rpslyzer_persist_cache_misses_total", "");
  const std::uint64_t hits0 = hits.value();
  const std::uint64_t misses0 = misses.value();

  persist::SnapshotCache cache(cache_dir_);
  const persist::CacheKey key = persist::derive_cache_key(corpus_, {});
  EXPECT_EQ(cache.try_load(key), nullptr);
  EXPECT_EQ(misses.value(), misses0 + 1);

  cache.store(key, *pipeline().lyzer.snapshot());
  ASSERT_TRUE(std::filesystem::exists(cache.entry_path(key)));
  auto cached = cache.try_load(key);
  ASSERT_NE(cached, nullptr);
  EXPECT_EQ(hits.value(), hits0 + 1);
  EXPECT_EQ(cached->source(), "cache:" + key.hex());
  EXPECT_EQ(cached->build_id(), pipeline().lyzer.snapshot()->build_id());

  // A different key does not see the entry.
  EXPECT_EQ(cache.try_load(persist::CacheKey{key.value + 1}), nullptr);
}

TEST_F(PersistCache, CorruptEntryIsAMissNotAnError) {
  persist::SnapshotCache cache(cache_dir_);
  const persist::CacheKey key = persist::derive_cache_key(corpus_, {});
  cache.store(key, *pipeline().lyzer.snapshot());
  {
    std::fstream f(cache.entry_path(key),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(persist::kFixedHeaderSize + 3));
    char b = 0x11;
    f.write(&b, 1);
  }
  EXPECT_EQ(cache.try_load(key), nullptr);
  // store() overwrites the bad entry and the next load hits again.
  cache.store(key, *pipeline().lyzer.snapshot());
  EXPECT_NE(cache.try_load(key), nullptr);
}

TEST_F(PersistCache, StoreFailureIsSwallowed) {
  persist::SnapshotCache cache(cache_dir_);
  const persist::CacheKey key = persist::derive_cache_key(corpus_, {});
  // Materialize the shared pipeline before arming the failpoint: its lazy
  // constructor writes a snapshot of its own, which must not hit the fault.
  const auto snap = pipeline().lyzer.snapshot();
  ASSERT_TRUE(fp::set("persist.write", "error"));
  EXPECT_NO_THROW(cache.store(key, *snap));
  EXPECT_FALSE(std::filesystem::exists(cache.entry_path(key)));
}

}  // namespace
}  // namespace rpslyzer
