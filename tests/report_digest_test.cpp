// Golden report digests: every route of a fixed-seed synthetic corpus is
// verified and its Appendix C report lines (to_report_lines, which spell
// out every hop's status and every report item in order) are hashed into
// one FNV-1a digest per option set. The snapshot-vs-interpreted
// differential cannot see a change in item order, because both backends
// share one evaluator; these pinned digests can. They must stay
// byte-identical across any rewrite of evaluate.cpp or verifier.cpp.
//
// A deliberate change to §5 semantics or to the report format changes
// these digests; re-record them and say why in the commit.

#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>

#include "rpslyzer/rpslyzer.hpp"
#include "rpslyzer/synth/generator.hpp"
#include "rpslyzer/verify/verifier.hpp"

namespace rpslyzer::verify {
namespace {

struct Corpus {
  synth::InternetGenerator generator;
  Rpslyzer lyzer;
  std::vector<bgp::Route> routes;

  explicit Corpus(const synth::SynthConfig& config)
      : generator(config), lyzer([&] {
          std::vector<std::pair<std::string, std::string>> ordered;
          for (const auto& name : synth::irr_names()) {
            ordered.emplace_back(name, generator.irr_dumps().at(name));
          }
          return Rpslyzer::from_texts(ordered, generator.caida_serial1());
        }()) {
    for (const auto& dump : generator.bgp_dumps()) {
      for (auto& route : bgp::parse_table_dump(dump)) routes.push_back(std::move(route));
    }
  }
};

/// Seed 5 at a quarter of the default topology: large enough that every
/// status and most report reasons occur, including multi-rule merges.
Corpus& corpus() {
  static Corpus c([] {
    synth::SynthConfig config;
    config.seed = 5;
    config.scale = 0.25;
    return config;
  }());
  return c;
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct Digest {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  std::size_t hops = 0;
  std::size_t items = 0;
};

Digest report_digest(const Verifier& verifier) {
  Digest d;
  for (const auto& route : corpus().routes) {
    for (const HopCheck& hop : verifier.verify_route(route)) {
      d.hash = fnv1a(to_report_lines(hop), d.hash);
      ++d.hops;
      d.items += hop.export_result.items.size() + hop.import_result.items.size();
    }
  }
  return d;
}

struct Golden {
  const char* name;
  VerifyOptions options;
  std::uint64_t hash;
  std::size_t hops;
  std::size_t items;
};

VerifyOptions with(bool relaxations, bool paper_faithful_skips) {
  VerifyOptions options;
  options.relaxations = relaxations;
  options.paper_faithful_skips = paper_faithful_skips;
  return options;
}

const Golden kGolden[] = {
    {"default", with(true, true), 0x22652f76f1b741faULL, 72477, 428039},
    {"no_paper_skips", with(true, false), 0xebbbf569353eb8bcULL, 72477, 432420},
    {"no_relaxations", with(false, true), 0xf3001a2e541a88a5ULL, 72477, 426989},
};

void expect_golden(const Golden& golden, const Digest& got, const char* backend) {
  EXPECT_EQ(got.hops, golden.hops) << golden.name << " " << backend;
  EXPECT_EQ(got.items, golden.items) << golden.name << " " << backend;
  EXPECT_EQ(got.hash, golden.hash)
      << golden.name << " " << backend << ": digest 0x" << std::hex << got.hash;
}

TEST(ReportDigest, CorpusCoversEveryStatus) {
  Verifier verifier(corpus().lyzer.snapshot());
  bool seen[6] = {};
  for (const auto& route : corpus().routes) {
    for (const HopCheck& hop : verifier.verify_route(route)) {
      seen[static_cast<int>(hop.export_result.status)] = true;
      seen[static_cast<int>(hop.import_result.status)] = true;
    }
  }
  for (int s = 0; s < 6; ++s) {
    EXPECT_TRUE(seen[s]) << to_string(static_cast<Status>(s));
  }
}

TEST(ReportDigest, SnapshotBackendMatchesGolden) {
  for (const Golden& golden : kGolden) {
    expect_golden(golden, report_digest(Verifier(corpus().lyzer.snapshot(), golden.options)),
                  "snapshot");
  }
}

TEST(ReportDigest, InterpretedBackendMatchesGolden) {
  for (const Golden& golden : kGolden) {
    expect_golden(golden,
                  report_digest(Verifier(corpus().lyzer.index(), corpus().lyzer.relations(),
                                         golden.options)),
                  "interpreted");
  }
}

}  // namespace
}  // namespace rpslyzer::verify
