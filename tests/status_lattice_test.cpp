// Property sweep over §5's best-rule selection: when an aut-num holds any
// two rules from {strict-match, skip-class, unrecorded-reference,
// filter-mismatch, peering-mismatch}, the check's status must equal the
// better of the two under the paper's ordering
// (Verified ≻ Skip ≻ Unrecorded ≻ Relaxed ≻ Safelisted ≻ Unverified),
// regardless of declaration order.

#include <gtest/gtest.h>

#include "rpslyzer/compile/snapshot.hpp"
#include "rpslyzer/irr/loader.hpp"
#include "rpslyzer/verify/verifier.hpp"

namespace rpslyzer::verify {
namespace {

/// One rule flavor and the status it alone would produce for the probe
/// route (peer AS1, prefix 10.0.0.0/8, origin well away from any filter).
struct Flavor {
  const char* name;
  const char* rule;  // import rule text for AS2
  Status alone;
};

const Flavor kFlavors[] = {
    {"match", "import: from AS1 accept ANY\n", Status::kVerified},
    {"skip", "import: from AS1 accept community(65535:666)\n", Status::kSkip},
    {"unrecorded", "import: from AS1 accept AS-GONE\n", Status::kUnrecorded},
    // Filter mismatch on a prefix set: no relaxation applies (the filter
    // names neither self, peer, nor origin), no safelist (no relationship
    // data) -> Unverified.
    {"filter_mismatch", "import: from AS1 accept {192.0.2.0/24}\n", Status::kUnverified},
    {"peering_mismatch", "import: from AS9 accept ANY\n", Status::kUnverified},
};

int rank(Status s) {
  switch (s) {
    case Status::kVerified:
      return 0;
    case Status::kSkip:
      return 1;
    case Status::kUnrecorded:
      return 2;
    case Status::kRelaxed:
      return 3;
    case Status::kSafelisted:
      return 4;
    case Status::kUnverified:
      return 5;
  }
  return 6;
}

Status check_with_rules(const std::string& rules) {
  util::Diagnostics diag;
  static std::vector<std::unique_ptr<ir::Ir>> keep;
  keep.push_back(
      std::make_unique<ir::Ir>(irr::parse_dump("aut-num: AS2\n" + rules, "TEST", diag)));
  static std::vector<std::unique_ptr<irr::Index>> indexes;
  indexes.push_back(std::make_unique<irr::Index>(*keep.back()));
  static relations::AsRelations no_relations;
  Verifier verifier(*indexes.back(), no_relations);
  bgp::Route route{*net::Prefix::parse("10.0.0.0/8"), {2, 1}};
  return verifier.verify_route(route)[0].import_result.status;
}

class LatticePairs
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(LatticePairs, BestRuleWins) {
  const auto [i, j] = GetParam();
  const Flavor& a = kFlavors[i];
  const Flavor& b = kFlavors[j];
  const Status expected = rank(a.alone) <= rank(b.alone) ? a.alone : b.alone;
  // Both declaration orders must agree.
  EXPECT_EQ(check_with_rules(std::string(a.rule) + b.rule), expected)
      << a.name << " + " << b.name;
  EXPECT_EQ(check_with_rules(std::string(b.rule) + a.rule), expected)
      << b.name << " + " << a.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, LatticePairs,
    ::testing::Combine(::testing::Range<std::size_t>(0, 5),
                       ::testing::Range<std::size_t>(0, 5)),
    [](const auto& info) {
      return std::string(kFlavors[std::get<0>(info.param)].name) + "_with_" +
             kFlavors[std::get<1>(info.param)].name;
    });

TEST(LatticeSingles, EachFlavorAloneProducesItsStatus) {
  for (const Flavor& f : kFlavors) {
    EXPECT_EQ(check_with_rules(f.rule), f.alone) << f.name;
  }
}

TEST(LatticeTriples, MatchAlwaysWins) {
  for (const Flavor& a : kFlavors) {
    for (const Flavor& b : kFlavors) {
      const std::string rules =
          std::string(a.rule) + b.rule + "import: from AS1 accept ANY\n";
      EXPECT_EQ(check_with_rules(rules), Status::kVerified) << a.name << "+" << b.name;
    }
  }
}

// ---------------------------------------------------------------------------
// Item order when a later rule or branch outranks an earlier one. The best
// outcome's items come first, then the rest's, de-duplicated; a discarded
// branch contributes nothing. Pinned on both backends, which share the
// evaluator but reach it through different rule loops.

/// The import line of AS2's check of 10.0.0.0/8 from AS1, as reported by
/// the interpreted and the snapshot backends (which must agree).
std::string import_line(const std::string& rules) {
  util::Diagnostics diag;
  auto ir = std::make_shared<ir::Ir>(irr::parse_dump("aut-num: AS2\n" + rules, "TEST", diag));
  auto index = std::make_shared<irr::Index>(*ir);
  auto relations = std::make_shared<relations::AsRelations>();
  const bgp::Route route{*net::Prefix::parse("10.0.0.0/8"), {2, 1}};
  const std::string interpreted =
      to_report_lines(Verifier(*index, *relations).verify_route(route)[0]);
  const std::string compiled = to_report_lines(
      Verifier(compile::CompiledPolicySnapshot::build(index, relations)).verify_route(route)[0]);
  EXPECT_EQ(compiled, interpreted) << rules;
  return interpreted.substr(interpreted.find('\n') + 1);
}

TEST(LatticeItemOrder, LaterFilterMismatchOutranksEarlierPeeringMismatch) {
  EXPECT_EQ(import_line("import: from AS9 accept ANY\n"
                        "import: from AS1 accept {192.0.2.0/24}\n"
                        "import: from AS8 accept ANY\n"),
            "BadImport { from: 1, to: 2, items: [MatchFilterPrefixes, MatchFilter, "
            "MatchRemoteAsNum(9), MatchRemoteAsNum(8)] }\n");
}

TEST(LatticeItemOrder, LaterUnrecordedRuleDropsEarlierMismatchItems) {
  EXPECT_EQ(import_line("import: from AS9 accept ANY\n"
                        "import: from AS1 accept {192.0.2.0/24}\n"
                        "import: from AS1 accept AS-GONE\n"),
            "UnrecImport { from: 1, to: 2, items: [UnrecordedAsSet(\"AS-GONE\")] }\n");
}

TEST(LatticeItemOrder, ExceptDiscardsItsMismatchingException) {
  // The exception (evaluated first) mismatches, so the left-hand side
  // decides and only its items remain.
  EXPECT_EQ(import_line("import: from AS9 accept ANY\n"
                        "import: { from AS1 accept <^AS5$>; } EXCEPT "
                        "{ from AS1 accept {192.0.2.0/24}; }\n"),
            "BadImport { from: 1, to: 2, items: [MatchFilterAsPath, MatchFilter, "
            "MatchRemoteAsNum(9)] }\n");
}

TEST(LatticeItemOrder, ExceptUnrecordedExceptionDecides) {
  EXPECT_EQ(import_line("import: from AS9 accept ANY\n"
                        "import: { from AS1 accept <^AS5$>; } EXCEPT "
                        "{ from AS1 accept AS-GONE; }\n"),
            "UnrecImport { from: 1, to: 2, items: [UnrecordedAsSet(\"AS-GONE\")] }\n");
}

TEST(LatticeItemOrder, RefineLaterPeeringMismatchDecidesAndLeads) {
  // The right-hand side's peering mismatch is the weaker outcome, so its
  // items lead even though it was evaluated second.
  EXPECT_EQ(import_line("import: { from AS1 accept {192.0.2.0/24}; } REFINE "
                        "{ from AS9 accept ANY; }\n"),
            "BadImport { from: 1, to: 2, items: [MatchRemoteAsNum(9), "
            "MatchFilterPrefixes, MatchFilter] }\n");
  EXPECT_EQ(import_line("import: { from AS9 accept ANY; } REFINE "
                        "{ from AS1 accept {192.0.2.0/24}; }\n"),
            "BadImport { from: 1, to: 2, items: [MatchRemoteAsNum(9), "
            "MatchFilterPrefixes, MatchFilter] }\n");
}

TEST(LatticeItemOrder, EarlierFilterMismatchOutranksLaterRefine) {
  // Rule 1 (filter mismatch) beats rule 2 (a REFINE that resolves to a
  // peering mismatch); rule 2's items follow, without the repeated
  // MatchFilter.
  EXPECT_EQ(import_line("import: from AS1 accept <^AS5$>\n"
                        "import: { from AS1 accept {192.0.2.0/24}; } REFINE "
                        "{ from AS9 accept ANY; }\n"),
            "BadImport { from: 1, to: 2, items: [MatchFilterAsPath, MatchFilter, "
            "MatchRemoteAsNum(9), MatchFilterPrefixes] }\n");
}

TEST(LatticeItemOrder, FilterAndPeeringBranchesKeepDeclarationOrder) {
  EXPECT_EQ(import_line("import: from AS9 OR AS8 accept ANY\n"
                        "import: from AS1 accept {192.0.2.0/24} OR <^AS5$>\n"),
            "BadImport { from: 1, to: 2, items: [MatchFilterPrefixes, MatchFilterAsPath, "
            "MatchFilter, MatchRemoteAsNum(9), MatchRemoteAsNum(8)] }\n");
}

}  // namespace
}  // namespace rpslyzer::verify
