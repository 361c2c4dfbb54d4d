#include "rpslyzer/rpslyzer.hpp"

#include <gtest/gtest.h>

#include "rpslyzer/util/failpoint.hpp"

namespace rpslyzer {
namespace {

TEST(CoreApi, FromTextsMergesInGivenPriorityOrder) {
  Rpslyzer lyzer = Rpslyzer::from_texts(
      {
          {"FIRST", "aut-num: AS1\nas-name: WINNER\n"},
          {"SECOND", "aut-num: AS1\nas-name: LOSER\n\nroute: 10.0.0.0/8\norigin: AS1\n"},
      },
      "1|2|-1\n");
  EXPECT_EQ(rpslyzer::ir::sym_view(lyzer.ir().aut_nums.at(1).as_name), "WINNER");
  EXPECT_EQ(lyzer.ir().routes.size(), 1u);
  EXPECT_EQ(lyzer.relations().between(1, 2), relations::Relationship::kProvider);
  ASSERT_EQ(lyzer.irr_counts().size(), 2u);
  EXPECT_EQ(lyzer.irr_counts()[0].name, "FIRST");
}

TEST(CoreApi, DiagnosticsAccumulateAcrossSources) {
  Rpslyzer lyzer = Rpslyzer::from_texts(
      {
          {"A", "aut-num: AS1\nimport: fron AS2 accept ANY\n"},
          {"B", "as-set: BAD-NAME\n"},
      },
      "x|y|z\n");
  EXPECT_GE(lyzer.diagnostics().count(util::DiagnosticKind::kSyntaxError), 2u);
  EXPECT_GE(lyzer.diagnostics().count(util::DiagnosticKind::kInvalidSetName), 1u);
}

TEST(CoreApi, VerifierOptionsPropagate) {
  Rpslyzer lyzer = Rpslyzer::from_texts(
      {{"A", "aut-num: AS1\nimport: from AS3 accept AS4\n\nroute: 10.4.0.0/16\norigin: AS4\n"}},
      "");
  bgp::Route r{*net::Prefix::parse("10.99.0.0/16"), {1, 3, 4}};

  verify::Verifier relaxed = lyzer.verifier();
  EXPECT_EQ(relaxed.verify_route(r)[1].import_result.status, verify::Status::kRelaxed);

  verify::VerifyOptions strict;
  strict.relaxations = false;
  strict.safelists = false;
  verify::Verifier strict_verifier = lyzer.verifier(strict);
  EXPECT_EQ(strict_verifier.verify_route(r)[1].import_result.status,
            verify::Status::kUnverified);
}

TEST(CoreApi, ExportIrShape) {
  Rpslyzer lyzer = Rpslyzer::from_texts(
      {{"A", "aut-num: AS1\nimport: from AS2 accept ANY\n\nroute: 10.0.0.0/8\norigin: AS1\n"}},
      "");
  json::Value v = lyzer.export_ir();
  EXPECT_EQ(v.at("aut-nums").as_object().size(), 1u);
  EXPECT_EQ(v.at("routes").as_array().size(), 1u);
  // And it reconstructs the identical corpus.
  EXPECT_EQ(ir::ir_from_json(v), lyzer.ir());
}

TEST(CoreApi, FromTextsQuarantinesOnlyTheBadDump) {
  // In-memory dumps take the loader's per-source step: the byte guard and
  // a parse exception quarantine their own dump (zeroed census, nothing
  // merged) and the rest still load.
  irr::LoadOptions options;
  options.max_object_bytes = 64;
  ASSERT_TRUE(util::failpoint::set("irr.parse", "1*error(boom)"));
  Rpslyzer lyzer = Rpslyzer::from_texts(
      {
          {"THROWS", "aut-num: AS1\n"},
          {"HUGE", "aut-num: AS2\nremarks: " + std::string(100, 'x') + "\n"},
          {"GOOD", "aut-num: AS3\n"},
      },
      "", options);
  util::failpoint::clear_all();
  ASSERT_EQ(lyzer.source_outcomes().size(), 3u);
  EXPECT_EQ(lyzer.source_outcomes()[0].status, irr::SourceStatus::kQuarantined);
  EXPECT_EQ(lyzer.source_outcomes()[0].detail, "exception mid-load: irr.parse: boom");
  EXPECT_EQ(lyzer.source_outcomes()[1].status, irr::SourceStatus::kQuarantined);
  EXPECT_EQ(lyzer.source_outcomes()[1].detail,
            "pathological object of 123 bytes (limit 64): HUGE");
  EXPECT_EQ(lyzer.source_outcomes()[2].status, irr::SourceStatus::kOk);
  EXPECT_EQ(lyzer.irr_counts()[0].objects, 0u);
  EXPECT_EQ(lyzer.irr_counts()[1].bytes, 0u);
  EXPECT_EQ(lyzer.ir().aut_nums.size(), 1u);
  EXPECT_EQ(lyzer.ir().aut_nums.count(3), 1u);
  EXPECT_EQ(lyzer.diagnostics().count(util::DiagnosticKind::kOther), 2u);
}

TEST(CoreApi, EmptyInputs) {
  Rpslyzer lyzer = Rpslyzer::from_texts({}, "");
  EXPECT_EQ(lyzer.ir().object_count(), 0u);
  EXPECT_TRUE(lyzer.relations().tier1().empty());
  // Verifying against an empty corpus classifies everything unrecorded.
  bgp::Route r{*net::Prefix::parse("10.0.0.0/8"), {1, 2}};
  auto hops = lyzer.verifier().verify_route(r);
  ASSERT_EQ(hops.size(), 1u);
  EXPECT_EQ(hops[0].import_result.status, verify::Status::kUnrecorded);
  EXPECT_EQ(hops[0].export_result.status, verify::Status::kUnrecorded);
}

}  // namespace
}  // namespace rpslyzer
