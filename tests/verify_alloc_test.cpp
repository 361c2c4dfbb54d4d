// Heap allocations of verdict production on the snapshot backend. Rule
// evaluation writes every report item into one scratch buffer per route,
// so verify_route allocates its hop vector, that buffer, and one
// exact-size item vector per check that is not Verified — nothing per
// losing rule, per peering or filter term, or per merge. (AS-path regex
// filters are kept out of these policies: the NFA simulation allocates its
// state sets on every match.)
//
// This binary replaces the global operator new with a counting one; the
// counter is a plain integer because the tests are single-threaded.

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "rpslyzer/compile/snapshot.hpp"
#include "rpslyzer/irr/loader.hpp"
#include "rpslyzer/verify/verifier.hpp"

namespace {
std::size_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace rpslyzer::verify {
namespace {

/// Builds the snapshot for `dump` and counts the allocations of one
/// verify_route over AS path {2, 1} (AS1 exports 10.0.0.0/8 to AS2).
struct Counted {
  std::vector<HopCheck> hops;
  std::size_t allocations = 0;
};

Counted verify_counted(const std::string& dump) {
  util::Diagnostics diag;
  auto ir = std::make_shared<ir::Ir>(irr::parse_dump(dump, "TEST", diag));
  auto index = std::make_shared<irr::Index>(*ir);
  auto relations = std::make_shared<relations::AsRelations>();
  const Verifier verifier(compile::CompiledPolicySnapshot::build(index, relations));
  const bgp::Route route{*net::Prefix::parse("10.0.0.0/8"), {2, 1}};
  verifier.verify_route(route);  // warm any lazily built state

  Counted out;
  const std::size_t before = g_allocations;
  out.hops = verifier.verify_route(route);
  out.allocations = g_allocations - before;
  return out;
}

constexpr std::size_t kRouteOverhead = 2;  // the hop vector and the scratch buffer

TEST(VerifyAllocations, VerifiedChecksAllocateNothing) {
  // Losing rules before the matching one leave items in the scratch
  // buffer only.
  const Counted c = verify_counted(
      "aut-num: AS1\nexport: to AS7 announce ANY\nexport: to AS2 announce ANY\n\n"
      "aut-num: AS2\nimport: from AS9 accept ANY\nimport: from AS1 accept {192.0.2.0/24}\n"
      "import: from AS1 accept ANY\n");
  ASSERT_EQ(c.hops.size(), 1u);
  EXPECT_EQ(c.hops[0].export_result.status, Status::kVerified);
  EXPECT_EQ(c.hops[0].import_result.status, Status::kVerified);
  EXPECT_EQ(c.allocations, kRouteOverhead);
}

TEST(VerifyAllocations, OtherChecksAllocateOnceForTheirItems) {
  // Many losing rules, merged across rules, with a later rule outranking
  // earlier ones: still one exact-size vector per check.
  std::string imports;
  for (int asn = 100; asn < 140; ++asn) {
    imports += "import: from AS" + std::to_string(asn) + " accept ANY\n";
  }
  imports += "import: from AS1 accept {192.0.2.0/24} OR {198.51.100.0/24}\n";
  const Counted c = verify_counted("aut-num: AS2\n" + imports);
  ASSERT_EQ(c.hops.size(), 1u);
  EXPECT_EQ(c.hops[0].export_result.status, Status::kUnrecorded);  // no aut-num AS1
  EXPECT_EQ(c.hops[0].import_result.status, Status::kUnverified);
  EXPECT_EQ(c.hops[0].import_result.items.size(), 42u);
  EXPECT_EQ(c.hops[0].import_result.items.capacity(), 42u);
  EXPECT_EQ(c.allocations, kRouteOverhead + 2);
}

}  // namespace
}  // namespace rpslyzer::verify
