#pragma once
// The route verification engine (§5).
//
// For each route <P, A> and each AS pair <Y, X> where Y imports the route
// X exported, RPSLyzer checks X's export rules and Y's import rules: a
// strict match requires (1) the remote AS to match the rule's peering and
// (2) the prefix and AS-path to match the rule's filter, with the rule
// covering P's address family. Non-matches classify into the §5 status
// lattice, with the §5.1.1 relaxed filters and §5.1.2 safelisted
// relationships applied in the paper's order.
//
// Two backends produce identical verdicts:
//
//  * snapshot (default): evaluation against an immutable
//    compile::CompiledPolicySnapshot. The Verifier holds no mutable state,
//    so one const instance is safely shared across threads.
//  * interpreted: direct evaluation against irr::Index +
//    relations::AsRelations with per-Verifier memo caches. Kept behind
//    VerifyOptions::use_snapshot=false for one release as the reference.

#include <memory>
#include <span>
#include <unordered_map>
#include <unordered_set>

#include "rpslyzer/bgp/route.hpp"
#include "rpslyzer/irr/index.hpp"
#include "rpslyzer/relations/relations.hpp"
#include "rpslyzer/verify/status.hpp"

namespace rpslyzer::compile {
class CompiledPolicySnapshot;
}  // namespace rpslyzer::compile

namespace rpslyzer::verify {

namespace internal {
struct RuleOutcome;
}  // namespace internal

struct VerifyOptions {
  /// Apply the §5.1.1 relaxed-filter checks (export self, import customer,
  /// missing routes). Off = strict RFC semantics.
  bool relaxations = true;
  /// Apply the §5.1.2 safelists (only-provider-policies, Tier-1 pairs,
  /// uphill customer→provider propagation).
  bool safelists = true;
  /// Mirror the paper's skip list (Appendix B): AS-path regexes with ASN
  /// ranges or same-pattern operators, community filters, and inline
  /// prefix sets with range operators are Skipped. When false, constructs
  /// our engines can evaluate are evaluated instead (community filters
  /// remain skipped — communities are unobservable in collector dumps).
  bool paper_faithful_skips = true;
  /// Verify against a compiled policy snapshot instead of interpreting the
  /// index directly. Consulted by the entry points that can choose a
  /// backend (Rpslyzer::verifier, verify_routes_parallel); a Verifier
  /// constructed from an explicit backend ignores it.
  bool use_snapshot = true;
};

class Verifier {
 public:
  /// Interpreted backend: evaluate directly against the index.
  Verifier(const irr::Index& index, const relations::AsRelations& relations,
           VerifyOptions options = {});

  /// Snapshot backend: evaluate against a compiled policy snapshot. The
  /// Verifier is then immutable and safely shared across threads.
  explicit Verifier(std::shared_ptr<const compile::CompiledPolicySnapshot> snapshot,
                    VerifyOptions options = {});

  /// Check AS `from`'s export of `route` toward `to`. `announced_path` is
  /// the AS path as announced by `from` (from..origin, BGP order).
  CheckResult check_export(Asn from, Asn to, const bgp::Route& route,
                           std::span<const Asn> announced_path) const;

  /// Check AS `to`'s import of `route` from `from`.
  CheckResult check_import(Asn to, Asn from, const bgp::Route& route,
                           std::span<const Asn> announced_path) const;

  /// Verify every AS pair of the route, origin side first (Appendix C
  /// report order). Prepends must already be stripped (bgp::parse_* does).
  std::vector<HopCheck> verify_route(const bgp::Route& route) const;

  /// Appendix-C style multi-line report for one route.
  std::string report(const bgp::Route& route) const;

  const VerifyOptions& options() const noexcept { return options_; }

  /// The snapshot backing this verifier, or nullptr when interpreted.
  const compile::CompiledPolicySnapshot* snapshot() const noexcept {
    return snapshot_.get();
  }

  /// Does this AS only specify rules for its providers (§5.1.2)? Exposed
  /// for the report module (Figure 6's breakdown).
  bool only_provider_policies(Asn asn) const;

 private:
  /// One import or export check. Rule evaluation writes its report items
  /// into `scratch`, which the caller owns and may reuse across checks
  /// (verify_route keeps one per route); only the winning items are moved
  /// out, into the result's exact-size vector.
  CheckResult check(Asn self, Asn peer, bool is_import, const bgp::Route& route,
                    std::span<const Asn> announced_path,
                    std::vector<ReportItem>& scratch) const;

  /// Shared tail of check(): §5 status from the best rule outcome, then the
  /// §5.1.1 relaxations and §5.1.2 safelists in paper order. `best` indexes
  /// its items in `scratch`. Backend differences are confined to the small
  /// dispatch helpers below.
  CheckResult classify(const internal::RuleOutcome& best, std::vector<ReportItem>& scratch,
                       Asn self, Asn peer, bool is_import, const bgp::Route& route) const;

  bool relax_export_self(Asn self, const net::Prefix& prefix) const;
  bool contains_origin(const std::string& as_set, Asn origin) const;
  const relations::AsRelations& rels() const;

  // Interpreted backend (null in snapshot mode):
  const irr::Index* index_ = nullptr;
  const relations::AsRelations* relations_ = nullptr;
  // Snapshot backend (null in interpreted mode):
  std::shared_ptr<const compile::CompiledPolicySnapshot> snapshot_;

  VerifyOptions options_;

  // Interpreted-only memo caches; the snapshot path never touches them
  // (the snapshot precomputes both at build time).
  mutable std::unordered_map<Asn, bool> only_provider_cache_;
  // Customer cones are only materialized for the export-self relaxation.
  mutable std::unordered_map<Asn, std::vector<relations::Asn>> cone_cache_;
};

}  // namespace rpslyzer::verify
