#include "rpslyzer/verify/verifier.hpp"

#include <algorithm>
#include <iterator>
#include <optional>

#include "evaluate.hpp"
#include "rpslyzer/compile/snapshot.hpp"

namespace rpslyzer::verify {

namespace {

using internal::EvalClass;
using internal::RuleOutcome;

/// Items the scratch buffer of one route starts with room for: more than
/// almost every check's evaluation holds at once, so a route pays for one
/// buffer and its checks reuse it.
constexpr std::size_t kScratchItems = 64;

/// A check's result: `items` moved out of the scratch buffer into one
/// exact-size vector, then the relaxation or safelist item that explains
/// the status, if any.
CheckResult take(Status status, std::span<ReportItem> items,
                 std::optional<Reason> explained_by = std::nullopt) {
  CheckResult result{status, {}};
  result.items.reserve(items.size() + (explained_by ? 1 : 0));
  result.items.insert(result.items.end(), std::make_move_iterator(items.begin()),
                      std::make_move_iterator(items.end()));
  if (explained_by) result.items.push_back({*explained_by, 0, {}});
  return result;
}

}  // namespace

Verifier::Verifier(const irr::Index& index, const relations::AsRelations& relations,
                   VerifyOptions options)
    : index_(&index), relations_(&relations), options_(options) {}

Verifier::Verifier(std::shared_ptr<const compile::CompiledPolicySnapshot> snapshot,
                   VerifyOptions options)
    : snapshot_(std::move(snapshot)), options_(options) {}

const relations::AsRelations& Verifier::rels() const {
  return snapshot_ != nullptr ? snapshot_->relations() : *relations_;
}

bool Verifier::contains_origin(const std::string& as_set, Asn origin) const {
  return snapshot_ != nullptr ? snapshot_->contains(as_set, origin)
                              : index_->contains(as_set, origin);
}

bool Verifier::only_provider_policies(Asn asn) const {
  if (snapshot_ != nullptr) {
    const compile::CompiledAutNum* can = snapshot_->compiled_aut_num(asn);
    return can != nullptr && can->only_provider;
  }
  if (auto it = only_provider_cache_.find(asn); it != only_provider_cache_.end()) {
    return it->second;
  }
  const bool result = compile::only_provider_policies(*index_, *relations_, asn);
  only_provider_cache_.emplace(asn, result);
  return result;
}

bool Verifier::relax_export_self(Asn self, const net::Prefix& prefix) const {
  // Appendix C semantics: "announce <self>" is relaxed to also cover route
  // objects originated by the AS's customer cone.
  if (snapshot_ != nullptr) {
    const compile::CompiledAutNum* can = snapshot_->compiled_aut_num(self);
    if (can == nullptr) return false;  // check() guarantees an aut-num exists
    std::span<const Asn> exact = snapshot_->exact_origins(prefix);
    const auto& cone = can->customer_cone;
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < exact.size() && j < cone.size()) {
      if (exact[i] == cone[j]) return true;
      if (exact[i] < cone[j]) {
        ++i;
      } else {
        ++j;
      }
    }
    return false;
  }
  auto it = cone_cache_.find(self);
  if (it == cone_cache_.end()) {
    it = cone_cache_.emplace(self, relations_->customer_cone(self)).first;
  }
  for (Asn member : it->second) {
    if (index_->origin_matches(member, net::RangeOp::none(), prefix) ==
        irr::Lookup::kMatch) {
      return true;
    }
  }
  return false;
}

CheckResult Verifier::classify(const RuleOutcome& best, std::vector<ReportItem>& scratch,
                               Asn self, Asn peer, bool is_import,
                               const bgp::Route& route) const {
  const std::span<ReportItem> items(scratch.data() + best.items.begin, best.items.size());
  switch (best.cls) {
    case EvalClass::kMatch:
      return {Status::kVerified, {}};
    case EvalClass::kSkip:
      return take(Status::kSkip, items);
    case EvalClass::kUnrecorded:
      return take(Status::kUnrecorded, items);
    default:
      break;
  }

  // §5.1.1 relaxed filters, in paper order, applicable when some rule's
  // peering matched but its filter did not.
  if (options_.relaxations && best.cls == EvalClass::kNoMatchFilter) {
    const Asn origin = route.origin();
    bool has_self_filter = false;
    bool has_peer_filter = false;
    bool has_origin_filter = false;
    for (const auto& item : items) {
      if (item.reason == Reason::kMatchFilterAsNum) {
        has_self_filter = has_self_filter || item.asn == self;
        has_peer_filter = has_peer_filter || item.asn == peer;
        has_origin_filter = has_origin_filter || item.asn == origin;
      } else if (item.reason == Reason::kMatchFilterAsSet) {
        has_origin_filter = has_origin_filter || contains_origin(item.name, origin);
      }
    }
    // Export Self: a transit AS announcing "its own" routes almost always
    // means its routes and its customers' (validated by operators, App. E).
    if (!is_import && has_self_filter && relax_export_self(self, route.prefix)) {
      return take(Status::kRelaxed, items, Reason::kRelaxedExportSelf);
    }
    // Import Customer: "from C accept C" (or accept PeerAS) by C's provider
    // means "accept anything C sends".
    if (is_import && has_peer_filter && rels().is_provider_of(self, peer)) {
      return take(Status::kRelaxed, items, Reason::kRelaxedImportCustomer);
    }
    // Missing routes: the filter names the AS-path's origin (or a set
    // containing it) — the route object is simply not maintained.
    if (has_origin_filter) {
      return take(Status::kRelaxed, items, Reason::kRelaxedMissingRoutes);
    }
  }

  // §5.1.2 safelisted relationships, in paper order.
  if (options_.safelists) {
    const relations::Relationship to_peer = rels().between(self, peer);
    // Only Provider Policies: ASes that maintain rules solely for their
    // providers (who may require them); imports from anyone that is not a
    // provider pass. Appendix C distinguishes known customers from other
    // non-provider remotes in the report items.
    if (is_import && to_peer != relations::Relationship::kCustomer &&
        only_provider_policies(self)) {
      return take(Status::kSafelisted, items,
                  to_peer == relations::Relationship::kProvider
                      ? Reason::kSpecCustomerOnlyProviderPolicies
                      : Reason::kSpecOtherOnlyProviderPolicies);
    }
    // Tier-1 Peering: Tier-1s exchange routes by definition.
    if (rels().is_tier1(self) && rels().is_tier1(peer)) {
      return take(Status::kSafelisted, items, Reason::kSpecTier1Pair);
    }
    // Uphill: customers rely on providers to reach the Internet; providers
    // import customer routes.
    const bool uphill = is_import ? to_peer == relations::Relationship::kProvider
                                  : to_peer == relations::Relationship::kCustomer;
    if (uphill) return take(Status::kSafelisted, items, Reason::kSpecUphill);
  }

  return take(Status::kUnverified, items);
}

CheckResult Verifier::check(Asn self, Asn peer, bool is_import, const bgp::Route& route,
                            std::span<const Asn> announced_path,
                            std::vector<ReportItem>& scratch) const {
  scratch.clear();
  RuleOutcome best{EvalClass::kNotApplicable, {}};
  if (snapshot_ != nullptr) {
    // Unrecorded (1): no aut-num object for the AS under check.
    const compile::CompiledAutNum* can = snapshot_->compiled_aut_num(self);
    if (can == nullptr) {
      return {Status::kUnrecorded, {{Reason::kUnrecordedAutNum, self, {}}}};
    }
    // Unrecorded (2): zero rules for the direction being checked.
    const auto& crules = is_import ? can->imports : can->exports;
    if (crules.empty()) {
      return {Status::kUnrecorded, {{Reason::kUnrecordedNoRules, self, {}}}};
    }

    internal::EvalContextT<compile::CompiledPolicySnapshot> ctx{
        *snapshot_, options_, self, peer, route.prefix, announced_path, route.origin()};

    for (const auto& crule : crules) {
      RuleOutcome out{EvalClass::kNotApplicable, {scratch.size(), scratch.size()}};
      const bool covers = route.prefix.is_v4() ? crule.covers_v4 : crule.covers_v6;
      if (covers && crule.simple &&
          !std::binary_search(crule.peers.begin(), crule.peers.end(), peer)) {
        // Fast reject: every peering is a plain ASN and none names the
        // peer, so no factor's filter is ever evaluated. Reproduces the
        // interpreted per-factor NoMatchPeering merge exactly.
        if (!crule.no_factors) {
          out.cls = EvalClass::kNoMatchPeering;
          for (Asn a : crule.no_match_asns) {
            scratch.push_back({Reason::kMatchRemoteAsNum, a, {}});
          }
          out.items.end = scratch.size();
        }
      } else if (covers) {
        out = internal::evaluate_rule(*crule.rule, ctx, scratch);
      }
      best = internal::combine_best(best, out, scratch);
      if (best.cls == EvalClass::kMatch) break;
    }
    return classify(best, scratch, self, peer, is_import, route);
  }

  // Unrecorded (1): no aut-num object for the AS under check.
  const ir::AutNum* an = index_->aut_num(self);
  if (an == nullptr) {
    return {Status::kUnrecorded, {{Reason::kUnrecordedAutNum, self, {}}}};
  }
  // Unrecorded (2): zero rules for the direction being checked.
  const auto& rules = is_import ? an->imports : an->exports;
  if (rules.empty()) {
    return {Status::kUnrecorded, {{Reason::kUnrecordedNoRules, self, {}}}};
  }

  internal::InterpretedCorpus corpus{*index_};
  internal::EvalContext ctx{corpus,         options_,       self, peer,
                            route.prefix,   announced_path, route.origin()};

  for (const auto& rule : rules) {
    best = internal::combine_best(best, internal::evaluate_rule(rule, ctx, scratch), scratch);
    if (best.cls == EvalClass::kMatch) break;
  }
  return classify(best, scratch, self, peer, is_import, route);
}

CheckResult Verifier::check_export(Asn from, Asn to, const bgp::Route& route,
                                   std::span<const Asn> announced_path) const {
  std::vector<ReportItem> scratch;
  return check(from, to, /*is_import=*/false, route, announced_path, scratch);
}

CheckResult Verifier::check_import(Asn to, Asn from, const bgp::Route& route,
                                   std::span<const Asn> announced_path) const {
  std::vector<ReportItem> scratch;
  return check(to, from, /*is_import=*/true, route, announced_path, scratch);
}

std::vector<HopCheck> Verifier::verify_route(const bgp::Route& route) const {
  std::vector<HopCheck> hops;
  if (route.path.size() < 2) return hops;
  hops.reserve(route.path.size() - 1);
  std::vector<ReportItem> scratch;  // shared by every check of the route
  scratch.reserve(kScratchItems);
  // Walk from the origin toward the collector: pair (X = path[i+1] exports,
  // Y = path[i] imports); the path X announces is path[i+1..].
  for (std::size_t i = route.path.size() - 1; i-- > 0;) {
    const Asn exporter = route.path[i + 1];
    const Asn importer = route.path[i];
    std::span<const Asn> announced(route.path.data() + i + 1, route.path.size() - i - 1);
    HopCheck hop;
    hop.from = exporter;
    hop.to = importer;
    hop.export_result = check(exporter, importer, /*is_import=*/false, route, announced, scratch);
    hop.import_result = check(importer, exporter, /*is_import=*/true, route, announced, scratch);
    hops.push_back(std::move(hop));
  }
  return hops;
}

std::string Verifier::report(const bgp::Route& route) const {
  std::string out;
  for (const HopCheck& hop : verify_route(route)) out += to_report_lines(hop);
  return out;
}

}  // namespace rpslyzer::verify
