#pragma once
// Internal rule evaluation for the verifier: tri/four-state evaluation of
// peerings, filters, and (structured) policy entries against one route.
// Not installed; the public surface is verifier.hpp.
//
// Evaluation is templated over a Corpus — the oracle that answers set,
// route-object, and AS-path questions. Two corpora exist:
//
//  * InterpretedCorpus: a thin adapter over irr::Index. Lookups walk the
//    index's lazily-memoized structures and recompile AS-path NFAs per
//    call.
//  * compile::CompiledPolicySnapshot: everything pre-flattened and
//    pre-lowered at build time; all queries are pure reads.
//
// Both instantiations share this one source of truth for §5 semantics, so
// the two paths cannot drift; tests/compile_snapshot_test.cpp additionally
// asserts verdict-for-verdict equality on a synthesized corpus.

#include <span>

#include "rpslyzer/irr/index.hpp"
#include "rpslyzer/verify/status.hpp"
#include "rpslyzer/verify/verifier.hpp"

namespace rpslyzer::compile {
class CompiledPolicySnapshot;
}  // namespace rpslyzer::compile

namespace rpslyzer::verify::internal {

/// How far one rule got toward matching, ordered by §5 priority for
/// best-rule selection (earlier enumerator = better).
enum class EvalClass : std::uint8_t {
  kMatch,
  kSkip,            // an unhandleable construct prevented a verdict
  kUnrecorded,      // missing referenced objects prevented a verdict
  kNoMatchFilter,   // peering matched, filter did not
  kNoMatchPeering,  // peering did not cover the remote AS
  kNotApplicable,   // wrong address family
};

/// The report items of one check under evaluation, owned by the caller and
/// reused across checks so its capacity is paid for once.
///
/// Every evaluation step appends its items at the end of the buffer and
/// returns them as the range [size on entry, size on return): a result is
/// always the buffer's tail. Sub-terms are evaluated one after another, so
/// sibling results sit side by side and are merged, reordered or dropped in
/// place; dropping truncates the buffer, which keeps its capacity. Every
/// range is free of duplicates.
using ItemBuffer = std::vector<ReportItem>;

/// [begin, end) indexes into an ItemBuffer.
struct ItemRange {
  std::size_t begin = 0;
  std::size_t end = 0;

  std::size_t size() const noexcept { return end - begin; }
};

struct RuleOutcome {
  EvalClass cls = EvalClass::kNotApplicable;
  ItemRange items;
};

/// The interpreted corpus: evaluation directly against the IRR index, kept
/// behind VerifyOptions::use_snapshot=false as the reference implementation.
struct InterpretedCorpus {
  const irr::Index& index;

  auto flattened(std::string_view name) const { return index.flattened(name); }
  auto peering_set(std::string_view name) const { return index.peering_set(name); }
  auto filter_set(std::string_view name) const { return index.filter_set(name); }
  bool is_known(std::string_view name) const { return index.is_known(name); }
  irr::Lookup origin_matches(ir::Asn asn, const net::RangeOp& op,
                             const net::Prefix& p) const {
    return index.origin_matches(asn, op, p);
  }
  irr::Lookup as_set_originates(std::string_view name, const net::RangeOp& op,
                                const net::Prefix& p) const {
    return index.as_set_originates(name, op, p);
  }
  irr::Lookup route_set_matches(std::string_view name, const net::RangeOp& op,
                                const net::Prefix& p) const {
    return index.route_set_matches(name, op, p);
  }
  aspath::RegexMatch match_as_path(const ir::FilterAsPath& filter,
                                   std::span<const Asn> path, Asn peer) const;
  bool as_path_skipped(const ir::FilterAsPath& filter) const;
};

/// Context shared by all evaluations of one check.
template <typename Corpus>
struct EvalContextT {
  const Corpus& corpus;
  const VerifyOptions& options;
  Asn self = 0;               // the AS whose rule is evaluated
  Asn peer = 0;               // the remote AS of the session
  net::Prefix prefix;         // the route's prefix P
  std::span<const Asn> path;  // announced AS path (peer side first)
  Asn origin = 0;             // last element of the full path
};

using EvalContext = EvalContextT<InterpretedCorpus>;

/// Evaluate one rule (a full import/export attribute) against the context,
/// appending its items to `items`.
template <typename Corpus>
RuleOutcome evaluate_rule(const ir::Rule& rule, const EvalContextT<Corpus>& ctx,
                          ItemBuffer& items);

extern template RuleOutcome evaluate_rule<InterpretedCorpus>(
    const ir::Rule&, const EvalContextT<InterpretedCorpus>&, ItemBuffer&);
extern template RuleOutcome evaluate_rule<compile::CompiledPolicySnapshot>(
    const ir::Rule&, const EvalContextT<compile::CompiledPolicySnapshot>&, ItemBuffer&);

/// Pick the better of two adjacent outcomes (`a` directly followed by `b`,
/// the buffer's tail) under §5 ordering. When both are mismatches, the
/// better one's items come first, then the other's not already present (all
/// rules' mismatch explanations are reported); otherwise the loser's items
/// are dropped.
RuleOutcome combine_best(RuleOutcome a, RuleOutcome b, ItemBuffer& items);

}  // namespace rpslyzer::verify::internal
