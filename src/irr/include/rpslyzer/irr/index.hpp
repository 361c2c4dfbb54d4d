#pragma once
// Queryable index over a merged IR corpus.
//
// Implements the paper's performance-critical resolutions (Appendix B):
//  * as-sets are recursively flattened to member ASNs (memoized, cycle-safe)
//    including indirect "members by reference" via aut-num member-of;
//  * route objects are indexed per origin AS as sorted prefix vectors, and
//    prefix lookups binary-search them;
//  * route-sets are evaluated recursively with cycle guards, including
//    members-by-ref from route objects and the non-standard range-operator-
//    on-set syntax.

#include <optional>
#include <span>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "rpslyzer/aspath/engine.hpp"
#include "rpslyzer/ir/objects.hpp"

namespace rpslyzer::irr {

/// Tri-state query outcome: referenced data may simply be missing from the
/// IRRs, which the verifier must distinguish from a clean mismatch
/// ("Unrecorded" vs "Unverified", §5).
enum class Lookup : std::uint8_t {
  kMatch,
  kNoMatch,
  kUnknown,  // the referenced object is not defined in any loaded IRR
};

/// mbrs-by-ref check: the referencing object's maintainers must intersect
/// the set's mbrs-by-ref list, or the list contains ANY (RFC 2622 §5.1).
/// Shared by the lazy Index resolution and the compiled-snapshot build.
/// Interned operands: the intersection test is canon-id equality, no
/// string bytes are touched.
bool mbrs_by_ref_allows(const std::vector<ir::Symbol>& mbrs_by_ref,
                        const std::vector<ir::Symbol>& mnt_by);

/// A flattened as-set: every ASN reachable through member edges.
struct FlattenedAsSet {
  std::vector<ir::Asn> asns;               // sorted, unique
  std::vector<std::string> missing_sets;   // referenced but undefined sets
  bool contains_any = false;               // the erroneous ANY member appears
  bool has_loop = false;                   // a member cycle reaches this set
  std::size_t depth = 0;                   // longest member chain below this set

  bool contains(ir::Asn asn) const noexcept {
    auto it = std::lower_bound(asns.begin(), asns.end(), asn);
    return it != asns.end() && *it == asn;
  }
};

class Index : public aspath::AsSetMembership {
 public:
  /// Builds the route-origin index eagerly; as-set flattening is lazy and
  /// memoized. The Ir must outlive the Index.
  explicit Index(const ir::Ir& ir);

  const ir::Ir& ir() const noexcept { return ir_; }

  // --- object lookups (case-insensitive names) ---
  const ir::AutNum* aut_num(ir::Asn asn) const;
  const ir::AsSet* as_set(std::string_view name) const;
  const ir::RouteSet* route_set(std::string_view name) const;
  const ir::PeeringSet* peering_set(std::string_view name) const;
  const ir::FilterSet* filter_set(std::string_view name) const;

  // --- as-set flattening ---
  /// nullptr when the set is not defined.
  const FlattenedAsSet* flattened(std::string_view name) const;
  /// Symbol-keyed fast path (skips the name → canon-symbol lookup).
  const FlattenedAsSet* flattened(ir::Symbol name) const;

  /// Flatten every defined as-set now. Afterwards all flattening queries
  /// are pure reads, making the Index safely shareable across threads
  /// (the §5-scale verification runs on many cores).
  void prewarm() const;

  // aspath::AsSetMembership:
  bool contains(std::string_view as_set, ir::Asn asn) const override;
  bool is_known(std::string_view as_set) const override;

  // --- route-object origin index ---
  /// Sorted prefixes whose route objects have `origin == asn`.
  std::span<const net::Prefix> origins_of(ir::Asn asn) const;
  bool has_routes(ir::Asn asn) const { return !origins_of(asn).empty(); }
  /// Is `asn` ever used as an origin, and does one of its route objects
  /// match `p` under `op`? kUnknown when the AS has no route objects at all
  /// (the paper's "zero-route AS" unrecorded case).
  Lookup origin_matches(ir::Asn asn, const net::RangeOp& op, const net::Prefix& p) const;

  /// Any member of the (flattened) as-set originates a route object
  /// matching `p` under `op`. kUnknown when the set is undefined.
  Lookup as_set_originates(std::string_view name, const net::RangeOp& op,
                           const net::Prefix& p) const;

  /// Does route-set `name` (with `outer` applied) match prefix `p`?
  /// kUnknown when the set (or a transitively required set) is undefined
  /// and nothing else matched.
  Lookup route_set_matches(std::string_view name, const net::RangeOp& outer,
                           const net::Prefix& p) const;

  /// All origin ASNs of route objects exactly covering `p` (used by the
  /// "missing routes" relaxation and PeerAS filters).
  bool asn_originates_exact(ir::Asn asn, const net::Prefix& p) const;

 private:
  struct FlattenState;

  // All internal set-name keys are *canonical* symbols (the first-seen
  // spelling of a case-insensitive class), so map lookups are u32 hashes —
  // the symbol-era replacement for the old IHash/IEqual string keys.
  const FlattenedAsSet* flatten_locked(ir::Symbol name, FlattenState& state,
                                       bool is_root) const;
  Lookup route_set_matches_rec(const ir::RouteSet& set,
                               const std::vector<net::RangeOp>& chain, const net::Prefix& p,
                               std::unordered_set<ir::Symbol>& visiting) const;

  const ir::Ir& ir_;

  // Route origin index: origin ASN -> sorted unique prefixes.
  std::unordered_map<ir::Asn, std::vector<net::Prefix>> routes_by_origin_;

  // member-of reverse index for as-sets (canon set symbol -> candidate
  // member ASNs whose aut-num lists the set in member-of),
  // maintainer-checked lazily.
  std::unordered_map<ir::Symbol, std::vector<ir::Asn>> as_set_member_of_;
  // Same for route-sets: canon set symbol -> indices into ir_.routes.
  std::unordered_map<ir::Symbol, std::vector<std::size_t>> route_set_member_of_;

  // Memoized flattenings, keyed by canon symbol. Entries in `tainted_` were
  // computed mid-cycle and may be incomplete; they are recomputed when
  // queried as a root, so pointers returned by flattened() always hold the
  // complete closure.
  mutable std::unordered_map<ir::Symbol, FlattenedAsSet> flattened_;
  mutable std::unordered_set<ir::Symbol> tainted_;
};

}  // namespace rpslyzer::irr
