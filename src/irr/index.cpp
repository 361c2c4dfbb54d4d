#include "rpslyzer/irr/index.hpp"

#include <algorithm>
#include <array>

#include "rpslyzer/obs/trace.hpp"

namespace rpslyzer::irr {

namespace {

using net::Prefix;
using net::RangeOp;
using net::matches_with_chain;  // stacked range-op matching lives in net now

/// Canonical (case-insensitive class) id of an interned symbol.
ir::Symbol canon(ir::Symbol s) noexcept { return ir::symbols().canon(s); }

/// Canon symbol for a set name arriving as text, or nullopt when no
/// spelling of that class was ever interned — in which case no object by
/// that name exists either (parsing interns every name it keeps).
std::optional<ir::Symbol> canon_of(std::string_view name) noexcept {
  return ir::symbols().find_canon(name);
}

}  // namespace

bool mbrs_by_ref_allows(const std::vector<ir::Symbol>& mbrs_by_ref,
                        const std::vector<ir::Symbol>& mnt_by) {
  if (mbrs_by_ref.empty()) return false;  // member-of claims need opt-in
  static const ir::Symbol kAny = canon(ir::sym("ANY"));
  for (const ir::Symbol n : mbrs_by_ref) {
    if (canon(n) == kAny) return true;
  }
  for (const ir::Symbol mnt : mnt_by) {
    const ir::Symbol want = canon(mnt);
    for (const ir::Symbol n : mbrs_by_ref) {
      if (canon(n) == want) return true;
    }
  }
  return false;
}

Index::Index(const ir::Ir& ir) : ir_(ir) {
  obs::Span span("index.build");
  for (std::size_t i = 0; i < ir_.routes.size(); ++i) {
    const ir::RouteObject& r = ir_.routes[i];
    routes_by_origin_[r.origin].push_back(r.prefix);
    for (const ir::Symbol set_name : r.member_of) {
      route_set_member_of_[canon(set_name)].push_back(i);
    }
  }
  for (auto& [asn, prefixes] : routes_by_origin_) {
    std::sort(prefixes.begin(), prefixes.end());
    prefixes.erase(std::unique(prefixes.begin(), prefixes.end()), prefixes.end());
  }
  for (const auto& [asn, an] : ir_.aut_nums) {
    for (const ir::Symbol set_name : an.member_of) {
      as_set_member_of_[canon(set_name)].push_back(asn);
    }
  }
}

const ir::AutNum* Index::aut_num(ir::Asn asn) const {
  auto it = ir_.aut_nums.find(asn);
  return it == ir_.aut_nums.end() ? nullptr : &it->second;
}

const ir::AsSet* Index::as_set(std::string_view name) const {
  auto it = ir_.as_sets.find(name);
  return it == ir_.as_sets.end() ? nullptr : &it->second;
}

const ir::RouteSet* Index::route_set(std::string_view name) const {
  auto it = ir_.route_sets.find(name);
  return it == ir_.route_sets.end() ? nullptr : &it->second;
}

const ir::PeeringSet* Index::peering_set(std::string_view name) const {
  auto it = ir_.peering_sets.find(name);
  return it == ir_.peering_sets.end() ? nullptr : &it->second;
}

const ir::FilterSet* Index::filter_set(std::string_view name) const {
  auto it = ir_.filter_sets.find(name);
  return it == ir_.filter_sets.end() ? nullptr : &it->second;
}

// ---------------------------------------------------------------------------
// as-set flattening
// ---------------------------------------------------------------------------

struct Index::FlattenState {
  std::unordered_set<ir::Symbol> visiting;  // gray, keyed by canon symbol
  bool touched_gray = false;  // subtree reached an in-progress set
};

void Index::prewarm() const {
  obs::Span span("index.resolve_sets");
  // Root queries leave complete, untainted memo entries; repeat once so
  // entries tainted by the first pass (mid-cycle computations) get their
  // root recomputation too.
  for (int pass = 0; pass < 8; ++pass) {
    for (const auto& [name, set] : ir_.as_sets) flattened(name);
    if (tainted_.empty()) break;
  }
}

const FlattenedAsSet* Index::flattened(std::string_view name) const {
  const std::optional<ir::Symbol> key = canon_of(name);
  return key ? flattened(*key) : nullptr;
}

const FlattenedAsSet* Index::flattened(ir::Symbol name) const {
  const ir::Symbol key = canon(name);
  if (as_set(ir::sym_view(key)) == nullptr) return nullptr;
  FlattenState state;
  // Root computations always produce the complete closure and are memoized
  // untainted, so pointers handed out here stay valid and correct.
  return flatten_locked(key, state, /*is_root=*/true);
}

const FlattenedAsSet* Index::flatten_locked(ir::Symbol name, FlattenState& state,
                                            bool is_root) const {
  if (auto it = flattened_.find(name); it != flattened_.end()) {
    if (!tainted_.contains(name)) return &it->second;
    // Tainted (computed mid-cycle, possibly incomplete): recompute. Only
    // tainted entries are ever erased, and external callers only receive
    // untainted root results, so no escaped pointer dangles.
    flattened_.erase(it);
    tainted_.erase(name);
  }
  const ir::AsSet* set = as_set(ir::sym_view(name));
  if (set == nullptr) return nullptr;

  state.visiting.insert(name);
  const bool outer_touched_gray = state.touched_gray;
  state.touched_gray = false;

  FlattenedAsSet out;
  auto merge_child = [&](ir::Symbol child_name) {
    const ir::Symbol child_key = canon(child_name);
    if (state.visiting.contains(child_key)) {
      // Cycle back to an ancestor in the current DFS.
      out.has_loop = true;
      state.touched_gray = true;
      return;
    }
    const FlattenedAsSet* child = flatten_locked(child_key, state, /*is_root=*/false);
    if (child == nullptr) {
      // Record the member's exact spelling, as the pre-symbol code did.
      out.missing_sets.emplace_back(ir::sym_view(child_name));
      return;
    }
    out.asns.insert(out.asns.end(), child->asns.begin(), child->asns.end());
    out.missing_sets.insert(out.missing_sets.end(), child->missing_sets.begin(),
                            child->missing_sets.end());
    out.contains_any = out.contains_any || child->contains_any;
    out.has_loop = out.has_loop || child->has_loop;
    if (child->depth + 1 > out.depth) out.depth = child->depth + 1;
  };

  for (const auto& member : set->members) {
    switch (member.kind) {
      case ir::AsSetMember::Kind::kAsn:
        out.asns.push_back(member.asn);
        break;
      case ir::AsSetMember::Kind::kSet:
        merge_child(member.name);
        break;
      case ir::AsSetMember::Kind::kAny:
        out.contains_any = true;
        break;
    }
  }

  // Indirect members by reference: aut-nums whose member-of names this set
  // and whose maintainer the set's mbrs-by-ref admits.
  if (!set->mbrs_by_ref.empty()) {
    if (auto it = as_set_member_of_.find(name); it != as_set_member_of_.end()) {
      for (ir::Asn asn : it->second) {
        const ir::AutNum* an = aut_num(asn);
        if (an != nullptr && mbrs_by_ref_allows(set->mbrs_by_ref, an->mnt_by)) {
          out.asns.push_back(asn);
        }
      }
    }
  }

  std::sort(out.asns.begin(), out.asns.end());
  out.asns.erase(std::unique(out.asns.begin(), out.asns.end()), out.asns.end());
  std::sort(out.missing_sets.begin(), out.missing_sets.end());
  out.missing_sets.erase(std::unique(out.missing_sets.begin(), out.missing_sets.end()),
                         out.missing_sets.end());

  state.visiting.erase(name);
  const bool this_touched_gray = state.touched_gray;
  state.touched_gray = outer_touched_gray || this_touched_gray;

  // A DFS root always computes its complete closure (gray cuts only remove
  // back-edges to ancestors, which contribute no new reachable ASNs). A
  // non-root that touched a gray ancestor may be missing that ancestor's
  // contribution — memoize it for pointer stability but mark it tainted so
  // the next root query recomputes it.
  if (this_touched_gray && !is_root) tainted_.insert(name);
  auto [it, inserted] = flattened_.emplace(name, std::move(out));
  return &it->second;
}

bool Index::contains(std::string_view as_set, ir::Asn asn) const {
  const FlattenedAsSet* flat = flattened(as_set);
  return flat != nullptr && flat->contains(asn);
}

bool Index::is_known(std::string_view as_set) const { return this->as_set(as_set) != nullptr; }

// ---------------------------------------------------------------------------
// route-object index
// ---------------------------------------------------------------------------

std::span<const net::Prefix> Index::origins_of(ir::Asn asn) const {
  auto it = routes_by_origin_.find(asn);
  if (it == routes_by_origin_.end()) return {};
  return it->second;
}

namespace {

/// Binary-search `sorted` for an exact prefix.
bool contains_prefix(std::span<const Prefix> sorted, const Prefix& p) {
  auto it = std::lower_bound(sorted.begin(), sorted.end(), p);
  return it != sorted.end() && *it == p;
}

/// Does any route-object prefix of this origin, taken as base^own with
/// `chain` on top, match `p`? Bases must cover `p`, so candidates are the
/// (≤ 129) left-truncations of `p`, each located by binary search — the
/// paper's "binary search for the route's prefix over each AS's route
/// objects" (Appendix B).
bool any_base_matches(std::span<const Prefix> sorted, const RangeOp& own,
                      std::span<const RangeOp> chain, const Prefix& p) {
  if (sorted.empty()) return false;
  for (std::uint8_t len = 0; len <= p.length(); ++len) {
    Prefix base(p.address(), len);
    if (contains_prefix(sorted, base) && matches_with_chain(base, own, chain, p)) return true;
  }
  return false;
}

}  // namespace

Lookup Index::origin_matches(ir::Asn asn, const RangeOp& op, const Prefix& p) const {
  std::span<const Prefix> prefixes = origins_of(asn);
  if (prefixes.empty()) return Lookup::kUnknown;  // zero-route AS
  return any_base_matches(prefixes, op, {}, p) ? Lookup::kMatch : Lookup::kNoMatch;
}

Lookup Index::as_set_originates(std::string_view name, const RangeOp& op,
                                const Prefix& p) const {
  const FlattenedAsSet* flat = flattened(name);
  if (flat == nullptr) return Lookup::kUnknown;
  bool any_routes = false;
  for (ir::Asn asn : flat->asns) {
    std::span<const Prefix> prefixes = origins_of(asn);
    if (prefixes.empty()) continue;
    any_routes = true;
    if (any_base_matches(prefixes, op, {}, p)) return Lookup::kMatch;
  }
  if (!any_routes && !flat->asns.empty()) return Lookup::kUnknown;  // all zero-route
  return Lookup::kNoMatch;
}

bool Index::asn_originates_exact(ir::Asn asn, const Prefix& p) const {
  return contains_prefix(origins_of(asn), p);
}

// ---------------------------------------------------------------------------
// route-set evaluation
// ---------------------------------------------------------------------------

Lookup Index::route_set_matches(std::string_view name, const RangeOp& outer,
                                const Prefix& p) const {
  const ir::RouteSet* set = route_set(name);
  if (set == nullptr) return Lookup::kUnknown;
  std::unordered_set<ir::Symbol> visiting;
  visiting.insert(canon(set->name));
  std::vector<RangeOp> chain;
  if (!outer.is_none()) chain.push_back(outer);
  return route_set_matches_rec(*set, chain, p, visiting);
}

Lookup Index::route_set_matches_rec(
    const ir::RouteSet& set, const std::vector<RangeOp>& chain, const Prefix& p,
    std::unordered_set<ir::Symbol>& visiting) const {
  bool unknown_seen = false;
  const std::array<const std::vector<ir::RouteSetMember>*, 2> member_lists = {&set.members,
                                                                              &set.mp_members};
  for (const auto* members : member_lists) {
    for (const auto& member : *members) {
      switch (member.kind) {
        case ir::RouteSetMember::Kind::kAny:
          return Lookup::kMatch;
        case ir::RouteSetMember::Kind::kPrefix:
          if (matches_with_chain(member.prefix.prefix, member.prefix.op, chain, p)) {
            return Lookup::kMatch;
          }
          break;
        case ir::RouteSetMember::Kind::kAsn: {
          std::span<const Prefix> prefixes = origins_of(member.asn);
          if (prefixes.empty()) {
            unknown_seen = true;  // zero-route AS: missing information
          } else if (any_base_matches(prefixes, member.op, chain, p)) {
            return Lookup::kMatch;
          }
          break;
        }
        case ir::RouteSetMember::Kind::kAsSet: {
          const FlattenedAsSet* flat = flattened(member.name);
          if (flat == nullptr) {
            unknown_seen = true;
            break;
          }
          bool any_routes = false;
          for (ir::Asn asn : flat->asns) {
            std::span<const Prefix> prefixes = origins_of(asn);
            if (prefixes.empty()) continue;
            any_routes = true;
            if (any_base_matches(prefixes, member.op, chain, p)) return Lookup::kMatch;
          }
          if (!any_routes && !flat->asns.empty()) unknown_seen = true;
          break;
        }
        case ir::RouteSetMember::Kind::kRouteSet: {
          const ir::Symbol member_key = canon(member.name);
          if (visiting.contains(member_key)) break;  // cycle: nothing new
          const ir::RouteSet* child = route_set(ir::sym_view(member.name));
          if (child == nullptr) {
            unknown_seen = true;
            break;
          }
          visiting.insert(member_key);
          // The member's operator applies to the child set first, then the
          // current chain stacks on top (innermost first).
          std::vector<RangeOp> child_chain;
          if (!member.op.is_none()) child_chain.push_back(member.op);
          child_chain.insert(child_chain.end(), chain.begin(), chain.end());
          Lookup sub = route_set_matches_rec(*child, child_chain, p, visiting);
          visiting.erase(member_key);
          if (sub == Lookup::kMatch) return Lookup::kMatch;
          if (sub == Lookup::kUnknown) unknown_seen = true;
          break;
        }
      }
    }
  }

  // Indirect members by reference: route objects naming this set in
  // member-of, admitted by the set's mbrs-by-ref maintainer list.
  if (!set.mbrs_by_ref.empty()) {
    if (auto it = route_set_member_of_.find(canon(set.name));
        it != route_set_member_of_.end()) {
      for (std::size_t idx : it->second) {
        const ir::RouteObject& r = ir_.routes[idx];
        if (mbrs_by_ref_allows(set.mbrs_by_ref, r.mnt_by) &&
            matches_with_chain(r.prefix, RangeOp::none(), chain, p)) {
          return Lookup::kMatch;
        }
      }
    }
  }
  return unknown_seen ? Lookup::kUnknown : Lookup::kNoMatch;
}

}  // namespace rpslyzer::irr
