#include "rpslyzer/compile/snapshot.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <stdexcept>
#include <unordered_set>

#include "rpslyzer/ir/policy.hpp"
#include "rpslyzer/obs/metrics.hpp"
#include "rpslyzer/obs/trace.hpp"
#include "rpslyzer/util/failpoint.hpp"
#include "rpslyzer/util/strings.hpp"

namespace rpslyzer::compile {

namespace {

namespace fp = util::failpoint;

using net::Prefix;
using net::RangeOp;

/// Two sorted unique vectors share an element?
bool intersects(std::span<const ir::Asn> a, std::span<const ir::Asn> b) {
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) return true;
    if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

/// All remote ASNs named by plain-ASN peerings of this entry. False when
/// any peering is not a plain ASN (sets and AS-ANY mean the AS maintains
/// policies beyond a fixed provider list). Shared §5.1.2 primitive.
bool collect_peering_asns(const ir::Entry& entry, std::vector<ir::Asn>& out) {
  return std::visit(
      util::overloaded{
          [&](const ir::EntryTerm& term) {
            for (const auto& factor : term.factors) {
              for (const auto& pa : factor.peerings) {
                const auto* spec = std::get_if<ir::PeeringSpec>(&pa.peering.node);
                if (spec == nullptr) return false;
                const auto* asn = std::get_if<ir::AsExprAsn>(&spec->as_expr.node);
                if (asn == nullptr) return false;
                out.push_back(asn->asn);
              }
            }
            return true;
          },
          [&](const ir::EntryExcept& e) {
            return collect_peering_asns(*e.left, out) && collect_peering_asns(*e.right, out);
          },
          [&](const ir::EntryRefine& e) {
            return collect_peering_asns(*e.left, out) && collect_peering_asns(*e.right, out);
          },
      },
      entry.node);
}

/// One monotone process-wide id sequence for in-process snapshot builds.
std::uint64_t allocate_build_id() {
  static std::atomic<std::uint64_t> next_build_id{0};
  return next_build_id.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

bool only_provider_policies(const irr::Index& index,
                            const relations::AsRelations& relations, ir::Asn asn) {
  // §5.1.2 scopes this to transit ASes ("46 transit ASes only specify rules
  // for their providers"); edge networks with provider-only rules are the
  // normal case, not a safelist.
  const ir::AutNum* an = relations.customers_of(asn).empty() ? nullptr : index.aut_num(asn);
  if (an == nullptr) return false;
  std::vector<ir::Asn> remotes;
  for (const auto* rules : {&an->imports, &an->exports}) {
    for (const auto& rule : *rules) {
      if (!collect_peering_asns(rule.entry, remotes)) return false;
    }
  }
  if (remotes.empty()) return false;
  for (ir::Asn remote : remotes) {
    if (!relations.is_customer_of(asn, remote)) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Build
// ---------------------------------------------------------------------------

std::shared_ptr<const CompiledPolicySnapshot> CompiledPolicySnapshot::build(
    std::shared_ptr<const irr::Index> index,
    std::shared_ptr<const relations::AsRelations> relations) {
  if (auto hit = fp::hit("compile.build"); hit.is_error()) {
    throw std::runtime_error("compile.build failpoint: " + hit.message);
  }
  obs::Span span("compile.build");
  const auto start = std::chrono::steady_clock::now();

  // Materialize every lazily-memoized structure while we are still the only
  // owner; afterwards all Index/AsRelations queries the snapshot forwards
  // are pure reads.
  index->prewarm();
  relations->tier1();

  std::shared_ptr<CompiledPolicySnapshot> snap(new CompiledPolicySnapshot());
  snap->index_ = std::move(index);
  snap->relations_ = std::move(relations);
  snap->build_id_ = allocate_build_id();

  snap->lower_policies();
  snap->build_as_sets();
  snap->build_origin_trie();
  snap->build_route_sets();
  snap->build_cones();

  snap->trie_nodes_ = snap->origins_.node_count();
  for (const auto& [id, set] : snap->route_sets_) {
    snap->trie_nodes_ += set.bases.node_count();
  }

  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  auto& registry = obs::MetricsRegistry::global();
  static obs::Histogram& build_seconds = registry.histogram(
      "rpslyzer_compile_build_seconds", "Compiled-policy-snapshot build duration",
      obs::exponential_bounds(1e-4, 4.0, 12));
  static obs::Gauge& interned = registry.gauge(
      "rpslyzer_compile_interned_symbols", "Interned set-name symbols in the latest snapshot");
  static obs::Gauge& nodes = registry.gauge(
      "rpslyzer_compile_trie_nodes", "Allocated prefix-trie nodes in the latest snapshot");
  build_seconds.observe(elapsed.count());
  interned.set(static_cast<std::int64_t>(snap->interned_symbols()));
  nodes.set(static_cast<std::int64_t>(snap->trie_nodes_));

  return snap;
}

SymbolId CompiledPolicySnapshot::intern(std::string_view name) {
  return symbols_.intern(name).id;
}

std::optional<SymbolId> CompiledPolicySnapshot::symbol(std::string_view name) const {
  const std::optional<util::Symbol> s = symbols_.find(name);  // case-insensitive
  if (!s) return std::nullopt;
  return s->id;
}

void CompiledPolicySnapshot::build_as_sets() {
  // Pass 1 sizes the pool exactly: spans into it are taken in pass 2 and
  // must never be invalidated by reallocation.
  std::size_t total = 0;
  for (const auto& [name, set] : index_->ir().as_sets) {
    if (const irr::FlattenedAsSet* flat = index_->flattened(name)) total += flat->asns.size();
  }
  as_set_pool_.reserve(total);
  for (const auto& [name, set] : index_->ir().as_sets) {
    const irr::FlattenedAsSet* flat = index_->flattened(name);
    if (flat == nullptr) continue;  // unreachable post-prewarm; stay safe
    CompiledAsSet compiled;
    const std::size_t offset = as_set_pool_.size();
    as_set_pool_.insert(as_set_pool_.end(), flat->asns.begin(), flat->asns.end());
    compiled.asns = std::span<const ir::Asn>(as_set_pool_).subspan(offset, flat->asns.size());
    compiled.contains_any = flat->contains_any;
    for (ir::Asn asn : compiled.asns) {
      if (index_->has_routes(asn)) {
        compiled.any_member_routes = true;
        break;
      }
    }
    as_sets_.emplace(intern(name), std::move(compiled));
  }
}

void CompiledPolicySnapshot::build_origin_trie() {
  // PrefixTrie::insert overwrites, so accumulate per-prefix origin lists
  // first and insert each base exactly once.
  std::map<Prefix, std::vector<ir::Asn>> acc;
  for (const ir::RouteObject& r : index_->ir().routes) acc[r.prefix].push_back(r.origin);
  for (auto& [prefix, origins] : acc) {
    std::sort(origins.begin(), origins.end());
    origins.erase(std::unique(origins.begin(), origins.end()), origins.end());
  }
  std::size_t total = 0;
  for (const auto& [prefix, origins] : acc) total += origins.size();
  origin_pool_.reserve(total);
  for (const auto& [prefix, origins] : acc) {
    const std::size_t offset = origin_pool_.size();
    origin_pool_.insert(origin_pool_.end(), origins.begin(), origins.end());
    origins_.insert(prefix,
                    std::span<const ir::Asn>(origin_pool_).subspan(offset, origins.size()));
  }
}

namespace {

/// Accumulator for one route-set expansion: base prefix -> pre-outer
/// length intervals (deduped at insertion into the trie).
using BaseAccumulator = std::map<Prefix, std::vector<LengthInterval>>;

/// Record base^own with `chain` (innermost first, outer excluded) folded on
/// top. Dead selections (empty interval) are dropped, mirroring
/// matches_with_chain returning false for every prefix.
void add_base(BaseAccumulator& acc, const Prefix& base, const RangeOp& own,
              std::span<const RangeOp> chain) {
  auto interval = net::length_interval(own, base.length(), base.family());
  const std::uint8_t family_max = base.max_length();
  for (const RangeOp& op : chain) {
    if (!interval) return;
    interval = net::step_interval(*interval, op, family_max);
  }
  if (!interval) return;
  acc[base].push_back({interval->first, interval->second});
}

}  // namespace

void CompiledPolicySnapshot::build_route_sets() {
  const ir::Ir& ir = index_->ir();

  // member-of reverse map for route objects (the Index keeps its own copy
  // private): canon set symbol -> indices into ir.routes.
  std::unordered_map<ir::Symbol, std::vector<std::size_t>> member_of;
  for (std::size_t i = 0; i < ir.routes.size(); ++i) {
    for (const ir::Symbol set_name : ir.routes[i].member_of) {
      member_of[ir::symbols().canon(set_name)].push_back(i);
    }
  }

  // Expansion mirrors Index::route_set_matches_rec with the query-time
  // prefix abstracted away: matches become (base, pre-outer interval)
  // entries, unknown contributions become the static `unknown` bit (they
  // are all prefix-independent), cycles are cut.
  struct Expander {
    const CompiledPolicySnapshot& snap;
    const ir::Ir& ir;
    const decltype(member_of)& members_by_ref;

    void expand(const ir::RouteSet& set, std::vector<RangeOp>& chain, CompiledRouteSet& out,
                BaseAccumulator& acc, std::unordered_set<ir::Symbol>& visiting) const {
      for (const auto* list : {&set.members, &set.mp_members}) {
        for (const auto& member : *list) {
          switch (member.kind) {
            case ir::RouteSetMember::Kind::kAny:
              out.any = true;
              break;
            case ir::RouteSetMember::Kind::kPrefix:
              add_base(acc, member.prefix.prefix, member.prefix.op, chain);
              break;
            case ir::RouteSetMember::Kind::kAsn: {
              std::span<const Prefix> prefixes = snap.index_->origins_of(member.asn);
              if (prefixes.empty()) {
                out.unknown = true;  // zero-route AS: missing information
              } else {
                for (const Prefix& base : prefixes) add_base(acc, base, member.op, chain);
              }
              break;
            }
            case ir::RouteSetMember::Kind::kAsSet: {
              const CompiledAsSet* flat = snap.flattened(ir::sym_view(member.name));
              if (flat == nullptr) {
                out.unknown = true;
                break;
              }
              bool any_routes = false;
              for (ir::Asn asn : flat->asns) {
                std::span<const Prefix> prefixes = snap.index_->origins_of(asn);
                if (prefixes.empty()) continue;
                any_routes = true;
                for (const Prefix& base : prefixes) add_base(acc, base, member.op, chain);
              }
              if (!any_routes && !flat->asns.empty()) out.unknown = true;
              break;
            }
            case ir::RouteSetMember::Kind::kRouteSet: {
              const ir::Symbol member_key = ir::symbols().canon(member.name);
              if (visiting.contains(member_key)) break;  // cycle: nothing new
              const ir::RouteSet* child = snap.index_->route_set(ir::sym_view(member.name));
              if (child == nullptr) {
                out.unknown = true;
                break;
              }
              visiting.insert(member_key);
              // The member's operator applies to the child set first, then
              // the current chain stacks on top (innermost first).
              std::vector<RangeOp> child_chain;
              if (!member.op.is_none()) child_chain.push_back(member.op);
              child_chain.insert(child_chain.end(), chain.begin(), chain.end());
              expand(*child, child_chain, out, acc, visiting);
              visiting.erase(member_key);
              break;
            }
          }
        }
      }

      // Indirect members by reference: route objects naming this set in
      // member-of, admitted by the set's mbrs-by-ref maintainer list.
      if (!set.mbrs_by_ref.empty()) {
        if (auto it = members_by_ref.find(ir::symbols().canon(set.name));
            it != members_by_ref.end()) {
          for (std::size_t idx : it->second) {
            const ir::RouteObject& r = ir.routes[idx];
            if (irr::mbrs_by_ref_allows(set.mbrs_by_ref, r.mnt_by)) {
              add_base(acc, r.prefix, RangeOp::none(), chain);
            }
          }
        }
      }
    }
  };

  // Stage every expansion first so the interval pool can be reserved to its
  // exact size before any span into it is handed to a trie.
  Expander expander{*this, ir, member_of};
  std::vector<std::pair<CompiledRouteSet, BaseAccumulator>> staged;
  staged.reserve(ir.route_sets.size());
  std::size_t total = 0;
  for (const auto& [name, set] : ir.route_sets) {
    CompiledRouteSet compiled;
    BaseAccumulator acc;
    std::unordered_set<ir::Symbol> visiting;
    visiting.insert(ir::symbols().canon(set.name));
    std::vector<RangeOp> chain;
    expander.expand(set, chain, compiled, acc, visiting);
    for (auto& [base, intervals] : acc) {
      std::sort(intervals.begin(), intervals.end(),
                [](const LengthInterval& a, const LengthInterval& b) {
                  return a.lo != b.lo ? a.lo < b.lo : a.hi < b.hi;
                });
      intervals.erase(std::unique(intervals.begin(), intervals.end()), intervals.end());
      total += intervals.size();
    }
    staged.emplace_back(std::move(compiled), std::move(acc));
  }
  interval_pool_.reserve(total);
  std::size_t i = 0;
  for (const auto& [name, set] : ir.route_sets) {
    auto& [compiled, acc] = staged[i++];
    for (const auto& [base, intervals] : acc) {
      const std::size_t offset = interval_pool_.size();
      interval_pool_.insert(interval_pool_.end(), intervals.begin(), intervals.end());
      compiled.bases.insert(base, std::span<const LengthInterval>(interval_pool_)
                                      .subspan(offset, intervals.size()));
    }
    route_sets_.emplace(intern(name), std::move(compiled));
  }
}

void CompiledPolicySnapshot::compile_filter(const ir::Filter& filter) {
  std::visit(util::overloaded{
                 [&](const ir::FilterAsPath& f) {
                   if (regexes_.contains(&f)) return;
                   CompiledAsPath compiled{aspath::CompiledRegex(f.regex),
                                           ir::uses_skipped_constructs(f.regex)};
                   regexes_.emplace(&f, std::move(compiled));
                 },
                 [&](const ir::FilterAnd& f) {
                   compile_filter(*f.left);
                   compile_filter(*f.right);
                 },
                 [&](const ir::FilterOr& f) {
                   compile_filter(*f.left);
                   compile_filter(*f.right);
                 },
                 [&](const ir::FilterNot& f) { compile_filter(*f.inner); },
                 [&](const auto&) {},
             },
             filter.node);
}

namespace {

/// Visit every filter reachable in an entry tree.
template <typename Fn>
void for_each_filter(const ir::Entry& entry, Fn&& fn) {
  std::visit(util::overloaded{
                 [&](const ir::EntryTerm& term) {
                   for (const auto& factor : term.factors) fn(factor.filter);
                 },
                 [&](const ir::EntryExcept& e) {
                   for_each_filter(*e.left, fn);
                   for_each_filter(*e.right, fn);
                 },
                 [&](const ir::EntryRefine& e) {
                   for_each_filter(*e.left, fn);
                   for_each_filter(*e.right, fn);
                 },
             },
             entry.node);
}

}  // namespace

CompiledRule CompiledPolicySnapshot::compile_rule(const ir::Rule& rule) const {
  CompiledRule out;
  out.rule = &rule;
  out.covers_v4 = rule.entry.covers_unicast(net::Family::kIpv4, rule.mp);
  out.covers_v6 = rule.entry.covers_unicast(net::Family::kIpv6, rule.mp);
  const auto* term = std::get_if<ir::EntryTerm>(&rule.entry.node);
  if (term == nullptr) return out;  // structured entry: always fully evaluated
  out.no_factors = term->factors.empty();
  for (const auto& factor : term->factors) {
    for (const auto& pa : factor.peerings) {
      const auto* spec = std::get_if<ir::PeeringSpec>(&pa.peering.node);
      const auto* asn = spec != nullptr ? std::get_if<ir::AsExprAsn>(&spec->as_expr.node)
                                        : nullptr;
      if (asn == nullptr) {
        out.no_match_asns.clear();
        return out;  // simple stays false
      }
      // Report order mirrors the interpreted item merge: factor order,
      // first occurrence wins (append() dedups).
      if (std::find(out.no_match_asns.begin(), out.no_match_asns.end(), asn->asn) ==
          out.no_match_asns.end()) {
        out.no_match_asns.push_back(asn->asn);
      }
    }
  }
  out.simple = true;
  out.peers = out.no_match_asns;
  std::sort(out.peers.begin(), out.peers.end());
  return out;
}

void CompiledPolicySnapshot::lower_policies() {
  const ir::Ir& ir = index_->ir();
  // Symbol ids are dense in intern order: as-sets, then route-sets, each in
  // IR order. The persisted closure tables key their entries by these ids.
  symbols_.reserve(ir.as_sets.size() + ir.route_sets.size());
  for (const auto& [name, set] : ir.as_sets) intern(name);
  for (const auto& [name, set] : ir.route_sets) intern(name);

  aut_nums_.reserve(ir.aut_nums.size());
  for (const auto& [asn, an] : ir.aut_nums) {
    CompiledAutNum compiled;
    compiled.an = &an;
    compiled.imports.reserve(an.imports.size());
    compiled.exports.reserve(an.exports.size());
    for (const ir::Rule& rule : an.imports) {
      compiled.imports.push_back(compile_rule(rule));
      for_each_filter(rule.entry, [&](const ir::Filter& f) { compile_filter(f); });
    }
    for (const ir::Rule& rule : an.exports) {
      compiled.exports.push_back(compile_rule(rule));
      for_each_filter(rule.entry, [&](const ir::Filter& f) { compile_filter(f); });
    }
    compiled.only_provider = only_provider_policies(*index_, *relations_, asn);
    aut_nums_.emplace(asn, std::move(compiled));
  }
  // Filter-set bodies are reached by name at evaluation time; precompile
  // their regexes too so the hot path never falls back to per-call NFA
  // construction.
  for (const auto& [name, set] : ir.filter_sets) {
    if (set.has_filter) compile_filter(set.filter);
    if (set.has_mp_filter) compile_filter(set.mp_filter);
  }
}

void CompiledPolicySnapshot::build_cones() {
  // Materialize every cone first so the pool reserves exactly once (spans
  // into a growing vector would dangle).
  const auto& aut_nums = index_->ir().aut_nums;
  std::vector<std::vector<ir::Asn>> cones;
  cones.reserve(aut_nums.size());
  std::size_t total = 0;
  for (const auto& [asn, an] : aut_nums) {
    cones.push_back(relations_->customer_cone(asn));
    total += cones.back().size();
  }
  cone_pool_.reserve(total);
  std::size_t i = 0;
  for (const auto& [asn, an] : aut_nums) {
    const std::vector<ir::Asn>& cone = cones[i++];
    const std::size_t offset = cone_pool_.size();
    cone_pool_.insert(cone_pool_.end(), cone.begin(), cone.end());
    aut_nums_.at(asn).customer_cone =
        std::span<const ir::Asn>(cone_pool_).subspan(offset, cone.size());
  }
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

const CompiledAsSet* CompiledPolicySnapshot::flattened(std::string_view name) const {
  const std::optional<SymbolId> id = symbol(name);
  if (!id) return nullptr;
  auto it = as_sets_.find(*id);
  return it == as_sets_.end() ? nullptr : &it->second;
}

bool CompiledPolicySnapshot::contains(std::string_view as_set, ir::Asn asn) const {
  const CompiledAsSet* flat = flattened(as_set);
  return flat != nullptr && flat->contains(asn);
}

bool CompiledPolicySnapshot::is_known(std::string_view as_set) const {
  return index_->is_known(as_set);
}

irr::Lookup CompiledPolicySnapshot::origin_matches(ir::Asn asn, const net::RangeOp& op,
                                                   const net::Prefix& p) const {
  if (!index_->has_routes(asn)) return irr::Lookup::kUnknown;  // zero-route AS
  bool hit = false;
  origins_.for_each_cover(p, [&](const Prefix& base, std::span<const ir::Asn> origins) {
    if (std::binary_search(origins.begin(), origins.end(), asn) &&
        net::matches_with_chain(base, op, {}, p)) {
      hit = true;
      return false;
    }
    return true;
  });
  return hit ? irr::Lookup::kMatch : irr::Lookup::kNoMatch;
}

irr::Lookup CompiledPolicySnapshot::as_set_originates(std::string_view name,
                                                      const net::RangeOp& op,
                                                      const net::Prefix& p) const {
  const CompiledAsSet* flat = flattened(name);
  if (flat == nullptr) return irr::Lookup::kUnknown;
  bool hit = false;
  origins_.for_each_cover(p, [&](const Prefix& base, std::span<const ir::Asn> origins) {
    if (net::matches_with_chain(base, op, {}, p) && intersects(origins, flat->asns)) {
      hit = true;
      return false;
    }
    return true;
  });
  if (hit) return irr::Lookup::kMatch;
  if (!flat->any_member_routes && !flat->asns.empty()) {
    return irr::Lookup::kUnknown;  // all members are zero-route ASes
  }
  return irr::Lookup::kNoMatch;
}

irr::Lookup CompiledPolicySnapshot::route_set_matches(std::string_view name,
                                                      const net::RangeOp& outer,
                                                      const net::Prefix& p) const {
  const std::optional<SymbolId> id = symbol(name);
  const CompiledRouteSet* set = nullptr;
  if (id) {
    auto it = route_sets_.find(*id);
    if (it != route_sets_.end()) set = &it->second;
  }
  if (set == nullptr) return irr::Lookup::kUnknown;
  if (set->any) return irr::Lookup::kMatch;
  const std::uint8_t family_max = p.max_length();
  bool hit = false;
  set->bases.for_each_cover(
      p, [&](const Prefix&, std::span<const LengthInterval> intervals) {
        for (const LengthInterval& iv : intervals) {
          std::optional<std::pair<std::uint8_t, std::uint8_t>> stepped{{iv.lo, iv.hi}};
          if (!outer.is_none()) stepped = net::step_interval(*stepped, outer, family_max);
          if (stepped && p.length() >= stepped->first && p.length() <= stepped->second) {
            hit = true;
            return false;
          }
        }
        return true;
      });
  if (hit) return irr::Lookup::kMatch;
  return set->unknown ? irr::Lookup::kUnknown : irr::Lookup::kNoMatch;
}

aspath::RegexMatch CompiledPolicySnapshot::match_as_path(const ir::FilterAsPath& filter,
                                                         std::span<const ir::Asn> path,
                                                         ir::Asn peer) const {
  aspath::MatchEnv env{path, peer, this};
  auto it = regexes_.find(&filter);
  aspath::RegexMatch result = it != regexes_.end() ? it->second.regex.match(env)
                                                   : aspath::match_nfa(filter.regex, env);
  if (result == aspath::RegexMatch::kUnsupported) {
    result = aspath::match_backtrack(filter.regex, env);
  }
  return result;
}

bool CompiledPolicySnapshot::as_path_skipped(const ir::FilterAsPath& filter) const {
  auto it = regexes_.find(&filter);
  return it != regexes_.end() ? it->second.skipped
                              : ir::uses_skipped_constructs(filter.regex);
}

const CompiledAutNum* CompiledPolicySnapshot::compiled_aut_num(ir::Asn asn) const {
  auto it = aut_nums_.find(asn);
  return it == aut_nums_.end() ? nullptr : &it->second;
}

std::span<const ir::Asn> CompiledPolicySnapshot::exact_origins(
    const net::Prefix& prefix) const {
  const std::span<const ir::Asn>* origins = origins_.exact(prefix);
  if (origins == nullptr) return {};
  return *origins;
}

}  // namespace rpslyzer::compile
