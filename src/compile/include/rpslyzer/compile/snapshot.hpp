#pragma once
// The compiled policy snapshot: a one-shot, immutable lowering of an
// irr::Index + relations::AsRelations into flat match structures, shared
// by the verifier, the query engine, and the server's generation swap.
//
// The interpreted path re-walks aut-num entry trees, lazily flattens
// as-sets under const (a latent data race when an un-prewarmed Index is
// shared), recompiles every AS-path regex per route, and re-derives
// customer cones and only-provider bits in per-Verifier caches. The
// snapshot does each of those exactly once at build time:
//
//  * set names interned into a symbol table; as-set membership flattened
//    (cycle-safe, via the Index's own resolution) into sorted ASN vectors;
//  * route objects loaded into a per-family binary prefix trie keyed by
//    base prefix, each node carrying its sorted origin ASNs;
//  * route-sets pre-expanded (cycle-safe) into a trie of base prefixes with
//    the stacked range-op length intervals pre-composed, leaving only the
//    query-time outer operator to apply;
//  * per-AS import/export rules lowered into flat CompiledRule arrays with
//    plain-ASN peer classes resolved for an O(log n) fast reject;
//  * AS-path regexes pre-lowered to the src/aspath predicate NFA;
//  * customer cones and the §5.1.2 only-provider bit computed per aut-num.
//
// build() is the only compile path: the initial load, every reload and
// every delta journal batch lower the whole corpus from scratch. The
// persistence codec restores a written snapshot by running build()'s own
// lowering step (symbols, rules, only-provider bits, AS-path NFAs) over the
// decoded IR and reading only the costly closures (flattened as-sets,
// origin lists, route-set intervals, customer cones) from the file.
// Everything is const after build(); a shared_ptr<const
// CompiledPolicySnapshot> is safely shared across any number of threads
// with no prewarm dance. The behaviour contract — enforced by
// tests/compile_snapshot_test.cpp — is that verification verdicts are
// identical to the interpreted path, item for item.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "rpslyzer/aspath/engine.hpp"
#include "rpslyzer/irr/index.hpp"
#include "rpslyzer/net/prefix_trie.hpp"
#include "rpslyzer/relations/relations.hpp"
#include "rpslyzer/util/interner.hpp"

namespace rpslyzer::persist {
class SnapshotCodec;
}  // namespace rpslyzer::persist

namespace rpslyzer::compile {

using SymbolId = std::uint32_t;

/// A pre-flattened as-set (the compiled analogue of irr::FlattenedAsSet).
/// The member array is a span so the same struct serves both backings: an
/// in-process build points into the snapshot's ASN pools, an mmap-loaded
/// snapshot points straight into the read-only file mapping (zero copy).
struct CompiledAsSet {
  std::span<const ir::Asn> asns;  // sorted, unique
  bool contains_any = false;      // the erroneous ANY member appears
  /// Some member ASN originates at least one route object — precomputed so
  /// the all-zero-route Unknown case needs no per-query member loop.
  bool any_member_routes = false;

  bool contains(ir::Asn asn) const noexcept {
    auto it = std::lower_bound(asns.begin(), asns.end(), asn);
    return it != asns.end() && *it == asn;
  }
};

/// One pre-composed prefix-length selection: the fold of a member's own
/// range operator and every set-reference operator on the path down to it,
/// with only the query-time outer operator left to apply.
struct LengthInterval {
  std::uint8_t lo = 0;
  std::uint8_t hi = 0;

  friend bool operator==(const LengthInterval&, const LengthInterval&) = default;
};

/// A route-set pre-expanded to its base prefixes. Cycle back-edges are cut
/// (they contribute nothing new); missing referenced objects set `unknown`,
/// which is prefix-independent and therefore a build-time bit.
struct CompiledRouteSet {
  bool any = false;      // a reachable ANY member: every prefix matches
  bool unknown = false;  // some expansion path hit missing information
  net::PrefixTrie<std::span<const LengthInterval>> bases;
};

/// One import/export rule lowered for the hot loop. `rule` stays the source
/// of truth for full evaluation; the flat fields exist for the fast reject
/// of the overwhelmingly common "peering is a plain ASN list that does not
/// name this peer" case, which skips the whole entry-tree walk.
struct CompiledRule {
  const ir::Rule* rule = nullptr;
  bool covers_v4 = false;  // entry.covers_unicast(v4, mp), checked first
  bool covers_v6 = false;
  /// Top-level EntryTerm whose every peering is a plain-ASN PeeringSpec.
  /// Only then is the reject sound: structured entries and set peerings can
  /// produce other outcome classes or cross-factor item merges.
  bool simple = false;
  bool no_factors = false;             // empty term: NotApplicable, no items
  std::vector<ir::Asn> peers;          // sorted unique peer class
  std::vector<ir::Asn> no_match_asns;  // report order (factor order, deduped)
};

struct CompiledAutNum {
  const ir::AutNum* an = nullptr;
  std::vector<CompiledRule> imports;
  std::vector<CompiledRule> exports;
  std::span<const ir::Asn> customer_cone;  // sorted; export-self relaxation
  bool only_provider = false;              // §5.1.2 only-provider-policies bit
};

/// Does `asn` only specify rules for its providers (§5.1.2)? The canonical
/// definition shared by the snapshot build and the interpreted Verifier so
/// the two paths cannot drift: a transit AS (nonempty customer set) with an
/// aut-num whose every import/export peering is a plain ASN, at least one
/// such remote, and every remote a provider of `asn`.
bool only_provider_policies(const irr::Index& index,
                            const relations::AsRelations& relations, ir::Asn asn);

class CompiledPolicySnapshot : public aspath::AsSetMembership {
 public:
  /// Build a snapshot. Forces index->prewarm() and relations->tier1() so
  /// every lazily-memoized structure is materialized before sharing; the
  /// returned object performs no mutation after this returns. Honors the
  /// `compile.build` failpoint (error kind throws std::runtime_error, which
  /// the server's reload path quarantines to the last good generation).
  static std::shared_ptr<const CompiledPolicySnapshot> build(
      std::shared_ptr<const irr::Index> index,
      std::shared_ptr<const relations::AsRelations> relations);

  const irr::Index& index() const noexcept { return *index_; }
  const relations::AsRelations& relations() const noexcept { return *relations_; }

  /// Monotone process-wide id for in-process builds; a snapshot restored
  /// from an arena file reports the id recorded at write time instead.
  std::uint64_t build_id() const noexcept { return build_id_; }
  std::size_t interned_symbols() const noexcept { return symbols_.size(); }
  /// Allocated nodes across the origin trie and every route-set trie.
  std::size_t trie_nodes() const noexcept { return trie_nodes_; }
  /// AS-path regexes lowered to an NFA (aut-num rules and filter-sets).
  std::size_t compiled_regexes() const noexcept { return regexes_.size(); }
  /// Where this snapshot came from: "memory" for in-process builds,
  /// "file:<path>" / "cache:<key>" when restored from an arena file by the
  /// persistence layer. Surfaced through the server's `!stats`.
  const std::string& source() const noexcept { return source_; }

  // --- the verifier's corpus surface (mirrors the interpreted Index) ---
  /// nullptr when the as-set is not defined.
  const CompiledAsSet* flattened(std::string_view name) const;
  const ir::PeeringSet* peering_set(std::string_view name) const {
    return index_->peering_set(name);
  }
  const ir::FilterSet* filter_set(std::string_view name) const {
    return index_->filter_set(name);
  }

  // aspath::AsSetMembership (backed by the compiled tables, so regex
  // matching never touches the Index's lazy memo):
  bool contains(std::string_view as_set, ir::Asn asn) const override;
  bool is_known(std::string_view as_set) const override;

  irr::Lookup origin_matches(ir::Asn asn, const net::RangeOp& op,
                             const net::Prefix& p) const;
  irr::Lookup as_set_originates(std::string_view name, const net::RangeOp& op,
                                const net::Prefix& p) const;
  irr::Lookup route_set_matches(std::string_view name, const net::RangeOp& outer,
                                const net::Prefix& p) const;

  /// AS-path filter match through the precompiled NFA (falling back to the
  /// backtracking engine for unsupported constructs), with this snapshot as
  /// the set-membership oracle.
  aspath::RegexMatch match_as_path(const ir::FilterAsPath& filter,
                                   std::span<const ir::Asn> path, ir::Asn peer) const;
  /// Precomputed ir::uses_skipped_constructs for the paper-faithful skips.
  bool as_path_skipped(const ir::FilterAsPath& filter) const;

  /// nullptr when no aut-num object exists for `asn`.
  const CompiledAutNum* compiled_aut_num(ir::Asn asn) const;

  /// Origin ASNs with a route object exactly at `prefix` (sorted); empty
  /// span when none. Drives the export-self relaxation without a cone loop.
  std::span<const ir::Asn> exact_origins(const net::Prefix& prefix) const;

 private:
  /// The persistence codec serializes the closure tables into an arena
  /// file and restores them (spans pointing into the mapping) around a
  /// lower_policies() pass; it is the only writer besides build() itself.
  friend class rpslyzer::persist::SnapshotCodec;

  struct CompiledAsPath {
    aspath::CompiledRegex regex;
    bool skipped = false;  // ir::uses_skipped_constructs(filter.regex)
  };

  CompiledPolicySnapshot() = default;

  SymbolId intern(std::string_view name);
  std::optional<SymbolId> symbol(std::string_view name) const;
  /// The pure functions of the IR and relations, shared by build() and
  /// the codec's restore: intern every set name, lower each aut-num's rules
  /// and AS-path regexes, set its only-provider bit, and compile the
  /// filter-set regexes. Leaves customer cones empty.
  void lower_policies();
  void build_as_sets();
  void build_origin_trie();
  void build_route_sets();
  void build_cones();
  void compile_filter(const ir::Filter& filter);
  CompiledRule compile_rule(const ir::Rule& rule) const;

  std::shared_ptr<const irr::Index> index_;
  std::shared_ptr<const relations::AsRelations> relations_;
  std::uint64_t build_id_ = 0;
  std::size_t trie_nodes_ = 0;
  std::string source_ = "memory";

  // Interned set names: fold-mode flat table (one id per case-insensitive
  // class, first-seen spelling kept, ids dense from 0 in intern order:
  // as-sets, then route-sets, each in IR order). The persisted as-set and
  // route-set tables key their entries by these ids.
  util::SymbolTable symbols_{util::SymbolTable::Mode::kCaseFold};

  std::unordered_map<SymbolId, CompiledAsSet> as_sets_;
  std::unordered_map<SymbolId, CompiledRouteSet> route_sets_;

  // Route objects: base prefix -> sorted unique origin ASNs.
  net::PrefixTrie<std::span<const ir::Asn>> origins_;

  std::unordered_map<const ir::FilterAsPath*, CompiledAsPath> regexes_;
  std::unordered_map<ir::Asn, CompiledAutNum> aut_nums_;

  // Backing storage for every span above when the snapshot is built in
  // process. Each pool is reserved to its exact final size before the first
  // span into it is taken (vector growth would invalidate them); an
  // mmap-restored snapshot leaves the pools empty and points the spans into
  // the file mapping instead, whose lifetime the persistence layer ties to
  // this object via an aliasing shared_ptr.
  std::vector<ir::Asn> as_set_pool_;
  std::vector<ir::Asn> origin_pool_;
  std::vector<ir::Asn> cone_pool_;
  std::vector<LengthInterval> interval_pool_;
};

}  // namespace rpslyzer::compile
