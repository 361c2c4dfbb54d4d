#include "rpslyzer/persist/snapshot_io.hpp"

#include <chrono>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "ir_codec.hpp"
#include "rpslyzer/obs/log.hpp"
#include "rpslyzer/obs/metrics.hpp"
#include "rpslyzer/obs/trace.hpp"

namespace rpslyzer::persist {

namespace {

using compile::CompiledPolicySnapshot;

// --- metrics ---------------------------------------------------------------

obs::Histogram& write_seconds() {
  static obs::Histogram& h = obs::MetricsRegistry::global().histogram(
      "rpslyzer_persist_write_seconds", "Snapshot arena serialization + publish duration",
      obs::exponential_bounds(1e-4, 4.0, 12));
  return h;
}

obs::Histogram& load_seconds() {
  static obs::Histogram& h = obs::MetricsRegistry::global().histogram(
      "rpslyzer_persist_load_seconds", "Snapshot mmap + validate + restore duration",
      obs::exponential_bounds(1e-4, 4.0, 12));
  return h;
}

obs::Gauge& snapshot_bytes() {
  static obs::Gauge& g = obs::MetricsRegistry::global().gauge(
      "rpslyzer_persist_snapshot_bytes", "Size of the most recently written snapshot file");
  return g;
}

obs::Counter& open_failures() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "rpslyzer_persist_open_failures_total",
      "Snapshot open/restore attempts rejected (corrupt, truncated, or wrong version)");
  return c;
}

// Rethrow any SnapshotError out of a section's decode with the section name
// and file offset prepended, so "corrupt snapshot" diagnoses to a byte
// range. fn's decode may read a sibling pool section too; blame lands on
// the entry section driving the walk, which is where the offsets that
// overran the pool were read from.
template <typename Fn>
decltype(auto) with_section(const ArenaView& view, SectionId id, Fn&& fn) {
  try {
    return std::forward<Fn>(fn)();
  } catch (const SnapshotError& e) {
    throw SnapshotError(std::string("section ") + section_name(id) + " (offset " +
                        std::to_string(view.section_offset(id)) + "): " + e.what());
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// SnapshotCodec::write
// ---------------------------------------------------------------------------

void SnapshotCodec::write(const CompiledPolicySnapshot& snap, ArenaWriter& writer) {
  const ir::Ir& ir = snap.index_->ir();

  {
    ByteWriter w;
    encode_ir(w, ir);
    writer.add_section(SectionId::kIr, std::move(w));
  }

  // Relationships go down as binary link lists (not serial-1 text): the
  // loader re-adds links through the incremental API and re-declares the
  // tier-1 clique, skipping both text parsing and clique inference.
  {
    ByteWriter w;
    const relations::AsRelations& rel = *snap.relations_;
    const std::vector<relations::Asn> ases = rel.all_ases();
    std::uint32_t pc_links = 0;
    for (const relations::Asn asn : ases) {
      pc_links += static_cast<std::uint32_t>(rel.providers_of(asn).size());
    }
    w.u32(pc_links);
    for (const relations::Asn asn : ases) {
      for (const relations::Asn provider : rel.providers_of(asn)) {
        w.u32(provider);
        w.u32(asn);
      }
    }
    std::uint32_t peer_links = 0;
    for (const relations::Asn asn : ases) {
      for (const relations::Asn peer : rel.peers_of(asn)) {
        if (asn < peer) ++peer_links;
      }
    }
    w.u32(peer_links);
    for (const relations::Asn asn : ases) {
      for (const relations::Asn peer : rel.peers_of(asn)) {
        if (asn < peer) {
          w.u32(asn);
          w.u32(peer);
        }
      }
    }
    const std::vector<relations::Asn>& clique = rel.tier1();
    w.u32(static_cast<std::uint32_t>(clique.size()));
    for (const relations::Asn asn : clique) w.u32(asn);
    writer.add_section(SectionId::kRelations, std::move(w));
  }

  // as-sets: entries in symbol-id order reference a freshly packed pool
  // (span contents are written, not the build pools, so a restored snapshot
  // can itself be re-serialized).
  {
    ByteWriter pool;
    ByteWriter w;
    std::vector<std::pair<compile::SymbolId, const compile::CompiledAsSet*>> ordered;
    for (compile::SymbolId id = 0; id < snap.symbols_.size(); ++id) {
      if (auto it = snap.as_sets_.find(id); it != snap.as_sets_.end()) {
        ordered.emplace_back(id, &it->second);
      }
    }
    w.u32(static_cast<std::uint32_t>(ordered.size()));
    std::uint64_t offset = 0;
    for (const auto& [id, set] : ordered) {
      w.u32(id);
      w.u32((set->contains_any ? 1u : 0u) | (set->any_member_routes ? 2u : 0u));
      w.u64(offset);
      w.u64(set->asns.size());
      for (ir::Asn asn : set->asns) pool.u32(asn);
      offset += set->asns.size();
    }
    writer.add_section(SectionId::kAsSetPool, std::move(pool));
    writer.add_section(SectionId::kAsSets, std::move(w));
  }

  // Origin trie: entries in the trie's deterministic traversal order.
  {
    ByteWriter pool;
    ByteWriter w;
    std::uint64_t count = 0;
    std::uint64_t offset = 0;
    ByteWriter entries;
    snap.origins_.for_each([&](const net::Prefix& prefix, std::span<const ir::Asn> origins) {
      encode_prefix(entries, prefix);
      entries.u64(offset);
      entries.u64(origins.size());
      for (ir::Asn asn : origins) pool.u32(asn);
      offset += origins.size();
      ++count;
    });
    w.u64(count);
    w.bytes(entries.view());
    writer.add_section(SectionId::kOriginPool, std::move(pool));
    writer.add_section(SectionId::kOrigins, std::move(w));
  }

  // Route-sets: per-symbol entries, each base trie flattened in traversal
  // order with its interval run referenced by pool offset.
  {
    ByteWriter pool;
    ByteWriter w;
    std::vector<std::pair<compile::SymbolId, const compile::CompiledRouteSet*>> ordered;
    for (compile::SymbolId id = 0; id < snap.symbols_.size(); ++id) {
      if (auto it = snap.route_sets_.find(id); it != snap.route_sets_.end()) {
        ordered.emplace_back(id, &it->second);
      }
    }
    w.u32(static_cast<std::uint32_t>(ordered.size()));
    std::uint64_t offset = 0;
    for (const auto& [id, set] : ordered) {
      w.u32(id);
      w.u32((set->any ? 1u : 0u) | (set->unknown ? 2u : 0u));
      w.u64(set->bases.size());
      set->bases.for_each(
          [&](const net::Prefix& base, std::span<const compile::LengthInterval> intervals) {
            encode_prefix(w, base);
            w.u64(offset);
            w.u64(intervals.size());
            for (const compile::LengthInterval& iv : intervals) {
              pool.u8(iv.lo);
              pool.u8(iv.hi);
            }
            offset += intervals.size();
          });
    }
    writer.add_section(SectionId::kIntervalPool, std::move(pool));
    writer.add_section(SectionId::kRouteSets, std::move(w));
  }

  // Customer cones, aut-nums ascending. Rules and only-provider bits are
  // not stored: restore re-derives them from the IR.
  {
    ByteWriter pool;
    ByteWriter w;
    w.u32(static_cast<std::uint32_t>(ir.aut_nums.size()));
    std::uint64_t offset = 0;
    for (const auto& [asn, an] : ir.aut_nums) {
      auto it = snap.aut_nums_.find(asn);
      if (it == snap.aut_nums_.end()) {
        throw SnapshotError("snapshot writer: aut-num missing from compiled tables");
      }
      const std::span<const ir::Asn> cone = it->second.customer_cone;
      w.u32(asn);
      w.u64(offset);
      w.u64(cone.size());
      for (ir::Asn member : cone) pool.u32(member);
      offset += cone.size();
    }
    writer.add_section(SectionId::kConePool, std::move(pool));
    writer.add_section(SectionId::kAutNums, std::move(w));
  }
}

// ---------------------------------------------------------------------------
// SnapshotCodec::restore
// ---------------------------------------------------------------------------

std::shared_ptr<const CompiledPolicySnapshot> SnapshotCodec::restore(
    const ArenaView& view, std::shared_ptr<const irr::Index> index,
    std::shared_ptr<const relations::AsRelations> relations, std::string source) {
  std::shared_ptr<CompiledPolicySnapshot> snap(new CompiledPolicySnapshot());
  snap->index_ = std::move(index);
  snap->relations_ = std::move(relations);
  snap->build_id_ = view.build_id();
  snap->source_ = std::move(source);
  const ir::Ir& ir = snap->index_->ir();

  // Everything that is a pure function of the IR and relations comes from
  // build()'s own lowering step; the file supplies only the closures below,
  // keyed by the symbol ids that step assigns.
  snap->lower_policies();
  const auto names_set_in = [&](compile::SymbolId id, const auto& sets) {
    return id < snap->symbols_.size() && sets.contains(snap->symbols_.view({id}));
  };

  with_section(view, SectionId::kAsSets, [&] {
    std::span<const ir::Asn> pool = view.pool<ir::Asn>(SectionId::kAsSetPool);
    ByteReader r(view.section(SectionId::kAsSets));
    const std::uint32_t count = r.u32();
    snap->as_sets_.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      const compile::SymbolId id = r.u32();
      const std::uint32_t flags = r.u32();
      const std::uint64_t off = r.u64();
      const std::uint64_t n = r.u64();
      if (!names_set_in(id, ir.as_sets)) {
        throw SnapshotError("snapshot as-set entry names no as-set of its IR");
      }
      if (off > pool.size() || n > pool.size() - off) {
        throw SnapshotError("snapshot as-set entry out of bounds");
      }
      compile::CompiledAsSet set;
      set.asns = pool.subspan(off, n);
      set.contains_any = (flags & 1u) != 0;
      set.any_member_routes = (flags & 2u) != 0;
      snap->as_sets_.emplace(id, set);
    }
  });

  with_section(view, SectionId::kOrigins, [&] {
    std::span<const ir::Asn> pool = view.pool<ir::Asn>(SectionId::kOriginPool);
    ByteReader r(view.section(SectionId::kOrigins));
    const std::uint64_t count = r.u64();
    for (std::uint64_t i = 0; i < count; ++i) {
      const net::Prefix prefix = decode_prefix(r);
      const std::uint64_t off = r.u64();
      const std::uint64_t n = r.u64();
      if (off > pool.size() || n > pool.size() - off) {
        throw SnapshotError("snapshot origin entry out of bounds");
      }
      snap->origins_.insert(prefix, pool.subspan(off, n));
    }
  });

  with_section(view, SectionId::kRouteSets, [&] {
    std::span<const compile::LengthInterval> pool =
        view.pool<compile::LengthInterval>(SectionId::kIntervalPool);
    ByteReader r(view.section(SectionId::kRouteSets));
    const std::uint32_t count = r.u32();
    snap->route_sets_.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      const compile::SymbolId id = r.u32();
      const std::uint32_t flags = r.u32();
      const std::uint64_t bases = r.u64();
      if (!names_set_in(id, ir.route_sets)) {
        throw SnapshotError("snapshot route-set entry names no route-set of its IR");
      }
      compile::CompiledRouteSet set;
      set.any = (flags & 1u) != 0;
      set.unknown = (flags & 2u) != 0;
      for (std::uint64_t b = 0; b < bases; ++b) {
        const net::Prefix base = decode_prefix(r);
        const std::uint64_t off = r.u64();
        const std::uint64_t n = r.u64();
        if (off > pool.size() || n > pool.size() - off) {
          throw SnapshotError("snapshot route-set interval run out of bounds");
        }
        set.bases.insert(base, pool.subspan(off, n));
      }
      snap->route_sets_.emplace(id, std::move(set));
    }
  });

  with_section(view, SectionId::kAutNums, [&] {
    std::span<const ir::Asn> pool = view.pool<ir::Asn>(SectionId::kConePool);
    ByteReader r(view.section(SectionId::kAutNums));
    // Strictly ascending ASNs, each an aut-num of the IR, as many as the IR
    // holds: one cone per aut-num, none omitted and none invented.
    const std::uint32_t count = r.u32();
    if (count != snap->aut_nums_.size()) {
      throw SnapshotError("snapshot cone table has " + std::to_string(count) +
                          " entries for " + std::to_string(snap->aut_nums_.size()) +
                          " aut-nums in its IR");
    }
    std::optional<ir::Asn> previous;
    for (std::uint32_t i = 0; i < count; ++i) {
      const ir::Asn asn = r.u32();
      const std::uint64_t off = r.u64();
      const std::uint64_t n = r.u64();
      auto it = snap->aut_nums_.find(asn);
      if (it == snap->aut_nums_.end()) {
        throw SnapshotError("snapshot cone table names an AS absent from its IR");
      }
      if (previous && asn <= *previous) {
        throw SnapshotError("snapshot cone table is not strictly ascending");
      }
      previous = asn;
      if (off > pool.size() || n > pool.size() - off) {
        throw SnapshotError("snapshot customer cone out of bounds");
      }
      it->second.customer_cone = pool.subspan(off, n);
    }
  });

  snap->trie_nodes_ = snap->origins_.node_count();
  for (const auto& [id, set] : snap->route_sets_) {
    snap->trie_nodes_ += set.bases.node_count();
  }
  return snap;
}

// ---------------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------------

std::uint64_t write_snapshot(const CompiledPolicySnapshot& snap,
                             const std::filesystem::path& path) {
  obs::Span span("persist.write");
  const auto start = std::chrono::steady_clock::now();
  ArenaWriter writer;
  SnapshotCodec::write(snap, writer);
  const std::uint64_t bytes = writer.write(path, snap.build_id());
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  write_seconds().observe(elapsed.count());
  snapshot_bytes().set(static_cast<std::int64_t>(bytes));
  obs::log_info("persist", "snapshot written",
                {{"path", path.string()},
                 {"bytes", bytes},
                 {"build_id", snap.build_id()},
                 {"seconds", elapsed.count()}});
  return bytes;
}

std::shared_ptr<const CompiledPolicySnapshot> open_snapshot(const std::filesystem::path& path,
                                                            std::string source) {
  obs::Span span("persist.open");
  const auto start = std::chrono::steady_clock::now();
  if (source.empty()) source = "file:" + path.string();
  try {
    auto corpus = std::make_shared<LoadedCorpus>();
    {
      obs::Span map_span("persist.open.map");
      corpus->view = ArenaView::open(path);
    }
    with_section(corpus->view, SectionId::kIr, [&] {
      obs::Span ir_span("persist.open.ir");
      ByteReader r(corpus->view.section(SectionId::kIr));
      corpus->ir = std::make_unique<ir::Ir>(decode_ir(r));
      if (!r.at_end()) throw SnapshotError("snapshot IR section has trailing bytes");
    });
    {
      obs::Span index_span("persist.open.index");
      corpus->index = std::make_shared<irr::Index>(*corpus->ir);
    }
    with_section(corpus->view, SectionId::kRelations, [&] {
      obs::Span relations_span("persist.open.relations");
      ByteReader r(corpus->view.section(SectionId::kRelations));
      auto relations = std::make_shared<relations::AsRelations>();
      const std::uint32_t pc_count = r.u32();
      // Link count bounds the AS count; pre-sizing skips incremental rehashes.
      relations->reserve(pc_count);
      for (std::uint32_t n = pc_count; n > 0; --n) {
        const relations::Asn provider = r.u32();
        const relations::Asn customer = r.u32();
        relations->add_provider_customer(provider, customer);
      }
      for (std::uint32_t n = r.u32(); n > 0; --n) {
        const relations::Asn a = r.u32();
        const relations::Asn b = r.u32();
        relations->add_peer_peer(a, b);
      }
      const std::uint32_t clique_size = r.u32();
      std::vector<relations::Asn> clique;
      clique.reserve(clique_size);
      for (std::uint32_t i = 0; i < clique_size; ++i) clique.push_back(r.u32());
      relations->set_clique(std::move(clique));
      if (!r.at_end()) throw SnapshotError("snapshot relations section has trailing bytes");
      relations->tier1();  // force the lazy memo while single-threaded
      corpus->relations = std::move(relations);
    });
    {
      obs::Span restore_span("persist.open.restore");
      corpus->snapshot =
          SnapshotCodec::restore(corpus->view, corpus->index, corpus->relations, source);
    }
    const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
    load_seconds().observe(elapsed.count());
    obs::log_info("persist", "snapshot loaded",
                  {{"path", path.string()},
                   {"source", corpus->snapshot->source()},
                   {"build_id", corpus->snapshot->build_id()},
                   {"seconds", elapsed.count()}});
    const CompiledPolicySnapshot* raw = corpus->snapshot.get();
    return std::shared_ptr<const CompiledPolicySnapshot>(std::move(corpus), raw);
  } catch (const SnapshotError& e) {
    open_failures().inc();
    obs::log_warn("persist", "snapshot rejected",
                  {{"path", path.string()}, {"error", e.what()}});
    throw;
  }
}

std::uint64_t verify_snapshot(const std::filesystem::path& path) {
  const ArenaView view = ArenaView::open(path);
  return view.build_id();
}

}  // namespace rpslyzer::persist
