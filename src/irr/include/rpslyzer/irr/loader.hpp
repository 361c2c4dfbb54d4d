#pragma once
// IRR dump loading and multi-IRR merging.
//
// The paper parses 13 IRRs and resolves conflicts by priority: authoritative
// regional/national registries first, then RADB, then other databases,
// ordered by size within each group (§4, Table 1). Loading here takes an
// ordered source list; the first definition of an object key wins.
//
// Real dumps are dirty in more ways than bad syntax: a mirror can be
// missing, a transfer can die mid-file, a corrupt dump can present one
// endless pseudo-object. Loading therefore tracks a per-source *outcome* —
// ok / degraded (unavailable, skipped) / quarantined (present but failed
// integrity checks mid-load) — and keeps going, mirroring the paper's
// missing-dump tolerance (§4): one bad registry never takes down the other
// twelve. Failpoint sites ("irr.open", "irr.read", "irr.parse", "irr.shard",
// "irr.merge"; see util/failpoint.hpp) make every failure deterministic to
// test.

#include <filesystem>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "rpslyzer/ir/objects.hpp"
#include "rpslyzer/util/diagnostics.hpp"

namespace rpslyzer::irr {

/// One IRR dump: a name (e.g. "RIPE") and where its RPSL text lives.
struct IrrSource {
  std::string name;
  std::filesystem::path path;
};

/// Per-IRR census used for Table 1.
struct IrrCounts {
  std::string name;
  std::size_t bytes = 0;
  std::size_t objects = 0;       // raw objects lexed (any class)
  std::size_t aut_nums = 0;
  std::size_t routes = 0;        // route + route6
  std::size_t imports = 0;       // import + mp-import attributes
  std::size_t exports = 0;       // export + mp-export attributes
  std::size_t as_sets = 0;
  std::size_t route_sets = 0;
  std::size_t peering_sets = 0;
  std::size_t filter_sets = 0;
};

/// How loading one source ended.
enum class SourceStatus : std::uint8_t {
  kOk,           // parsed and merged completely
  kDegraded,     // dump unavailable; skipped with a warning (paper §4)
  kQuarantined,  // dump present but failed mid-load; none of it was merged
};

struct SourceOutcome {
  std::string name;
  SourceStatus status = SourceStatus::kOk;
  std::string detail;  // human-readable reason for degraded/quarantined
};

const char* to_string(SourceStatus s) noexcept;

/// Knobs for integrity checks and parallelism during loading.
struct LoadOptions {
  /// A single raw object larger than this is treated as dump corruption
  /// (e.g. lost blank-line separators) and quarantines the source.
  /// 0 disables the guard.
  std::size_t max_object_bytes = 8u << 20;

  /// Worker threads for the ingestion pipeline: sources are read
  /// concurrently and each dump is lexed/parsed as kShardBytes shards
  /// across the pool. 0 = hardware_concurrency; 1 is a pool of one. The
  /// result is byte-identical at every thread count.
  unsigned threads = 0;
};

struct LoadResult {
  ir::Ir ir;                      // merged, priority-resolved corpus
  std::vector<IrrCounts> counts;  // per source, in priority order
  std::vector<SourceOutcome> outcomes;  // per source, in priority order
  util::Diagnostics diagnostics;
  std::size_t raw_route_objects = 0;  // before (prefix, origin) dedup

  std::size_t count_with(SourceStatus status) const noexcept;
  const SourceOutcome* outcome(std::string_view name) const noexcept;
};

/// Route objects dedup on (prefix, origin) across IRRs; this is the key set
/// load_irrs maintains incrementally and merge_into can share.
using RouteKeySet = std::set<std::pair<net::Prefix, ir::Asn>>;

/// Shard size for within-dump parse parallelism. Shards are cut only at
/// true object boundaries, so an object larger than this becomes one
/// oversized shard rather than being split.
inline constexpr std::size_t kShardBytes = 1u << 20;

/// Parse one dump text into a fresh Ir. `counts` may be null. The
/// "irr.parse" failpoint is evaluated once, on the calling thread.
/// `threads` <= 1 parses the whole text as one shard (0 =
/// hardware_concurrency); more cuts it into blank-line-separated shards
/// of ~`shard_bytes` that lex/parse on a pool and merge in shard order —
/// maps first-wins, routes concatenated undeduplicated — so the returned
/// Ir, `diagnostics` (line numbers included), and `counts` equal the
/// single-shard result. A shard worker exception (including the
/// "irr.shard" failpoint) is rethrown after the completed shard prefix's
/// diagnostics are merged. `shard_bytes` exists for tests; loading always
/// uses kShardBytes.
ir::Ir parse_dump(std::string_view text, std::string_view source,
                  util::Diagnostics& diagnostics, IrrCounts* counts = nullptr,
                  unsigned threads = 1, std::size_t shard_bytes = kShardBytes);

/// Merge `src` into `dst` with first-wins priority (dst's existing objects
/// are kept). Route objects are deduplicated by (prefix, origin). When
/// `seen` is given it must already cover dst's routes; it is updated in
/// place, letting repeated merges (load_irrs) skip the per-call rebuild.
void merge_into(ir::Ir& dst, ir::Ir&& src, RouteKeySet* seen = nullptr);

/// Load and merge dump files in priority order. Unavailable files degrade
/// (warning, skipped); files failing mid-read, integrity guards, or parser
/// exceptions are quarantined (error, nothing merged). Either way the
/// remaining sources still load.
///
/// One pipeline at every thread count (options.threads == 1 is a pool of
/// one). Phase A reads every file on the pool and does I/O only. Phase B
/// walks the sources in priority order on the calling thread and owns
/// every verdict and every failpoint evaluation: "irr.open", "irr.read",
/// the max_object_bytes guard, "irr.parse", and "irr.merge". Each ready
/// dump parses as kShardBytes shards on the pool and merges into the
/// corpus. So outcomes, counts, diagnostics, and the merged corpus are
/// byte-identical at every thread count, and a counted failpoint budget
/// ("1*error") is spent on sources in priority order, never on whichever
/// reader wins. A fault in one shard quarantines only that source.
LoadResult load_irrs(const std::vector<IrrSource>& sources,
                     const LoadOptions& options = {});

/// Phase B of load_irrs over in-memory dumps (name, text), in the given
/// (priority) order: the same byte guard, parse, merge, and
/// quarantine-on-exception per source, with the object-size detail naming
/// the source instead of a path.
LoadResult load_texts(const std::vector<std::pair<std::string, std::string>>& dumps,
                      const LoadOptions& options = {});

/// The paper's 13 IRRs in priority order (Table 1): names only; callers
/// supply the directory holding "<name>.db" files.
std::vector<IrrSource> table1_sources(const std::filesystem::path& directory);

}  // namespace rpslyzer::irr
