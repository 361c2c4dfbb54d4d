#pragma once
// Snapshot persistence: serialize a compile::CompiledPolicySnapshot into a
// relocatable arena file and restore it with one mmap, an IR decode and
// build()'s lowering pass.
//
// What the file holds: the inputs (binary IR, relationship links) and the
// closures that cost real work to derive — flattened as-set memberships,
// per-prefix origin lists, route-set length intervals, customer cones. Those
// closures are *not* copied out of the file; the restored snapshot's spans
// point straight into the read-only mapping.
//
// What "restore" derives: everything that is a pure function of the IR and
// relations — the set-name symbol table, every CompiledRule, the §5.1.2
// only-provider bits and every AS-path NFA — by running the same lowering
// step CompiledPolicySnapshot::build() runs. No RPSL parsing, no set
// flattening and no cone computation happens on the load path.
//
// Lifetime: open_snapshot() returns an aliasing shared_ptr whose control
// block owns the whole LoadedCorpus (mapping, decoded IR, index,
// relations, snapshot), so the mapping outlives every span into it for as
// long as any caller holds the snapshot.

#include <filesystem>
#include <memory>
#include <string>

#include "rpslyzer/compile/snapshot.hpp"
#include "rpslyzer/persist/arena.hpp"

namespace rpslyzer::persist {

/// Serialize `snap` and atomically publish it at `path`. Returns the file
/// size in bytes. Throws SnapshotError on I/O failure or the
/// `persist.write` failpoint. Observability: `persist.write` trace span,
/// rpslyzer_persist_write_seconds, rpslyzer_persist_snapshot_bytes.
std::uint64_t write_snapshot(const compile::CompiledPolicySnapshot& snap,
                             const std::filesystem::path& path);

/// mmap + validate + restore. `source` labels the snapshot for `!stats`
/// ("file:<path>" when empty). Throws SnapshotError for any unreadable,
/// corrupted, truncated, or version-mismatched file — callers treat that
/// as "rebuild from dumps". Observability: `persist.open` trace span,
/// rpslyzer_persist_load_seconds, rpslyzer_persist_open_failures_total.
std::shared_ptr<const compile::CompiledPolicySnapshot> open_snapshot(
    const std::filesystem::path& path, std::string source = {});

/// Validate `path` without restoring (header, checksum, section bounds).
/// Returns the build id recorded at write time; throws SnapshotError on
/// any mismatch.
std::uint64_t verify_snapshot(const std::filesystem::path& path);

/// The serialization/restoration implementation. A class (not free
/// functions) because it is the one `friend` the snapshot grants access to
/// its private tables.
class SnapshotCodec {
 public:
  /// Append every snapshot section to `writer` (header fields are the
  /// ArenaWriter's concern).
  static void write(const compile::CompiledPolicySnapshot& snap, ArenaWriter& writer);

  /// Rebuild a snapshot over `view`. `index` must wrap the ir::Ir decoded
  /// from this same view (the closure tables are checked against it), and
  /// the caller must keep `view` alive for the snapshot's lifetime.
  static std::shared_ptr<const compile::CompiledPolicySnapshot> restore(
      const ArenaView& view, std::shared_ptr<const irr::Index> index,
      std::shared_ptr<const relations::AsRelations> relations, std::string source);
};

/// Everything a restored snapshot hangs on to. Member order is the
/// destruction contract: the snapshot (whose spans point into `view`) dies
/// before the index (which references `*ir`), which dies before the IR,
/// which dies before the mapping.
struct LoadedCorpus {
  ArenaView view;
  std::unique_ptr<ir::Ir> ir;
  std::shared_ptr<const irr::Index> index;
  std::shared_ptr<const relations::AsRelations> relations;
  std::shared_ptr<const compile::CompiledPolicySnapshot> snapshot;
};

}  // namespace rpslyzer::persist
