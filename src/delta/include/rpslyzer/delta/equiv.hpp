#pragma once
// Differential-equivalence engine: prove two compiled snapshots of the same
// corpus byte-identical on every observable surface.
//
// The delta pipeline's correctness contract is byte equality with a
// from-scratch load of the same corpus — not "semantically close". This
// module derives a deterministic probe set from the corpus itself (every
// as-set/route-set's member and prefix expansions, every aut-num's origin
// queries and rule summary, Appendix-C verification reports over sampled
// routes), evaluates it against both snapshots, and compares responses
// byte for byte. The probe count adapts to corpus size up to per-class
// caps; an FNV-1a digest over all responses gives soak scripts a
// one-number comparison surface.

#include <cstdint>
#include <memory>
#include <string>

#include "rpslyzer/compile/snapshot.hpp"

namespace rpslyzer::delta {

struct EquivalenceOptions {
  std::size_t max_sets = 250;    // as-sets + route-sets probed (each)
  std::size_t max_asns = 250;    // aut-nums probed
  std::size_t max_routes = 250;  // routes probed with verification reports
  bool include_reports = true;   // Appendix-C reports (the expensive part)
};

struct EquivalenceResult {
  bool equal = true;
  std::size_t probes = 0;
  std::size_t mismatches = 0;
  std::uint64_t digest_left = 0;
  std::uint64_t digest_right = 0;
  std::string first_mismatch;  // probe + response excerpts, empty when equal
};

/// Evaluate the corpus-derived probe set against both snapshots and compare
/// every response byte for byte. Probe selection reads sorted object keys
/// only, so it is independent of internal container order — the two
/// snapshots may come from differently-ordered loads of the same corpus.
EquivalenceResult compare_snapshots(
    std::shared_ptr<const compile::CompiledPolicySnapshot> left,
    std::shared_ptr<const compile::CompiledPolicySnapshot> right,
    const EquivalenceOptions& options = {});

/// Digest of one snapshot's responses to its own probe set (for logging /
/// cross-process comparison in soak scripts).
std::uint64_t snapshot_digest(
    std::shared_ptr<const compile::CompiledPolicySnapshot> snapshot,
    const EquivalenceOptions& options = {});

}  // namespace rpslyzer::delta
