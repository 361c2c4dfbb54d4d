#!/usr/bin/env bash
# Build with -DRPSLYZER_SANITIZE=ON (ASan + UBSan) and run the fault/server
# test set (ctest label "fault", which includes the telemetry suite
# obs_test) plus the snapshot persistence suite (label "persist"): any data
# race turned heap error, leaked connection buffer, leaked socket-owning
# object, or out-of-bounds read off a truncated mmap fails the run. The same set is then re-run
# under a matrix of RPSLYZER_FAILPOINTS environments so the injected error,
# delay, and truncate paths are sanitizer-clean too. A stress step then
# repeats the fault/parallel/repl/delta labels up to 20 times each under
# full parallelism. Finally, when the toolchain has a working TSan runtime,
# the concurrency suites (telemetry and flight recorder, server loop,
# loaders, snapshot sharing, replication, delta) are re-run under
# ThreadSanitizer in a second side build, all in parallel on every core.
# Uses side build directories so the normal build stays fast.
#
#   scripts/sanitize_check.sh [build-dir]
set -euo pipefail
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build-sanitize}"

# Any UBSan report aborts the process with a stack trace, so the test that
# triggered it fails (the build also compiles with
# -fno-sanitize-recover=undefined). ctest hides the output of passing
# tests, so a report that merely printed would go unseen.
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"

# Cheap static gate first: every metric family minted in src/ must be in
# DESIGN.md's metrics table before we spend minutes on sanitizer builds.
"$ROOT/scripts/check_metrics_docs.sh"

cmake -B "$BUILD" -S "$ROOT" -DRPSLYZER_SANITIZE=ON >/dev/null
cmake --build "$BUILD" -j --target \
  server_test query_test irr_index_test fault_injection_test loader_files_test obs_test \
  parallel_loader_test shard_fuzz_test compile_snapshot_test parallel_verify_test \
  persist_test repl_test delta_test delta_fuzz_test arena_interner_test rand_test \
  rpslyzer_cli

run_labeled() {
  local spec="$1" exclude="${2:-}" labels="${3:-fault}"
  echo "== RPSLYZER_FAILPOINTS='${spec}' labels='${labels}' =="
  (cd "$BUILD" && RPSLYZER_FAILPOINTS="$spec" \
     ctest -L "$labels" ${exclude:+-E "$exclude"} --output-on-failure -j4)
}

# Baseline (fault plus the mmap/decode-heavy persist suite — the snapshot
# loader's pointer fixups and bounds checks are exactly what ASan/UBSan
# police — plus the replication suite, whose torn-transfer and digest-
# mismatch failpoint paths juggle partial files and raw byte buffers
# across the edge agent thread), then each action kind. Error actions are limited to sites whose
# callers degrade gracefully (cache bypass); tests that assert exact cache
# hit counts are excluded from that entry since bypassing the cache is its
# intended observable effect. The loader/server error paths are driven
# programmatically by fault_injection_test, where the test controls the
# blast radius.
run_labeled "" "" "fault|persist|repl|delta|parallel"
run_labeled "server.send=delay(2ms);server.dispatch=delay(1ms)"
run_labeled "cache.get=error;cache.put=error" 'Server\.|ResponseCache'
run_labeled "irr.parse=truncate(65536)"

# 100-batch differential-equivalence soak (journal apply vs a from-scratch
# load of the store's dump texts, byte-compared after every batch) against
# the sanitized CLI — the delta acceptance bar requires the byte-identity
# proof to hold under ASan/UBSan, not just in the fast build.
"$ROOT/scripts/delta_equiv_check.sh" "$BUILD/tools/rpslyzer"

# Leak + footprint gate: a synthetic load+verify run of the sanitized CLI
# under LeakSanitizer must report zero definite leaks and stay under the
# peak-RSS ceiling (the arena/interner refactor trades copies for pooled
# storage; this is the check that the pools do not merely hide growth).
"$ROOT/scripts/alloc_check.sh" "$BUILD/tools/rpslyzer"

# Stress step: a flake is a bug, and most only show when the suites compete
# for every core. Each test in the concurrency-heavy labels runs up to 20
# times under full parallelism and the first failure fails the check — no
# retries.
echo "== stress: ctest --repeat until-fail:20 =="
(cd "$BUILD" && ctest -j"$(nproc)" --repeat until-fail:20 -L 'fault|parallel|repl|delta' \
   --output-on-failure)

# TSan pass (if the toolchain supports it): the metrics registry, log gate,
# and span recording all lean on relaxed atomics, the sharded ingestion
# pipeline merges per-shard results across a worker pool, and parallel
# verification shares one immutable CompiledPolicySnapshot (and one const
# Verifier) across every worker, so a race-detector run of obs_test's
# multi-threaded tests, the server loop, the parallel loader differential
# suite, and the snapshot-sharing verify tests is the strongest check that
# "lock-cheap" (and "lock-free-by-immutability") did not become "racy".
TSAN_BUILD="${BUILD}-tsan"
tsan_probe="$(mktemp -d)"
printf 'int main(){return 0;}\n' > "$tsan_probe/probe.c"
if cc -fsanitize=thread "$tsan_probe/probe.c" -o "$tsan_probe/probe" 2>/dev/null \
   && "$tsan_probe/probe" 2>/dev/null; then
  echo "== ThreadSanitizer pass (nproc=$(nproc)) =="
  # Suites under the race detector, each for a reason:
  #  * obs_test: relaxed-atomic telemetry and the flight recorder's seqlock
  #    ring under racing writers;
  #  * server_test: the server loop;
  #  * parallel_loader_test, fault_injection_test, loader_files_test: the
  #    loader's phase A reads every dump on a pool while phase B parses and
  #    merges on the coordinating thread, through quarantine, degrade, and
  #    counted-failpoint paths;
  #  * compile_snapshot_test, parallel_verify_test: one immutable snapshot
  #    shared by every verify worker;
  #  * persist_test: one mmap'd snapshot shared across the accept loop and
  #    workers through aliasing shared_ptr ownership;
  #  * repl_test: an edge agent thread against a live origin event loop;
  #  * delta_test, delta_fuzz_test: apply (store mutation + build) racing
  #    publish and readers of current(), and the reclaimer thread tearing
  #    retired generations down;
  #  * arena_interner_test: the interner's lock-free read path.
  tsan_suites=(obs_test server_test parallel_loader_test fault_injection_test
    loader_files_test compile_snapshot_test parallel_verify_test persist_test
    repl_test delta_test delta_fuzz_test arena_interner_test)
  cmake -B "$TSAN_BUILD" -S "$ROOT" -DRPSLYZER_SANITIZE_THREAD=ON >/dev/null
  cmake --build "$TSAN_BUILD" -j --target "${tsan_suites[@]}"
  # Every suite in parallel on all cores: races show when the suites
  # compete for the CPUs. Only the suites above are built in this tree; the
  # rest register as placeholder <suite>_NOT_BUILT tests, and cli_smoke
  # needs the CLI and loadgen, which this tree does not build either.
  (cd "$TSAN_BUILD" && ctest -j"$(nproc)" -E '_NOT_BUILT$|^cli_smoke$' \
     --output-on-failure)
else
  echo "== ThreadSanitizer unavailable on this toolchain; skipping TSan pass =="
fi
rm -rf "$tsan_probe"

echo "sanitize check ok"
