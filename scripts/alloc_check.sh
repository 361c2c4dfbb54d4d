#!/usr/bin/env bash
# Leak + footprint gate for the zero-copy hot paths: generate a synthetic
# corpus, then run the CLI's load (parallel sharded ingestion) and verify
# (parse → compile → verify) paths under LeakSanitizer and require
#
#   1. zero definite leaks — the arena/interner refactor moved parse-IR
#      ownership from per-object std::strings into pooled storage, and a
#      "leak" of a pool is exactly what LSan's definite-leak report would
#      catch (the process-lifetime global symbol table is reachable through
#      a static, so it does not trip this);
#   2. peak RSS under a ceiling — pooled storage must not merely hide
#      growth from the allocator, so the footprint of the whole run is
#      bounded too (generous ceiling: this is a regression tripwire for
#      runaway duplication, not a tight budget).
#
# Usage: scripts/alloc_check.sh <path-to-sanitized-rpslyzer-cli> [ceiling-kb]
# The binary must be an ASan build (-DRPSLYZER_SANITIZE=ON); LSan rides on
# ASan. On hosts whose kernel blocks ptrace-based leak detection the LSan
# run degrades to the RSS check alone (with a warning), never to silence.
set -euo pipefail
CLI="$1"
CEILING_KB="${2:-4194304}"   # 4 GiB default: synthetic corpus is ~100 MB
DIR="$(mktemp -d)"
cleanup() { rm -rf "$DIR"; }
trap cleanup EXIT

"$CLI" generate "$DIR" 0.1 7 >/dev/null

# Peak child RSS via getrusage(RUSAGE_CHILDREN) — portable to hosts
# without GNU time. Writes the child's ru_maxrss (KiB on Linux) to the
# given file and propagates the child's exit status.
measure_rss() {
  local rss_file="$1"; shift
  python3 - "$rss_file" "$@" <<'PYEOF'
import resource, subprocess, sys
rc = subprocess.call(sys.argv[2:])
with open(sys.argv[1], "w") as f:
    f.write(str(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss))
sys.exit(rc)
PYEOF
}

run_gated() {
  local name="$1"; shift
  local rss_out="$DIR/rss-$name.txt" log="$DIR/lsan-$name.txt"
  local status=0
  # detect_leaks=1 is the default under ASan on Linux, but be explicit: a
  # future default flip must not silently disable the gate.
  ASAN_OPTIONS="detect_leaks=1:exitcode=23" \
    measure_rss "$rss_out" "$CLI" "$@" >"$log" 2>&1 || status=$?
  if [ "$status" -eq 23 ] || grep -q "Direct leak" "$log"; then
    echo "alloc check FAILED: definite leaks in '$name'" >&2
    grep -A4 "Direct leak" "$log" >&2 || cat "$log" >&2
    return 1
  elif [ "$status" -ne 0 ]; then
    if grep -qi "LeakSanitizer.*ptrace\|tracer" "$log"; then
      echo "warning: LSan cannot ptrace on this host; leak gate skipped for '$name'" >&2
    else
      echo "alloc check FAILED: '$name' exited $status" >&2
      cat "$log" >&2
      return 1
    fi
  fi
  local rss_kb
  rss_kb="$(cat "$rss_out" 2>/dev/null || echo "")"
  echo "$name: peak RSS ${rss_kb} KiB (ceiling ${CEILING_KB})"
  if [ -n "$rss_kb" ] && [ "$rss_kb" -gt "$CEILING_KB" ]; then
    echo "alloc check FAILED: '$name' peak RSS ${rss_kb} KiB > ceiling ${CEILING_KB} KiB" >&2
    return 1
  fi
}

run_gated load load "$DIR" --threads 2
run_gated verify verify "$DIR"

echo "alloc check ok"
