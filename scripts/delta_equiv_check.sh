#!/usr/bin/env bash
# delta_equiv_check.sh — the delta pipeline's correctness spine, as a soak:
# apply N seeded churn batches through the journal pipeline and, after
# every batch, load the store's own dump texts from scratch with the batch
# loader and require the two snapshots to answer identically (`rpslyzer
# journal apply --verify-full` probes flattenings, origin/route-set
# lookups, and full !v verdict reports on both sides, then compares content
# digests). Both sides compile with the same CompiledPolicySnapshot::build,
# so what the soak proves is that the corpus store and materialize()
# reproduce the loader: per-source first-wins, priority merging, paragraph
# rendering, ADD/DEL semantics, and the undo log. Any divergence fails the
# batch that introduced it, with the first mismatching probe printed.
#
#   scripts/delta_equiv_check.sh [<rpslyzer_cli>]
#
# Tunables (env): DELTA_EQUIV_BATCHES (default 100), DELTA_EQUIV_OPS (8),
# DELTA_EQUIV_SCALE (0.04), DELTA_EQUIV_SEED (29). sanitize_check.sh runs
# this against the ASan/UBSan build so the ≥100-batch byte-identity bar is
# met under sanitizers, not just in the fast build.
set -euo pipefail
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
CLI="${1:-$ROOT/build/tools/rpslyzer}"
test -x "$CLI" || { echo "delta_equiv_check: $CLI not executable (build first)"; exit 2; }

BATCHES="${DELTA_EQUIV_BATCHES:-100}"
OPS="${DELTA_EQUIV_OPS:-8}"
SCALE="${DELTA_EQUIV_SCALE:-0.04}"
SEED="${DELTA_EQUIV_SEED:-29}"

DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

echo "delta_equiv_check: corpus scale=$SCALE, $BATCHES batches x $OPS ops (seed $SEED)"
"$CLI" generate "$DIR/corpus" "$SCALE" 13 >/dev/null
"$CLI" journal synth "$DIR/corpus" --out "$DIR/journal" \
  --batches "$BATCHES" --ops "$OPS" --seed "$SEED" >/dev/null
"$CLI" journal apply "$DIR/corpus" --journal "$DIR/journal" --verify-full \
  | tail -3
echo "delta_equiv_check ok: $BATCHES batches byte-identical to from-scratch loads"
