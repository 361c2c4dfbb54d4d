#!/usr/bin/env python3
"""End-to-end benchmark for rpslyzer: cold_verify, serve_mix, churn_serve.

Run from the root of a checkout:

    python3 pipebench/run.py --workload cold_verify --seed 1 --seconds 20 --trace 0

Builds pipebench/ (which compiles ../src) into $CARGO_TARGET_DIR or
.bench_build, generates the seeded inputs once per (scale, seed) into
.bench_cache, runs the workload and passes the binary's output through:
its last stdout line is the result object. Result files, ledgers and
chrome traces go to .bench_out. README.md explains the workloads.

With --digest it prepares the inputs and prints, instead of running, the
digest oracles.json records for them (cold_verify and serve_mix).
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cold_verify", "serve_mix", "churn_serve")
DEFAULT_SCALE = 2.0
CACHED_INPUTS = 4  # (scale, seed) input sets kept on disk, most recent first


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then let the build tool decide what is stale."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"pipebench: no rpslyzer sources under {ROOT / 'src'}")
        return None
    if not (build_dir / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs, "--target", "pipebench"],
                      stdout=sys.stderr).returncode != 0:
        return None
    return build_dir / "pipebench"


def source_id():
    """The git commit when there is one, else a digest of src/."""
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True).stdout.strip()
        if sha:
            return sha
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha1()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha1:" + digest.hexdigest()


def evict_old_inputs(cache_root, keep):
    entries = sorted((p for p in cache_root.iterdir() if p.is_dir()),
                     key=lambda p: p.stat().st_mtime, reverse=True)
    for stale in entries[keep:]:
        shutil.rmtree(stale, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    parser.add_argument("--digest", action="store_true",
                        help="print the oracle digest of the prepared inputs and exit")
    args = parser.parse_args()

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    binary = build(build_dir / "pipebench")
    if binary is None:
        log("pipebench: build failed")
        return 1

    cache_root = ROOT / ".bench_cache"
    cache = cache_root / f"s{args.scale:g}-seed{args.seed}"
    cache.mkdir(parents=True, exist_ok=True)
    os.utime(cache)
    evict_old_inputs(cache_root, CACHED_INPUTS)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--scale", f"{args.scale:g}",
              "--cache", str(cache)]
    if args.digest:
        return subprocess.run([str(binary), "digest", *common]).returncode
    if subprocess.run([str(binary), "prepare", *common], stdout=sys.stderr).returncode != 0:
        log("pipebench: input preparation failed")
        return 1
    run = [str(binary), "run", *common, "--seconds", f"{args.seconds:g}",
           "--trace", str(args.trace), "--out", str(ROOT / ".bench_out"),
           "--oracles", str(HERE / "oracles.json"), "--source", source_id()]
    return subprocess.run(run).returncode


if __name__ == "__main__":
    sys.exit(main())
