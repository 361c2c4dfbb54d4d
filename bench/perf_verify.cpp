// §5 verification throughput: the paper checks 779M route announcements
// against the compiled policies of 13 IRRs. This bench measures routes/s
// through both verification backends on the synthetic corpus — the
// interpreted evaluator (walks ir::Rule trees and flattens sets through
// the index's lazy memo) and the CompiledPolicySnapshot (pre-flattened
// sets, pre-composed range-op intervals, pre-lowered AS-path NFAs, flat
// rule arrays with a plain-ASN peer fast reject). A custom main()
// hand-times both single-threaded, sweeps the snapshot path across
// threads ∈ {1, 2, 4, 8}, and emits BENCH_verify.json (mirroring
// perf_parsing's BENCH_parsing.json) with two gates:
//
//  * a ≥2× single-thread snapshot-vs-interpreted speedup: compiling
//    policies once must pay for itself on every route thereafter
//    (enforced on ≥4 hardware threads);
//  * ≤10 heap allocations per route on the snapshot backend: rule
//    evaluation writes into one scratch buffer per route, so only the
//    hop vector, that buffer and each non-Verified check's exact-size
//    item vector allocate. The count is deterministic, so this gate is
//    enforced on every host.
//
// A per-thread ledger then splits the threaded runs: every worker reads
// its own CLOCK_THREAD_CPUTIME_ID and counts the routes it verified, so a
// route that costs more CPU on four threads than on one shows up as such
// rather than as a flat speedup.

#include <benchmark/benchmark.h>

#include <time.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "bench_meta.hpp"
#include "common.hpp"
#include "rpslyzer/json/json.hpp"
#include "rpslyzer/verify/parallel.hpp"

namespace {

using namespace rpslyzer;

const bench::World& world() {
  static bench::World w;
  return w;
}

const std::vector<bgp::Route>& routes() {
  static std::vector<bgp::Route> all = world().all_routes();
  return all;
}

void BM_VerifyInterpreted(benchmark::State& state) {
  const auto& w = world();
  const auto& rs = routes();
  w.lyzer.index().prewarm();  // flattening is a pure read during timing
  std::size_t checks = 0;
  for (auto _ : state) {
    verify::VerifyOptions options;
    options.use_snapshot = false;
    verify::Verifier verifier(w.lyzer.index(), w.lyzer.relations(), options);
    checks = 0;
    for (const auto& route : rs) checks += verifier.verify_route(route).size();
    benchmark::DoNotOptimize(checks);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * rs.size()));
  state.counters["hop_checks"] = static_cast<double>(checks);
}
BENCHMARK(BM_VerifyInterpreted)->Unit(benchmark::kMillisecond);

void BM_VerifySnapshot(benchmark::State& state) {
  const auto& w = world();
  const auto& rs = routes();
  auto snapshot = w.lyzer.snapshot();  // built (and memoized) outside timing
  std::size_t checks = 0;
  for (auto _ : state) {
    verify::Verifier verifier(snapshot);
    checks = 0;
    for (const auto& route : rs) checks += verifier.verify_route(route).size();
    benchmark::DoNotOptimize(checks);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * rs.size()));
  state.counters["hop_checks"] = static_cast<double>(checks);
}
BENCHMARK(BM_VerifySnapshot)->Unit(benchmark::kMillisecond);

void BM_VerifySnapshotParallel(benchmark::State& state) {
  const auto& w = world();
  const auto& rs = routes();
  auto snapshot = w.lyzer.snapshot();
  const unsigned threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    auto results = verify::verify_routes_parallel(snapshot, rs, {}, threads);
    benchmark::DoNotOptimize(results.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * rs.size()));
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_VerifySnapshotParallel)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Hand-timed gate → BENCH_verify.json. Min-over-reps wall time, like
// perf_parsing: the JSON is a machine gate, not a human report.

constexpr int kRepetitions = 3;

double time_interpreted_once() {
  const auto& w = world();
  const auto& rs = routes();
  double best = 1e9;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    verify::VerifyOptions options;
    options.use_snapshot = false;
    verify::Verifier verifier(w.lyzer.index(), w.lyzer.relations(), options);
    std::size_t checks = 0;
    for (const auto& route : rs) checks += verifier.verify_route(route).size();
    benchmark::DoNotOptimize(checks);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    if (elapsed.count() < best) best = elapsed.count();
  }
  return best;
}

double time_snapshot(unsigned threads) {
  const auto& w = world();
  const auto& rs = routes();
  auto snapshot = w.lyzer.snapshot();
  double best = 1e9;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    if (threads == 1) {
      verify::Verifier verifier(snapshot);
      std::size_t checks = 0;
      for (const auto& route : rs) checks += verifier.verify_route(route).size();
      benchmark::DoNotOptimize(checks);
    } else {
      auto results = verify::verify_routes_parallel(snapshot, rs, {}, threads);
      benchmark::DoNotOptimize(results.size());
    }
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    if (elapsed.count() < best) best = elapsed.count();
  }
  return best;
}

// ---------------------------------------------------------------------------
// Allocation gate and per-thread ledger.

constexpr double kMaxAllocationsPerRoute = 10.0;

/// Heap allocations per route of one serial pass of `verifier`; the probe
/// counts every operator new in the process, and nothing else runs.
double allocations_per_route(const verify::Verifier& verifier) {
  const auto& rs = routes();
  const std::int64_t before = bench::allocation_count();
  std::size_t checks = 0;
  for (const auto& route : rs) checks += verifier.verify_route(route).size();
  benchmark::DoNotOptimize(checks);
  return static_cast<double>(bench::allocation_count() - before) /
         static_cast<double>(rs.size());
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct ThreadLedger {
  std::size_t routes = 0;
  double cpu_seconds = 0;
};

/// One instrumented run of verify_routes_parallel's work split: `threads`
/// workers claim 64-route batches off one padded counter and verify them
/// with one shared snapshot Verifier, keeping the verdicts worker-local
/// until the main thread drops them after the join.
json::Object ledger_row(unsigned threads) {
  const auto& rs = routes();
  const verify::Verifier verifier(world().lyzer.snapshot());
  constexpr std::size_t kBatch = 64;
  struct alignas(64) Claim {
    std::atomic<std::size_t> next{0};
  } claim;
  std::vector<ThreadLedger> ledger(threads);
  std::vector<std::vector<std::vector<verify::HopCheck>>> kept(threads);

  const std::int64_t allocations_before = bench::allocation_count();
  const auto start = std::chrono::steady_clock::now();
  auto worker = [&](unsigned t) {
    const double cpu_start = thread_cpu_seconds();
    std::size_t verified = 0;
    while (true) {
      const std::size_t begin = claim.next.fetch_add(kBatch, std::memory_order_relaxed);
      if (begin >= rs.size()) break;
      const std::size_t end = std::min(begin + kBatch, rs.size());
      for (std::size_t i = begin; i < end; ++i) kept[t].push_back(verifier.verify_route(rs[i]));
      verified += end - begin;
    }
    ledger[t] = {verified, thread_cpu_seconds() - cpu_start};
  };
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker, t);
  for (auto& thread : pool) thread.join();
  const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - start;
  const std::int64_t allocations = bench::allocation_count() - allocations_before;
  kept.clear();

  double cpu_seconds = 0;
  json::Array per_thread;
  for (const ThreadLedger& entry : ledger) {
    cpu_seconds += entry.cpu_seconds;
    json::Object row;
    row["routes"] = static_cast<std::int64_t>(entry.routes);
    row["cpu_seconds"] = entry.cpu_seconds;
    per_thread.emplace_back(std::move(row));
  }
  const double route_count = static_cast<double>(rs.size());
  json::Object row;
  row["threads"] = static_cast<std::int64_t>(threads);
  row["wall_seconds"] = wall.count();
  row["cpu_seconds"] = cpu_seconds;
  row["cpu_ns_per_route"] = cpu_seconds / route_count * 1e9;
  row["allocations_per_route"] = static_cast<double>(allocations) / route_count;
  row["per_thread"] = per_thread;
  return row;
}

int write_verify_json() {
  const auto& rs = routes();
  const double route_count = static_cast<double>(rs.size());

  world().lyzer.index().prewarm();
  world().lyzer.snapshot();  // pay the one-time build before any stopwatch
  const double interpreted_seconds = time_interpreted_once();
  const double snapshot_seconds = time_snapshot(1);
  const double speedup = interpreted_seconds / snapshot_seconds;
  // The snapshot exists to be compiled once and consulted per route: if it
  // cannot beat tree-walking twice over, the lowering is not earning its
  // complexity. On starved CI hosts (<4 hardware threads) the interpreted
  // baseline and the snapshot run contend with each other and the ratio is
  // noise — record it, warn, but do not fail the build over it.
  const bool enforced = bench::hardware_threads() >= 4;
  const bool pass = speedup >= 2.0 || !enforced;

  json::Object doc;
  doc["bench"] = "verify";
  doc["scale"] = bench::scale_from_env();
  doc["routes"] = static_cast<std::int64_t>(rs.size());
  bench::add_host_metadata(doc);
  doc["repetitions"] = kRepetitions;
  doc["interpreted_seconds"] = interpreted_seconds;
  doc["interpreted_routes_per_second"] = route_count / interpreted_seconds;
  doc["snapshot_seconds"] = snapshot_seconds;
  doc["snapshot_routes_per_second"] = route_count / snapshot_seconds;
  doc["snapshot_speedup_vs_interpreted"] = speedup;

  json::Array sweep;
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    const double seconds = threads == 1 ? snapshot_seconds : time_snapshot(threads);
    json::Object row;
    row["threads"] = static_cast<std::int64_t>(threads);
    row["seconds"] = seconds;
    row["routes_per_second"] = route_count / seconds;
    row["routes_per_second_per_core"] = route_count / seconds / threads;
    row["speedup_vs_single"] = snapshot_seconds / seconds;
    sweep.emplace_back(std::move(row));
  }
  doc["sweep"] = sweep;
  doc["gate_single_thread_speedup"] = 2.0;
  doc["gate"] = bench::gate_marker(enforced);

  verify::VerifyOptions interpreted_options;
  interpreted_options.use_snapshot = false;
  const double snapshot_allocations =
      allocations_per_route(verify::Verifier(world().lyzer.snapshot()));
  doc["snapshot_allocations_per_route"] = snapshot_allocations;
  doc["interpreted_allocations_per_route"] = allocations_per_route(verify::Verifier(
      world().lyzer.index(), world().lyzer.relations(), interpreted_options));
  doc["gate_allocations_per_route"] = kMaxAllocationsPerRoute;
  const bool allocations_pass = snapshot_allocations <= kMaxAllocationsPerRoute;
  doc["allocation_gate"] = bench::gate_marker(true);

  json::Array ledger;
  for (unsigned threads : {1u, 2u, 4u}) ledger.emplace_back(ledger_row(threads));
  doc["ledger"] = ledger;
  doc["pass"] = pass && allocations_pass;
  const std::string text = json::dump_pretty(json::Value(doc)) + "\n";

  std::FILE* out = std::fopen("BENCH_verify.json", "wb");
  if (out != nullptr) {
    std::fwrite(text.data(), 1, text.size(), out);
    std::fclose(out);
  }
  std::fputs(text.c_str(), stdout);
  if (!enforced && speedup < 2.0) {
    std::printf("perf_verify snapshot-vs-interpreted: WARN %.2fx < 2x "
                "(gate skipped: %u hardware threads)\n",
                speedup, bench::hardware_threads());
  } else {
    std::printf("perf_verify snapshot-vs-interpreted: %s\n", pass ? "PASS" : "FAIL");
  }
  std::printf("perf_verify allocations per route: %.2f (gate <= %.0f): %s\n",
              snapshot_allocations, kMaxAllocationsPerRoute,
              allocations_pass ? "PASS" : "FAIL");
  return pass && allocations_pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return write_verify_json();
}
