// perf_delta — gates the journal's reason to exist: applying a small churn
// batch through the delta pipeline must be much faster than the full reload
// a server without journals would pay per batch.
//
// Hand-rolled timing (the numbers feed a JSON gate, not a human report).
// Distinct pre-generated churn batches — each ≤1% of the corpus's objects —
// are applied in sequence. The journal side is the pipeline's whole apply:
// validate, store mutation, materialize, index, CompiledPolicySnapshot::
// build, publish. It skips re-lexing and re-parsing the untouched objects,
// which the store keeps parsed; everything downstream of parsing is
// recomputed. The full side is the from-scratch reload path the journal
// replaces: Rpslyzer::from_texts over the post-batch dump texts plus the
// eager compiled-snapshot build — exactly the oracle the differential-
// equivalence harness compiles (rendering the texts happens outside the
// timer: a server without journals starts from dump files, it does not
// pay our store's rendering). ApplyResult::compile_seconds is recorded per
// batch to show the build's share of the apply. Emits BENCH_delta.json and
// fails (non-zero exit) when the aggregate speedup is < 5×; on starved
// hosts (<4 hardware threads) the ratio is noise, so it is recorded and
// warned about but not gated (bench_meta.hpp's gate_marker convention).

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_meta.hpp"
#include "common.hpp"
#include "rpslyzer/delta/journal.hpp"
#include "rpslyzer/delta/pipeline.hpp"
#include "rpslyzer/json/json.hpp"
#include "rpslyzer/rpslyzer.hpp"
#include "rpslyzer/synth/churn.hpp"

namespace {

using namespace rpslyzer;
using Clock = std::chrono::steady_clock;

constexpr int kBatches = 6;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

int main() {
  const double scale = bench::scale_from_env();
  synth::SynthConfig config;
  config.scale = scale;
  synth::InternetGenerator generator(config);
  std::vector<std::pair<std::string, std::string>> dumps;
  for (const auto& name : synth::irr_names()) {
    dumps.emplace_back(name, generator.irr_dumps().at(name));
  }
  const std::string relationships = generator.caida_serial1();

  delta::DeltaPipeline pipeline(dumps, relationships);

  // ≤1% churn per batch (floor 4 ops so tiny scales still mutate enough to
  // dirty something every batch).
  const std::size_t corpus_objects = pipeline.store().object_count();
  synth::ChurnConfig churn_config;
  churn_config.seed = 20260807u;
  churn_config.ops_per_batch =
      std::max<std::size_t>(4, corpus_objects / 200);  // ≈0.5% of objects
  synth::ChurnGenerator churn(generator.irr_dumps(), churn_config);
  std::vector<delta::JournalBatch> batches;
  for (int b = 0; b < kBatches; ++b) batches.push_back(churn.next_batch());

  double apply_total = 0.0;
  double full_total = 0.0;
  json::Array rows;
  for (int b = 0; b < kBatches; ++b) {
    auto start = Clock::now();
    const delta::ApplyResult result = pipeline.apply(batches[b]);
    const double apply_seconds = seconds_since(start);
    if (result.refused) {
      std::fprintf(stderr, "perf_delta: batch %d refused: %s\n", b,
                   result.error.c_str());
      return 1;
    }

    // Full-recompile side: parse + index + compile the same post-batch
    // corpus from scratch. Text rendering stays outside the timer.
    const auto texts = pipeline.store().source_texts();
    start = Clock::now();
    Rpslyzer lyzer = Rpslyzer::from_texts(texts, relationships);
    const auto reference = lyzer.snapshot();  // eager compile; keep it alive
    const double full_seconds = seconds_since(start);

    apply_total += apply_seconds;
    full_total += full_seconds;
    json::Object row;
    row["batch"] = static_cast<std::int64_t>(b);
    row["ops"] = static_cast<std::int64_t>(result.ops_applied);
    row["dirty_objects"] = static_cast<std::int64_t>(result.dirty_objects);
    row["apply_seconds"] = apply_seconds;
    row["compile_seconds"] = result.compile_seconds;
    row["full_reload_seconds"] = full_seconds;
    row["reference_build_id"] = static_cast<std::int64_t>(reference->build_id());
    row["speedup"] = full_seconds / apply_seconds;
    rows.emplace_back(std::move(row));
  }
  const double speedup = full_total / apply_total;
  const bool enforced = bench::hardware_threads() >= 4;
  const bool pass = speedup >= 5.0 || !enforced;

  json::Object doc;
  doc["bench"] = "delta";
  doc["scale"] = scale;
  bench::add_host_metadata(doc);
  doc["corpus_objects"] = static_cast<std::int64_t>(corpus_objects);
  doc["ops_per_batch"] = static_cast<std::int64_t>(churn_config.ops_per_batch);
  doc["churn_fraction"] =
      static_cast<double>(churn_config.ops_per_batch) /
      static_cast<double>(corpus_objects);
  doc["batches"] = static_cast<std::int64_t>(kBatches);
  doc["batch_rows"] = rows;
  doc["apply_seconds_total"] = apply_total;
  doc["full_reload_seconds_total"] = full_total;
  doc["apply_speedup_vs_full"] = speedup;
  doc["gate_speedup"] = 5.0;
  doc["gate"] = bench::gate_marker(enforced);
  doc["pass"] = pass;
  const std::string text = json::dump_pretty(json::Value(doc)) + "\n";

  std::FILE* out = std::fopen("BENCH_delta.json", "wb");
  if (out != nullptr) {
    std::fwrite(text.data(), 1, text.size(), out);
    std::fclose(out);
  }
  std::fputs(text.c_str(), stdout);
  if (!enforced && speedup < 5.0) {
    std::printf("perf_delta apply-vs-full: WARN %.2fx < 5x "
                "(gate warn-only: %u hardware threads)\n",
                speedup, bench::hardware_threads());
  } else {
    std::printf("perf_delta apply-vs-full: %s (%.2fx)\n",
                pass ? "PASS" : "FAIL", speedup);
  }
  return pass ? 0 : 1;
}
