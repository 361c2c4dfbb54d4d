#pragma once
// The three workloads and their shared plumbing. See ../README.md for why
// each workload exists and which layer metric should move which
// end-to-end metric.
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>

#include "rpslyzer/json/json.hpp"

namespace pipebench {

struct Options {
  std::string workload;
  std::uint32_t seed = 1;
  double scale = 2.0;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path cache;  // per-(scale, seed) input directory
  std::filesystem::path out;    // result, ledger and chrome trace files
  std::filesystem::path oracles;  // recorded oracle digests (optional)
  std::string source_id;        // git sha or source digest, for provenance
};

struct Metric {
  double value = 0;
  std::string unit;
};

using Metrics = std::map<std::string, Metric>;

struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string failure;  // first failure, for the log
  Metrics metrics;
  rpslyzer::json::Object detail;  // provenance, ledger, raw samples
};

/// Generate (once per cache directory) the inputs `options.workload`
/// needs: corpus files, reference verdicts, snapshot file, churn journal.
/// Nothing here is timed.
void prepare(const Options& options);

/// Run one workload: the untimed oracle work, the timed phases, and (with
/// options.trace) a second traced pass that fills the per-layer metrics.
Outcome run(const Options& options);

/// The digest oracles.json records for the prepared inputs of
/// `options.workload` (cold_verify: verdict mix; serve_mix: every key's
/// answer), so a new (scale, seed) can be recorded.
std::string digest(const Options& options);

bool known_workload(const std::string& name);

}  // namespace pipebench
