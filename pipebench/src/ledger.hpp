#pragma once
// The traced run's per-layer ledger.
//
// Two kinds of spans land in obs::Tracer: the benchmark's own ("bench.*",
// one around each public call into a layer, on the thread that made it)
// and the spans the program already emits (irr.*, compile.build,
// persist.*, verify.*, server.*, delta.*). The ledger aggregates both by
// name. A bench span's self time is its wall time minus the bench spans
// nested directly inside it; program spans are listed as the breakdown
// they are, since most run on pool threads.
#include <cstddef>
#include <string>
#include <vector>

#include "rpslyzer/json/json.hpp"
#include "rpslyzer/obs/trace.hpp"

namespace pipebench {

struct LedgerRow {
  std::string name;
  std::size_t count = 0;
  double wall_s = 0;
  double self_s = 0;  // bench spans only; program spans repeat wall_s
  double cpu_s = 0;
  bool top_level = false;  // a bench span with no enclosing bench span
};

struct Ledger {
  std::vector<LedgerRow> bench;    // sorted by wall, descending
  std::vector<LedgerRow> program;  // sorted by wall, descending
  std::size_t spans = 0;
  std::size_t dropped = 0;

  const LedgerRow* find(const std::string& name) const;
  /// Wall seconds of the named row (bench or program), 0 when absent.
  double wall(const std::string& name) const;
  /// Sum of top-level bench spans' wall time.
  double top_level_wall() const;
};

Ledger summarize(const std::vector<rpslyzer::obs::SpanRecord>& records,
                 std::size_t dropped);

/// Fixed-width table: the bench layers (wall, self, CPU), then the
/// program spans, then the residual line against `e2e_s`.
std::string render(const Ledger& ledger, const std::string& e2e_label, double e2e_s,
                   double covered_s);

rpslyzer::json::Value to_json(const Ledger& ledger, double e2e_s, double covered_s);

}  // namespace pipebench
