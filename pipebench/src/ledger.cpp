#include "ledger.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string_view>

namespace pipebench {

namespace {

bool is_bench(const std::string& name) { return name.rfind("bench.", 0) == 0; }

std::vector<LedgerRow> sorted(std::map<std::string, LedgerRow> rows) {
  std::vector<LedgerRow> out;
  for (auto& [name, row] : rows) out.push_back(std::move(row));
  std::sort(out.begin(), out.end(),
            [](const LedgerRow& a, const LedgerRow& b) { return a.wall_s > b.wall_s; });
  return out;
}

}  // namespace

const LedgerRow* Ledger::find(const std::string& name) const {
  for (const auto* rows : {&bench, &program}) {
    for (const LedgerRow& row : *rows) {
      if (row.name == name) return &row;
    }
  }
  return nullptr;
}

double Ledger::wall(const std::string& name) const {
  const LedgerRow* row = find(name);
  return row == nullptr ? 0.0 : row->wall_s;
}

double Ledger::top_level_wall() const {
  double total = 0;
  for (const LedgerRow& row : bench) {
    if (row.top_level) total += row.wall_s;
  }
  return total;
}

Ledger summarize(const std::vector<rpslyzer::obs::SpanRecord>& records, std::size_t dropped) {
  Ledger ledger;
  ledger.spans = records.size();
  ledger.dropped = dropped;
  // Bench spans per thread, ordered by start, to find direct nesting.
  std::map<std::uint32_t, std::vector<const rpslyzer::obs::SpanRecord*>> by_thread;
  std::map<std::string, LedgerRow> bench_rows;
  std::map<std::string, LedgerRow> program_rows;
  for (const auto& rec : records) {
    const bool bench = is_bench(rec.name);
    LedgerRow& row = (bench ? bench_rows : program_rows)[rec.name];
    row.name = rec.name;
    ++row.count;
    row.wall_s += static_cast<double>(rec.wall_us) / 1e6;
    row.cpu_s += static_cast<double>(rec.cpu_us) / 1e6;
    if (bench) {
      by_thread[rec.tid].push_back(&rec);
    } else {
      row.self_s = row.wall_s;
    }
  }
  for (auto& [tid, spans] : by_thread) {
    std::sort(spans.begin(), spans.end(), [](const auto* a, const auto* b) {
      return a->start_us != b->start_us ? a->start_us < b->start_us : a->depth < b->depth;
    });
    // Stack of open bench spans; each span charges its wall to its
    // innermost enclosing bench span's children total.
    std::vector<const rpslyzer::obs::SpanRecord*> open;
    std::map<const rpslyzer::obs::SpanRecord*, double> child_wall;
    for (const auto* span : spans) {
      while (!open.empty() &&
             open.back()->start_us + open.back()->wall_us <= span->start_us) {
        open.pop_back();
      }
      if (open.empty()) {
        bench_rows[span->name].top_level = true;
      } else {
        child_wall[open.back()] += static_cast<double>(span->wall_us) / 1e6;
      }
      open.push_back(span);
    }
    for (const auto* span : spans) {
      bench_rows[span->name].self_s +=
          static_cast<double>(span->wall_us) / 1e6 - child_wall[span];
    }
  }
  ledger.bench = sorted(std::move(bench_rows));
  ledger.program = sorted(std::move(program_rows));
  return ledger;
}

std::string render(const Ledger& ledger, const std::string& e2e_label, double e2e_s,
                   double covered_s) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof line, "%-34s %9s %11s %11s %11s\n", "layer span", "count",
                "wall_s", "self_s", "cpu_s");
  out += line;
  for (const auto* rows : {&ledger.bench, &ledger.program}) {
    for (const LedgerRow& row : *rows) {
      std::snprintf(line, sizeof line, "%-34s %9zu %11.6f %11.6f %11.6f\n",
                    row.name.c_str(), row.count, row.wall_s, row.self_s, row.cpu_s);
      out += line;
    }
    out += "\n";
  }
  const double residual = e2e_s - covered_s;
  std::snprintf(line, sizeof line,
                "%s: %.6f s, attributed to layers: %.6f s, residual %.6f s (%.2f%%)\n",
                e2e_label.c_str(), e2e_s, covered_s, residual,
                e2e_s > 0 ? 100.0 * residual / e2e_s : 0.0);
  out += line;
  std::snprintf(line, sizeof line, "spans recorded: %zu, dropped: %zu\n", ledger.spans,
                ledger.dropped);
  out += line;
  return out;
}

rpslyzer::json::Value to_json(const Ledger& ledger, double e2e_s, double covered_s) {
  using rpslyzer::json::Array;
  using rpslyzer::json::Object;
  const auto rows_json = [](const std::vector<LedgerRow>& rows) {
    Array out;
    for (const LedgerRow& row : rows) {
      out.emplace_back(Object{{"name", row.name},
                              {"count", row.count},
                              {"wall_s", row.wall_s},
                              {"self_s", row.self_s},
                              {"cpu_s", row.cpu_s},
                              {"top_level", row.top_level}});
    }
    return out;
  };
  Object doc;
  doc["bench_spans"] = rows_json(ledger.bench);
  doc["program_spans"] = rows_json(ledger.program);
  doc["e2e_s"] = e2e_s;
  doc["attributed_s"] = covered_s;
  doc["residual_s"] = e2e_s - covered_s;
  doc["spans"] = ledger.spans;
  doc["dropped"] = ledger.dropped;
  return doc;
}

}  // namespace pipebench
