#include "rpslyzer/irr/loader.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "rpslyzer/obs/log.hpp"
#include "rpslyzer/obs/metrics.hpp"
#include "rpslyzer/obs/trace.hpp"
#include "rpslyzer/rpsl/object_lexer.hpp"
#include "rpslyzer/rpsl/object_parser.hpp"
#include "rpslyzer/util/failpoint.hpp"
#include "rpslyzer/util/strings.hpp"

namespace rpslyzer::irr {

namespace {

namespace fp = util::failpoint;

void count_rules(const ir::AutNum& an, IrrCounts& counts) {
  counts.imports += an.imports.size();
  counts.exports += an.exports.size();
}

/// Slurp a stream chunk-wise so stream state reflects how the read ended:
/// eof = complete, bad/fail-without-eof = the transfer died mid-file.
/// Returns false (with *detail set) on an I/O error; the partial bytes read
/// so far stay in *text for diagnostics but must not be parsed as complete.
bool slurp(std::ifstream& in, std::string* text, std::string* detail) {
  char chunk[64 * 1024];
  while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
    text->append(chunk, static_cast<std::size_t>(in.gcount()));
    if (in.eof()) break;
    if (in.bad()) break;
  }
  if (in.bad() || (in.fail() && !in.eof())) {
    *detail = "I/O error after " + std::to_string(text->size()) + " bytes";
    return false;
  }
  return true;
}

/// Longest blank-line-separated paragraph, i.e. what the lexer will treat
/// as one raw object. A corrupt dump that lost its separators shows up as
/// one pathological multi-megabyte "object".
std::size_t largest_object_bytes(std::string_view text) {
  std::size_t largest = 0;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t sep = text.find("\n\n", start);
    const std::size_t end = sep == std::string_view::npos ? text.size() : sep;
    largest = std::max(largest, end - start);
    if (sep == std::string_view::npos) break;
    start = sep + 2;
  }
  return largest;
}

unsigned resolve_threads(unsigned threads) {
  return threads == 0 ? std::max(1u, std::thread::hardware_concurrency()) : threads;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// Run body(i) for every i in [0, items) on up to `threads` workers that
/// pull indices off an atomic cursor; a single worker runs inline.
template <typename Body>
void for_each_index(unsigned threads, std::size_t items, const Body& body) {
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < items; i = next.fetch_add(1)) body(i);
  };
  const auto workers = static_cast<unsigned>(std::min<std::size_t>(threads, items));
  if (workers <= 1) {
    worker();
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned t = 0; t < workers; ++t) pool.emplace_back(worker);
  for (auto& thread : pool) thread.join();
}

/// The lex+parse core of parse_dump: no failpoint, no span, no
/// counts->bytes — parse_dump owns those so each fires exactly once per
/// dump regardless of shard count. Lexer and parser diagnostics go to
/// *separate* sinks because a single-shard parse reports all lexer
/// diagnostics before any parser diagnostic (lex_objects finishes before
/// the parse loop starts); the shard merge preserves that phase order by
/// merging every shard's lex sink before any shard's parse sink. The
/// single-shard caller passes the same sink twice.
void parse_text_into(std::string_view text, std::string_view source,
                     std::size_t line_offset, ir::Ir& ir,
                     util::Diagnostics& lex_diagnostics,
                     util::Diagnostics& diagnostics, IrrCounts* counts) {
  // Zero-copy hot path: raw attribute names/values are slices of `text`
  // (plus arena spill for joins), valid exactly as long as this frame —
  // parse_object materializes everything it keeps into interned symbols
  // and IR values before the arena dies with the shard.
  util::Arena arena;
  auto raw_objects = rpsl::lex_objects_view(text, source, lex_diagnostics, arena,
                                            line_offset);
  if (counts != nullptr) counts->objects += raw_objects.size();
  for (const auto& raw : raw_objects) {
    rpsl::ParsedObject parsed = rpsl::parse_object(raw, diagnostics);
    std::visit(util::overloaded{
                   [](std::monostate) {},
                   [&](ir::AutNum& an) {
                     if (counts != nullptr) {
                       ++counts->aut_nums;
                       count_rules(an, *counts);
                     }
                     ir.aut_nums.emplace(an.asn, std::move(an));
                   },
                   [&](ir::AsSet& s) {
                     if (counts != nullptr) ++counts->as_sets;
                     ir.as_sets.emplace(ir::to_string(s.name), std::move(s));
                   },
                   [&](ir::RouteSet& s) {
                     if (counts != nullptr) ++counts->route_sets;
                     ir.route_sets.emplace(ir::to_string(s.name), std::move(s));
                   },
                   [&](ir::PeeringSet& s) {
                     if (counts != nullptr) ++counts->peering_sets;
                     ir.peering_sets.emplace(ir::to_string(s.name), std::move(s));
                   },
                   [&](ir::FilterSet& s) {
                     if (counts != nullptr) ++counts->filter_sets;
                     ir.filter_sets.emplace(ir::to_string(s.name), std::move(s));
                   },
                   [&](ir::RouteObject& r) {
                     if (counts != nullptr) ++counts->routes;
                     ir.routes.push_back(std::move(r));
                   },
               },
               parsed);
  }
}

/// Merge a shard fragment into the per-dump accumulator. Unlike merge_into
/// this must NOT deduplicate routes: a single-shard parse keeps every route
/// object it sees (dedup happens later, across sources, in merge_into), so
/// shard fragments concatenate routes in shard order and only the keyed
/// maps resolve first-wins (dst = earlier shards).
void append_fragment(ir::Ir& dst, ir::Ir&& src) {
  dst.aut_nums.merge(src.aut_nums);
  dst.as_sets.merge(src.as_sets);
  dst.route_sets.merge(src.route_sets);
  dst.peering_sets.merge(src.peering_sets);
  dst.filter_sets.merge(src.filter_sets);
  dst.routes.insert(dst.routes.end(), std::make_move_iterator(src.routes.begin()),
                    std::make_move_iterator(src.routes.end()));
  src.routes.clear();
}

/// Sum a shard's census into the per-dump census (bytes excluded: it is
/// set once from the whole dump).
void accumulate_counts(IrrCounts& total, const IrrCounts& shard) {
  total.objects += shard.objects;
  total.aut_nums += shard.aut_nums;
  total.routes += shard.routes;
  total.imports += shard.imports;
  total.exports += shard.exports;
  total.as_sets += shard.as_sets;
  total.route_sets += shard.route_sets;
  total.peering_sets += shard.peering_sets;
  total.filter_sets += shard.filter_sets;
}

/// What phase A hands phase B for one file: the bytes read, or why the
/// file could not be read whole (status kDegraded or kQuarantined, with
/// detail). Phase A does I/O only; it evaluates no failpoint and emits no
/// diagnostic, log, or verdict of its own.
struct ReadSource {
  std::string text;
  SourceStatus status = SourceStatus::kOk;
  std::string detail;
  double seconds = 0;
};

ReadSource read_source(const IrrSource& source, obs::Counter& bytes_read) {
  ReadSource read;
  const auto start = std::chrono::steady_clock::now();
  std::ifstream in;
  {
    obs::Span open_span("irr.open", source.name);
    std::error_code ec;
    const bool exists = std::filesystem::exists(source.path, ec);
    if (exists && !std::filesystem::is_regular_file(source.path, ec)) {
      read.status = SourceStatus::kQuarantined;
      read.detail = "not a regular file: " + source.path.string();
    } else if (in.open(source.path, std::ios::binary); !in) {
      read.status = SourceStatus::kDegraded;
      read.detail = "IRR dump unavailable: " + source.path.string();
    }
  }
  if (read.status == SourceStatus::kOk) {
    obs::Span read_span("irr.read", source.name);
    std::string error;
    if (!slurp(in, &read.text, &error)) {
      read.status = SourceStatus::kQuarantined;
      read.detail = "read failed mid-dump (" + error + "): " + source.path.string();
    }
    bytes_read.inc(read.text.size());
  }
  read.seconds = seconds_since(start);
  return read;
}

/// Phase B's verdict on a file phase A read, evaluating the file
/// failpoints in the order the file path meets them: "irr.open" before the
/// open result, "irr.read" only after a whole read. kOk means read.text is
/// the complete dump.
SourceOutcome file_verdict(const IrrSource& source, const ReadSource& read) {
  if (const fp::Hit hit = fp::hit("irr.open"); hit && hit.is_error()) {
    return {source.name, SourceStatus::kDegraded,
            "IRR dump unavailable: injected open fault: " + hit.message};
  }
  SourceOutcome outcome{source.name, read.status, read.detail};
  if (outcome.status != SourceStatus::kOk) return outcome;
  if (const fp::Hit hit = fp::hit("irr.read")) {
    // truncate simulates a transfer that died mid-file *and was detected*:
    // the stream handed back fewer bytes than the dump holds.
    std::string reason;
    if (hit.is_error()) {
      reason = "injected read fault: " + hit.message;
    } else if (hit.is_truncate()) {
      reason = "injected mid-read truncation at " +
               std::to_string(std::min(read.text.size(), hit.truncate_at)) + " bytes";
    }
    if (!reason.empty()) {
      outcome.status = SourceStatus::kQuarantined;
      outcome.detail = "read failed mid-dump (" + reason + "): " + source.path.string();
    }
  }
  return outcome;
}

/// Phase B's per-source step, the one place a dump text becomes an
/// outcome, a census row, and a first-wins merge into the corpus. Runs on
/// the coordinating thread, one source at a time in priority order.
class Ingest {
 public:
  explicit Ingest(const LoadOptions& options)
      : max_object_bytes_(options.max_object_bytes),
        threads_(resolve_threads(options.threads)),
        registry_(obs::MetricsRegistry::global()),
        objects_parsed_(registry_.counter("rpslyzer_loader_objects_parsed_total",
                                          "RPSL objects parsed from IRR dumps")),
        source_seconds_(registry_.histogram("rpslyzer_loader_source_seconds",
                                            "Wall time loading one IRR source",
                                            obs::exponential_bounds(0.001, 4.0, 10))) {}

  unsigned threads() const noexcept { return threads_; }

  /// `outcome` arrives kOk unless the source already failed before its
  /// text could be trusted; `origin` names the dump in the byte guard's
  /// detail; `seconds` is wall time already spent on this source.
  void add(std::string_view text, SourceOutcome outcome, const std::string& origin,
           double seconds) {
    const auto start = std::chrono::steady_clock::now();
    const std::string& name = outcome.name;
    IrrCounts counts;
    counts.name = name;
    if (outcome.status == SourceStatus::kOk && max_object_bytes_ > 0) {
      const std::size_t largest = largest_object_bytes(text);
      if (largest > max_object_bytes_) {
        outcome.status = SourceStatus::kQuarantined;
        outcome.detail = "pathological object of " + std::to_string(largest) +
                         " bytes (limit " + std::to_string(max_object_bytes_) +
                         "): " + origin;
      }
    }
    if (outcome.status == SourceStatus::kOk) {
      try {
        ir::Ir parsed = parse_dump(text, name, result_.diagnostics, &counts, threads_);
        const std::size_t raw_routes = parsed.routes.size();
        {
          obs::Span merge_span("irr.merge", name);
          merge_into(result_.ir, std::move(parsed), &seen_routes_);
        }
        result_.raw_route_objects += raw_routes;
        objects_parsed_.inc(counts.objects);
      } catch (const std::exception& e) {
        outcome.status = SourceStatus::kQuarantined;
        outcome.detail = std::string("exception mid-load: ") + e.what();
        counts = IrrCounts{};  // partial counts would misstate the census
        counts.name = name;
      }
    }
    if (outcome.status == SourceStatus::kDegraded) {
      result_.diagnostics.warning(util::DiagnosticKind::kOther, outcome.detail, name,
                                  {name, 0});
      obs::log_warn("loader", "source degraded",
                    {{"source", name}, {"reason", outcome.detail}});
    } else if (outcome.status == SourceStatus::kQuarantined) {
      // Quarantine: the dump exists but cannot be trusted; merging a prefix
      // of it would silently shrink the corpus, so none of it is merged and
      // the failure is recorded as a hard error (unlike a missing dump).
      result_.diagnostics.error(util::DiagnosticKind::kOther,
                                "IRR dump quarantined: " + outcome.detail, name,
                                {name, 0});
      obs::log_error("loader", "source quarantined",
                     {{"source", name}, {"reason", outcome.detail}});
    }
    registry_
        .counter("rpslyzer_loader_sources_total", "IRR source load outcomes",
                 {{"source", name}, {"status", to_string(outcome.status)}})
        .inc();
    source_seconds_.observe(seconds + seconds_since(start));
    result_.counts.push_back(std::move(counts));
    result_.outcomes.push_back(std::move(outcome));
  }

  LoadResult finish() && {
    obs::log_info("loader", "load complete",
                  {{"sources", result_.outcomes.size()},
                   {"threads", threads_},
                   {"degraded", result_.count_with(SourceStatus::kDegraded)},
                   {"quarantined", result_.count_with(SourceStatus::kQuarantined)},
                   {"routes", result_.ir.routes.size()},
                   {"aut_nums", result_.ir.aut_nums.size()}});
    return std::move(result_);
  }

 private:
  std::size_t max_object_bytes_;
  unsigned threads_;
  obs::MetricsRegistry& registry_;
  obs::Counter& objects_parsed_;
  obs::Histogram& source_seconds_;
  LoadResult result_;
  RouteKeySet seen_routes_;
};

}  // namespace

const char* to_string(SourceStatus s) noexcept {
  switch (s) {
    case SourceStatus::kOk:
      return "ok";
    case SourceStatus::kDegraded:
      return "degraded";
    case SourceStatus::kQuarantined:
      return "quarantined";
  }
  return "?";
}

std::size_t LoadResult::count_with(SourceStatus status) const noexcept {
  std::size_t n = 0;
  for (const auto& outcome : outcomes) {
    if (outcome.status == status) ++n;
  }
  return n;
}

const SourceOutcome* LoadResult::outcome(std::string_view name) const noexcept {
  for (const auto& outcome : outcomes) {
    if (outcome.name == name) return &outcome;
  }
  return nullptr;
}

ir::Ir parse_dump(std::string_view text, std::string_view source,
                  util::Diagnostics& diagnostics, IrrCounts* counts, unsigned threads,
                  std::size_t shard_bytes) {
  obs::Span span("irr.parse", source);
  if (const fp::Hit hit = fp::hit("irr.parse")) {
    if (hit.is_error()) throw std::runtime_error("irr.parse: " + hit.message);
    // Silent truncation at the parse layer: the lexer sees a shorter dump
    // and must still produce a clean (if smaller) object stream.
    if (hit.is_truncate()) text = text.substr(0, std::min(text.size(), hit.truncate_at));
  }
  if (counts != nullptr) counts->bytes = text.size();
  ir::Ir ir;
  threads = resolve_threads(threads);
  if (threads <= 1) {
    parse_text_into(text, source, 0, ir, diagnostics, diagnostics, counts);
    return ir;
  }

  const std::vector<rpsl::Shard> shards = rpsl::shard_objects(text, shard_bytes);
  auto& registry = obs::MetricsRegistry::global();
  registry
      .counter("rpslyzer_loader_shards_total",
               "Parse shards cut from IRR dumps for parallel lexing")
      .inc(shards.size());
  obs::Histogram& throughput = registry.histogram(
      "rpslyzer_loader_parse_throughput_bytes_per_second",
      "Per-shard lex+parse throughput", obs::exponential_bounds(1e6, 2.0, 14));

  struct ShardSlot {
    ir::Ir ir;
    util::Diagnostics lex_diagnostics;
    util::Diagnostics parse_diagnostics;
    IrrCounts counts;
    std::exception_ptr error;
  };
  std::vector<ShardSlot> slots(shards.size());
  for_each_index(threads, shards.size(), [&](std::size_t i) {
    ShardSlot& slot = slots[i];
    const auto start = std::chrono::steady_clock::now();
    try {
      obs::Span shard_span("irr.shard", source);
      if (const fp::Hit hit = fp::hit("irr.shard"); hit && hit.is_error()) {
        throw std::runtime_error("irr.shard: " + hit.message);
      }
      parse_text_into(shards[i].text, source, shards[i].line_offset, slot.ir,
                      slot.lex_diagnostics, slot.parse_diagnostics, &slot.counts);
    } catch (...) {
      slot.error = std::current_exception();
    }
    throughput.observe(static_cast<double>(shards[i].text.size()) /
                       std::max(seconds_since(start), 1e-9));
  });

  // Deterministic merge in shard (= text) order, lexer phase before parser
  // phase — exactly the single-shard ordering, where lex_objects finishes
  // over the whole dump before the parse loop starts. On a worker exception
  // the completed prefix's parser diagnostics are still delivered — like a
  // single-shard parse failing mid-dump — before the exception resumes here.
  for (ShardSlot& slot : slots) diagnostics.merge(std::move(slot.lex_diagnostics));
  for (ShardSlot& slot : slots) {
    diagnostics.merge(std::move(slot.parse_diagnostics));
    if (slot.error) std::rethrow_exception(slot.error);
    if (counts != nullptr) accumulate_counts(*counts, slot.counts);
    append_fragment(ir, std::move(slot.ir));
  }
  return ir;
}

void merge_into(ir::Ir& dst, ir::Ir&& src, RouteKeySet* seen) {
  if (const fp::Hit hit = fp::hit("irr.merge")) {
    if (hit.is_error()) throw std::runtime_error("irr.merge: " + hit.message);
  }
  // map::merge keeps dst's entry on key conflict — exactly first-wins.
  dst.aut_nums.merge(src.aut_nums);
  dst.as_sets.merge(src.as_sets);
  dst.route_sets.merge(src.route_sets);
  dst.peering_sets.merge(src.peering_sets);
  dst.filter_sets.merge(src.filter_sets);

  // Routes: dedup by (prefix, origin); the first (higher-priority) object
  // is kept. Callers merging repeatedly (load_irrs) pass a persistent key
  // set so the rebuild below only happens on the standalone path.
  RouteKeySet rebuilt;
  if (seen == nullptr) {
    for (const auto& r : dst.routes) rebuilt.emplace(r.prefix, r.origin);
    seen = &rebuilt;
  }
  for (auto& r : src.routes) {
    if (seen->emplace(r.prefix, r.origin).second) dst.routes.push_back(std::move(r));
  }
  src.routes.clear();
}

LoadResult load_irrs(const std::vector<IrrSource>& sources, const LoadOptions& options) {
  obs::Span load_span("irr.load");
  obs::Counter& bytes_read = obs::MetricsRegistry::global().counter(
      "rpslyzer_loader_bytes_read_total", "Bytes read from IRR dump files");
  Ingest ingest(options);

  // Phase A: concurrent reads, I/O only. Every verdict and failpoint waits
  // for phase B, so nothing here depends on which reader runs first.
  std::vector<ReadSource> reads(sources.size());
  {
    obs::Span read_span("irr.read_all");
    for_each_index(ingest.threads(), sources.size(), [&](std::size_t i) {
      obs::Span source_span("irr.source", sources[i].name);
      reads[i] = read_source(sources[i], bytes_read);
    });
  }

  // Phase B: priority order on this thread. Shard-level parallelism inside
  // parse_dump keeps the pool busy while the ordering-sensitive verdicts
  // and merge stay sequential.
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const auto start = std::chrono::steady_clock::now();
    SourceOutcome outcome = file_verdict(sources[i], reads[i]);
    ingest.add(reads[i].text, std::move(outcome), sources[i].path.string(),
               reads[i].seconds + seconds_since(start));
    reads[i] = ReadSource{};  // release the dump bytes before the next parse
  }
  return std::move(ingest).finish();
}

LoadResult load_texts(const std::vector<std::pair<std::string, std::string>>& dumps,
                      const LoadOptions& options) {
  obs::Span load_span("irr.load");
  Ingest ingest(options);
  for (const auto& [name, text] : dumps) {
    ingest.add(text, {name, SourceStatus::kOk, {}}, name, 0);
  }
  return std::move(ingest).finish();
}

std::vector<IrrSource> table1_sources(const std::filesystem::path& directory) {
  // Table 1 order: authoritative regional and national registries, RADB,
  // then other databases.
  static const char* kNames[] = {"APNIC", "AFRINIC", "ARIN",   "LACNIC", "RIPE",
                                 "IDNIC", "JPIRR",   "RADB",   "NTTCOM", "LEVEL3",
                                 "TC",    "REACH",   "ALTDB"};
  std::vector<IrrSource> sources;
  for (const char* name : kNames) {
    sources.push_back({name, directory / (util::lower(name) + ".db")});
  }
  return sources;
}

}  // namespace rpslyzer::irr
