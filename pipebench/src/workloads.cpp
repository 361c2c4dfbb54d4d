#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench_meta.hpp"
#include "ledger.hpp"
#include "loadgen.hpp"
#include "rpslyzer/bgp/route.hpp"
#include "rpslyzer/compile/snapshot.hpp"
#include "rpslyzer/delta/journal.hpp"
#include "rpslyzer/delta/pipeline.hpp"
#include "rpslyzer/irr/index.hpp"
#include "rpslyzer/irr/loader.hpp"
#include "rpslyzer/obs/trace.hpp"
#include "rpslyzer/persist/snapshot_io.hpp"
#include "rpslyzer/query/query.hpp"
#include "rpslyzer/relations/relations.hpp"
#include "rpslyzer/report/aggregate.hpp"
#include "rpslyzer/rpslyzer.hpp"
#include "rpslyzer/server/client.hpp"
#include "rpslyzer/server/server.hpp"
#include "rpslyzer/synth/churn.hpp"
#include "rpslyzer/synth/generator.hpp"
#include "rpslyzer/verify/parallel.hpp"
#include "rpslyzer/verify/verifier.hpp"
#include "stats.hpp"

namespace pipebench {

namespace fs = std::filesystem;
namespace rz = rpslyzer;
using rz::json::Array;
using rz::json::Object;

namespace {

// Load shapes; README.md gives the reasons. No measured IRRd query log is
// at hand, so the two query rates follow stated rules instead: serve_mix's
// fixed rate is a tenth of its own measured capacity (throughput_per_s,
// ≈2e5 q/s on the 4-vCPU reference host), rounded to 5,000 q/s, so that its
// latency is service time rather than queueing; churn_serve's readers run
// at a twentieth of that, so that batches and swaps, not reads, load it.
constexpr double kFixedRate = 20000;      // serve_mix fixed open-loop rate, q/s
constexpr double kChurnQueryRate = kFixedRate / 20;  // churn_serve readers, q/s
constexpr double kBatchInterval = 0.18;   // churn_serve batch schedule, s
constexpr auto kProbeInterval = std::chrono::milliseconds(1);  // freshness poll
constexpr double kChurnShare = 0.0005;    // ops per batch / objects in the corpus
constexpr std::size_t kJournalBatches = 700;  // covers a 70 s churn phase
constexpr double kTailLimitUs = 25000;    // sustained_qps: tail latency limit
constexpr double kCoarseStep = 1.5;       // sustained_qps ladder, first pass
constexpr double kFineStep = 1.04;        // ladder resolution (finer than the bound)
constexpr double kStepSeconds = 0.5;      // one ladder rung
constexpr std::size_t kMaxRungs = 40;     // ladder attempts before it counts as unresolved
constexpr double kRungWindow = 0.1;       // p99 window within a rung, s
constexpr double kFixedWindow = 0.1;      // p99 window in the fixed-rate phase, s
constexpr double kWarmup = 1.0;           // untimed lead-in of every serving phase, s
constexpr unsigned kServeSetupReps = 15;
constexpr unsigned kChurnSetupReps = 5;
constexpr std::size_t kChurnOracleKeys = 3000;
constexpr std::size_t kEvalSamples = 2000;  // in-process timings per verb
// cold_verify cycles through this many seed-derived corpora: per-route
// verification cost differs by corpus by up to ±20%, and averaging three
// keeps one corpus's topology from deciding the run's numbers.
constexpr unsigned kColdCorpora = 3;

const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"setup_s", "s"},
    {"throughput_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_tail_ms", "ms"},
    {"peak_rss_mb", "MiB"},
};

const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"irr.load_s", "s"},
    {"irr.load_cpu_s", "s"},
    {"irr.load_util", "ratio"},
    {"irr.mb_per_s", "MiB/s"},
    {"irr.allocs", "count"},
    {"irr.quarantined", "count"},
    {"relations.parse_s", "s"},
    {"irr.index_s", "s"},
    {"compile.build_s", "s"},
    {"compile.allocs", "count"},
    {"compile.trie_nodes", "count"},
    {"persist.write_s", "s"},
    {"persist.bytes", "bytes"},
    {"verify.wall_s", "s"},
    {"verify.cpu_s", "s"},
    {"verify.util", "ratio"},
    {"verify.checks", "count"},
    {"verify.routes_per_s_1t", "routes/s"},
    {"report.aggregate_s", "s"},
    {"persist.open_s", "s"},
    {"server.start_s", "s"},
    {"server.service_p50_us", "us"},
    {"server.service_p99_us", "us"},
    {"server.client_p50_us", "us"},
    {"server.client_p99_us", "us"},
    {"server.outside_p99_us", "us"},
    {"server.cache_hit_ratio", "ratio"},
    {"server.cache_evictions", "count"},
    {"server.timeouts", "count"},
    {"server.workers", "count"},
    {"query.eval_us.g", "us"},
    {"query.eval_us.6", "us"},
    {"query.eval_us.i", "us"},
    {"query.eval_us.a", "us"},
    {"query.eval_us.o", "us"},
    {"verify.report_us", "us"},
    {"loadgen.late_p99_us", "us"},
    {"delta.init_s", "s"},
    {"delta.apply_ms_p50", "ms"},
    {"delta.apply_ms_p90", "ms"},
    {"delta.compile_ms_p50", "ms"},
    {"delta.other_ms_p50", "ms"},
    {"delta.dirty_objects", "count"},
    {"delta.reuse_ratio", "ratio"},
    {"delta.full_rebuilds", "count"},
    {"delta.refused", "count"},
    {"delta.backlog_max", "count"},
    {"server.swap_ms_p50", "ms"},
    {"server.cache_invalidated", "count"},
    {"trace.residual_share", "ratio"},
    {"trace.overhead_share", "ratio"},
    {"trace.spans", "count"},
    {"error_rate", "fraction"},
    {"oracle.recorded", "count"},
};

// ---------------------------------------------------------------------------
// Small helpers.

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// User + system CPU of the whole process (every pool thread included).
double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

unsigned threads() { return rz::bench::hardware_threads(); }

double allocations() { return static_cast<double>(rz::bench::allocation_count()); }

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

void write_file(const fs::path& path, const std::string& text) {
  const fs::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary);
    out << text;
    if (!out) throw std::runtime_error("cannot write " + tmp.string());
  }
  fs::rename(tmp, path);
}

/// Times one call into a layer and, while tracing is on, records it as a
/// "bench.<layer>.<call>" span. `name` must be a string literal.
class Stage {
 public:
  explicit Stage(const char* name) : span_(name), t0_(Clock::now()) {}
  double seconds() const { return seconds_since(t0_); }

 private:
  rz::obs::Span span_;
  Clock::time_point t0_;
};

/// Collects failures without stopping the run: every workload finishes its
/// timed phases and reports how many operations went wrong.
struct Failures {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string first;

  void add(std::size_t attempts, std::size_t failures, const std::string& what) {
    attempted += attempts;
    failed += failures;
    if (failures > 0 && first.empty()) first = what;
  }
};

fs::path corpus_dir(const Options& o, unsigned i = 0) {
  return o.cache / (i == 0 ? std::string("corpus") : "corpus-" + std::to_string(i));
}

/// Corpus i of a run: corpus 0 is the seed's own (every workload uses it);
/// cold_verify adds more so one corpus's quirks do not set its numbers.
std::uint32_t corpus_seed(const Options& o, unsigned i) { return o.seed + i * 7919u; }

std::vector<rz::bgp::Route> collector_routes(const fs::path& corpus) {
  std::vector<rz::bgp::Route> routes;
  for (std::size_t i = 0;; ++i) {
    const fs::path path = corpus / ("collector-" + std::to_string(i) + ".dump");
    if (!fs::exists(path)) break;
    for (auto& route : rz::bgp::parse_table_dump(read_file(path))) {
      routes.push_back(std::move(route));
    }
  }
  if (routes.empty()) throw std::runtime_error("no collector routes under " + corpus.string());
  return routes;
}

/// Dump texts in Table 1 priority order, as the delta pipeline takes them.
std::vector<std::pair<std::string, std::string>> dump_texts(const fs::path& corpus) {
  std::vector<std::pair<std::string, std::string>> dumps;
  for (const auto& source : rz::irr::table1_sources(corpus)) {
    if (fs::exists(source.path)) dumps.emplace_back(source.name, read_file(source.path));
  }
  return dumps;
}

/// Digest of one route's verdicts: every hop's pair and both statuses.
std::uint64_t route_digest(const std::vector<rz::verify::HopCheck>& hops) {
  std::uint64_t h = fnv1a(nullptr, 0);
  for (const auto& hop : hops) {
    const std::array<std::uint32_t, 4> fields = {
        hop.from, hop.to, static_cast<std::uint32_t>(hop.export_result.status),
        static_cast<std::uint32_t>(hop.import_result.status)};
    h = fnv1a(fields.data(), sizeof fields, h);
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Pipelined queries over one connection, answers in request order; a
/// broken connection leaves the remaining answers empty.
std::vector<std::string> ask_all(rz::server::Client& client,
                                 const std::vector<std::string>& lines) {
  constexpr std::size_t kWindow = 64;  // bounded pipeline depth
  std::vector<std::string> out(lines.size());
  for (std::size_t start = 0; start < lines.size(); start += kWindow) {
    const std::size_t end = std::min(lines.size(), start + kWindow);
    for (std::size_t i = start; i < end; ++i) {
      if (!client.send_line(lines[i])) return out;
    }
    for (std::size_t i = start; i < end; ++i) {
      auto response = client.read_response();
      if (!response) return out;
      out[i] = std::move(*response);
    }
  }
  return out;
}

std::unique_ptr<rz::server::Server> start_server(rz::server::CorpusLoader loader) {
  rz::server::ServerConfig config;
  config.port = 0;
  config.worker_threads = threads();
  auto server = std::make_unique<rz::server::Server>(config, std::move(loader));
  std::string error;
  if (!server->start(&error)) throw std::runtime_error("server start failed: " + error);
  return server;
}

// ---------------------------------------------------------------------------
// The query mix shared by serve_mix and churn_serve.

constexpr std::array<char, 6> kVerbs = {'g', '6', 'i', 'a', 'o', 'v'};

std::size_t verb_slot(char verb) {
  return static_cast<std::size_t>(std::find(kVerbs.begin(), kVerbs.end(), verb) - kVerbs.begin());
}

/// Every distinct query line the mix can draw: !g/!6/!o per aut-num,
/// !i…,1 and !a4 per as-set, and !v per collector route.
struct Universe {
  std::vector<std::string> lines;
  std::vector<char> verb;
  std::vector<std::int32_t> route;  // index into routes for !v lines, else -1
  std::vector<rz::bgp::Route> routes;
  std::array<std::vector<std::uint32_t>, 6> by_verb;  // shuffled: Zipf rank order

  Universe(const rz::ir::Ir& ir, std::vector<rz::bgp::Route> collector, std::uint64_t seed)
      : routes(std::move(collector)) {
    const auto add = [&](char v, std::string line, std::int32_t r) {
      by_verb[verb_slot(v)].push_back(static_cast<std::uint32_t>(lines.size()));
      lines.push_back(std::move(line));
      verb.push_back(v);
      route.push_back(r);
    };
    for (const auto& [asn, an] : ir.aut_nums) {
      const std::string as = "AS" + std::to_string(asn);
      add('g', "!g" + as, -1);
      add('6', "!6" + as, -1);
      add('o', "!o" + as, -1);
    }
    for (const auto& [name, set] : ir.as_sets) {
      add('i', "!i" + std::string(name) + ",1", -1);
      add('a', "!a4" + std::string(name), -1);
    }
    for (std::size_t i = 0; i < routes.size(); ++i) {
      std::string line = "!v " + routes[i].prefix.to_string();
      for (const auto asn : routes[i].path) line += " AS" + std::to_string(asn);
      add('v', std::move(line), static_cast<std::int32_t>(i));
    }
    std::mt19937_64 rng(seed);
    for (auto& ids : by_verb) std::shuffle(ids.begin(), ids.end(), rng);
  }
};

/// Draws query lines: a verb uniformly (every verb an equal share: no
/// measured IRRd verb mix is available, see README.md), then a key of that
/// verb from a Zipf(1) distribution over the verb's keys.
class MixSampler {
 public:
  MixSampler(const Universe& universe, std::uint64_t seed) : u_(universe), rng_(seed) {
    for (std::size_t v = 0; v < kVerbs.size(); ++v) {
      const std::size_t n = u_.by_verb[v].size();
      cdf_[v].resize(n);
      double sum = 0;
      for (std::size_t r = 0; r < n; ++r) {
        sum += 1.0 / static_cast<double>(r + 1);
        cdf_[v][r] = sum;
      }
      for (double& c : cdf_[v]) c /= sum;
      if (n > 0) verb_weight_[v] = 1.0;
    }
  }

  std::vector<std::uint32_t> draw(std::size_t n) {
    std::vector<std::uint32_t> out;
    out.reserve(n);
    std::discrete_distribution<std::size_t> pick(verb_weight_.begin(), verb_weight_.end());
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t v = pick(rng_);
      const auto& cdf = cdf_[v];
      const std::size_t rank = static_cast<std::size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), unit(rng_)) - cdf.begin());
      out.push_back(u_.by_verb[v][std::min(rank, cdf.size() - 1)]);
    }
    return out;
  }

 private:
  const Universe& u_;
  std::mt19937_64 rng_;
  std::array<std::vector<double>, 6> cdf_;
  std::array<double, 6> verb_weight_{};
};

/// In-process answers, the oracle for the daemon's: QueryEngine::evaluate
/// for the engine verbs and Verifier::report for !v, exactly the calls the
/// server makes on a cache miss.
class Evaluator {
 public:
  Evaluator(std::shared_ptr<const rz::compile::CompiledPolicySnapshot> snapshot,
            const Universe& universe)
      : snapshot_(std::move(snapshot)), engine_(*snapshot_), verifier_(snapshot_), u_(universe) {}

  std::string answer(std::uint32_t id, double* micros = nullptr) const {
    const auto t0 = Clock::now();
    std::string out = u_.verb[id] == 'v'
                          ? rz::query::frame_response(verifier_.report(u_.routes[u_.route[id]]))
                          : engine_.evaluate(u_.lines[id]);
    if (micros != nullptr) *micros = seconds_since(t0) * 1e6;
    return out;
  }

 private:
  std::shared_ptr<const rz::compile::CompiledPolicySnapshot> snapshot_;
  rz::query::QueryEngine engine_;
  rz::verify::Verifier verifier_;
  const Universe& u_;
};

/// Every answer the daemon gave, folded per key as it arrives so the
/// harness's memory does not grow with the request count.
struct AnswerBook {
  explicit AnswerBook(std::size_t keys) : digest(keys, 0), answers(keys, 0) {}
  void add(const std::vector<Answer>& batch) {
    for (const Answer& a : batch) {
      if (answers[a.key]++ == 0) {
        digest[a.key] = a.digest;
      } else if (digest[a.key] != a.digest) {
        ++inconsistent;  // one key, two different answers from one generation
      }
    }
  }
  std::vector<std::uint64_t> digest;
  std::vector<std::uint32_t> answers;
  std::size_t inconsistent = 0;
};

/// Checks every answer the daemon gave against the prepared in-process
/// answers (`expected`, one digest per Universe key), and times each verb's
/// in-process evaluation on up to kEvalSamples answered keys for the
/// per-layer query.eval_us / verify.report_us metrics.
void check_answers(const Evaluator& eval, const Universe& u,
                   const std::vector<std::uint64_t>& expected, const AnswerBook& book,
                   Failures& failures, Metrics& layer) {
  std::size_t wrong = book.inconsistent;
  std::array<std::vector<double>, 6> eval_us;
  for (std::uint32_t id = 0; id < u.lines.size(); ++id) {
    if (book.answers[id] == 0) continue;
    if (book.digest[id] != expected[id]) wrong += book.answers[id];
    std::vector<double>& times = eval_us[verb_slot(u.verb[id])];
    if (times.size() < kEvalSamples) {
      double us = 0;
      eval.answer(id, &us);
      times.push_back(us);
    }
  }
  failures.add(0, wrong, "answers differing from the in-process oracle");
  for (std::size_t v = 0; v < kVerbs.size(); ++v) {
    const std::string name = kVerbs[v] == 'v' ? std::string("verify.report_us")
                                               : std::string("query.eval_us.") + kVerbs[v];
    layer[name].value = median(eval_us[v]);
  }
}

/// Digest of every key's expected answer, each tied to its query line and
/// folded in sorted order, so it does not depend on the order the corpus
/// lists its objects in.
std::string answers_fold(const Universe& u, const std::vector<std::uint64_t>& expected) {
  std::vector<std::uint64_t> keyed(u.lines.size());
  for (std::size_t id = 0; id < keyed.size(); ++id) {
    keyed[id] = fnv1a(&expected[id], sizeof expected[id],
                      fnv1a(u.lines[id].data(), u.lines[id].size()));
  }
  std::sort(keyed.begin(), keyed.end());
  return hex(fnv1a(keyed.data(), keyed.size() * sizeof(std::uint64_t)));
}

void count_load(const LoadResult& r, Failures& failures, const char* what) {
  failures.add(r.attempted, r.unanswered, std::string(what) + ": unanswered requests");
}

// ---------------------------------------------------------------------------
// Traced-pass bookkeeping.

struct TracedPass {
  bool on = false;
  void begin() {
    if (on) rz::obs::Tracer::global().set_enabled(true);
  }
  void end() {
    if (on) rz::obs::Tracer::global().set_enabled(false);
  }
};

struct PassResult {
  Metrics e2e;
  Metrics layer;
  Object detail;
  double e2e_wall_s = 0;  // what the ledger's residual is taken against
  double covered_s = 0;   // of which attributed to layer spans
  std::string e2e_label;
};

void set(Metrics& m, const char* name, double value) { m[name].value = value; }

std::string input_key(const Options& o) {
  return "s" + rz::json::dump(o.scale) + "-seed" + std::to_string(o.seed);
}

/// Compares `computed` with the digest oracles.json records for this
/// workload and (scale, seed): a change that moves the timed path and the
/// in-process oracle together shows only here. A seed with no recorded
/// digest still runs; the gap is reported on stderr, as oracle.recorded = 0
/// in the traced result line, and as "recorded_digest" in the result file.
void check_recorded(const Options& o, const std::string& computed, Failures& failures,
                    PassResult& pass) {
  std::string recorded;
  if (!o.oracles.empty() && fs::exists(o.oracles)) {
    const rz::json::Value doc = rz::json::parse(read_file(o.oracles));
    const rz::json::Value* table = doc.find(o.workload);
    const rz::json::Value* entry = table != nullptr ? table->find(input_key(o)) : nullptr;
    if (entry != nullptr) recorded = entry->as_string();
  }
  pass.detail["digest"] = computed;
  pass.detail["recorded_digest"] = recorded.empty() ? std::string("unrecorded") : recorded;
  set(pass.layer, "oracle.recorded", recorded.empty() ? 0.0 : 1.0);
  if (recorded.empty()) {
    std::fprintf(stderr,
                 "pipebench: no %s digest recorded for %s; checked against this build's "
                 "in-process oracle only\n",
                 o.workload.c_str(), input_key(o).c_str());
    return;
  }
  failures.add(1, recorded == computed ? 0 : 1,
               o.workload + ": digest differs from the one recorded in oracles.json");
}

// ---------------------------------------------------------------------------
// cold_verify

struct ColdJob {
  double setup_s = 0, load_s = 0, load_cpu_s = 0, relations_s = 0, index_s = 0;
  double build_s = 0, write_s = 0, verify_s = 0, verify_cpu_s = 0, aggregate_s = 0;
  double job_s = 0, irr_allocs = 0, compile_allocs = 0, trie_nodes = 0, bytes = 0;
  double quarantined = 0, input_bytes = 0, checks = 0;
  std::vector<std::uint64_t> digests;  // per route, filled after the clock stops
};

/// The §5 batch job: dump files on disk -> snapshot written -> every
/// collector route verified on all cores -> verdicts aggregated.
ColdJob cold_job(const fs::path& corpus, const fs::path& snapshot_out,
                 const std::vector<rz::bgp::Route>& routes, unsigned verify_threads) {
  ColdJob job;
  const auto t0 = Clock::now();
  std::unique_ptr<rz::ir::Ir> ir;
  {
    const double cpu0 = process_cpu_s();
    const double allocs0 = allocations();
    Stage stage("bench.irr.load_irrs");
    rz::irr::LoadResult loaded = rz::irr::load_irrs(rz::irr::table1_sources(corpus));
    job.load_s = stage.seconds();
    job.load_cpu_s = process_cpu_s() - cpu0;
    job.irr_allocs = allocations() - allocs0;
    job.quarantined =
        static_cast<double>(loaded.count_with(rz::irr::SourceStatus::kQuarantined));
    for (const auto& counts : loaded.counts) job.input_bytes += static_cast<double>(counts.bytes);
    ir = std::make_unique<rz::ir::Ir>(std::move(loaded.ir));
  }
  std::shared_ptr<const rz::relations::AsRelations> relations;
  {
    Stage stage("bench.relations.parse");
    rz::util::Diagnostics diagnostics;
    relations = std::make_shared<const rz::relations::AsRelations>(
        rz::relations::AsRelations::parse(read_file(corpus / "relationships.txt"), diagnostics));
    job.relations_s = stage.seconds();
  }
  std::shared_ptr<const rz::irr::Index> index;
  {
    Stage stage("bench.irr.index");
    index = std::make_shared<const rz::irr::Index>(*ir);
    job.index_s = stage.seconds();
  }
  std::shared_ptr<const rz::compile::CompiledPolicySnapshot> snapshot;
  {
    const double allocs0 = allocations();
    Stage stage("bench.compile.build");
    snapshot = rz::compile::CompiledPolicySnapshot::build(index, relations);
    job.build_s = stage.seconds();
    job.compile_allocs = allocations() - allocs0;
    job.trie_nodes = static_cast<double>(snapshot->trie_nodes());
  }
  {
    Stage stage("bench.persist.write_snapshot");
    job.bytes = static_cast<double>(rz::persist::write_snapshot(*snapshot, snapshot_out));
    job.write_s = stage.seconds();
  }
  job.setup_s = seconds_since(t0);
  std::vector<std::vector<rz::verify::HopCheck>> checks;
  {
    const double cpu0 = process_cpu_s();
    Stage stage("bench.verify.verify_routes_parallel");
    checks = rz::verify::verify_routes_parallel(snapshot, routes, {}, verify_threads);
    job.verify_s = stage.seconds();
    job.verify_cpu_s = process_cpu_s() - cpu0;
  }
  {
    Stage stage("bench.report.aggregate");
    rz::report::Aggregator aggregator;
    for (std::size_t i = 0; i < routes.size(); ++i) aggregator.add(routes[i], checks[i]);
    job.checks = static_cast<double>(aggregator.total_checks());
    job.aggregate_s = stage.seconds();
  }
  job.job_s = seconds_since(t0);
  job.digests.reserve(checks.size());
  for (const auto& hops : checks) job.digests.push_back(route_digest(hops));
  return job;
}

std::vector<std::uint64_t> read_digests(const fs::path& path) {
  const std::string bytes = read_file(path);
  std::vector<std::uint64_t> digests(bytes.size() / sizeof(std::uint64_t));
  std::memcpy(digests.data(), bytes.data(), digests.size() * sizeof(std::uint64_t));
  return digests;
}

void write_digests(const fs::path& path, const std::vector<std::uint64_t>& digests) {
  write_file(path, std::string(reinterpret_cast<const char*>(digests.data()),
                               digests.size() * sizeof(std::uint64_t)));
}

fs::path reference_path(const Options& o, unsigned i) {
  return o.cache / ("reference-" + std::to_string(i) + ".bin");
}

/// The verdict mix over every cold_verify corpus: one digest per corpus of
/// its per-route reference digests, folded in corpus order.
std::string verdict_mix(const std::vector<std::vector<std::uint64_t>>& references) {
  std::vector<std::uint64_t> mixes;
  for (const auto& digests : references) {
    mixes.push_back(fnv1a(digests.data(), digests.size() * sizeof(std::uint64_t)));
  }
  return hex(fnv1a(mixes.data(), mixes.size() * sizeof(std::uint64_t)));
}

PassResult cold_verify(const Options& o, double seconds, bool traced, Failures& failures) {
  PassResult pass;
  struct Input {
    fs::path corpus;
    std::vector<rz::bgp::Route> routes;
    std::vector<std::uint64_t> reference;
  };
  std::vector<Input> inputs;
  std::vector<std::vector<std::uint64_t>> references;
  for (unsigned i = 0; i < kColdCorpora; ++i) {
    references.push_back(read_digests(reference_path(o, i)));
    inputs.push_back({corpus_dir(o, i), collector_routes(corpus_dir(o, i)), references.back()});
  }
  // Catches a change that moves both backends' verdicts together.
  check_recorded(o, verdict_mix(references), failures, pass);
  const fs::path snapshot_out = o.out / ("cold-" + std::to_string(o.seed) + ".rpz");
  // One untimed warm-up job: page cache, allocator arenas, lazy statics.
  cold_job(inputs[0].corpus, snapshot_out, inputs[0].routes, threads());
  TracedPass tracer{traced};
  tracer.begin();
  // Whole rounds over the corpora, so each weighs the same in the medians.
  std::vector<ColdJob> jobs;
  std::vector<double> round_rates;  // routes/s over one round
  const auto t0 = Clock::now();
  do {
    double routes = 0, busy_s = 0;
    for (const Input& input : inputs) {
      jobs.push_back(cold_job(input.corpus, snapshot_out, input.routes, threads()));
      ColdJob& job = jobs.back();
      std::size_t wrong = 0;
      for (std::size_t r = 0; r < input.routes.size(); ++r) {
        if (r >= job.digests.size() || r >= input.reference.size() ||
            job.digests[r] != input.reference[r]) {
          ++wrong;
        }
      }
      failures.add(input.routes.size(), wrong,
                   "verdicts differing from the interpreted reference");
      job.digests.clear();
      routes += static_cast<double>(input.routes.size());
      busy_s += job.verify_s + job.aggregate_s;
    }
    round_rates.push_back(routes / busy_s);
  } while (seconds_since(t0) < seconds && jobs.size() < 1000);
  tracer.end();
  const double peak_rss_mb = static_cast<double>(rz::bench::peak_rss_kb()) / 1024.0;
  const auto collect = [&](double ColdJob::*field) {
    std::vector<double> values;
    for (const ColdJob& job : jobs) values.push_back(job.*field);
    return values;
  };
  std::vector<double> job_ms;
  for (const ColdJob& job : jobs) job_ms.push_back(job.job_s * 1e3);
  set(pass.e2e, "setup_s", median(collect(&ColdJob::setup_s)));
  set(pass.e2e, "throughput_per_s", median(round_rates));
  set(pass.e2e, "latency_p50_ms", median(job_ms));
  set(pass.e2e, "latency_tail_ms", tail(job_ms).value);
  set(pass.e2e, "peak_rss_mb", peak_rss_mb);

  Metrics& l = pass.layer;
  const double load_s = median(collect(&ColdJob::load_s));
  const double load_cpu_s = median(collect(&ColdJob::load_cpu_s));
  const double verify_s = median(collect(&ColdJob::verify_s));
  const double verify_cpu_s = median(collect(&ColdJob::verify_cpu_s));
  set(l, "irr.load_s", load_s);
  set(l, "irr.load_cpu_s", load_cpu_s);
  set(l, "irr.load_util", load_cpu_s / (load_s * threads()));
  set(l, "irr.mb_per_s", jobs.front().input_bytes / (1 << 20) / load_s);
  set(l, "irr.allocs", median(collect(&ColdJob::irr_allocs)));
  set(l, "irr.quarantined", median(collect(&ColdJob::quarantined)));
  set(l, "relations.parse_s", median(collect(&ColdJob::relations_s)));
  set(l, "irr.index_s", median(collect(&ColdJob::index_s)));
  set(l, "compile.build_s", median(collect(&ColdJob::build_s)));
  set(l, "compile.allocs", median(collect(&ColdJob::compile_allocs)));
  set(l, "compile.trie_nodes", median(collect(&ColdJob::trie_nodes)));
  set(l, "persist.write_s", median(collect(&ColdJob::write_s)));
  set(l, "persist.bytes", median(collect(&ColdJob::bytes)));
  set(l, "verify.wall_s", verify_s);
  set(l, "verify.cpu_s", verify_cpu_s);
  set(l, "verify.util", verify_cpu_s / (verify_s * threads()));
  set(l, "verify.checks", median(collect(&ColdJob::checks)));
  set(l, "report.aggregate_s", median(collect(&ColdJob::aggregate_s)));
  if (traced) {
    // The scaling baseline: the same verification on one thread.
    const ColdJob one = cold_job(inputs[0].corpus, snapshot_out, inputs[0].routes, 1);
    set(l, "verify.routes_per_s_1t",
        static_cast<double>(inputs[0].routes.size()) / one.verify_s);
  }
  for (const ColdJob& job : jobs) pass.e2e_wall_s += job.job_s;
  pass.e2e_label = "dumps->verdict job wall (sum over jobs)";
  pass.detail["corpora"] = kColdCorpora;
  pass.detail["jobs"] = jobs.size();
  pass.detail["round_routes_per_s"] = Array(round_rates.begin(), round_rates.end());
  const std::vector<double> setups = collect(&ColdJob::setup_s);
  pass.detail["setup_s"] = Array(setups.begin(), setups.end());
  pass.detail["job_ms"] = Array(job_ms.begin(), job_ms.end());
  fs::remove(snapshot_out);
  return pass;
}

// ---------------------------------------------------------------------------
// serve_mix

struct LadderStep {
  double rate = 0;
  double tail_us = 0;  // median over kRungWindow windows of their p99
  double late_tail_us = 0;
  bool backlog = false;
  bool pass = false;
};

struct Capacity {
  double lo = 0;  // highest rate that passed (0: none)
  double hi = 0;  // lowest rate that failed (0: none)
  bool resolved() const { return lo > 0 && hi > 0 && hi <= lo * kFineStep; }
};

/// Highest open-loop rate whose tail latency stays under kTailLimitUs with
/// no growing backlog: a ×1.5 climb from `start_rate` until a rung fails
/// (or a descent until one passes), then geometric bisection between the
/// highest pass and the lowest failure until they are within kFineStep.
/// A failing rung is tried once more before it counts, so one scheduling
/// hiccup on a shared host cannot end the search. The search has no time
/// budget; only kMaxRungs bounds it, and a search that stops there
/// unresolved counts as a failed run.
Capacity sustained_qps(std::uint16_t port, const Universe& u, MixSampler& sampler,
                       double start_rate, AnswerBook& book, Failures& failures,
                       std::vector<LadderStep>& steps) {
  const auto attempt = [&](double rate) {
    const auto schedule = sampler.draw(static_cast<std::size_t>(rate * kStepSeconds));
    LoadResult r = run_open_loop(port, u.lines, schedule, rate, threads());
    count_load(r, failures, "serve_mix ladder");
    book.add(r.answers);
    LadderStep step;
    step.rate = rate;
    step.tail_us = median(window_percentiles_us(r, kRungWindow, 99));
    step.late_tail_us = tail(r.late_us).value;
    step.backlog = r.backlog_growing;
    step.pass = r.unanswered == 0 && !step.backlog && step.tail_us <= kTailLimitUs;
    steps.push_back(step);
    return step.pass;
  };
  const auto passes = [&](double rate) { return attempt(rate) || attempt(rate); };
  const auto more = [&] { return steps.size() < kMaxRungs; };
  Capacity c;
  for (double rate = start_rate; c.hi == 0 && more(); rate *= kCoarseStep) {
    (passes(rate) ? c.lo : c.hi) = rate;
  }
  for (double rate = c.hi / kCoarseStep; c.lo == 0 && rate >= 1 && more(); rate /= kCoarseStep) {
    (passes(rate) ? c.lo : c.hi) = rate;
  }
  while (c.lo > 0 && c.hi > c.lo * kFineStep && more()) {
    const double mid = std::sqrt(c.lo * c.hi);
    (passes(mid) ? c.lo : c.hi) = mid;
  }
  return c;
}

PassResult serve_mix(const Options& o, double seconds, bool traced, Failures& failures) {
  PassResult pass;
  const fs::path snapshot_path = o.cache / "snapshot.rpz";
  std::vector<rz::bgp::Route> routes = collector_routes(corpus_dir(o));
  TracedPass tracer{traced};
  tracer.begin();
  std::vector<double> setup_s, open_s, start_s;
  std::shared_ptr<const rz::compile::CompiledPolicySnapshot> snapshot;
  std::unique_ptr<rz::server::Server> server;
  for (unsigned rep = 0; rep < kServeSetupReps; ++rep) {
    server.reset();
    snapshot.reset();
    const auto t0 = Clock::now();
    {
      Stage stage("bench.persist.open_snapshot");
      snapshot = rz::persist::open_snapshot(snapshot_path);
      open_s.push_back(stage.seconds());
    }
    {
      Stage stage("bench.server.start");
      server = start_server([snapshot] { return snapshot; });
      start_s.push_back(stage.seconds());
    }
    setup_s.push_back(seconds_since(t0));
  }
  const Universe u(snapshot->index().ir(), std::move(routes), o.seed * 7919ull + 1);
  MixSampler sampler(u, o.seed * 104729ull + 2);

  // Fixed-rate phase: the latency a client sees at a steady, modest load,
  // after a lead-in that fills the response cache and wakes every thread.
  const double fixed_s = seconds * 0.5;
  const auto fixed_schedule =
      sampler.draw(static_cast<std::size_t>(kFixedRate * (kWarmup + fixed_s)));
  LoadResult fixed = run_open_loop(server->port(), u.lines, fixed_schedule, kFixedRate, threads());
  tracer.end();
  count_load(fixed, failures, "serve_mix fixed rate");
  // Memory through setup and steady serving; the ladder below overloads
  // the daemon on purpose and its queues are not the steady footprint.
  const double peak_rss_mb = static_cast<double>(rz::bench::peak_rss_kb()) / 1024.0;
  const auto stats = server->stats().snapshot();
  const auto cache = server->cache_stats();
  const std::vector<double> bounds = rz::server::ServerStats::default_latency_bounds();

  // Capacity ladder.
  AnswerBook book(u.lines.size());
  book.add(fixed.answers);
  std::vector<LadderStep> steps;
  const Capacity capacity =
      sustained_qps(server->port(), u, sampler, kFixedRate * 2, book, failures, steps);
  const double timeouts = static_cast<double>(server->stats().snapshot().queries_timed_out);
  server->stop();

  const std::vector<std::uint64_t> expected = read_digests(o.cache / "answers.bin");
  if (expected.size() != u.lines.size()) throw std::runtime_error("answers.bin does not match");
  Evaluator eval(snapshot, u);
  check_answers(eval, u, expected, book, failures, pass.layer);
  check_recorded(o, answers_fold(u, expected), failures, pass);
  failures.add(1, capacity.resolved() ? 0 : 1,
               "serve_mix: the capacity ladder did not resolve to its step");

  const std::vector<double> steady_us = latencies_from(fixed, kWarmup);
  std::vector<double> latency_ms;
  for (double us : steady_us) latency_ms.push_back(us / 1e3);
  set(pass.e2e, "setup_s", median(setup_s));
  set(pass.e2e, "throughput_per_s", capacity.lo);
  set(pass.e2e, "latency_p50_ms", median(latency_ms));
  // The median of the windows' p99s: a host stall spoils the windows it
  // falls in, a tail regression in most windows moves it (README.md).
  const auto windows = window_percentiles_us(fixed, kFixedWindow, 99, kWarmup);
  set(pass.e2e, "latency_tail_ms", median(windows) / 1e3);
  set(pass.e2e, "peak_rss_mb", peak_rss_mb);

  Metrics& l = pass.layer;
  const double service_p99 = static_cast<double>(stats.latency_percentile_micros(99, bounds));
  const double client_p99 = percentile(steady_us, 99);
  set(l, "persist.open_s", median(open_s));
  set(l, "server.start_s", median(start_s));
  set(l, "server.service_p50_us", static_cast<double>(stats.latency_percentile_micros(50, bounds)));
  set(l, "server.service_p99_us", service_p99);
  set(l, "server.client_p50_us", median(steady_us));
  set(l, "server.client_p99_us", client_p99);
  set(l, "server.outside_p99_us", client_p99 - service_p99);
  set(l, "server.cache_hit_ratio", cache.hit_ratio());
  set(l, "server.cache_evictions", static_cast<double>(cache.evictions));
  set(l, "server.timeouts", timeouts);
  set(l, "server.workers", threads());
  set(l, "loadgen.late_p99_us", tail(fixed.late_us).value);

  // Every request, lead-in included, to match the server.query spans.
  for (double us : fixed.latency_us) pass.e2e_wall_s += us / 1e6;
  pass.e2e_label = "client-observed query latency at the fixed rate (sum)";
  Array ladder;
  for (const LadderStep& s : steps) {
    Object step;
    step["rate"] = s.rate;
    step["tail_us"] = s.tail_us;
    step["late_tail_us"] = s.late_tail_us;
    step["backlog_growing"] = s.backlog;
    step["pass"] = s.pass;
    ladder.push_back(std::move(step));
  }
  pass.detail["ladder"] = std::move(ladder);
  pass.detail["ladder_lo"] = capacity.lo;
  pass.detail["ladder_hi"] = capacity.hi;
  pass.detail["ladder_resolution"] = capacity.lo > 0 ? capacity.hi / capacity.lo : 0.0;
  pass.detail["setup_s"] = Array(setup_s.begin(), setup_s.end());
  std::array<std::vector<double>, 6> by_verb;
  for (std::size_t i = 0; i < fixed.answers.size(); ++i) {
    by_verb[verb_slot(u.verb[fixed.answers[i].key])].push_back(fixed.latency_us[i]);
  }
  Object verbs;
  for (std::size_t v = 0; v < kVerbs.size(); ++v) {
    Object entry;
    entry["requests"] = by_verb[v].size();
    entry["p50_us"] = median(by_verb[v]);
    entry["tail_us"] = tail(by_verb[v]).value;
    entry["tail_percentile"] = tail(by_verb[v]).percentile;
    verbs[std::string(1, kVerbs[v])] = std::move(entry);
  }
  pass.detail["fixed_latency_by_verb"] = std::move(verbs);
  pass.detail["fixed_rate"] = kFixedRate;
  pass.detail["fixed_requests"] = fixed.attempted;
  pass.detail["latency_p99_whole_phase_ms"] = percentile(latency_ms, 99);
  pass.detail["latency_p99_per_window_us"] = Array(windows.begin(), windows.end());
  pass.detail["distinct_keys"] = u.lines.size();
  pass.detail["cache_capacity"] = rz::server::ServerConfig{}.cache_capacity;
  return pass;
}

// ---------------------------------------------------------------------------
// churn_serve

/// A route added by a batch and never deleted afterwards: once the
/// generation holding the batch is live, `!g`/`!6` for its origin lists it.
struct Probe {
  bool usable = false;
  std::string query;
  std::string prefix;
};

std::vector<Probe> choose_probes(const std::vector<rz::delta::JournalBatch>& batches) {
  std::set<std::string> deleted;  // "prefix origin" of every route DEL
  const auto route_key = [](const std::string& paragraph, bool* v6, std::string* prefix,
                            std::string* origin) {
    std::istringstream in(paragraph);
    std::string line;
    bool is_route = false;
    while (std::getline(in, line)) {
      const auto colon = line.find(':');
      if (colon == std::string::npos) continue;
      const std::string key = line.substr(0, colon);
      std::string value = line.substr(colon + 1);
      value.erase(0, value.find_first_not_of(" \t"));
      if (key == "route" || key == "route6") {
        is_route = true;
        *v6 = key == "route6";
        *prefix = value;
      } else if (key == "origin") {
        *origin = value;
      }
    }
    return is_route && !origin->empty();
  };
  for (const auto& batch : batches) {
    for (const auto& op : batch.ops) {
      bool v6 = false;
      std::string prefix, origin;
      if (op.kind == rz::delta::JournalOp::Kind::kDel &&
          route_key(op.paragraph, &v6, &prefix, &origin)) {
        deleted.insert(prefix + " " + origin);
      }
    }
  }
  std::vector<Probe> probes(batches.size());
  std::uint64_t applied_serial = 0;  // replayed ops (serial <= this) are skipped
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const std::uint64_t previous = applied_serial;
    applied_serial = std::max(applied_serial, batches[b].last_serial);
    for (const auto& op : batches[b].ops) {
      bool v6 = false;
      std::string prefix, origin;
      if (op.serial <= previous || op.kind != rz::delta::JournalOp::Kind::kAdd ||
          !route_key(op.paragraph, &v6, &prefix, &origin) ||
          deleted.contains(prefix + " " + origin)) {
        continue;
      }
      probes[b] = {true, std::string(v6 ? "!6" : "!g") + origin, prefix};
    }
  }
  return probes;
}

bool lists_prefix(const std::string& response, const std::string& prefix) {
  for (std::size_t pos = response.find(prefix); pos != std::string::npos;
       pos = response.find(prefix, pos + 1)) {
    const std::size_t end = pos + prefix.size();
    const bool left = pos > 0 && (response[pos - 1] == ' ' || response[pos - 1] == '\n');
    const bool right = end < response.size() && (response[end] == ' ' || response[end] == '\n');
    if (left && right) return true;
  }
  return false;
}

PassResult churn_serve(const Options& o, double seconds, bool traced, Failures& failures) {
  PassResult pass;
  const fs::path corpus = corpus_dir(o);
  const auto dumps = dump_texts(corpus);
  const std::string relationships = read_file(corpus / "relationships.txt");
  const std::size_t batch_count =
      static_cast<std::size_t>(std::ceil(seconds / kBatchInterval));
  std::vector<rz::delta::JournalBatch> batches;
  for (const fs::path& path : rz::delta::list_journal_files(o.cache / "journal")) {
    if (batches.size() == batch_count) break;
    std::string error;
    auto batch = rz::delta::parse_journal(read_file(path), &error);
    if (!batch) throw std::runtime_error("journal " + path.string() + ": " + error);
    batches.push_back(std::move(*batch));
  }
  if (batches.size() < batch_count) throw std::runtime_error("journal cache too short");
  const std::vector<Probe> probes = choose_probes(batches);
  std::vector<rz::bgp::Route> routes = collector_routes(corpus);

  TracedPass tracer{traced};
  tracer.begin();
  std::vector<double> setup_s, init_s, start_s;
  std::unique_ptr<rz::delta::DeltaPipeline> pipeline;
  std::unique_ptr<rz::server::Server> server;
  for (unsigned rep = 0; rep < kChurnSetupReps; ++rep) {
    server.reset();
    pipeline.reset();
    const auto t0 = Clock::now();
    {
      Stage stage("bench.delta.init");
      pipeline = std::make_unique<rz::delta::DeltaPipeline>(dumps, relationships);
      init_s.push_back(stage.seconds());
    }
    {
      Stage stage("bench.server.start");
      rz::delta::DeltaPipeline* p = pipeline.get();
      server = start_server([p] { return p->current_snapshot(); });
      start_s.push_back(stage.seconds());
    }
    setup_s.push_back(seconds_since(t0));
  }
  const Universe u(*pipeline->current()->ir, std::move(routes), o.seed * 7919ull + 1);
  MixSampler sampler(u, o.seed * 104729ull + 3);
  const std::uint16_t port = server->port();

  // Readers: the serve_mix query mix at a low fixed rate on all but one
  // connection; the last connection belongs to the freshness prober.
  const unsigned reader_connections = std::max(1u, threads() - 1);
  const double churn_s = static_cast<double>(batches.size()) * kBatchInterval;
  const auto schedule = sampler.draw(static_cast<std::size_t>(kChurnQueryRate * churn_s));
  const auto t0 = Clock::now() + std::chrono::milliseconds(50);
  const auto due = [&](std::size_t b) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(b) * kBatchInterval));
  };
  LoadResult readers;
  std::jthread reader_thread([&] {
    std::this_thread::sleep_until(t0);
    readers = run_open_loop(port, u.lines, schedule, kChurnQueryRate, reader_connections);
  });
  // Prober: from each batch's due time, ask for the probe key until the
  // answer lists the probe prefix (generation holding the batch is live).
  std::vector<double> freshness_ms(batches.size(), -1.0);
  std::size_t probe_failures = 0;
  std::jthread prober([&] {
    auto client = rz::server::Client::connect("127.0.0.1", port);
    for (std::size_t b = 0; b < batches.size(); ++b) {
      if (!probes[b].usable) continue;
      if (!client) {
        ++probe_failures;
        continue;
      }
      std::this_thread::sleep_until(due(b));
      const auto give_up = due(b) + std::chrono::seconds(5);
      for (;;) {
        std::string response;
        if (client->send_line(probes[b].query)) response = client->read_response().value_or("");
        const auto now = Clock::now();
        if (lists_prefix(response, probes[b].prefix)) {
          freshness_ms[b] = std::chrono::duration<double, std::milli>(now - due(b)).count();
          break;
        }
        if (response.empty() || now > give_up) {
          ++probe_failures;
          break;
        }
        std::this_thread::sleep_for(kProbeInterval);
      }
    }
  });
  // Applier: each batch at its due time (or at once when behind), then the
  // generation swap into the server.
  std::vector<double> apply_ms, compile_ms, other_ms, swap_ms, dirty;
  double ops_applied = 0, apply_total_s = 0, refused = 0, full_rebuilds = 0, swap_timeouts = 0;
  double reused = 0, recompiled = 0;
  std::size_t backlog_max = 0;
  std::vector<double> attributed_ms(batches.size(), 0.0);
  for (std::size_t b = 0; b < batches.size(); ++b) {
    std::this_thread::sleep_until(due(b));
    std::size_t backlog = 0;
    while (b + backlog + 1 < batches.size() && due(b + backlog + 1) <= Clock::now()) ++backlog;
    backlog_max = std::max(backlog_max, backlog);
    const std::uint64_t generation = server->generation();
    const auto start = Clock::now();
    rz::delta::ApplyResult result;
    {
      Stage stage("bench.delta.apply");
      result = pipeline->apply(batches[b]);
    }
    const auto applied = Clock::now();
    if (result.refused) refused += 1;
    if (!result.applied) continue;
    {
      Stage stage("bench.server.swap");
      server->request_reload();
      const auto give_up = applied + std::chrono::seconds(5);
      while (server->generation() == generation && Clock::now() < give_up) {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
    }
    const auto swapped = Clock::now();
    if (server->generation() == generation) swap_timeouts += 1;
    const double a = std::chrono::duration<double, std::milli>(applied - start).count();
    const double s = std::chrono::duration<double, std::milli>(swapped - applied).count();
    apply_ms.push_back(a);
    compile_ms.push_back(result.compile_seconds * 1e3);
    other_ms.push_back(a - result.compile_seconds * 1e3);
    swap_ms.push_back(s);
    dirty.push_back(static_cast<double>(result.dirty_objects));
    attributed_ms[b] = a + s;
    ops_applied += static_cast<double>(result.ops_applied);
    apply_total_s += a / 1e3;
    const auto& stats = pipeline->current()->stats;
    full_rebuilds += stats.full_rebuild ? 1 : 0;
    reused += static_cast<double>(stats.route_sets_reused + stats.regexes_reused);
    recompiled += static_cast<double>(stats.route_sets_recompiled + stats.regexes_recompiled);
  }
  prober.join();
  reader_thread.join();
  tracer.end();
  const double peak_rss_mb = static_cast<double>(rz::bench::peak_rss_kb()) / 1024.0;
  const auto cache = server->cache_stats();
  const auto server_stats = server->stats().snapshot();
  const std::vector<double> bounds = rz::server::ServerStats::default_latency_bounds();

  failures.add(batches.size(), static_cast<std::size_t>(refused + swap_timeouts),
               "churn_serve: refused batches or generation swaps that never landed");
  std::size_t probed = 0;
  std::vector<double> fresh;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    if (!probes[b].usable) continue;
    ++probed;
    if (freshness_ms[b] >= 0) {
      fresh.push_back(freshness_ms[b]);
      pass.e2e_wall_s += freshness_ms[b] / 1e3;
      pass.covered_s += attributed_ms[b] / 1e3;
    }
  }
  failures.add(probed, probe_failures, "churn_serve: batch never became visible");
  count_load(readers, failures, "churn_serve readers");
  failures.add(0, readers.f_replies, "churn_serve readers: F replies");

  // Oracle: the last generation, over the socket, against a from-scratch
  // build of the store's own dump texts.
  std::vector<std::uint32_t> keys(schedule.begin(), schedule.end());
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::shuffle(keys.begin(), keys.end(), std::mt19937_64(o.seed));
  if (keys.size() > kChurnOracleKeys) keys.resize(kChurnOracleKeys);
  std::vector<std::string> lines;
  for (const std::uint32_t id : keys) lines.push_back(u.lines[id]);
  for (const Probe& p : probes) {
    if (p.usable) lines.push_back(p.query);
  }
  std::vector<std::string> served(lines.size());
  if (auto client = rz::server::Client::connect("127.0.0.1", port)) {
    served = ask_all(*client, lines);
  }
  server->stop();
  auto reference = std::make_shared<rz::Rpslyzer>(
      rz::Rpslyzer::from_texts(pipeline->store().source_texts(), relationships));
  const Evaluator rebuilt(reference->snapshot(), u);
  const rz::query::QueryEngine probe_engine(*reference->snapshot());
  std::size_t mismatched = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string expected =
        i < keys.size() ? rebuilt.answer(keys[i]) : probe_engine.evaluate(lines[i]);
    if (served[i] != expected) ++mismatched;
  }
  failures.add(lines.size(), mismatched, "churn_serve: last generation differs from a rebuild");

  set(pass.e2e, "setup_s", median(setup_s));
  set(pass.e2e, "throughput_per_s", apply_total_s > 0 ? ops_applied / apply_total_s : 0.0);
  set(pass.e2e, "latency_p50_ms", median(fresh));
  set(pass.e2e, "latency_tail_ms", tail(fresh).value);
  set(pass.e2e, "peak_rss_mb", peak_rss_mb);

  Metrics& l = pass.layer;
  set(l, "delta.init_s", median(init_s));
  set(l, "server.start_s", median(start_s));
  set(l, "delta.apply_ms_p50", median(apply_ms));
  set(l, "delta.apply_ms_p90", percentile(apply_ms, 90));
  set(l, "delta.compile_ms_p50", median(compile_ms));
  set(l, "delta.other_ms_p50", median(other_ms));
  set(l, "delta.dirty_objects", median(dirty));
  set(l, "delta.reuse_ratio", reused + recompiled > 0 ? reused / (reused + recompiled) : 0.0);
  set(l, "delta.full_rebuilds", full_rebuilds);
  set(l, "delta.refused", refused);
  set(l, "delta.backlog_max", static_cast<double>(backlog_max));
  set(l, "server.swap_ms_p50", median(swap_ms));
  set(l, "server.cache_invalidated", static_cast<double>(cache.invalidated));
  set(l, "server.cache_hit_ratio", cache.hit_ratio());
  set(l, "server.cache_evictions", static_cast<double>(cache.evictions));
  set(l, "server.timeouts", static_cast<double>(server_stats.queries_timed_out));
  set(l, "server.workers", threads());
  set(l, "server.service_p50_us",
      static_cast<double>(server_stats.latency_percentile_micros(50, bounds)));
  set(l, "server.service_p99_us",
      static_cast<double>(server_stats.latency_percentile_micros(99, bounds)));
  set(l, "server.client_p50_us", median(readers.latency_us));
  set(l, "server.client_p99_us", percentile(readers.latency_us, 99));
  set(l, "server.outside_p99_us",
      percentile(readers.latency_us, 99) -
          static_cast<double>(server_stats.latency_percentile_micros(99, bounds)));
  set(l, "loadgen.late_p99_us", tail(readers.late_us).value);

  pass.e2e_label = "batch due -> visible on the socket (sum over probed batches)";
  pass.detail["batches"] = batches.size();
  pass.detail["ops_per_batch"] = batches.empty() ? std::size_t{0} : batches.front().ops.size();
  pass.detail["probed_batches"] = probed;
  pass.detail["freshness_samples"] = fresh.size();
  pass.detail["freshness_tail_percentile"] = tail(fresh).percentile;
  pass.detail["query_rate"] = kChurnQueryRate;
  pass.detail["batch_interval_s"] = kBatchInterval;
  pass.detail["oracle_keys"] = lines.size();
  pass.detail["apply_ms"] = Array(apply_ms.begin(), apply_ms.end());
  pass.detail["freshness_ms"] = Array(fresh.begin(), fresh.end());
  pass.detail["backlog_max"] = backlog_max;
  return pass;
}

// ---------------------------------------------------------------------------

PassResult run_pass(const Options& o, double seconds, bool traced, Failures& failures) {
  if (o.workload == "cold_verify") return cold_verify(o, seconds, traced, failures);
  if (o.workload == "serve_mix") return serve_mix(o, seconds, traced, failures);
  return churn_serve(o, seconds, traced, failures);
}

void prepare_reference(const fs::path& corpus, const fs::path& out) {
  // The interpreted backend (VerifyOptions::use_snapshot = false) is the
  // repository's reference evaluator; the timed job runs the compiled one.
  const auto routes = collector_routes(corpus);
  const rz::Rpslyzer lyzer = rz::Rpslyzer::from_files(corpus, corpus / "relationships.txt");
  rz::verify::VerifyOptions options;
  options.use_snapshot = false;
  const auto checks = rz::verify::verify_routes_parallel(lyzer.index(), lyzer.relations(), routes,
                                                         options, threads());
  std::vector<std::uint64_t> digests;
  for (const auto& hops : checks) digests.push_back(route_digest(hops));
  write_digests(out, digests);
}

void prepare_snapshot(const Options& o) {
  const fs::path corpus = corpus_dir(o);
  const rz::Rpslyzer lyzer = rz::Rpslyzer::from_files(corpus, corpus / "relationships.txt");
  const fs::path tmp = o.cache / "snapshot.rpz.tmp";
  rz::persist::write_snapshot(*lyzer.snapshot(), tmp);
  fs::rename(tmp, o.cache / "snapshot.rpz");
}

/// Every serve_mix key's answer from the in-process oracle over the
/// persisted snapshot, in Universe order.
void prepare_answers(const Options& o) {
  const auto snapshot = rz::persist::open_snapshot(o.cache / "snapshot.rpz");
  const Universe u(snapshot->index().ir(), collector_routes(corpus_dir(o)), 0);
  std::vector<std::uint64_t> digests(u.lines.size());
  {
    const unsigned n = threads();
    std::vector<std::jthread> workers;
    for (unsigned w = 0; w < n; ++w) {
      workers.emplace_back([&, w] {
        const Evaluator eval(snapshot, u);
        for (std::size_t id = w; id < digests.size(); id += n) {
          const std::string answer = eval.answer(static_cast<std::uint32_t>(id));
          digests[id] = fnv1a(answer.data(), answer.size());
        }
      });
    }
  }
  write_digests(o.cache / "answers.bin", digests);
}

void prepare_journal(const Options& o) {
  const fs::path dir = o.cache / "journal";
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::map<std::string, std::string> dumps;
  std::size_t objects = 0;
  for (auto& [name, text] : dump_texts(corpus_dir(o))) {
    for (std::size_t pos = text.find("\n\n"); pos != std::string::npos;
         pos = text.find("\n\n", pos + 2)) {
      ++objects;
    }
    dumps.emplace(name, std::move(text));
  }
  rz::synth::ChurnConfig config;
  config.seed = o.seed;
  config.ops_per_batch = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(kChurnShare * static_cast<double>(objects))));
  rz::synth::ChurnGenerator generator(dumps, config);
  for (std::size_t b = 0; b < kJournalBatches; ++b) {
    const auto batch = generator.next_batch();
    write_file(dir / rz::delta::journal_file_name(batch.first_serial),
               rz::delta::render_journal(batch));
  }
}

void once(const fs::path& marker, const std::function<void()>& make) {
  if (fs::exists(marker)) return;
  make();
  write_file(marker, "ok\n");
}

}  // namespace

std::string digest(const Options& o) {
  if (o.workload == "cold_verify") {
    std::vector<std::vector<std::uint64_t>> references;
    for (unsigned i = 0; i < kColdCorpora; ++i) {
      references.push_back(read_digests(reference_path(o, i)));
    }
    return verdict_mix(references);
  }
  if (o.workload == "serve_mix") {
    const auto snapshot = rz::persist::open_snapshot(o.cache / "snapshot.rpz");
    const Universe u(snapshot->index().ir(), collector_routes(corpus_dir(o)), 0);
    return answers_fold(u, read_digests(o.cache / "answers.bin"));
  }
  throw std::runtime_error(o.workload + " records no digest: its oracle is a from-scratch rebuild");
}

bool known_workload(const std::string& name) {
  return name == "cold_verify" || name == "serve_mix" || name == "churn_serve";
}

void prepare(const Options& o) {
  fs::create_directories(o.cache);
  const unsigned corpora = o.workload == "cold_verify" ? kColdCorpora : 1;
  for (unsigned i = 0; i < corpora; ++i) {
    const std::string tag = std::to_string(i);
    once(o.cache / ("corpus-" + tag + ".ok"), [&] {
      fs::remove_all(corpus_dir(o, i));
      rz::synth::SynthConfig config;
      config.seed = corpus_seed(o, i);
      config.scale = o.scale;
      rz::synth::InternetGenerator(config).write_to(corpus_dir(o, i));
    });
    if (o.workload == "cold_verify") {
      once(o.cache / ("reference-" + tag + ".ok"), [&] {
        prepare_reference(corpus_dir(o, i), reference_path(o, i));
      });
    }
  }
  if (o.workload == "serve_mix") {
    once(o.cache / "snapshot.ok", [&] { prepare_snapshot(o); });
    once(o.cache / "answers.ok", [&] { prepare_answers(o); });
  }
  if (o.workload == "churn_serve") once(o.cache / "journal.ok", [&] { prepare_journal(o); });
}

Outcome run(const Options& o) {
  fs::create_directories(o.out);
  Failures failures;
  Outcome outcome;
  const std::string stem = o.workload + "-s" + rz::json::dump(o.scale) + "-seed" +
                           std::to_string(o.seed);
  if (!o.trace) {
    PassResult pass = run_pass(o, o.seconds, false, failures);
    for (const auto& [name, unit] : kEndToEnd) {
      outcome.metrics[name] = {pass.e2e[name].value, unit};
    }
    outcome.detail["pass"] = std::move(pass.detail);
  } else {
    // Untraced and traced halves: their end-to-end difference is the
    // tracing overhead; the traced half feeds the ledger.
    PassResult plain = run_pass(o, o.seconds / 2, false, failures);
    rz::obs::Tracer::global().clear();
    PassResult traced = run_pass(o, o.seconds / 2, true, failures);
    const auto records = rz::obs::Tracer::global().records();
    const Ledger ledger = summarize(records, rz::obs::Tracer::global().dropped());
    if (traced.covered_s == 0) {
      // Serving: the daemon's worker-side span (cache lookup, evaluation,
      // framing) is what client latency can be attributed to; the rest is
      // event loop, queue, socket and client scheduling.
      traced.covered_s = o.workload == "serve_mix" ? ledger.wall("server.query")
                                                   : ledger.top_level_wall();
    }
    const double residual_share =
        traced.e2e_wall_s > 0 ? (traced.e2e_wall_s - traced.covered_s) / traced.e2e_wall_s : 0.0;
    const double base = plain.e2e["latency_p50_ms"].value;
    for (const auto& [name, unit] : kPerLayer) outcome.metrics[name] = {0.0, unit};
    for (const auto& [name, metric] : traced.layer) outcome.metrics[name].value = metric.value;
    outcome.metrics["trace.residual_share"].value = residual_share;
    outcome.metrics["trace.overhead_share"].value =
        base > 0 ? (traced.e2e["latency_p50_ms"].value - base) / base : 0.0;
    outcome.metrics["trace.spans"].value = static_cast<double>(records.size());
    const std::string table = render(ledger, traced.e2e_label, traced.e2e_wall_s, traced.covered_s);
    std::fprintf(stderr, "%s", table.c_str());
    // One chrome trace per workload (the latest traced run): they run to
    // tens of MB, so keeping one per seed would grow without bound.
    const fs::path trace_path = o.out / (o.workload + ".trace.json");
    std::string error;
    if (!rz::obs::Tracer::global().write_chrome_trace(trace_path.string(), &error)) {
      failures.add(1, 1, "chrome trace: " + error);
    }
    Object e2e_pair;
    for (const auto& [name, unit] : kEndToEnd) {
      Object both;
      both["untraced"] = plain.e2e[name].value;
      both["traced"] = traced.e2e[name].value;
      e2e_pair[name] = std::move(both);
    }
    outcome.detail["end_to_end_untraced_vs_traced"] = std::move(e2e_pair);
    outcome.detail["ledger"] = to_json(ledger, traced.e2e_wall_s, traced.covered_s);
    outcome.detail["ledger_e2e"] = traced.e2e_label;
    outcome.detail["chrome_trace"] = trace_path.filename().string();
    outcome.detail["pass"] = std::move(traced.detail);
  }
  outcome.attempted = std::max<std::size_t>(1, failures.attempted);
  outcome.failed = failures.failed;
  outcome.failure = failures.first;
  if (o.trace) {
    outcome.metrics["error_rate"].value =
        static_cast<double>(outcome.failed) / static_cast<double>(outcome.attempted);
  }
  Object provenance;
  rz::bench::add_host_metadata(provenance);
  provenance["source"] = o.source_id;
  provenance["workload"] = o.workload;
  provenance["scale"] = o.scale;
  provenance["seed"] = static_cast<std::int64_t>(o.seed);
  provenance["seconds"] = o.seconds;
  provenance["trace"] = o.trace;
  provenance["server_workers"] = threads();
  provenance["client_threads"] = threads();
  outcome.detail["provenance"] = std::move(provenance);
  Object metrics;
  for (const auto& [name, m] : outcome.metrics) {
    Object entry;
    entry["value"] = m.value;
    entry["unit"] = m.unit;
    metrics[name] = std::move(entry);
  }
  outcome.detail["metrics"] = std::move(metrics);
  outcome.detail["attempted"] = outcome.attempted;
  outcome.detail["failed"] = outcome.failed;
  outcome.detail["first_failure"] = outcome.failure;
  write_file(o.out / (stem + (o.trace ? ".traced" : "") + ".json"),
             rz::json::dump_pretty(outcome.detail) + "\n");
  return outcome;
}

}  // namespace pipebench
