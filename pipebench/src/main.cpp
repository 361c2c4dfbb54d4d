// pipebench: the repository's end-to-end benchmark binary.
//
//   pipebench prepare --workload W --seed N --scale S --cache DIR
//   pipebench digest --workload W --seed N --scale S --cache DIR
//   pipebench run --workload W --seed N --scale S --seconds T --trace 0|1
//                 --cache DIR --out DIR [--oracles FILE] [--source ID]
//   pipebench selftest
//
// `run` prints one JSON object as its last stdout line:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// pipebench/run.py builds this binary, prepares the inputs and calls it.
#include <sys/prctl.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>

#include "rpslyzer/json/json.hpp"
#include "workloads.hpp"

namespace pipebench {
int selftest();
}  // namespace pipebench

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: pipebench prepare|digest|run --workload W --seed N --scale S --cache DIR\n"
               "                 [--seconds T --trace 0|1 --out DIR --oracles FILE --source ID]\n"
               "       pipebench selftest\n");
  return 2;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "0";  // JSON has no NaN/inf; an empty sample set
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, end) : std::string("0");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  // Sleeping client threads otherwise wake up to 50 us late (the default
  // timer slack), which the open-loop generator would report as lateness.
  // Threads inherit the setting, so this precedes every thread the run starts.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  if (command == "selftest") return pipebench::selftest();
  if (command != "prepare" && command != "digest" && command != "run") return usage();
  try {
    pipebench::Options o;
    for (int i = 2; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string value = argv[i + 1];
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.seed = static_cast<std::uint32_t>(std::stoul(value));
      } else if (flag == "--scale") {
        o.scale = std::stod(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        o.trace = value == "1";
      } else if (flag == "--cache") {
        o.cache = value;
      } else if (flag == "--out") {
        o.out = value;
      } else if (flag == "--oracles") {
        o.oracles = value;
      } else if (flag == "--source") {
        o.source_id = value;
      } else {
        return usage();
      }
    }
    if (!pipebench::known_workload(o.workload) || o.cache.empty() || o.seconds <= 0 ||
        o.scale <= 0) {
      return usage();
    }
    if (command == "prepare") {
      pipebench::prepare(o);
      return 0;
    }
    if (command == "digest") {
      pipebench::prepare(o);
      std::printf("%s\n", pipebench::digest(o).c_str());
      return 0;
    }
    if (o.out.empty()) return usage();
    const pipebench::Outcome outcome = pipebench::run(o);
    if (outcome.failed > 0) {
      std::fprintf(stderr, "pipebench: %zu of %zu operations failed; first: %s\n",
                   outcome.failed, outcome.attempted, outcome.failure.c_str());
    }
    std::string line = "{\"correct\": ";
    line += outcome.failed == 0 ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(outcome.attempted);
    line += ", \"failed\": " + std::to_string(outcome.failed);
    line += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, metric] : outcome.metrics) {
      if (!first) line += ", ";
      first = false;
      line += rpslyzer::json::dump(name) + ": {\"value\": " + number(metric.value) +
              ", \"unit\": " + rpslyzer::json::dump(metric.unit) + "}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipebench: %s\n", e.what());
    return 1;
  }
}
