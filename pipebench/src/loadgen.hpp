#pragma once
// Open-loop load generator for the IRRd "!" protocol. Blocking, one-query-
// at-a-time talk to the daemon goes through rpslyzer::server::Client.
//
// Open loop: request i of a phase is due at t0 + i/rate no matter how fast
// earlier answers came back, the way independent bgpq4-style clients behave.
// Each request's latency is timed from its *due* time, so a server stall
// also charges the wait it imposes on every request queued behind it, and
// the generator records how late it put each request on the wire. Requests
// are spread round-robin over one connection per client thread and
// pipelined; answers return in request order per connection.
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace pipebench {

using Clock = std::chrono::steady_clock;

/// Incremental parser for IRRd response framing: "A<len>\n<data>C\n",
/// "C\n", "D\n" or "F <error>\n".
class FrameReader {
 public:
  void feed(const char* data, std::size_t size) { buffer_.append(data, size); }
  /// Moves the next complete response into `out`; false when none is
  /// complete yet. Malformed framing yields the rest of the line as an
  /// "F"-less response, which callers count as a wrong answer.
  bool next(std::string& out);

 private:
  std::string buffer_;
  std::size_t pos_ = 0;
};

struct Answer {
  std::uint32_t key = 0;
  std::uint64_t digest = 0;  // fnv1a of the framed response
};

struct LoadResult {
  std::vector<double> latency_us;  // due -> answer read, answered requests only
  std::vector<double> due_s;       // each answered request's due time, from phase start
  std::vector<double> late_us;     // due -> written to the socket
  std::vector<Answer> answers;
  std::size_t attempted = 0;
  std::size_t answered = 0;
  std::size_t f_replies = 0;   // responses starting with 'F'
  std::size_t unanswered = 0;  // still outstanding when the drain window closed
  /// Median in-flight depth over the last third of the phase exceeds twice
  /// that of the first third (plus slack), or requests went unanswered:
  /// the server is not keeping up.
  bool backlog_growing = false;
};

/// Send `schedule` (indices into `lines`) at `rate` requests/s over
/// `connections` connections to 127.0.0.1:`port`, then wait up to `drain`
/// for the remaining answers.
LoadResult run_open_loop(std::uint16_t port, const std::vector<std::string>& lines,
                         const std::vector<std::uint32_t>& schedule, double rate,
                         unsigned connections,
                         std::chrono::milliseconds drain = std::chrono::milliseconds(3000));

/// Latencies of the requests due at or after `from_s` into the phase.
std::vector<double> latencies_from(const LoadResult& r, double from_s);

/// The p-th latency percentile of each consecutive `window_s` window (by
/// due time, starting at `from_s`), skipping windows too small to have ten
/// samples beyond it. A short host stall spoils the windows it falls in,
/// not the whole phase.
std::vector<double> window_percentiles_us(const LoadResult& r, double window_s, double p,
                                          double from_s = 0);

}  // namespace pipebench
