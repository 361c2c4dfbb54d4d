#pragma once
// Edge-side replication: keep a local last-good snapshot file in sync with
// an origin, surviving every way the origin or the network can fail.
//
// One agent thread owns the entire protocol conversation (poll, fetch,
// verify, activate, heartbeat); the serving daemon only ever reads the
// published Current descriptor under a mutex. State machine per poll:
//
//       .--------------------- same checksum --------------------.
//       v                                                        |
//   [poll info] -> changed? -> [fetch chunks] -> [verify digest] -+-> [activate]
//       |                          |                  |                 |
//       |  conn/parse error        |  torn transfer   |  mismatch       |  rename/mmap error
//       v                          v                  v                 v
//   [backoff, keep serving last-good; partial downloads resume at their offset]
//
// Failure policy: any error drops the origin connection, counts a sync
// failure, and schedules the next poll by util::backoff — the edge
// NEVER stops serving whatever generation it last activated, including
// one recovered from disk at startup (`recover_last_good`). A transfer
// interrupted mid-fetch leaves `incoming.partial` + its offset in memory;
// if the origin still announces the same content on reconnect the fetch
// resumes where it stopped instead of restarting.
//
// Failpoints (edge side): `repl.fetch` (error → fetch aborts; truncate(n)
// → only the first n bytes of a chunk are kept, forcing a torn transfer),
// `repl.verify` (error → digest deliberately mismatched, transfer
// refused), `repl.activate` (error → activation aborts after verify),
// `repl.heartbeat` (error → beat skipped and counted). Metrics are
// `rpslyzer_repl_*`, spans `repl.sync` / `repl.fetch` / `repl.activate`.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "rpslyzer/repl/protocol.hpp"
#include "rpslyzer/server/client.hpp"

namespace rpslyzer::repl {

struct EdgeConfig {
  std::string origin_host = "127.0.0.1";
  std::uint16_t origin_port = 0;
  std::filesystem::path state_dir;  // holds current.rps / current.meta / incoming.partial
  std::string edge_id = "edge";     // identity reported in heartbeats
  std::chrono::milliseconds poll_interval{2000};
  std::chrono::milliseconds heartbeat_period{1000};
  std::chrono::milliseconds backoff_initial{200};
  std::chrono::milliseconds backoff_max{10000};
  std::uint64_t jitter_seed = 0;  // 0 → derived from edge_id
};

/// What the edge currently serves: a verified snapshot file plus the
/// generation identity it was downloaded (or recovered) as.
struct Current {
  std::filesystem::path path;
  std::uint64_t gen = 0;
  std::uint64_t checksum = 0;
  std::uint64_t digest = 0;
};

/// Live state the serving daemon exposes to heartbeats. Beyond health and
/// the query counter (which drives the origin's qps estimate), the daemon
/// can fill the metric-digest fields; they ride each beat as the optional
/// fifth field and feed the origin's `!fleet` aggregation.
struct LocalState {
  std::string health = "starting";
  std::uint64_t queries_total = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t recorder_drops = 0;
  std::uint64_t latency_count = 0;
  std::uint64_t latency_sum_micros = 0;
  std::vector<std::uint64_t> latency_buckets;  // the daemon's own layout
};

class ReplicationClient {
 public:
  explicit ReplicationClient(EdgeConfig config);
  ~ReplicationClient();

  /// Called (from the agent thread) after a new generation has been
  /// verified and renamed into place — the daemon hook that triggers a
  /// reload of current().path.
  void set_activation_callback(std::function<void(const Current&)> cb);

  /// Supplies health + cumulative query count for heartbeats; QPS is
  /// computed from deltas between beats.
  void set_local_state(std::function<LocalState()> fn);

  /// Adopt `state_dir/current.rps` if its digest matches current.meta —
  /// the crash-recovery path that lets an edge serve last-good before (or
  /// without) ever reaching the origin. Returns true when recovered.
  bool recover_last_good();

  void start();
  void stop();

  /// Block until some generation is available (downloaded or recovered),
  /// the timeout lapses, or stop() is called. True when available. On a
  /// download, "available" includes the activation callback having
  /// completed — a true return means the full activation side effects
  /// (reload request, counters) are visible, not just current().
  bool wait_for_snapshot(std::chrono::milliseconds timeout);

  std::optional<Current> current() const;

  /// True while the last origin exchange succeeded.
  bool origin_up() const noexcept { return origin_up_.load(std::memory_order_relaxed); }

  /// Framed `!repl` status page (role: edge) and the `!stats` extra line.
  std::string status_payload() const;
  std::string stats_line() const;

 private:
  struct Partial {
    std::uint64_t checksum = 0;  // content identity being fetched
    std::uint64_t digest = 0;
    std::uint64_t size = 0;
    std::uint64_t offset = 0;  // bytes already on disk
  };

  void run();
  void sync_once();
  void heartbeat_once();
  bool ensure_connected();
  void drop_connection();
  std::optional<GenerationInfo> fetch_info();
  void fetch_generation(const GenerationInfo& info);
  void verify_and_activate(const GenerationInfo& info);
  void write_meta(const Current& cur) const;

  const EdgeConfig config_;
  const std::uint64_t seed_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool running_ = false;
  bool activated_ = false;  // an activation (or recovery) fully completed
  std::optional<Current> current_;
  std::function<void(const Current&)> on_activate_;
  std::function<LocalState()> local_state_;

  // Agent-thread-only state (no lock): the origin conversation.
  std::optional<server::Client> conn_;
  std::optional<Partial> partial_;
  unsigned failures_ = 0;
  std::uint64_t beat_tick_ = 0;
  std::uint64_t last_beat_queries_ = 0;
  std::chrono::steady_clock::time_point last_beat_time_{};

  std::atomic<bool> origin_up_{false};
  std::atomic<std::uint64_t> syncs_{0};
  std::atomic<std::uint64_t> sync_failures_{0};
  std::atomic<std::uint64_t> activations_{0};
  std::atomic<std::uint64_t> resumes_{0};
  std::atomic<std::uint64_t> verify_failures_{0};
  std::atomic<std::uint64_t> heartbeats_{0};
  std::atomic<std::uint64_t> heartbeat_failures_{0};

  std::thread thread_;
};

}  // namespace rpslyzer::repl
