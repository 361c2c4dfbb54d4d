// The benchmark's own tests: the tail-percentile rule, response framing,
// and the open-loop property that a server stall inflates the latency of
// the requests queued behind it (a closed loop would hide that wait).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <numeric>
#include <thread>
#include <vector>

#include "loadgen.hpp"
#include "stats.hpp"

namespace pipebench {

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  std::reverse(v.begin(), v.end());  // the helper must not rely on input order
  return v;
}

void test_tail() {
  const Tail t1000 = tail(one_to(1000));
  check(t1000.percentile == 99.0 && t1000.value == 990.0, "1000 samples: p99, 10 beyond");
  const Tail t999 = tail(one_to(999));
  check(t999.percentile == 95.0, "999 samples: p99 has 9 beyond, falls back to p95");
  const Tail t100 = tail(one_to(100));
  check(t100.percentile == 90.0 && t100.value == 90.0, "100 samples: p90");
  const Tail t20 = tail(one_to(20));
  check(t20.percentile == 50.0 && t20.value == 10.0, "20 samples: p50");
  const Tail t19 = tail(one_to(19));
  check(t19.percentile == 100.0 && t19.value == 19.0, "19 samples: maximum");
  for (std::size_t n : {20u, 57u, 100u, 999u, 1000u, 12345u}) {
    const Tail t = tail(one_to(n));
    check(samples_beyond(n, t.percentile) >= 10, "chosen percentile has >= 10 beyond");
  }
}

void test_frames() {
  FrameReader reader;
  std::string out;
  const std::string stream = "A6\nabcde\nC\nD\nC\nF bad query\nA4\nx\ny\nC\n";
  std::vector<std::string> got;
  for (char c : stream) {  // byte at a time: every split point
    reader.feed(&c, 1);
    while (reader.next(out)) got.push_back(out);
  }
  check(got.size() == 5, "five framed responses");
  check(got.size() == 5 && got[0] == "A6\nabcde\nC\n" && got[1] == "D\n" && got[2] == "C\n" &&
            got[3] == "F bad query\n" && got[4] == "A4\nx\ny\nC\n",
        "frames split exactly, payload newlines included");
}

/// Answers every line with "C\n"; after `stall_after` answers it stops
/// reading and writing for `stall`.
class StallServer {
 public:
  StallServer(std::size_t stall_after, std::chrono::milliseconds stall)
      : stall_after_(stall_after), stall_(stall) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    ::listen(listen_fd_, 16);
    socklen_t len = sizeof addr;
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { loop(); });
  }
  ~StallServer() {
    stop_ = true;
    thread_.join();
    for (const pollfd& p : fds_) ::close(p.fd);
  }
  StallServer(const StallServer&) = delete;
  StallServer& operator=(const StallServer&) = delete;
  std::uint16_t port() const { return port_; }

 private:
  void loop() {
    fds_.push_back({listen_fd_, POLLIN, 0});
    std::size_t answered = 0;
    bool stalled = false;
    char buf[4096];
    while (!stop_) {
      if (::poll(fds_.data(), fds_.size(), 10) <= 0) continue;
      if (fds_[0].revents & POLLIN) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd >= 0) fds_.push_back({fd, POLLIN, 0});
      }
      for (std::size_t i = 1; i < fds_.size(); ++i) {
        if ((fds_[i].revents & POLLIN) == 0) continue;
        const ssize_t n = ::recv(fds_[i].fd, buf, sizeof buf, 0);
        if (n <= 0) continue;
        const auto lines = static_cast<std::size_t>(std::count(buf, buf + n, '\n'));
        std::string reply;
        for (std::size_t k = 0; k < lines; ++k) reply += "C\n";
        ::send(fds_[i].fd, reply.data(), reply.size(), MSG_NOSIGNAL);
        answered += lines;
      }
      if (!stalled && answered >= stall_after_) {
        stalled = true;
        std::this_thread::sleep_for(stall_);
      }
    }
  }

  std::size_t stall_after_;
  std::chrono::milliseconds stall_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::vector<pollfd> fds_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

void test_stall_inflates_later_requests() {
  constexpr double kRate = 2000;
  const std::vector<std::string> lines = {"!!"};
  const std::vector<std::uint32_t> schedule(800, 0);  // 0.4 s of requests
  // Stall 60 ms after 300 answers (~150 ms in).
  StallServer server(300, std::chrono::milliseconds(60));
  const LoadResult r = run_open_loop(server.port(), lines, schedule, kRate, 2);
  check(r.answered == schedule.size(), "every request answered");
  const double worst = *std::max_element(r.latency_us.begin(), r.latency_us.end());
  check(worst >= 50'000, "the request due as the stall began waited ~the whole stall");
  // Requests due during the first 40 ms of the stall still wait >= 20 ms:
  // latency is charged from the due time, not from when the client sent.
  const auto delayed = std::count_if(r.latency_us.begin(), r.latency_us.end(),
                                     [](double us) { return us >= 20'000; });
  check(static_cast<double>(delayed) >= 0.5 * kRate * 0.040,
        "requests due during the stall inherit its delay");
  check(median(r.latency_us) < 5'000, "requests outside the stall stay fast");
}

}  // namespace

int selftest() {
  test_tail();
  test_frames();
  test_stall_inflates_later_requests();
  std::printf("%s\n", failures == 0 ? "selftest passed" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace pipebench
