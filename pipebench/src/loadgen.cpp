#include "loadgen.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <deque>
#include <fcntl.h>
#include <thread>

#include "stats.hpp"

namespace pipebench {

namespace {

int connect_local(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

double micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

struct ThreadResult {
  LoadResult load;
  std::vector<std::pair<double, std::size_t>> depth;  // (due offset s, in-flight)
};

void drive_connection(std::uint16_t port, const std::vector<std::string>& lines,
                      const std::vector<std::uint32_t>& schedule, double rate,
                      unsigned stride, unsigned first, Clock::time_point t0,
                      std::chrono::milliseconds drain, ThreadResult& out) {
  LoadResult& r = out.load;
  const auto due_of = [&](std::size_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(i) / rate));
  };
  for (std::size_t i = first; i < schedule.size(); i += stride) ++r.attempted;
  const int fd = connect_local(port);
  if (fd < 0) {
    r.unanswered = r.attempted;
    return;
  }
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  std::size_t next = first;
  std::deque<std::pair<std::uint32_t, Clock::time_point>> inflight;
  std::string wbuf;
  std::size_t wpos = 0;
  FrameReader reader;
  std::string response;
  char rbuf[1 << 16];
  const Clock::time_point last_due =
      schedule.empty() ? t0 : due_of(schedule.size() - 1);
  const Clock::time_point give_up = last_due + drain;
  bool closed = false;
  while (!closed) {
    Clock::time_point now = Clock::now();
    while (next < schedule.size() && due_of(next) <= now) {
      const Clock::time_point due = due_of(next);
      wbuf += lines[schedule[next]];
      wbuf += '\n';
      inflight.emplace_back(schedule[next], due);
      r.late_us.push_back(micros(now - due));
      out.depth.emplace_back(std::chrono::duration<double>(due - t0).count(),
                             inflight.size());
      next += stride;
    }
    while (wpos < wbuf.size()) {
      const ssize_t n = ::send(fd, wbuf.data() + wpos, wbuf.size() - wpos, MSG_NOSIGNAL);
      if (n > 0) {
        wpos += static_cast<std::size_t>(n);
      } else {
        if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
          closed = true;
        }
        break;
      }
    }
    if (wpos == wbuf.size()) {
      wbuf.clear();
      wpos = 0;
    }
    if (next >= schedule.size() && inflight.empty()) break;
    if (next >= schedule.size() && now >= give_up) break;
    const Clock::time_point wake = next < schedule.size() ? due_of(next) : give_up;
    const auto wait = std::max<Clock::duration>(wake - now, Clock::duration::zero());
    timespec ts{};
    ts.tv_sec = std::chrono::duration_cast<std::chrono::seconds>(wait).count();
    ts.tv_nsec = (std::chrono::duration_cast<std::chrono::nanoseconds>(wait) -
                  std::chrono::seconds(ts.tv_sec))
                     .count();
    pollfd pfd{fd, static_cast<short>(POLLIN | (wbuf.empty() ? 0 : POLLOUT)), 0};
    if (::ppoll(&pfd, 1, &ts, nullptr) <= 0) continue;
    if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    for (;;) {
      const ssize_t n = ::recv(fd, rbuf, sizeof rbuf, 0);
      if (n > 0) {
        reader.feed(rbuf, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
        closed = true;
      }
      break;
    }
    now = Clock::now();
    while (!inflight.empty() && reader.next(response)) {
      const auto [key, due] = inflight.front();
      inflight.pop_front();
      ++r.answered;
      if (!response.empty() && response.front() == 'F') ++r.f_replies;
      r.latency_us.push_back(micros(now - due));
      r.due_s.push_back(std::chrono::duration<double>(due - t0).count());
      r.answers.push_back({key, fnv1a(response.data(), response.size())});
    }
  }
  ::close(fd);
  r.unanswered = r.attempted - r.answered;
}

}  // namespace

bool FrameReader::next(std::string& out) {
  const std::size_t eol = buffer_.find('\n', pos_);
  if (eol == std::string::npos) return false;
  std::size_t end = eol + 1;
  if (buffer_[pos_] == 'A') {
    std::size_t len = 0;
    const auto [ptr, ec] =
        std::from_chars(buffer_.data() + pos_ + 1, buffer_.data() + eol, len);
    if (ec == std::errc() && ptr == buffer_.data() + eol) {
      end = eol + 1 + len + 2;  // payload, then "C\n"
      if (buffer_.size() < end) return false;
    }
  }
  out.assign(buffer_, pos_, end - pos_);
  pos_ = end;
  if (pos_ > (1u << 20) && pos_ * 2 > buffer_.size()) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  return true;
}

LoadResult run_open_loop(std::uint16_t port, const std::vector<std::string>& lines,
                         const std::vector<std::uint32_t>& schedule, double rate,
                         unsigned connections, std::chrono::milliseconds drain) {
  connections = std::max(1u, connections);
  std::vector<ThreadResult> parts(connections);
  // Start a little in the future so every thread has connected before the
  // first request falls due.
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  {
    std::vector<std::jthread> threads;
    for (unsigned c = 0; c < connections; ++c) {
      threads.emplace_back([&, c] {
        drive_connection(port, lines, schedule, rate, connections, c, t0, drain, parts[c]);
      });
    }
  }
  LoadResult total;
  std::vector<std::pair<double, std::size_t>> depth;
  for (ThreadResult& part : parts) {
    LoadResult& r = part.load;
    total.attempted += r.attempted;
    total.answered += r.answered;
    total.f_replies += r.f_replies;
    total.unanswered += r.unanswered;
    total.latency_us.insert(total.latency_us.end(), r.latency_us.begin(), r.latency_us.end());
    total.due_s.insert(total.due_s.end(), r.due_s.begin(), r.due_s.end());
    total.late_us.insert(total.late_us.end(), r.late_us.begin(), r.late_us.end());
    total.answers.insert(total.answers.end(), r.answers.begin(), r.answers.end());
    depth.insert(depth.end(), part.depth.begin(), part.depth.end());
  }
  // Backlog: median in-flight depth over the last third of the schedule
  // against the first third. Medians, so one short stall (a burst that
  // drains) does not read as sustained overload.
  const double span = rate > 0 ? static_cast<double>(schedule.size()) / rate : 0.0;
  std::vector<double> first, last;
  for (const auto& [at, d] : depth) {
    if (at < span / 3) {
      first.push_back(static_cast<double>(d));
    } else if (at >= 2 * span / 3) {
      last.push_back(static_cast<double>(d));
    }
  }
  if (!first.empty() && !last.empty()) {
    total.backlog_growing = median(last) > 2 * median(first) + 16;
  }
  if (total.unanswered > 0) total.backlog_growing = true;
  return total;
}

std::vector<double> latencies_from(const LoadResult& r, double from_s) {
  std::vector<double> out;
  for (std::size_t i = 0; i < r.latency_us.size(); ++i) {
    if (r.due_s[i] >= from_s) out.push_back(r.latency_us[i]);
  }
  return out;
}

std::vector<double> window_percentiles_us(const LoadResult& r, double window_s, double p,
                                          double from_s) {
  std::vector<std::vector<double>> windows;
  for (std::size_t i = 0; i < r.latency_us.size(); ++i) {
    if (r.due_s[i] < from_s) continue;
    const auto w = static_cast<std::size_t>((r.due_s[i] - from_s) / window_s);
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(r.latency_us[i]);
  }
  std::vector<double> per_window;
  for (const auto& window : windows) {
    if (samples_beyond(window.size(), p) >= 10) per_window.push_back(percentile(window, p));
  }
  return per_window;
}

}  // namespace pipebench
