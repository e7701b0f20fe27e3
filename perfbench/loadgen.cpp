#include "loadgen.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "proc.hpp"

namespace perfbench {

std::string http_post_bytes(const std::string& target,
                            const std::string& body) {
  return "POST " + target +
         " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"
         "Content-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

Exchange http_exchange(int port, const std::string& request_bytes) {
  Exchange ex;
  const double start = now_s();
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return ex;
  const timeval timeout{10, 0};  // no exchange may hang a run
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    close(fd);
    return ex;
  }
  ex.connect_s = now_s() - start;
  std::size_t off = 0;
  while (off < request_bytes.size()) {
    const ssize_t n = send(fd, request_bytes.data() + off,
                           request_bytes.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      close(fd);
      return ex;
    }
    off += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[8192];
  for (;;) {
    const ssize_t n = recv(fd, buf, sizeof buf, 0);
    if (n > 0) {
      response.append(buf, static_cast<std::size_t>(n));
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      break;  // EOF: the daemon closes after every response
    }
  }
  close(fd);
  const auto head_end = response.find("\r\n\r\n");
  if (response.rfind("HTTP/1.1 ", 0) != 0 || head_end == std::string::npos) {
    return ex;
  }
  ex.status = std::atoi(response.c_str() + 9);
  ex.body = response.substr(head_end + 4);
  ex.ok = true;
  return ex;
}

namespace {

void sleep_until_s(double t) {
  const double now = now_s();
  if (t <= now) return;
  // steady_clock is CLOCK_MONOTONIC on Linux, so an absolute sleep on that
  // clock wakes at the due time without drift.
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(t);
  ts.tv_nsec = static_cast<long>((t - std::floor(t)) * 1e9);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

/// Sleeps to shortly before `t`, then spins: waking an idle virtual CPU
/// from a timer can take hundreds of microseconds, which would make the
/// generator, not the daemon, the source of the latency tail.
void wait_until_s(double t) {
  constexpr double kSpin = 50e-6;
  sleep_until_s(t - kSpin);
  while (now_s() < t) {
  }
}

/// Calls on_tick(elapsed, good) at t0, t0 + tick_s, ... up to t0 + seconds.
void tick(double t0, double seconds, double tick_s,
          const std::atomic<std::size_t>& good, const TickFn& on_tick) {
  if (!on_tick) return;
  const auto ticks = static_cast<long>(std::floor(seconds / tick_s + 1e-9));
  for (long i = 0; i <= ticks; ++i) {
    sleep_until_s(t0 + static_cast<double>(i) * tick_s);
    on_tick(static_cast<double>(i) * tick_s,
            good.load(std::memory_order_relaxed));
  }
}

}  // namespace

std::vector<Timed> open_loop(double rate, double seconds, unsigned workers,
                             const SendFn& send, double tick_s,
                             const TickFn& on_tick) {
  const auto total = static_cast<std::size_t>(std::floor(rate * seconds));
  std::vector<Timed> out(total);
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> good{0};
  const double t0 = now_s() + 0.01;
  auto worker = [&] {
    prctl(PR_SET_TIMERSLACK, 1UL);  // wake within ~1 us of the due time
    for (;;) {
      const std::size_t k = next.fetch_add(1);
      if (k >= total) return;
      Timed& t = out[k];
      t.due = static_cast<double>(k) / rate;
      wait_until_s(t0 + t.due);
      t.sent = now_s() - t0;
      t.ok = send(k);
      t.done = now_s() - t0;
      if (t.ok) good.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> threads;
  for (unsigned w = 0; w < workers; ++w) threads.emplace_back(worker);
  tick(t0, seconds, tick_s, good, on_tick);
  for (auto& th : threads) th.join();
  return out;
}

std::vector<double> closed_loop(double seconds, unsigned workers,
                                double tick_s, const SendFn& send,
                                const TickFn& on_tick) {
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> good{0};
  std::mutex mu;
  std::vector<double> rtt_s;
  const double t0 = now_s();
  auto worker = [&] {
    std::vector<double> rtt;
    while (!stop.load(std::memory_order_relaxed)) {
      const double start = now_s();
      const bool ok = send(next.fetch_add(1));
      rtt.push_back(now_s() - start);
      if (ok) good.fetch_add(1, std::memory_order_relaxed);
    }
    const std::lock_guard<std::mutex> lock(mu);
    rtt_s.insert(rtt_s.end(), rtt.begin(), rtt.end());
  };
  std::vector<std::thread> threads;
  for (unsigned w = 0; w < workers; ++w) threads.emplace_back(worker);
  tick(t0, seconds, tick_s, good, on_tick);
  sleep_until_s(t0 + seconds);
  stop.store(true);
  for (auto& th : threads) th.join();
  return rtt_s;
}

}  // namespace perfbench
