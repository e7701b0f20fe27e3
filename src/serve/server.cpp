#include "serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <thread>
#include <utility>

#include "markov/solution_cache.hpp"
#include "obs/obs.hpp"
#include "obs/postmortem.hpp"
#include "parallel/pool.hpp"
#include "robust/fault_injection.hpp"
#include "serve/http.hpp"
#include "serve/json.hpp"
#include "serve/solve_json.hpp"

namespace relkit::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// Sends the whole buffer, waiting (via poll) up to `timeout_ms` total for
/// socket-buffer space. False when the peer is gone or too slow — callers
/// just close the connection; there is nobody left to tell.
bool send_all(int fd, std::string_view data, int timeout_ms) {
  const Clock::time_point give_up =
      Clock::now() + std::chrono::milliseconds(timeout_ms > 0 ? timeout_ms
                                                              : 5000);
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          give_up - Clock::now());
      if (left.count() <= 0) return false;
      struct pollfd pfd {fd, POLLOUT, 0};
      if (::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) return false;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;  // peer reset / closed
  }
  return true;
}

std::string error_body(const char* error_class, const std::string& message,
                       const std::string& trace_hex) {
  obs::JsonWriter w;
  w.begin_object().key("ok").boolean(false).key("trace_id").string(trace_hex);
  w.key("error_class").string(error_class).key("error").string(message);
  return w.end_object().take();
}

std::string format_seconds6(double s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", s);
  return buf;
}

int status_for_exit_class(int exit_class) {
  switch (exit_class) {
    case 0: return 200;
    case 5: return 200;  // degraded response, flagged in the body
    case 2: return 400;
    case 4: return 400;
    default: return 500;
  }
}

}  // namespace

struct Server::Conn {
  int fd = -1;
  HttpRequestParser parser;
  Clock::time_point read_deadline;
  Clock::time_point accepted_at;
  std::size_t bytes_in = 0;
};

struct Server::PendingRequest {
  int fd = -1;
  std::string body;
  Clock::time_point admitted_at;
  RequestLog log;
};

Server::Server(ServerOptions options) : options_(std::move(options)) {
  queue_ = std::make_unique<parallel::BoundedQueue<PendingRequest>>(
      options_.queue_capacity);
  // Registered here, not on first use, so /metrics exposes them at 0 from
  // the first scrape.
  for (const char* name :
       {"serve.bad_requests", "serve.deduped", "serve.degraded"}) {
    obs::counter(name);
  }
}

Server::~Server() { stop(true); }

bool Server::start(std::string* error) {
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what + ": " + std::strerror(errno);
    if (listen_fd_ >= 0) ::close(listen_fd_);
    listen_fd_ = -1;
    for (const int fd : wake_pipe_) {
      if (fd >= 0) ::close(fd);
    }
    wake_pipe_[0] = wake_pipe_[1] = -1;
    return false;
  };

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return fail("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    errno = EINVAL;
    return fail("bind address '" + options_.bind_address + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
      0) {
    return fail("bind");
  }
  if (::listen(listen_fd_, 64) != 0) return fail("listen");
  socklen_t len = sizeof addr;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    return fail("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  if (::pipe2(wake_pipe_, O_NONBLOCK | O_CLOEXEC) != 0) return fail("pipe");

  if (!options_.trace_path.empty()) {
    trace_sink_ = obs::ChromeTraceSink::open(options_.trace_path);
    if (trace_sink_ == nullptr) {
      return fail("trace file '" + options_.trace_path + "'");
    }
  }
  if (!options_.access_log_path.empty()) {
    access_log_ = obs::RotatingFileWriter::open(options_.access_log_path,
                                                options_.access_log_max_bytes);
    if (access_log_ == nullptr) {
      return fail("access log '" + options_.access_log_path + "'");
    }
  }

  // The daemon's whole point is its metrics surface; turn the obs layer on
  // unconditionally (the CLI only does so when asked to report).
  obs::set_enabled(true);
  obs::register_build_info();
  static obs::Gauge& ready_gauge = obs::gauge("serve.ready");
  ready_gauge.set(1.0);
  // The queue mirrors its depth into the gauge inside its own lock, so the
  // scrape can never observe a stale depth.
  queue_->bind_depth_gauge(&obs::gauge("serve.queue.depth"));

  running_.store(true, std::memory_order_release);
  event_thread_ = std::thread([this] { event_loop(); });
  dispatch_thread_ = std::thread([this] { dispatcher_loop(); });
  return true;
}

std::string Server::stop(bool drain) {
  if (stopped_.exchange(true)) return drain_summary_;
  draining_.store(true, std::memory_order_release);
  static obs::Gauge& ready_gauge = obs::gauge("serve.ready");
  ready_gauge.set(0.0);
  if (!drain) reject_queued_.store(true, std::memory_order_release);
  // Closing the queue stops admissions at the queue level and lets the
  // dispatcher drain what was already accepted; the event loop keeps
  // answering (503 draining) until the drain completes.
  queue_->close();
  if (dispatch_thread_.joinable()) dispatch_thread_.join();
  if (wake_pipe_[1] >= 0) {
    const char byte = 'x';
    [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  }
  if (event_thread_.joinable()) event_thread_.join();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  for (int& fd : wake_pipe_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  running_.store(false, std::memory_order_release);
  // Threads are joined: every sampled span tree has been forwarded and
  // every access-log line written — finalize both files.
  if (trace_sink_ != nullptr) trace_sink_->flush();
  if (access_log_ != nullptr) access_log_->flush();
  drain_summary_ = counts_.to_json();
  return drain_summary_;
}

void Server::finish_response(int fd, int status, const std::string& body,
                             RequestLog& log, const char* content_type) {
  const std::string extra =
      "X-Relkit-Trace-Id: " + log.trace_hex +
      "\r\ntraceparent: " + obs::make_traceparent(log.trace, log.seq) +
      "\r\n";
  const std::string response = http_response(
      status, body,
      content_type != nullptr
          ? std::string_view(content_type)
          : std::string_view("application/json; charset=utf-8"),
      extra);
  {
    obs::Span write_span("serve.write");
    write_span.set("bytes", static_cast<std::uint64_t>(response.size()));
    send_all(fd, response, options_.write_timeout_ms);
  }
  const double total_s =
      std::chrono::duration<double>(Clock::now() - log.started_at).count();
  static obs::Histogram& latency_hist = obs::histogram("serve.latency");
  latency_hist.observe(total_s);
  const std::string endpoint = log.target == "/solve"     ? "solve"
                               : log.target == "/metrics" ? "metrics"
                                                          : "other";
  record_slo(endpoint, log.error_class.empty() ? "ok" : log.error_class,
             total_s);
  write_access_log(log, status, body.size(), total_s);
  inflight_erase(log.seq);
  // Close last: a client that reads to EOF before sending its next request
  // then finds this request already logged, whichever thread answers next.
  ::close(fd);
}

void Server::log_unanswered(Conn& conn, const char* error_class) {
  RequestLog log;
  log.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  log.started_at = conn.accepted_at;
  const HttpRequest& request = conn.parser.request();
  log.method = request.method;
  log.target = request.target;
  log.bytes_in = conn.bytes_in;
  if (!request.traceparent.empty()) {
    log.trace = obs::parse_traceparent(request.traceparent);
    log.trace_from_client = log.trace.valid();
  }
  if (!log.trace.valid()) log.trace = obs::generate_trace_id();
  log.trace_hex = obs::trace_id_hex(log.trace);
  log.error_class = error_class;
  const double total_s =
      std::chrono::duration<double>(Clock::now() - log.started_at).count();
  record_slo("other", log.error_class, total_s);
  write_access_log(log, 0, 0, total_s);
}

void Server::write_access_log(const RequestLog& log, int status,
                              std::size_t bytes_out, double total_s) {
  if (access_log_ == nullptr) return;
  obs::JsonWriter w;
  w.begin_object().key("ts").raw(format_seconds6(
      std::chrono::duration<double>(
          std::chrono::system_clock::now().time_since_epoch())
          .count()));
  w.key("trace").string(log.trace_hex).key("req").integer(log.seq);
  w.key("id").string(log.id).key("method").string(log.method);
  w.key("path").string(log.target).key("status").integer(status);
  w.key("error_class").string(log.error_class.empty() ? "ok"
                                                      : log.error_class);
  w.key("bytes_in").integer(log.bytes_in).key("bytes_out").integer(bytes_out);
  w.key("queue_wait_s").raw(format_seconds6(log.queue_wait_s));
  w.key("solve_s").raw(format_seconds6(log.solve_s));
  w.key("total_s").raw(format_seconds6(total_s));
  w.key("degraded").boolean(log.degraded);
  w.key("cache_hit").boolean(log.cache_hit);
  access_log_->write_line(w.end_object().str());
}

void Server::record_slo(const std::string& endpoint,
                        const std::string& error_class, double total_s) {
  std::lock_guard lock(slo_mu_);
  auto& ep = slo_endpoints_[endpoint];
  if (ep == nullptr) ep = std::make_unique<obs::SlidingWindowHistogram>();
  ep->observe(total_s);
  auto& ec = slo_errors_[error_class];
  if (ec == nullptr) ec = std::make_unique<obs::SlidingWindowHistogram>();
  ec->observe(total_s);
}

void Server::refresh_slo_gauges() {
  std::lock_guard lock(slo_mu_);
  const auto publish = [](const std::string& prefix,
                          const obs::SlidingWindowHistogram& window) {
    const obs::SlidingWindowHistogram::Snapshot snap = window.snapshot();
    obs::gauge(prefix + ".count").set(static_cast<double>(snap.count));
    obs::gauge(prefix + ".p50").set(snap.p50);
    obs::gauge(prefix + ".p95").set(snap.p95);
    obs::gauge(prefix + ".p99").set(snap.p99);
  };
  for (const auto& [endpoint, window] : slo_endpoints_) {
    publish("serve.slo." + endpoint, *window);
  }
  for (const auto& [error_class, window] : slo_errors_) {
    publish("serve.slo.err." + error_class, *window);
  }
}

std::string Server::statusz_body() {
  std::string out = "relkit_serve statusz\n\n";
  const Clock::time_point now = Clock::now();
  {
    std::lock_guard lock(inflight_mu_);
    out += "in-flight requests: " + std::to_string(inflight_.size()) + "\n";
    if (!inflight_.empty()) {
      out +=
          "trace                             age_s     phase   deadline_s\n";
    }
    for (const auto& [seq, entry] : inflight_) {
      const double age =
          std::chrono::duration<double>(now - entry.admitted_at).count();
      const std::string deadline =
          entry.deadline.unlimited()
              ? std::string("inf")
              : format_seconds6(entry.deadline.remaining_seconds());
      out += entry.trace_hex + "  " + format_seconds6(age) + "  " +
             entry.phase + "  " + deadline + "\n";
    }
  }
  out += "\nrolling latency SLO (window ";
  {
    std::lock_guard lock(slo_mu_);
    double window_s = 60.0;
    if (!slo_endpoints_.empty()) {
      window_s = slo_endpoints_.begin()->second->window_seconds();
    }
    out += format_seconds6(window_s) + "s)\n";
    const auto row = [&](const std::string& label,
                         const obs::SlidingWindowHistogram& window) {
      const obs::SlidingWindowHistogram::Snapshot snap = window.snapshot();
      out += label + ": count=" + std::to_string(snap.count) +
             " p50=" + format_seconds6(snap.p50) +
             " p95=" + format_seconds6(snap.p95) +
             " p99=" + format_seconds6(snap.p99) + "\n";
    };
    for (const auto& [endpoint, window] : slo_endpoints_) {
      row("endpoint " + endpoint, *window);
    }
    for (const auto& [error_class, window] : slo_errors_) {
      row("class " + error_class, *window);
    }
  }
  // Stall-watchdog state (--watchdog-ms): operators checking a wedged
  // daemon see at a glance whether the watchdog already fired and on what.
  {
    const obs::postmortem::WatchdogStatus wd =
        obs::postmortem::watchdog_status();
    out += "\nstall watchdog: ";
    if (!wd.running) {
      out += "off (start with --watchdog-ms)\n";
    } else {
      out += "on deadline_ms=" + std::to_string(wd.deadline_ms) +
             " stalls=" + std::to_string(wd.stalls) +
             " progress_age_s=" + format_seconds6(wd.progress_age_s) +
             " open_span_threads=" + std::to_string(wd.open_span_threads) +
             "\n";
      if (wd.last_stall_span[0] != '\0') {
        out += "last stall span: " + std::string(wd.last_stall_span) + "\n";
      }
    }
  }
  return out;
}

void Server::inflight_insert(const RequestLog& log,
                             const robust::Deadline& dl) {
  std::lock_guard lock(inflight_mu_);
  inflight_[log.seq] = InFlight{log.trace_hex, Clock::now(), "queued", dl};
}

void Server::inflight_phase(std::uint64_t seq, const char* phase) {
  std::lock_guard lock(inflight_mu_);
  const auto it = inflight_.find(seq);
  if (it != inflight_.end()) it->second.phase = phase;
}

void Server::inflight_deadline(std::uint64_t seq,
                               const robust::Deadline& dl) {
  std::lock_guard lock(inflight_mu_);
  const auto it = inflight_.find(seq);
  if (it != inflight_.end()) it->second.deadline = dl;
}

void Server::inflight_erase(std::uint64_t seq) {
  std::lock_guard lock(inflight_mu_);
  inflight_.erase(seq);
}

void Server::event_loop() {
  std::vector<Conn> conns;
  std::vector<struct pollfd> pfds;
  static obs::Counter& evicted_counter = obs::counter("serve.evicted");

  for (;;) {
    pfds.clear();
    pfds.push_back({wake_pipe_[0], POLLIN, 0});
    pfds.push_back({listen_fd_, POLLIN, 0});
    for (const Conn& conn : conns) pfds.push_back({conn.fd, POLLIN, 0});

    ::poll(pfds.data(), pfds.size(), 50);

    if (pfds[0].revents & POLLIN) {
      char buf[16];
      while (::read(wake_pipe_[0], buf, sizeof buf) > 0) {
      }
      if (stopped_.load(std::memory_order_acquire)) break;
    }

    // Existing connections first: pfds[2 + i] mirrors conns[i] only until
    // new accepts are appended.
    const Clock::time_point now = Clock::now();
    for (std::size_t i = 0; i < conns.size();) {
      Conn& conn = conns[i];
      bool done = false;  // fd handed off or closed; drop the entry
      const auto& pfd = pfds[2 + i];
      if (pfd.revents & (POLLIN | POLLHUP | POLLERR)) {
        char buf[4096];
        for (;;) {
          const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
          if (n > 0) {
            conn.bytes_in += static_cast<std::size_t>(n);
            conn.parser.feed(std::string_view(buf,
                                              static_cast<std::size_t>(n)));
            if (conn.parser.status() != HttpRequestParser::Status::kNeedMore) {
              break;
            }
            continue;
          }
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          if (n < 0 && errno == EINTR) continue;
          // Peer closed (or reset) mid-request: nothing to answer, but the
          // abandoned request still gets its access-log line.
          if (conn.bytes_in > 0) log_unanswered(conn, "disconnected");
          ::close(conn.fd);
          done = true;
          break;
        }
        if (!done &&
            conn.parser.status() != HttpRequestParser::Status::kNeedMore) {
          route(conn);
          done = true;  // route() always hands off or closes the fd
        }
      }
      if (!done && now >= conn.read_deadline) {
        // Slow-client eviction: it had read_timeout_ms to deliver a full
        // request and did not. No response is owed, but the access log
        // still records the eviction with its own trace id.
        evicted_counter.add();
        log_unanswered(conn, "evicted");
        ::close(conn.fd);
        done = true;
      }
      if (done) {
        conns.erase(conns.begin() + static_cast<std::ptrdiff_t>(i));
        pfds.erase(pfds.begin() + static_cast<std::ptrdiff_t>(2 + i));
      } else {
        ++i;
      }
    }

    if (pfds[1].revents & POLLIN) {
      for (;;) {
        const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) break;
        conns.push_back(Conn{
            fd,
            HttpRequestParser(options_.max_header_bytes,
                              options_.max_body_bytes),
            Clock::now() + std::chrono::milliseconds(
                               options_.read_timeout_ms > 0
                                   ? options_.read_timeout_ms
                                   : 1 << 30),
            Clock::now(), 0});
      }
    }
  }

  for (const Conn& conn : conns) ::close(conn.fd);
}

void Server::route(Conn& conn) {
  static obs::Counter& bad_counter = obs::counter("serve.bad_requests");
  static obs::Counter& request_counter = obs::counter("serve.requests");
  static obs::Counter& shed_counter = obs::counter("serve.shed");

  const HttpRequest& request = conn.parser.request();

  // Every routed request — protocol errors included — gets a trace id:
  // adopted from a valid incoming traceparent, minted otherwise.
  RequestLog log;
  log.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  log.started_at = Clock::now();
  log.method = request.method;
  log.target = request.target;
  log.bytes_in = conn.bytes_in;
  if (!request.traceparent.empty()) {
    log.trace = obs::parse_traceparent(request.traceparent);
    log.trace_from_client = log.trace.valid();
  }
  if (!log.trace.valid()) log.trace = obs::generate_trace_id();
  log.trace_hex = obs::trace_id_hex(log.trace);
  log.sampled =
      trace_sink_ != nullptr && obs::sample_trace(options_.trace_sample);

  const auto protocol_error = [&](int status, const std::string& message) {
    bad_counter.add();
    counts_.add_named("bad_request");
    log.error_class = "bad_request";
    finish_response(conn.fd, status,
                    error_body("bad_request", message, log.trace_hex), log);
  };

  using Status = HttpRequestParser::Status;
  switch (conn.parser.status()) {
    case Status::kBadRequest:
      protocol_error(400, "malformed HTTP request");
      return;
    case Status::kHeadersTooLarge:
      protocol_error(431, "headers too large");
      return;
    case Status::kBodyTooLarge:
      protocol_error(413, "body too large");
      return;
    case Status::kUnsupported:
      protocol_error(501, "unsupported HTTP version or transfer coding");
      return;
    case Status::kNeedMore:
    case Status::kComplete:
      break;
  }

  if (request.method == "GET" && request.target == "/healthz") {
    finish_response(conn.fd, 200, "{\"ok\":true}", log);
    return;
  }
  if (request.method == "GET" && request.target == "/readyz") {
    if (draining_.load(std::memory_order_acquire)) {
      log.error_class = "draining";
      finish_response(conn.fd, 503,
                      "{\"ready\":false,\"error_class\":\"draining\"}", log);
    } else {
      finish_response(conn.fd, 200, "{\"ready\":true}", log);
    }
    return;
  }
  if (request.method == "GET" && request.target == "/metrics") {
    refresh_slo_gauges();
    obs::refresh_process_gauges();
    finish_response(conn.fd, 200, obs::Registry::instance().to_openmetrics(),
                    log, obs::kOpenMetricsContentType);
    return;
  }
  if (request.method == "GET" && request.target == "/statusz") {
    refresh_slo_gauges();
    finish_response(conn.fd, 200, statusz_body(), log,
                    "text/plain; charset=utf-8");
    return;
  }
  if (request.target == "/solve") {
    if (request.method != "POST") {
      protocol_error(405, "/solve expects POST");
      return;
    }
    request_counter.add();
    if (draining_.load(std::memory_order_acquire)) {
      counts_.add_named("draining");
      log.error_class = "draining";
      finish_response(conn.fd, 503,
                      error_body("draining", "server is draining",
                                 log.trace_hex),
                      log);
      return;
    }
    robust::Deadline admission_deadline;
    if (options_.default_timeout_ms > 0) {
      admission_deadline = robust::Deadline::after_seconds(
          options_.default_timeout_ms / 1000.0);
    }
    inflight_insert(log, admission_deadline);
    PendingRequest pending{conn.fd, request.body, Clock::now(), log};
    if (!queue_->try_push(std::move(pending))) {
      // Admission control: the queue is the only buffer, and it is full.
      // Shed immediately — a client deserves a fast 503 over an unbounded
      // wait.
      shed_counter.add();
      counts_.add_named("overload");
      log.error_class = "overload";
      finish_response(conn.fd, 503,
                      error_body("overload", "solve queue is full",
                                 log.trace_hex),
                      log);
      return;
    }
    return;  // fd ownership moved into the queue
  }

  protocol_error(404, "unknown endpoint '" + request.target + "'");
}

void Server::dispatcher_loop() {
  for (;;) {
    std::vector<PendingRequest> batch = queue_->pop_batch(options_.max_batch);
    if (batch.empty()) break;  // closed and fully drained
    if (reject_queued_.load(std::memory_order_acquire)) {
      for (PendingRequest& request : batch) {
        counts_.add_named("draining");
        request.log.error_class = "draining";
        finish_response(request.fd, 503,
                        error_body("draining",
                                   "server stopped before this request ran",
                                   request.log.trace_hex),
                        request.log);
      }
      continue;
    }
    parallel::global_pool().for_chunks(
        batch.size(), 1,
        [&](std::size_t begin, std::size_t) { handle_request(batch[begin]); });
  }
}

void Server::handle_request(PendingRequest& request) {
  static obs::Counter& error_counter = obs::counter("serve.internal_errors");
  RequestLog& log = request.log;
  auto& injector = testing::FaultInjector::instance();
  // Chaos hook: an injected positive delay stalls this worker, letting
  // tests saturate the admission queue deterministically. The stall counts
  // as queue wait (it is time the request spent not being solved).
  const double delay_ms = injector.tap("serve.worker.delay_ms", 0.0);
  if (delay_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<long>(delay_ms)));
  }

  // Each request runs entirely on this worker thread, so a per-request
  // thread filter sink collects exactly its span tree (solver-internal
  // spans included) for the Chrome trace.
  obs::Tracer& tracer = obs::Tracer::instance();
  std::shared_ptr<obs::ThreadFilterSink> collector;
  if (log.sampled && trace_sink_ != nullptr) {
    collector =
        std::make_shared<obs::ThreadFilterSink>(tracer.thread_index());
    tracer.add_sink(collector);
  }

  const double queued =
      std::chrono::duration<double>(Clock::now() - request.admitted_at)
          .count();
  log.queue_wait_s = queued;

  int status = 500;
  std::string body;
  {
    obs::Span request_span("serve.request");
    request_span.set("trace_id", log.trace_hex);
    request_span.set("target", log.target);
    if (request_span.active()) {
      // The queue wait happened before this thread ever saw the request;
      // emit it as a synthetic child span backdated to admission.
      obs::SpanRecord queue_wait;
      queue_wait.id = tracer.next_id();
      queue_wait.parent = request_span.id();
      queue_wait.depth = 1;
      queue_wait.thread = tracer.thread_index();
      queue_wait.name = "serve.queue_wait";
      queue_wait.start_s = tracer.now_s() - queued;
      queue_wait.wall_s = queued;
      tracer.emit(queue_wait);
    }
    try {
      // Deadlines are measured from ADMISSION, so queue wait counts
      // against the request's budget.
      robust::Deadline deadline;
      if (options_.default_timeout_ms > 0) {
        deadline = robust::Deadline::after_seconds(
            options_.default_timeout_ms / 1000.0 - queued);
      }
      body = solve_response_body(request.body, deadline, queued, log,
                                 &status);
    } catch (const std::exception& e) {
      // The solve core classifies everything it expects; reaching this
      // handler means a bug, but the daemon still answers and survives.
      error_counter.add();
      counts_.add_named("error");
      status = 500;
      log.error_class = "error";
      body = error_body("error", e.what(), log.trace_hex);
    } catch (...) {
      error_counter.add();
      counts_.add_named("error");
      status = 500;
      log.error_class = "error";
      body = error_body("error", "unknown internal error", log.trace_hex);
    }
    inflight_phase(log.seq, "write");
    // Inside the request span so serve.write nests under serve.request.
    finish_response(request.fd, status, body, log);
  }

  if (collector != nullptr) {
    tracer.remove_sink(collector);
    for (const obs::SpanRecord& record : collector->take()) {
      trace_sink_->on_span(record);
    }
  }
}

std::string Server::solve_response_body(const std::string& request_body,
                                        const robust::Deadline& deadline,
                                        double queued_seconds,
                                        RequestLog& log, int* status_out) {
  static obs::Counter& bad_counter = obs::counter("serve.bad_requests");
  static obs::Counter& dedup_counter = obs::counter("serve.deduped");
  static obs::Counter& degraded_counter = obs::counter("serve.degraded");
  auto& injector = testing::FaultInjector::instance();
  auto& cache = markov::SolutionCache::instance();

  inflight_phase(log.seq, "parse");
  // Scoped span over JSON parsing + request validation; .reset() closes it
  // before the solve, and early error returns close it on unwind.
  std::optional<obs::Span> parse_span;
  parse_span.emplace("serve.parse");

  const auto bad_request = [&](const std::string& message) {
    bad_counter.add();
    counts_.add_named("bad_request");
    log.error_class = "bad_request";
    *status_out = 400;
    return error_body("bad_request", message, log.trace_hex);
  };

  const JsonParseResult parsed = parse_json(request_body);
  if (!parsed.ok) {
    return bad_request("invalid JSON at byte " +
                       std::to_string(parsed.error_offset) + ": " +
                       parsed.error);
  }
  if (!parsed.value.is_object()) {
    return bad_request("request must be a JSON object");
  }

  std::string id;
  if (const JsonValue* v = parsed.value.get("id")) {
    if (!v->is_string()) return bad_request("\"id\" must be a string");
    id = v->as_string();
    log.id = id;
  }
  SolveSpec spec;
  if (const JsonValue* v = parsed.value.get("model")) {
    if (!v->is_string()) return bad_request("\"model\" must be a string");
    spec.inline_text = v->as_string();
  }
  if (const JsonValue* v = parsed.value.get("path")) {
    if (!v->is_string()) return bad_request("\"path\" must be a string");
    if (!options_.allow_path_requests) {
      return bad_request("path requests are disabled (--allow-paths)");
    }
    spec.path = v->as_string();
  }
  if (spec.inline_text.empty() && spec.path.empty()) {
    return bad_request("request needs \"model\" (inline source) or \"path\"");
  }
  spec.times = options_.default_times;
  if (const JsonValue* v = parsed.value.get("times")) {
    if (!v->is_array()) return bad_request("\"times\" must be an array");
    spec.times.clear();
    for (const JsonValue& t : v->as_array()) {
      if (!t.is_number()) return bad_request("\"times\" entries must be numbers");
      spec.times.push_back(t.as_number());
    }
  }
  if (const JsonValue* v = parsed.value.get("solver")) {
    if (!v->is_string() ||
        !robust::parse_solver_choice(v->as_string(), spec.solver)) {
      return bad_request(
          "\"solver\" must be one of auto, gth, sor, bicgstab, power, ad");
    }
  }
  spec.deadline = deadline;
  if (const JsonValue* v = parsed.value.get("timeout_ms")) {
    if (!v->is_number() || v->as_number() <= 0) {
      return bad_request("\"timeout_ms\" must be a positive number");
    }
    // Also admission-relative: time already spent queued counts.
    spec.deadline = robust::Deadline::earliest(
        spec.deadline,
        robust::Deadline::after_seconds(v->as_number() / 1000.0 -
                                        queued_seconds));
  }
  parse_span.reset();
  inflight_deadline(log.seq, spec.deadline);
  inflight_phase(log.seq, "solve");

  // Chaos hook: a whole-request injected failure, independent of the model.
  if (injector.should_fail("serve.solve")) {
    counts_.add(3);
    log.error_class = "numerical";
    *status_out = 500;
    return error_body("numerical", "injected failure: serve.solve",
                      log.trace_hex);
  }

  const auto solve_body = [&](bool cached, const std::string& fields) {
    obs::JsonWriter w;
    w.begin_object().key("trace_id").string(log.trace_hex);
    if (!id.empty()) w.key("id").string(id).key("cached").boolean(cached);
    return w.raw(fields).end_object().take();
  };

  // Idempotent retry: a request id maps to its full successful response.
  // Like every cache interaction, this is bypassed while the fault
  // injector is armed — injected faults are invisible to the key.
  const bool dedup = !id.empty() && cache.enabled() && !injector.active();
  std::optional<markov::SolutionCache::LazyKey> dedup_key;
  if (dedup) {
    markov::CacheKey key;
    key.add(markov::SolutionCache::kResponseTag);
    key.add(std::string_view(id));
    dedup_key = markov::SolutionCache::LazyKey::of(std::move(key));
    // 0 result words: the payload's size is known only after the solve.
    if (const auto hit = cache.lookup(*dedup_key, 0)) {
      dedup_counter.add();
      counts_.add(0);
      log.cache_hit = true;
      *status_out = 200;
      return solve_body(true, hit->payload);
    }
  }

  const auto solve_started = Clock::now();
  SolveOutcome outcome;
  {
    obs::Span solve_span("serve.solve");
    outcome = solve_model(spec);
    solve_span.set("exit_class", outcome.exit_class);
    solve_span.set("degraded", outcome.degraded);
  }
  log.solve_s =
      std::chrono::duration<double>(Clock::now() - solve_started).count();
  log.error_class = outcome.error_class;
  log.degraded = outcome.degraded;
  counts_.add(outcome.exit_class);
  if (outcome.degraded) degraded_counter.add();
  *status_out = status_for_exit_class(outcome.exit_class);

  // Only complete successes become idempotency records: a degraded or
  // failed solve must re-run on retry, never be replayed from cache.
  if (dedup && outcome.exit_class == 0 && !injector.active()) {
    cache.insert(*dedup_key,
                 markov::SolutionCache::Entry{{}, {}, outcome.fields});
  }
  return solve_body(false, outcome.fields);
}

}  // namespace relkit::serve
