// Chaos battery for relkit_serve: every test throws a different kind of
// hostility at a live server — malformed payloads, injected solver
// failures, queue saturation, impossible deadlines, slow and vanishing
// clients, shutdown under load — and asserts the daemon never crashes,
// never leaks a worker (stop() joins everything; the suite runs under the
// tsan label), and always answers with the correct error class.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "markov/solution_cache.hpp"
#include "obs/obs.hpp"
#include "robust/fault_injection.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace {

using namespace relkit;

constexpr const char* kRbdSource =
    "model rbd duplex\n"
    "event a prob 0.99\n"
    "event b prob 0.95\n"
    "gate top and a b\n"
    "top top\n";

class ServeChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    markov::SolutionCache::instance().clear();
    options_.port = 0;
    options_.queue_capacity = 8;
  }

  void TearDown() override {
    if (server_) server_->stop(true);
  }

  void start() {
    server_ = std::make_unique<serve::Server>(options_);
    std::string error;
    ASSERT_TRUE(server_->start(&error)) << error;
    port_ = server_->port();
  }

  serve::ClientResponse post(const std::string& body, int timeout_ms = 5000) {
    return serve::http_post("127.0.0.1", port_, "/solve", body, timeout_ms);
  }

  static std::string solve_request(const std::string& model_source,
                                   const std::string& id = "",
                                   const std::string& extra = "") {
    std::string body = "{";
    if (!id.empty()) body += "\"id\":\"" + id + "\",";
    body += "\"model\":\"" + obs::json_escape(model_source) + "\"" + extra +
            "}";
    return body;
  }

  void expect_bad_request(const std::string& body, const char* what) {
    const auto response = post(body);
    ASSERT_TRUE(response.ok) << what << ": " << response.error;
    EXPECT_EQ(response.status, 400) << what;
    EXPECT_NE(response.body.find("\"error_class\":\"bad_request\""),
              std::string::npos)
        << what << ": " << response.body;
  }

  /// The daemon still solves a healthy request — the recovery probe every
  /// chaos test ends with.
  void expect_recovered() {
    const auto response = post(solve_request(kRbdSource));
    ASSERT_TRUE(response.ok) << response.error;
    EXPECT_EQ(response.status, 200);
    EXPECT_NE(response.body.find("\"ok\":true"), std::string::npos);
  }

  serve::ServerOptions options_;
  std::unique_ptr<serve::Server> server_;
  int port_ = 0;
};

// ---- malformed payloads ----------------------------------------------------

TEST_F(ServeChaosTest, MalformedPayloadsGetStructured400s) {
  start();
  expect_bad_request("this is not json", "invalid JSON");
  expect_bad_request("[1,2,3]", "non-object");
  expect_bad_request("{}", "missing model");
  expect_bad_request("{\"model\":42}", "non-string model");
  expect_bad_request(solve_request(kRbdSource, "", ",\"times\":\"soon\""),
                     "non-array times");
  expect_bad_request(solve_request(kRbdSource, "", ",\"times\":[\"x\"]"),
                     "non-number time");
  expect_bad_request(solve_request(kRbdSource, "", ",\"timeout_ms\":-5"),
                     "negative timeout");
  expect_bad_request(solve_request(kRbdSource, "", ",\"timeout_ms\":\"1\""),
                     "non-number timeout");
  expect_bad_request("{\"id\":7,\"model\":\"x\"}", "non-string id");
  expect_recovered();
}

TEST_F(ServeChaosTest, InvalidJsonErrorCarriesByteOffset) {
  start();
  const auto response = post("{\"model\": }");
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.body.find("invalid JSON at byte 10"), std::string::npos)
      << response.body;
}

TEST_F(ServeChaosTest, OversizedBodyIsRejectedWith413) {
  options_.max_body_bytes = 128;
  start();
  const auto response = post(solve_request(std::string(4096, 'x')));
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.status, 413);
  EXPECT_NE(response.body.find("\"error_class\":\"bad_request\""),
            std::string::npos);
  expect_recovered();
}

TEST_F(ServeChaosTest, RawGarbageAndUnsupportedFramingAreAnswered) {
  start();
  {
    const int fd = serve::tcp_connect("127.0.0.1", port_);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(serve::tcp_send(fd, "complete garbage\r\nno: framing\r\n\r\n"));
    char buf[512];
    const ssize_t n = ::read(fd, buf, sizeof buf);
    ASSERT_GT(n, 0);
    EXPECT_NE(std::string(buf, static_cast<std::size_t>(n))
                  .find("HTTP/1.1 400"),
              std::string::npos);
    serve::tcp_close(fd);
  }
  {
    const int fd = serve::tcp_connect("127.0.0.1", port_);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(serve::tcp_send(
        fd,
        "POST /solve HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"));
    char buf[512];
    const ssize_t n = ::read(fd, buf, sizeof buf);
    ASSERT_GT(n, 0);
    EXPECT_NE(std::string(buf, static_cast<std::size_t>(n))
                  .find("HTTP/1.1 501"),
              std::string::npos);
    serve::tcp_close(fd);
  }
  expect_recovered();
}

// ---- injected solver failures ----------------------------------------------

TEST_F(ServeChaosTest, InjectedSolveFailureIs500Numerical) {
  start();
  const std::size_t cache_before = markov::SolutionCache::instance().size();
  {
    relkit::testing::FaultInjectionScope injection;
    injection->fail_method("serve.solve");
    const auto response = post(solve_request(kRbdSource, "chaos-inject-1"));
    ASSERT_TRUE(response.ok) << response.error;
    EXPECT_EQ(response.status, 500);
    EXPECT_NE(response.body.find("\"error_class\":\"numerical\""),
              std::string::npos);
    // While the injector is armed the solution cache is bypassed in both
    // directions: the failure must not be recorded under the request id.
    EXPECT_EQ(markov::SolutionCache::instance().size(), cache_before);
  }
  // After reset the same id solves fresh (the failure was never cached).
  const auto retry = post(solve_request(kRbdSource, "chaos-inject-1"));
  ASSERT_TRUE(retry.ok) << retry.error;
  EXPECT_EQ(retry.status, 200);
  EXPECT_NE(retry.body.find("\"cached\":false"), std::string::npos);
  EXPECT_NE(retry.body.find("\"ok\":true"), std::string::npos);
}

TEST_F(ServeChaosTest, InjectedMarkovSolverFailureFallsBackAndAnswers) {
  start();
  const std::string source =
      "model rbd pool\n"
      "event farm markov 12 9 0.0031 0.41\n"
      "top farm\n";
  relkit::testing::FaultInjectionScope injection;
  // Knock out the iterative steady-state methods; the robust fallback
  // chain must still find a path (dense GTH) and the daemon must answer.
  injection->fail_method("power");
  injection->fail_method("sor");
  const auto response = post(solve_request(source));
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_TRUE(response.status == 200 || response.status == 500)
      << response.status << " " << response.body;
  EXPECT_FALSE(response.body.empty());
}

// ---- queue saturation ------------------------------------------------------

TEST_F(ServeChaosTest, SaturatedQueueShedsWithOverload) {
  options_.queue_capacity = 2;
  start();
  relkit::testing::FaultInjectionScope injection;
  // Stall the first-handled request so later ones pile into the bounded
  // queue while the (single-threaded on this box) dispatcher is busy.
  injection->inject_value("serve.worker.delay_ms", 400.0, /*at_hit=*/0);

  std::atomic<int> answered{0};
  std::atomic<int> ok_count{0};
  std::atomic<int> shed_count{0};
  std::vector<std::thread> clients;
  const auto fire = [&](int index) {
    const auto response = post(
        solve_request(kRbdSource, "", ",\"times\":[" +
                                          std::to_string(10 + index) + "]"),
        10000);
    if (!response.ok) return;
    ++answered;
    if (response.status == 200) ++ok_count;
    if (response.status == 503 &&
        response.body.find("\"error_class\":\"overload\"") !=
            std::string::npos) {
      ++shed_count;
    }
  };
  clients.emplace_back(fire, 0);  // the stalled one
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  for (int i = 1; i <= 6; ++i) clients.emplace_back(fire, i);
  for (std::thread& t : clients) t.join();

  // Every client got an answer; with a worker stalled and capacity 2, the
  // flood cannot all fit — at least one was shed with the overload class.
  EXPECT_EQ(answered.load(), 7);
  EXPECT_GE(shed_count.load(), 1) << "ok=" << ok_count.load();
  EXPECT_GE(ok_count.load(), 1);
  EXPECT_EQ(answered.load(), ok_count.load() + shed_count.load());
}

// ---- deadlines -------------------------------------------------------------

TEST_F(ServeChaosTest, ImpossibleDeadlineYieldsFlaggedDegradedResponse) {
  start();
  // Large enough to dodge the dense direct solver (threshold 512 states)
  // so the deadline-checked iterative path runs; rates unique to this test
  // so no earlier cache entry can satisfy the solve.
  const std::string source =
      "model rbd pool\n"
      "event farm markov 640 600 0.0017 0.093\n"
      "top farm\n";
  const auto response =
      post(solve_request(source, "", ",\"timeout_ms\":1"), 30000);
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"degraded\":true"), std::string::npos)
      << response.body.substr(0, 300);
  EXPECT_NE(response.body.find("\"partial\":["), std::string::npos);
  EXPECT_NE(response.body.find("\"report\":{"), std::string::npos);
  EXPECT_NE(response.body.find("\"error_class\":\"deadline\""),
            std::string::npos);
  expect_recovered();
}

// 1e13 ms (about 317 years) is past what the steady clock can represent
// from now: no deadline at all, never one that wrapped into the past.
TEST_F(ServeChaosTest, HugeTimeoutIsNotAnExpiredDeadline) {
  start();
  // The iterative-path pool above, with rates unique to this test so no
  // cache entry can answer it.
  const std::string source =
      "model rbd pool\n"
      "event farm markov 640 600 0.0019 0.087\n"
      "top farm\n";
  const auto response =
      post(solve_request(source, "", ",\"timeout_ms\":1e13"), 30000);
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"ok\":true"), std::string::npos)
      << response.body.substr(0, 300);
  EXPECT_EQ(response.body.find("\"degraded\":true"), std::string::npos);
  expect_recovered();
}

// ---- hostile clients -------------------------------------------------------

TEST_F(ServeChaosTest, SlowClientIsEvicted) {
  options_.read_timeout_ms = 100;
  start();
  const int fd = serve::tcp_connect("127.0.0.1", port_);
  ASSERT_GE(fd, 0);
  // Half a request, then stall: the event loop's sweep must evict us.
  ASSERT_TRUE(serve::tcp_send(fd, "POST /solve HTTP/1.1\r\nContent-Le"));
  char buf[64];
  const ssize_t n = ::read(fd, buf, sizeof buf);  // blocks until eviction
  EXPECT_LE(n, 0);  // server closed without a response
  serve::tcp_close(fd);
  expect_recovered();
}

TEST_F(ServeChaosTest, MidRequestDisconnectIsHarmless) {
  start();
  for (int i = 0; i < 5; ++i) {
    const int fd = serve::tcp_connect("127.0.0.1", port_);
    ASSERT_GE(fd, 0);
    serve::tcp_send(fd, "POST /solve HTTP/1.1\r\nContent-Length: 999\r\n\r\n{");
    serve::tcp_close(fd);  // vanish mid-body
  }
  expect_recovered();
}

// ---- observability under hostility -----------------------------------------

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST_F(ServeChaosTest, ShedRequestsEmitCompleteAccessLogLines) {
  const std::string log_path =
      ::testing::TempDir() + "relkit_chaos_shed_access.log";
  std::remove(log_path.c_str());
  options_.access_log_path = log_path;
  options_.queue_capacity = 2;
  start();
  relkit::testing::FaultInjectionScope injection;
  injection->inject_value("serve.worker.delay_ms", 400.0, /*at_hit=*/0);

  std::vector<std::thread> clients;
  const auto fire = [&](int index) {
    (void)post(solve_request(kRbdSource, "", ",\"times\":[" +
                                              std::to_string(30 + index) +
                                              "]"),
               10000);
  };
  clients.emplace_back(fire, 0);  // the stalled one
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  for (int i = 1; i <= 6; ++i) clients.emplace_back(fire, i);
  for (std::thread& t : clients) t.join();
  server_->stop(true);

  // Shed requests never reached a worker, but their access-log lines are
  // complete: 503, overload class, and a trace id like any other request.
  const std::string log = slurp(log_path);
  const std::size_t shed = log.find("\"error_class\":\"overload\"");
  ASSERT_NE(shed, std::string::npos) << log;
  const std::size_t line_start = log.rfind('\n', shed) + 1;
  const std::size_t line_end = log.find('\n', shed);
  const std::string line = log.substr(line_start, line_end - line_start);
  EXPECT_NE(line.find("\"status\":503"), std::string::npos) << line;
  EXPECT_NE(line.find("\"trace\":\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"path\":\"/solve\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"total_s\":"), std::string::npos) << line;
  std::remove(log_path.c_str());
}

TEST_F(ServeChaosTest, EvictedAndVanishedClientsStillGetAccessLogLines) {
  const std::string log_path =
      ::testing::TempDir() + "relkit_chaos_evict_access.log";
  std::remove(log_path.c_str());
  options_.access_log_path = log_path;
  options_.read_timeout_ms = 100;
  start();
  {
    // Half a request, then stall until the sweep evicts us.
    const int fd = serve::tcp_connect("127.0.0.1", port_);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(serve::tcp_send(fd, "POST /solve HTTP/1.1\r\nContent-Le"));
    char buf[64];
    EXPECT_LE(::read(fd, buf, sizeof buf), 0);  // closed without a response
    serve::tcp_close(fd);
  }
  {
    // Vanish mid-body: a disconnect, not an eviction.
    const int fd = serve::tcp_connect("127.0.0.1", port_);
    ASSERT_GE(fd, 0);
    serve::tcp_send(fd,
                    "POST /solve HTTP/1.1\r\nContent-Length: 999\r\n\r\n{");
    serve::tcp_close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  server_->stop(true);

  // Unanswered connections are logged with status 0 and their own error
  // classes, each still carrying a (generated) trace id.
  const std::string log = slurp(log_path);
  for (const char* error_class : {"evicted", "disconnected"}) {
    const std::size_t pos =
        log.find("\"error_class\":\"" + std::string(error_class) + "\"");
    ASSERT_NE(pos, std::string::npos) << error_class << " missing:\n" << log;
    const std::size_t line_start = log.rfind('\n', pos) + 1;
    const std::size_t line_end = log.find('\n', pos);
    const std::string line = log.substr(line_start, line_end - line_start);
    EXPECT_NE(line.find("\"status\":0"), std::string::npos) << line;
    EXPECT_NE(line.find("\"trace\":\""), std::string::npos) << line;
  }
  std::remove(log_path.c_str());
}

TEST_F(ServeChaosTest, StatuszShowsInFlightRequestsDuringAStall) {
  start();
  relkit::testing::FaultInjectionScope injection;
  injection->inject_value("serve.worker.delay_ms", 500.0, /*at_hit=*/0);
  std::thread client([&] {
    (void)post(solve_request(kRbdSource, "stall-1"), 10000);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const auto response =
      serve::http_get("127.0.0.1", port_, "/statusz", 5000);
  client.join();
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.status, 200);
  // The stalled solve is visible in the in-flight table with its trace id,
  // age, and phase; /statusz itself is not tracked (it is answered inline).
  EXPECT_NE(response.body.find("in-flight requests: 1"), std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("queued"), std::string::npos)
      << response.body;
}

// ---- shutdown --------------------------------------------------------------

TEST_F(ServeChaosTest, DrainUnderLoadAnswersEverythingAccepted) {
  start();
  relkit::testing::FaultInjectionScope injection;
  injection->inject_value("serve.worker.delay_ms", 200.0, /*at_hit=*/0);

  std::atomic<int> answered{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < 3; ++i) {
    clients.emplace_back([&, i] {
      const auto response = post(
          solve_request(kRbdSource, "", ",\"times\":[" +
                                            std::to_string(20 + i) + "]"),
          10000);
      if (response.ok && response.status == 200) ++answered;
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  const std::string summary = server_->stop(/*drain=*/true);
  for (std::thread& t : clients) t.join();

  // Graceful drain: everything accepted before the stop was still solved.
  EXPECT_EQ(answered.load(), 3);
  EXPECT_NE(summary.find("\"summary\":true"), std::string::npos);
  EXPECT_NE(summary.find("\"ok\":3"), std::string::npos);

  // And the drained server answers no more: readiness reflects draining.
  const auto after = post(solve_request(kRbdSource), 500);
  EXPECT_FALSE(after.ok && after.status == 200);
}

TEST_F(ServeChaosTest, RepeatedStartStopCyclesDoNotLeak) {
  // Worker-leak canary: each cycle spawns and joins the event loop and
  // dispatcher; under the tsan label this also shakes out shutdown races.
  for (int i = 0; i < 5; ++i) {
    serve::Server server(options_);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    const auto response = serve::http_get("127.0.0.1", server.port(),
                                          "/healthz");
    EXPECT_EQ(response.status, 200);
    server.stop(i % 2 == 0);  // alternate graceful drain and hard stop
    EXPECT_FALSE(server.running());
  }
}

// ---- the real binary -------------------------------------------------------

#ifdef RELKIT_SERVE_BIN
TEST(ServeDaemon, SigtermDrainsPrintsSummaryAndExitsClean) {
  int out_pipe[2];
  ASSERT_EQ(::pipe(out_pipe), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    ::execl(RELKIT_SERVE_BIN, "relkit_serve", "--port", "0",
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(out_pipe[1]);
  std::FILE* out = ::fdopen(out_pipe[0], "r");
  ASSERT_NE(out, nullptr);
  char line[512];
  ASSERT_NE(std::fgets(line, sizeof line, out), nullptr);
  int port = 0;
  ASSERT_EQ(std::sscanf(line, "listening on %d", &port), 1) << line;

  const std::string body =
      "{\"model\":\"" + obs::json_escape(kRbdSource) + "\"}";
  const auto response = serve::http_post("127.0.0.1", port, "/solve", body);
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.status, 200);

  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  std::string tail;
  while (std::fgets(line, sizeof line, out) != nullptr) tail += line;
  std::fclose(out);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 0);
  // The drain summary is the same shape --batch prints.
  EXPECT_NE(tail.find("\"summary\":true"), std::string::npos) << tail;
  EXPECT_NE(tail.find("\"ok\":1"), std::string::npos) << tail;
}
#endif

}  // namespace
