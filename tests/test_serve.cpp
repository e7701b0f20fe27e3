// relkit_serve engine tests: the JSON/HTTP parsers, the bounded admission
// queue, the shared solve core, and the daemon's happy paths (endpoints,
// solve responses identical to the CLI's, idempotent request-id dedup
// through the solution cache, drain summaries). The hostile-input battery
// lives in test_serve_chaos.cpp.
#include <gtest/gtest.h>

#include <dirent.h>
#include <fcntl.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "markov/solution_cache.hpp"
#include "obs/obs.hpp"
#include "parallel/queue.hpp"
#include "robust/fault_injection.hpp"
#include "robust/robust.hpp"
#include "serve/client.hpp"
#include "serve/http.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"
#include "serve/solve_json.hpp"
#include "serve/summary.hpp"

namespace {

using namespace relkit;

// ---- JSON parser -----------------------------------------------------------

TEST(JsonParser, ParsesScalarsAndStructure) {
  const auto r = serve::parse_json(
      "{\"a\": 1.5, \"b\": [true, false, null], \"c\": \"x\\n\\u0041\"}");
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_TRUE(r.value.is_object());
  EXPECT_DOUBLE_EQ(r.value.get("a")->as_number(), 1.5);
  const auto& arr = r.value.get("b")->as_array();
  ASSERT_EQ(arr.size(), 3u);
  EXPECT_TRUE(arr[0].as_bool());
  EXPECT_FALSE(arr[1].as_bool());
  EXPECT_TRUE(arr[2].is_null());
  EXPECT_EQ(r.value.get("c")->as_string(), "x\nA");
}

TEST(JsonParser, ParsesNumbers) {
  for (const auto& [text, want] :
       std::vector<std::pair<std::string, double>>{
           {"0", 0.0}, {"-0", -0.0}, {"42", 42.0}, {"-17.25", -17.25},
           {"1e3", 1000.0}, {"2.5E-2", 0.025}, {"1.25e+2", 125.0}}) {
    const auto r = serve::parse_json(text);
    ASSERT_TRUE(r.ok) << text << ": " << r.error;
    EXPECT_DOUBLE_EQ(r.value.as_number(), want) << text;
  }
}

TEST(JsonParser, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "{\"a\" 1}", "tru", "01", "1.",
        ".5", "1e", "+1", "nan", "inf", "\"unterminated", "\"bad\\q\"",
        "\"ctrl\x01\"", "{\"a\":1} extra", "1 2", "'single'",
        "\"\\ud800\"", "\"\\udc00 lone low\"", "1e999"}) {
    const auto r = serve::parse_json(bad);
    EXPECT_FALSE(r.ok) << "accepted: " << bad;
    EXPECT_FALSE(r.error.empty()) << bad;
  }
}

TEST(JsonParser, ReportsErrorOffset) {
  const auto r = serve::parse_json("{\"a\": zoo}");
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.error_offset, 6u);
}

TEST(JsonParser, EnforcesDepthLimit) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  deep += "1";
  for (int i = 0; i < 100; ++i) deep += "]";
  EXPECT_FALSE(serve::parse_json(deep, 64).ok);
  EXPECT_TRUE(serve::parse_json(deep, 128).ok);
}

TEST(JsonParser, LastDuplicateKeyWins) {
  const auto r = serve::parse_json("{\"a\": 1, \"a\": 2}");
  ASSERT_TRUE(r.ok);
  EXPECT_DOUBLE_EQ(r.value.get("a")->as_number(), 2.0);
}

TEST(JsonParser, DecodesSurrogatePairs) {
  const auto r = serve::parse_json("\"\\ud83d\\ude00\"");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value.as_string(), "\xF0\x9F\x98\x80");  // U+1F600
}

// ---- HTTP parser -----------------------------------------------------------

serve::HttpRequestParser::Status feed_all(serve::HttpRequestParser& parser,
                                          const std::string& raw,
                                          std::size_t piece) {
  for (std::size_t i = 0; i < raw.size(); i += piece) {
    parser.feed(std::string_view(raw).substr(i, piece));
    if (parser.status() != serve::HttpRequestParser::Status::kNeedMore) break;
  }
  return parser.status();
}

TEST(HttpParser, ParsesRequestByteByByte) {
  const std::string raw =
      "POST /solve HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody";
  for (const std::size_t piece : {std::size_t{1}, std::size_t{7}, raw.size()}) {
    serve::HttpRequestParser parser(16384, 1 << 20);
    ASSERT_EQ(feed_all(parser, raw, piece),
              serve::HttpRequestParser::Status::kComplete)
        << "piece=" << piece;
    EXPECT_EQ(parser.request().method, "POST");
    EXPECT_EQ(parser.request().target, "/solve");
    EXPECT_EQ(parser.request().body, "body");
  }
}

TEST(HttpParser, AcceptsZeroLengthBodyWithoutHeader) {
  serve::HttpRequestParser parser(16384, 1 << 20);
  EXPECT_EQ(feed_all(parser, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n", 64),
            serve::HttpRequestParser::Status::kComplete);
  EXPECT_EQ(parser.request().content_length, 0u);
}

TEST(HttpParser, RejectsMalformedFraming) {
  using Status = serve::HttpRequestParser::Status;
  const std::vector<std::pair<std::string, Status>> cases = {
      {"GARBAGE\r\n\r\n", Status::kBadRequest},
      {"GET /x HTTP/2\r\n\r\n", Status::kUnsupported},
      {"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
       Status::kUnsupported},
      {"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
       Status::kBadRequest},
      {"POST /x HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\n",
       Status::kBadRequest},
      {"POST /x HTTP/1.1\r\nno colon here\r\n\r\n", Status::kBadRequest},
  };
  for (const auto& [raw, want] : cases) {
    serve::HttpRequestParser parser(16384, 1 << 20);
    EXPECT_EQ(feed_all(parser, raw, 64), want) << raw;
  }
}

TEST(HttpParser, EnforcesLimits) {
  serve::HttpRequestParser small_headers(64, 1 << 20);
  EXPECT_EQ(feed_all(small_headers,
                     "GET /x HTTP/1.1\r\nPadding: " + std::string(100, 'a') +
                         "\r\n\r\n",
                     32),
            serve::HttpRequestParser::Status::kHeadersTooLarge);

  serve::HttpRequestParser small_body(16384, 8);
  EXPECT_EQ(feed_all(small_body,
                     "POST /x HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789",
                     64),
            serve::HttpRequestParser::Status::kBodyTooLarge);
}

// ---- bounded queue ---------------------------------------------------------

TEST(BoundedQueue, ShedsWhenFullAndDrainsAfterClose) {
  parallel::BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.try_push(1));
  EXPECT_TRUE(queue.try_push(2));
  EXPECT_FALSE(queue.try_push(3));  // full: admission control kicks in
  queue.close();
  EXPECT_FALSE(queue.try_push(4));  // closed
  const auto batch = queue.pop_batch(10);
  ASSERT_EQ(batch.size(), 2u);  // drain semantics: queued items survive close
  EXPECT_EQ(batch[0], 1);
  EXPECT_EQ(batch[1], 2);
  EXPECT_TRUE(queue.pop_batch(10).empty());  // closed + drained
}

TEST(BoundedQueue, PopBlocksUntilPushOrClose) {
  parallel::BoundedQueue<int> queue(4);
  std::vector<int> got;
  std::thread consumer([&] { got = queue.pop_batch(4); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(queue.try_push(7));
  consumer.join();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], 7);

  std::thread waiter([&] { got = queue.pop_batch(4); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.close();
  waiter.join();
  EXPECT_TRUE(got.empty());
}

// ---- error-class summary ---------------------------------------------------

TEST(ErrorClassCounts, CountsAndRendersAllClasses) {
  serve::ErrorClassCounts counts;
  counts.add(0);
  counts.add(0);
  counts.add(2);
  counts.add(3);
  counts.add(4);
  counts.add(5);
  counts.add(99);
  counts.add_named("bad_request");
  counts.add_named("overload");
  counts.add_named("draining");
  counts.add_named("anything-else");
  EXPECT_EQ(counts.total(), 11u);
  EXPECT_EQ(counts.to_json(),
            "{\"summary\":true,\"models\":11,\"ok\":2,\"errors\":{"
            "\"model\":1,\"numerical\":1,\"invalid\":1,\"deadline\":1,"
            "\"bad_request\":1,\"overload\":1,\"draining\":1,\"error\":2}}");
}

// ---- shared solve core -----------------------------------------------------

constexpr const char* kRbdSource =
    "model rbd duplex\n"
    "event a prob 0.99\n"
    "event b prob 0.95\n"
    "gate top and a b\n"
    "top top\n";

TEST(SolveCore, SolvesInlineText) {
  serve::SolveSpec spec;
  spec.inline_text = kRbdSource;
  spec.times = {100.0};
  const auto outcome = serve::solve_model(spec);
  EXPECT_EQ(outcome.exit_class, 0);
  EXPECT_FALSE(outcome.degraded);
  EXPECT_NE(outcome.fields.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(outcome.fields.find("\"steady\":0.9405"), std::string::npos);
}

TEST(SolveCore, ClassifiesModelErrors) {
  serve::SolveSpec spec;
  spec.inline_text = "model rbd broken\nevent a prob 2.5\ntop a\n";
  const auto outcome = serve::solve_model(spec);
  EXPECT_EQ(outcome.exit_class, 2);
  EXPECT_EQ(outcome.error_class, "model");
  EXPECT_NE(outcome.fields.find("\"error_class\":\"model\""),
            std::string::npos);
}

TEST(SolveCore, MissingFileIsModelError) {
  serve::SolveSpec spec;
  spec.path = "/nonexistent/model.rk";
  const auto outcome = serve::solve_model(spec);
  EXPECT_NE(outcome.exit_class, 0);
  EXPECT_NE(outcome.fields.find("\"ok\":false"), std::string::npos);
}

// A request deadline that fires mid-Krylov must come back as a degraded
// response, not a hard failure: the forced-bicgstab solve of the pool's
// 5001-state CTMC is kept from ever converging (its verified residual is
// scaled to nonsense by fault injection), so the per-request deadline
// interrupts the iteration and the solve core must surface the kernel's
// best partial iterate with degraded:true.
TEST(SolveCore, DeadlineMidKrylovReturnsDegraded) {
  const relkit::testing::FaultInjectionScope scope;
  scope->scale("bicgstab.residual", 1e30);
  serve::SolveSpec spec;
  spec.inline_text =
      "model rbd pool\n"
      "event pool markov 5000 1 0.5 1.0\n"
      "top pool\n";
  spec.solver = robust::SolverChoice::kBicgstab;
  // Far shorter than the ILU0 setup on a 5001-state chain, so the first
  // in-loop residual check already sees it expired — the abort happens
  // inside the Krylov iteration, never before it starts.
  spec.deadline = robust::Deadline::after_seconds(0.001);
  const auto outcome = serve::solve_model(spec);
  EXPECT_EQ(outcome.exit_class, 5);
  EXPECT_TRUE(outcome.degraded);
  EXPECT_EQ(outcome.error_class, "deadline");
  EXPECT_NE(outcome.fields.find("\"degraded\":true"), std::string::npos);
  EXPECT_NE(outcome.fields.find("\"partial\":["), std::string::npos);
  EXPECT_NE(outcome.fields.find("\"report\":"), std::string::npos);
}

// A successful CTMC-backed solve reports which stationary method produced
// the answer; a forced solver choice in the spec is honored end to end.
TEST(SolveCore, ReportsSolverForForcedChoice) {
  markov::SolutionCache::instance().clear();
  serve::SolveSpec spec;
  spec.inline_text =
      "model rbd pool\n"
      "event pool markov 8 4 0.01 0.5\n"
      "top pool\n";
  spec.solver = robust::SolverChoice::kBicgstab;
  const auto outcome = serve::solve_model(spec);
  EXPECT_EQ(outcome.exit_class, 0) << outcome.fields;
  EXPECT_NE(outcome.fields.find("\"solver\":\"bicgstab\""), std::string::npos)
      << outcome.fields;
}

// ---- server ----------------------------------------------------------------

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    markov::SolutionCache::instance().clear();
    options_.port = 0;
    options_.queue_capacity = 8;
  }

  void start() {
    server_ = std::make_unique<serve::Server>(options_);
    std::string error;
    ASSERT_TRUE(server_->start(&error)) << error;
    port_ = server_->port();
  }

  serve::ClientResponse get(const std::string& target) {
    return serve::http_get("127.0.0.1", port_, target);
  }

  serve::ClientResponse post(const std::string& body) {
    return serve::http_post("127.0.0.1", port_, "/solve", body);
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

  /// Counter value scraped from the /metrics OpenMetrics body.
  double metric(const std::string& sample_name) {
    const auto response = get("/metrics");
    EXPECT_TRUE(response.ok) << response.error;
    const std::string needle = "\n" + sample_name + " ";
    const std::size_t pos = response.body.find(needle);
    if (pos == std::string::npos) return -1.0;
    return std::atof(response.body.c_str() + pos + needle.size());
  }

  serve::ServerOptions options_;
  std::unique_ptr<serve::Server> server_;
  int port_ = 0;
};

TEST_F(ServeTest, HealthAndReadiness) {
  start();
  auto health = get("/healthz");
  ASSERT_TRUE(health.ok) << health.error;
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "{\"ok\":true}");

  auto ready = get("/readyz");
  ASSERT_TRUE(ready.ok) << ready.error;
  EXPECT_EQ(ready.status, 200);
  EXPECT_EQ(ready.body, "{\"ready\":true}");
}

TEST_F(ServeTest, MetricsServeOpenMetrics) {
  start();
  const auto response = get("/metrics");
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("# TYPE serve_requests counter"),
            std::string::npos);
  EXPECT_EQ(response.body.substr(response.body.size() - 6), "# EOF\n");
}

TEST_F(ServeTest, UnknownEndpointsAreBadRequests) {
  start();
  EXPECT_EQ(get("/nope").status, 404);
  const auto wrong_method = get("/solve");
  EXPECT_EQ(wrong_method.status, 405);
  EXPECT_NE(wrong_method.body.find("\"error_class\":\"bad_request\""),
            std::string::npos);
}

TEST_F(ServeTest, ServedSolveMatchesLocalSolveExactly) {
  start();
  const auto response = post(solve_request(kRbdSource, "", ",\"times\":[100]"));
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.status, 200);

  // Byte-identical result fields: the daemon answers with the same solve
  // core relkit_cli uses; the body is the fields prefixed only by the
  // request's trace id (echoed in X-Relkit-Trace-Id).
  serve::SolveSpec spec;
  spec.inline_text = kRbdSource;
  spec.times = {100.0};
  const auto local = serve::solve_model(spec);
  const std::string trace = response.header("X-Relkit-Trace-Id");
  ASSERT_EQ(trace.size(), 32u);
  EXPECT_EQ(response.body,
            "{\"trace_id\":\"" + trace + "\"," + local.fields + "}");
}

TEST_F(ServeTest, SolvesHierarchicalMarkovModel) {
  start();
  const std::string source =
      "model rbd pool\n"
      "event farm markov 16 12 0.001 0.1\n"
      "top farm\n";
  const auto response = post(solve_request(source));
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"ok\":true"), std::string::npos);
}

TEST_F(ServeTest, RequestIdDeduplicatesThroughSolutionCache) {
  start();
  const double deduped_before = metric("serve_deduped_total");
  const double hits_before = metric("markov_cache_hits_total");

  const auto first = post(solve_request(kRbdSource, "req-dedup-1"));
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_EQ(first.status, 200);
  EXPECT_NE(first.body.find("\"id\":\"req-dedup-1\",\"cached\":false"),
            std::string::npos);

  const auto retry = post(solve_request(kRbdSource, "req-dedup-1"));
  ASSERT_TRUE(retry.ok) << retry.error;
  EXPECT_EQ(retry.status, 200);
  EXPECT_NE(retry.body.find("\"id\":\"req-dedup-1\",\"cached\":true"),
            std::string::npos);

  // Same result fields either way (idempotent retry).
  const std::size_t first_ok = first.body.find("\"ok\":");
  const std::size_t retry_ok = retry.body.find("\"ok\":");
  ASSERT_NE(first_ok, std::string::npos);
  ASSERT_NE(retry_ok, std::string::npos);
  EXPECT_EQ(first.body.substr(first_ok), retry.body.substr(retry_ok));

  // The dedup went through markov::SolutionCache: visible both as the
  // serve.deduped counter and the cache's own hit counter at /metrics.
  EXPECT_EQ(metric("serve_deduped_total"), deduped_before + 1);
  EXPECT_GE(metric("markov_cache_hits_total"), hits_before + 1);
  EXPECT_GT(metric("markov_cache_hit_rate"), 0.0);
}

TEST_F(ServeTest, SolveRequestHonorsSolverField) {
  start();
  const std::string source =
      "model rbd pool\n"
      "event farm markov 16 12 0.001 0.1\n"
      "top farm\n";
  const auto response =
      post(solve_request(source, "", ",\"solver\":\"sor\""));
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"ok\":true"), std::string::npos);
  // The forced choice is visible in the response: the CTMC behind the
  // pool was solved by SOR, not by whatever the auto chain would pick.
  EXPECT_NE(response.body.find("\"solver\":\"sor\""), std::string::npos)
      << response.body;
}

TEST_F(ServeTest, SolveRequestRejectsUnknownSolver) {
  start();
  const auto response =
      post(solve_request(kRbdSource, "", ",\"solver\":\"cholesky\""));
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.body.find("must be one of auto, gth, sor, bicgstab, "
                               "power, ad"),
            std::string::npos)
      << response.body;
}

TEST_F(ServeTest, PathRequestsAreGated) {
  start();  // allow_path_requests defaults to false
  const auto response = post("{\"path\":\"/etc/hostname\"}");
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.body.find("path requests are disabled"),
            std::string::npos);
}

TEST_F(ServeTest, DrainStopsAdmissionsAndReportsSummary) {
  start();
  const auto ok_response = post(solve_request(kRbdSource));
  ASSERT_TRUE(ok_response.ok);

  const std::string summary = server_->stop(true);
  EXPECT_NE(summary.find("\"summary\":true"), std::string::npos);
  EXPECT_NE(summary.find("\"ok\":1"), std::string::npos);
  // Idempotent: a second stop returns the same summary.
  EXPECT_EQ(server_->stop(true), summary);
  EXPECT_FALSE(server_->running());
}

TEST_F(ServeTest, TimesDefaultComesFromServerOptions) {
  options_.default_times = {50.0};
  start();
  const auto response = post(solve_request(kRbdSource));
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_NE(response.body.find("\"at\":[{\"t\":50,"), std::string::npos);
  // An explicit times array overrides the default.
  const auto override_response =
      post(solve_request(kRbdSource, "", ",\"times\":[75]"));
  EXPECT_NE(override_response.body.find("\"at\":[{\"t\":75,"),
            std::string::npos);
}

// ---- request tracing, access logs, SLO telemetry ---------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST_F(ServeTest, TraceIdPropagatesEndToEnd) {
  const std::string trace_path = ::testing::TempDir() + "relkit_e2e_trace.json";
  const std::string log_path = ::testing::TempDir() + "relkit_e2e_access.log";
  std::remove(trace_path.c_str());
  std::remove(log_path.c_str());
  options_.trace_path = trace_path;
  options_.access_log_path = log_path;
  start();

  // A valid incoming traceparent is adopted: the same 128-bit id must show
  // up in the response headers, the response body, the access-log line,
  // and the exported Chrome trace.
  const std::string sent = "4bf92f3577b34da6a3ce929d0e0e4736";
  const auto response = serve::http_post(
      "127.0.0.1", port_, "/solve", solve_request(kRbdSource, "trace-1"),
      5000,
      "traceparent: 00-" + sent + "-00f067aa0ba902b7-01\r\n");
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.header("X-Relkit-Trace-Id"), sent);
  EXPECT_EQ(response.header("traceparent").rfind("00-" + sent + "-", 0), 0u);
  EXPECT_NE(response.body.find("\"trace_id\":\"" + sent + "\""),
            std::string::npos);

  server_->stop(true);  // flushes the trace file and access log

  const std::string log = read_file(log_path);
  ASSERT_FALSE(log.empty());
  EXPECT_NE(log.find("\"trace\":\"" + sent + "\""), std::string::npos);
  EXPECT_NE(log.find("\"path\":\"/solve\""), std::string::npos);
  EXPECT_NE(log.find("\"id\":\"trace-1\""), std::string::npos);
  EXPECT_NE(log.find("\"status\":200"), std::string::npos);
  EXPECT_NE(log.find("\"error_class\":\"ok\""), std::string::npos);

  const std::string chrome = read_file(trace_path);
  ASSERT_FALSE(chrome.empty());
  EXPECT_NE(chrome.find("\"trace_id\":\"" + sent + "\""), std::string::npos);
  for (const char* span : {"serve.request", "serve.parse", "serve.queue_wait",
                           "serve.solve", "serve.write"}) {
    EXPECT_NE(chrome.find("\"name\":\"" + std::string(span) + "\""),
              std::string::npos)
        << span;
  }
  std::remove(trace_path.c_str());
  std::remove(log_path.c_str());
}

TEST_F(ServeTest, InvalidTraceparentGetsAFreshId) {
  start();
  // Uppercase hex violates the traceparent ABNF: the daemon must NOT adopt
  // the id, but the request still gets a generated one.
  const auto response = serve::http_post(
      "127.0.0.1", port_, "/solve", solve_request(kRbdSource), 5000,
      "traceparent: 00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01"
      "\r\n");
  ASSERT_TRUE(response.ok) << response.error;
  const std::string trace = response.header("X-Relkit-Trace-Id");
  ASSERT_EQ(trace.size(), 32u);
  EXPECT_NE(trace, "4bf92f3577b34da6a3ce929d0e0e4736");
  for (const char c : trace) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << trace;
  }
  // Without any traceparent a fresh id is generated per request.
  const auto a = post(solve_request(kRbdSource));
  const auto b = post(solve_request(kRbdSource));
  EXPECT_EQ(a.header("X-Relkit-Trace-Id").size(), 32u);
  EXPECT_NE(a.header("X-Relkit-Trace-Id"), b.header("X-Relkit-Trace-Id"));
}

TEST_F(ServeTest, TraceSampleZeroRecordsNoSpans) {
  const std::string trace_path =
      ::testing::TempDir() + "relkit_e2e_unsampled.json";
  std::remove(trace_path.c_str());
  options_.trace_path = trace_path;
  options_.trace_sample = 0.0;
  start();
  const auto response = post(solve_request(kRbdSource));
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.status, 200);
  // Responses still carry trace ids — sampling gates only span recording.
  EXPECT_EQ(response.header("X-Relkit-Trace-Id").size(), 32u);
  server_->stop(true);
  const std::string chrome = read_file(trace_path);
  EXPECT_EQ(chrome.find("serve.request"), std::string::npos);
  std::remove(trace_path.c_str());
}

TEST_F(ServeTest, StatuszShowsRollingSloNumbers) {
  start();
  ASSERT_EQ(post(solve_request(kRbdSource)).status, 200);
  const auto response = get("/statusz");
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.header("Content-Type"), "text/plain; charset=utf-8");
  EXPECT_NE(response.body.find("in-flight requests:"), std::string::npos);
  EXPECT_NE(response.body.find("rolling latency SLO"), std::string::npos);
  EXPECT_NE(response.body.find("endpoint solve: count=1"), std::string::npos);
  EXPECT_NE(response.body.find("class ok: count=1"), std::string::npos);
}

TEST_F(ServeTest, MetricsCarrySloGaugesBuildInfoAndContentType) {
  start();
  ASSERT_EQ(post(solve_request(kRbdSource)).status, 200);
  const auto response = get("/metrics");
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.header("Content-Type"),
            std::string(obs::kOpenMetricsContentType));
  EXPECT_EQ(response.header("X-Relkit-Trace-Id").size(), 32u);
  const auto npos = std::string::npos;
  // Rolling SLO gauges (refreshed at scrape time) per endpoint and class.
  EXPECT_NE(response.body.find("serve_slo_solve_p99"), npos);
  EXPECT_NE(response.body.find("serve_slo_solve_count 1"), npos);
  EXPECT_NE(response.body.find("serve_slo_err_ok_p50"), npos);
  // Cumulative request-latency histogram alongside the windowed gauges.
  EXPECT_NE(response.body.find("# TYPE serve_latency histogram"), npos);
  // Scrape identification gauges.
  EXPECT_NE(response.body.find("relkit_build_info{"), npos);
  EXPECT_NE(response.body.find("obs=\"on\""), npos);
  EXPECT_GT(metric("relkit_process_start_time_seconds"), 1.5e9);
  EXPECT_GE(metric("serve_queue_depth"), 0.0);
}

TEST_F(ServeTest, AccessLogRotatesAtSizeBound) {
  const std::string log_path = ::testing::TempDir() + "relkit_e2e_rotate.log";
  std::remove(log_path.c_str());
  std::remove((log_path + ".1").c_str());
  options_.access_log_path = log_path;
  options_.access_log_max_bytes = 600;  // a couple of lines per file
  start();
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(get("/healthz").status, 200);
  }
  server_->stop(true);
  EXPECT_FALSE(read_file(log_path).empty());
  const std::string rotated = read_file(log_path + ".1");
  ASSERT_FALSE(rotated.empty()) << "no rotation happened";
  EXPECT_NE(rotated.find("\"path\":\"/healthz\""), std::string::npos);
  std::remove(log_path.c_str());
  std::remove((log_path + ".1").c_str());
}

// A client that waits for each response sees its requests logged in order,
// although a /solve error is answered on a pool worker and a 404 on the
// event loop: the daemon closes a connection only after logging it.
TEST_F(ServeTest, AccessLogKeepsAWaitingClientsOrder) {
  const std::string log_path = ::testing::TempDir() + "relkit_e2e_order.log";
  options_.access_log_path = log_path;
  for (int run = 0; run < 5; ++run) {
    std::remove(log_path.c_str());
    start();
    for (int i = 0; i < 500; ++i) {
      ASSERT_EQ(post("{\"model\":\"x\",\"times\":\"soon\"}").status, 400);
      ASSERT_EQ(get("/nope").status, 404);
    }
    server_->stop(true);
    const std::string log = read_file(log_path);
    std::size_t lines = 0;
    std::size_t inversions = 0;
    unsigned long long prev = 0;
    for (std::size_t at = log.find("\"req\":"); at != std::string::npos;
         at = log.find("\"req\":", at + 1)) {
      const unsigned long long req =
          std::strtoull(log.c_str() + at + 6, nullptr, 10);
      if (lines > 0 && req <= prev) ++inversions;
      prev = req;
      ++lines;
    }
    EXPECT_EQ(lines, 1000u) << "run " << run;
    EXPECT_EQ(inversions, 0u) << "run " << run;
  }
  std::remove(log_path.c_str());
}

// ---- file descriptors ------------------------------------------------------

/// The calling process's open file descriptors.
std::set<int> open_fds() {
  std::set<int> fds;
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) return fds;
  while (const dirent* entry = readdir(dir)) {
    if (entry->d_name[0] != '.') fds.insert(std::atoi(entry->d_name));
  }
  fds.erase(dirfd(dir));
  closedir(dir);
  return fds;
}

// A daemon fd without FD_CLOEXEC leaks into every child a solver or a
// postmortem hook might spawn: the listen socket, the wake pipe, an
// accepted connection, the trace file and the access log all carry it.
TEST_F(ServeTest, EveryDaemonFdIsCloseOnExec) {
  const std::string trace_path = ::testing::TempDir() + "relkit_fd_trace.json";
  const std::string log_path = ::testing::TempDir() + "relkit_fd_access.log";
  options_.trace_path = trace_path;
  options_.access_log_path = log_path;
  const std::set<int> before = open_fds();
  start();
  const int client = serve::tcp_connect("127.0.0.1", port_);
  ASSERT_GE(client, 0);
  // Listen socket, both pipe ends, trace file, access log, the client's
  // socket and the accepted connection: wait until the event loop has
  // accepted, bounded well inside the 5 s read timeout.
  std::set<int> added;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(3);
  do {
    added.clear();
    for (const int fd : open_fds()) {
      if (before.count(fd) == 0) added.insert(fd);
    }
    if (added.size() >= 7) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  } while (std::chrono::steady_clock::now() < give_up);
  EXPECT_GE(added.size(), 7u);
  for (const int fd : added) {
    EXPECT_NE(::fcntl(fd, F_GETFD) & FD_CLOEXEC, 0) << "fd " << fd;
  }
  serve::tcp_close(client);
  server_->stop(true);
  std::remove(trace_path.c_str());
  std::remove(log_path.c_str());
}

}  // namespace
