// Byte-for-byte pins of every JSON surface RelKit emits: the shared solve
// core's result fields, the error-class summary, the profile and Chrome
// trace exports, and the live daemon's response bodies and access-log
// lines. Inputs are fixed, so the expected strings are exact; a change to
// any JSON writer that moves a comma, an escape, or a digit fails here.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <regex>
#include <string>
#include <vector>

#include "markov/solution_cache.hpp"
#include "obs/obs.hpp"
#include "robust/budget.hpp"
#include "robust/robust.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/solve_json.hpp"
#include "serve/summary.hpp"

namespace {

using namespace relkit;

std::string solve_fields(const std::string& source,
                         const std::vector<double>& times,
                         robust::SolverChoice solver =
                             robust::SolverChoice::kAuto) {
  serve::SolveSpec spec;
  spec.inline_text = source;
  spec.times = times;
  spec.solver = solver;
  return serve::solve_model(spec).fields;
}

/// 64-bit FNV-1a, for pinning outputs too long to spell out.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// ---- serve::solve_model fields ---------------------------------------------

TEST(SolveFieldBytes, RbdAtThreeTimes) {
  EXPECT_EQ(solve_fields("model rbd pin_rbd\n"
                         "event a rate 0.001 repair 0.1\n"
                         "event b weibull 1.5 2000\n"
                         "event c prob 0.999\n"
                         "gate top and a b c\n"
                         "top top\n",
                         {0.0, 10.0, 1e6}),
            R"J("ok":true,"name":"pin_rbd","kind":"rbd","steady":0,"at":[{"t":0,"value":0.999},{"t":10,"value":0.992360518817},{"t":1000000,"value":0}])J");
}

TEST(SolveFieldBytes, FaultTree) {
  EXPECT_EQ(solve_fields("model ftree pin_ft\n"
                         "event web1 rate 0.002 repair 0.5\n"
                         "event web2 rate 0.002 repair 0.5\n"
                         "event db rate 0.0005 repair 0.25\n"
                         "gate webtier and web1 web2\n"
                         "gate service or webtier db\n"
                         "top service\n",
                         {0.0, 10.0, 1e6}),
            R"J("ok":true,"name":"pin_ft","kind":"ftree","steady":0.00201184906579,"at":[{"t":0,"value":0},{"t":10,"value":0.00184861791899},{"t":1000000,"value":0.00201184906579}])J");
}

TEST(SolveFieldBytes, RelGraph) {
  EXPECT_EQ(solve_fields("model relgraph pin_graph\n"
                         "vertices 4\n"
                         "terminals 0 3\n"
                         "event A rate 0.001\n"
                         "event B prob 0.9\n"
                         "event C prob 0.9\n"
                         "event D rate 0.002\n"
                         "event E prob 0.9\n"
                         "edge A 0 1\n"
                         "edge C 0 2\n"
                         "edge B 1 3\n"
                         "edge D 2 3\n"
                         "edge E 1 2 undirected\n",
                         {0.0, 10.0, 1e6}),
            R"J("ok":true,"name":"pin_graph","kind":"relgraph","steady":0.729,"at":[{"t":0,"value":0.999},{"t":10,"value":0.996040416291},{"t":1000000,"value":0.729}])J");
}

TEST(SolveFieldBytes, NameWithQuoteAndBackslash) {
  EXPECT_EQ(solve_fields("model rbd q\"u\\ote\n"
                         "event a rate 0.001 repair 0.1\n"
                         "top a\n",
                         {10.0}),
            R"J("ok":true,"name":"q\"u\\ote","kind":"rbd","steady":0.990099009901,"at":[{"t":10,"value":0.993705138412}])J");
}

TEST(SolveFieldBytes, ParseErrorIsModelClass) {
  serve::SolveSpec spec;
  spec.inline_text = "model rbd broken\nevent a prob 2.5\ntop a\n";
  const serve::SolveOutcome outcome = serve::solve_model(spec);
  EXPECT_EQ(outcome.error_class, "model");
  EXPECT_EQ(outcome.fields,
            R"J("ok":false,"error_class":"model","error":"model parse error at line 2, col 14: probability out of [0,1]")J");
}

TEST(SolveFieldBytes, NegativeTimeIsInvalidWithoutPartialAt) {
  serve::SolveSpec spec;
  spec.inline_text =
      "model rbd neg\nevent a rate 0.001 repair 0.1\ntop a\n";
  spec.times = {10.0, -1.0};
  const serve::SolveOutcome outcome = serve::solve_model(spec);
  EXPECT_EQ(outcome.error_class, "invalid");
  EXPECT_EQ(outcome.fields,
            R"J("ok":false,"error_class":"invalid","error":"Rbd::reliability: t must be >= 0")J");
}

TEST(SolveFieldBytes, ForcedBicgstabCarriesSolver) {
  markov::SolutionCache::instance().clear();
  EXPECT_EQ(solve_fields("model rbd pin_pool\n"
                         "event pool markov 8 4 0.013 0.51\n"
                         "top pool\n",
                         {5.0}, robust::SolverChoice::kBicgstab),
            R"J("ok":true,"name":"pin_pool","kind":"rbd","steady":0.99993732429,"at":[{"t":5,"value":0.99993732429}],"solver":"bicgstab")J");
}

// With the deadline already expired, SOR stops after its first sweep and
// the fields carry that iterate: the outcome is deterministic.
TEST(SolveFieldBytes, DegradedDeadline) {
  markov::SolutionCache::instance().clear();
  serve::SolveSpec spec;
  spec.inline_text =
      "model rbd pool\n"
      "event farm markov 640 600 0.0017 0.093\n"
      "top farm\n";
  spec.deadline = robust::Deadline::after_seconds(0);
  const serve::SolveOutcome outcome = serve::solve_model(spec);
  ASSERT_EQ(outcome.error_class, "deadline");
  const std::string& f = outcome.fields;
  const std::size_t open = f.find("\"partial\":[");
  const std::size_t close = f.find("],\"report\":");
  ASSERT_NE(open, std::string::npos);
  ASSERT_NE(close, std::string::npos);
  EXPECT_EQ(f.substr(0, open),
            R"J("ok":false,"error_class":"deadline","error":"robust_steady_state: deadline expired during sor (best residual 0.001552)\n  note: sor: sor_steady_state: deadline expired after 1 sweeps (best residual 0.001552)","degraded":true,)J");
  EXPECT_EQ(f.substr(close),
            R"J(],"report":{"method":"","converged":false,"iterations":1,"residual":0.00155226209048,"attempts":["sor"],"fallbacks":[],"warnings":["sor: sor_steady_state: deadline expired after 1 sweeps (best residual 0.001552)"]})J");
  EXPECT_EQ(f.size(), 10705u);
  EXPECT_EQ(fnv1a(f), 13621079538263258531ULL);
}

// ---- serve::ErrorClassCounts -----------------------------------------------

TEST(SummaryBytes, EmptyAndMixed) {
  serve::ErrorClassCounts counts;
  EXPECT_EQ(counts.to_json(),
            R"J({"summary":true,"models":0,"ok":0,"errors":{"model":0,"numerical":0,"invalid":0,"deadline":0,"bad_request":0,"overload":0,"draining":0,"error":0}})J");
  counts.add(0);
  counts.add(3);
  counts.add(5);
  counts.add_named("overload");
  EXPECT_EQ(counts.to_json(),
            R"J({"summary":true,"models":4,"ok":1,"errors":{"model":0,"numerical":1,"invalid":0,"deadline":1,"bad_request":0,"overload":1,"draining":0,"error":0}})J");
}

// ---- obs::profile_to_json -------------------------------------------------

obs::ProfileRow row(const char* name, std::uint64_t count, double wall,
                    double excl, double cpu, double pct) {
  obs::ProfileRow r;
  r.name = name;
  r.count = count;
  r.inclusive_wall = wall;
  r.exclusive_wall = excl;
  r.inclusive_cpu = cpu;
  r.percent = pct;
  return r;
}

TEST(ProfileBytes, WithoutTrafficRows) {
  obs::ProfileReport profile;
  profile.rows.push_back(row("markov.steady_state", 1, 0.0125, 0.0025,
                             0.012, 100.0));
  profile.rows.push_back(row("solver.\"odd\"\\name", 3, 1.5e-7, 1.5e-7,
                             2e-7, 0.0012));
  profile.rows.push_back(row("io.parse", 12, 3.0, 2.0, 1e-12, 33.3333333));
  profile.total_wall = 0.0125;
  EXPECT_EQ(obs::profile_to_json(profile),
            R"J([{"name":"markov.steady_state","count":1,"wall_s":0.0125,"excl_s":0.0025,"cpu_s":0.012,"pct":100},{"name":"solver.\"odd\"\\name","count":3,"wall_s":1.5e-07,"excl_s":1.5e-07,"cpu_s":2e-07,"pct":0.0012},{"name":"io.parse","count":12,"wall_s":3,"excl_s":2,"cpu_s":1e-12,"pct":33.3333}])J");
  EXPECT_EQ(obs::profile_to_json(obs::ProfileReport{}), "[]");
}

TEST(ProfileBytes, WithTrafficRows) {
  obs::ProfileReport profile;
  obs::ProfileRow sor = row("solver.sor", 2, 0.5, 0.25, 0.5, 80.0);
  sor.bytes = 1250000000;
  profile.rows.push_back(sor);
  // Bytes but no measurable wall time: "bytes" without "gbps".
  obs::ProfileRow matvec = row("markov.matvec", 1, 0.0, 0.0, 0.0, 0.0);
  matvec.bytes = 77;
  profile.rows.push_back(matvec);
  profile.rows.push_back(row("plain", 1, 0.125, 0.125, 0.125, 20.0));
  profile.total_wall = 0.625;
  EXPECT_EQ(obs::profile_to_json(profile),
            R"J([{"name":"solver.sor","count":2,"wall_s":0.5,"excl_s":0.25,"cpu_s":0.5,"pct":80,"bytes":1250000000,"gbps":2.5},{"name":"markov.matvec","count":1,"wall_s":0,"excl_s":0,"cpu_s":0,"pct":0,"bytes":77},{"name":"plain","count":1,"wall_s":0.125,"excl_s":0.125,"cpu_s":0.125,"pct":20}])J");
}

// ---- obs::to_chrome_json --------------------------------------------------

TEST(ChromeBytes, HandBuiltSpansWithHostileAttrs) {
  std::vector<obs::SpanRecord> records(3);
  records[0].id = 7;
  records[0].parent = 0;
  records[0].thread = 1;
  records[0].name = "root \"span\"";
  records[0].start_s = 0.25;
  records[0].wall_s = 0.5;
  records[0].cpu_s = 0.125;
  records[0].attrs = {{"quote", "a\"b"}, {"back\\slash", "c\\d"}};
  records[1].id = 8;
  records[1].parent = 7;
  records[1].depth = 1;
  records[1].thread = 1;
  records[1].name = "child";
  records[1].start_s = 0.3;
  records[1].wall_s = 1e-7;
  records[1].cpu_s = 0.0;
  records[1].attrs = {{"ctl", "line\nbreak\ttab\x01one"},
                      {"utf8", "caf\xC3\xA9 \xE2\x82\xAC"}};
  records[2].id = 9;
  records[2].parent = 0;
  records[2].thread = 0;
  records[2].name = "other thread";
  records[2].start_s = 0.1;
  records[2].wall_s = 2.0;
  records[2].cpu_s = 1.999999;
  EXPECT_EQ(obs::to_chrome_json(records),
            R"J({"traceEvents":[
{"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"relkit thread 0"}},
{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"relkit thread 1"}},
{"ph":"X","pid":1,"tid":0,"name":"other thread","cat":"relkit","ts":100000.000,"dur":2000000.000,"args":{"span_id":"9","parent":"0","cpu_us":"1999999.000"}},
{"ph":"X","pid":1,"tid":1,"name":"root \"span\"","cat":"relkit","ts":250000.000,"dur":500000.000,"args":{"span_id":"7","parent":"0","cpu_us":"125000.000","quote":"a\"b","back\\slash":"c\\d"}},
{"ph":"X","pid":1,"tid":1,"name":"child","cat":"relkit","ts":300000.000,"dur":0.100,"args":{"span_id":"8","parent":"7","cpu_us":"0.000","ctl":"line\nbreak\ttab\u0001one","utf8":"caf)J"
            "\xC3\xA9 \xE2\x82\xAC"
            R"J("}}
],"displayTimeUnit":"ms"}
)J");
  EXPECT_EQ(obs::to_chrome_json({}),
            "{\"traceEvents\":[\n],\"displayTimeUnit\":\"ms\"}\n");
}

// ---- live daemon ----------------------------------------------------------

constexpr const char* kTrace = "4bf92f3577b34da6a3ce929d0e0e4736";

std::string traceparent() {
  return std::string("traceparent: 00-") + kTrace + "-00f067aa0ba902b7-01\r\n";
}

/// Access-log line with its timing values replaced by '#'.
std::string mask_timings(const std::string& line) {
  static const std::regex timing(
      "\"(ts|queue_wait_s|solve_s|total_s)\":[0-9.]+");
  return std::regex_replace(line, timing, "\"$1\":#");
}

TEST(ServeBytes, BodiesAndAccessLog) {
  markov::SolutionCache::instance().clear();
  const std::string log_path =
      ::testing::TempDir() + "relkit_export_bytes_access.log";
  std::remove(log_path.c_str());
  serve::ServerOptions options;
  options.port = 0;
  options.access_log_path = log_path;
  serve::Server server(options);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  const int port = server.port();
  const auto post = [&](const std::string& body) {
    return serve::http_post("127.0.0.1", port, "/solve", body, 5000,
                            traceparent());
  };
  const std::string model =
      "{\"id\":\"pin-\\\"1\\\"\",\"times\":[10],\"model\":\"model rbd pin\\n"
      "event a rate 0.001 repair 0.1\\ntop a\\n\"}";

  const auto first = post(model);
  EXPECT_EQ(first.status, 200);
  EXPECT_EQ(first.body,
            R"J({"trace_id":"4bf92f3577b34da6a3ce929d0e0e4736","id":"pin-\"1\"","cached":false,"ok":true,"name":"pin","kind":"rbd","steady":0.990099009901,"at":[{"t":10,"value":0.993705138412}]})J");
  const auto retry = post(model);
  EXPECT_EQ(retry.status, 200);
  EXPECT_EQ(retry.body,
            R"J({"trace_id":"4bf92f3577b34da6a3ce929d0e0e4736","id":"pin-\"1\"","cached":true,"ok":true,"name":"pin","kind":"rbd","steady":0.990099009901,"at":[{"t":10,"value":0.993705138412}]})J");
  const auto bad_json = post("{\"model\": nope}");
  EXPECT_EQ(bad_json.status, 400);
  EXPECT_EQ(bad_json.body,
            R"J({"ok":false,"trace_id":"4bf92f3577b34da6a3ce929d0e0e4736","error_class":"bad_request","error":"invalid JSON at byte 10: invalid literal"})J");
  const auto bad_times = post("{\"model\":\"x\",\"times\":\"soon\"}");
  EXPECT_EQ(bad_times.status, 400);
  EXPECT_EQ(bad_times.body,
            R"J({"ok":false,"trace_id":"4bf92f3577b34da6a3ce929d0e0e4736","error_class":"bad_request","error":"\"times\" must be an array"})J");
  const auto unknown = serve::http_get("127.0.0.1", port, "/nope", 5000,
                                       traceparent());
  EXPECT_EQ(unknown.status, 404);
  EXPECT_EQ(unknown.body,
            R"J({"ok":false,"trace_id":"4bf92f3577b34da6a3ce929d0e0e4736","error_class":"bad_request","error":"unknown endpoint '/nope'"})J");

  server.stop(true);
  std::ifstream in(log_path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    lines.push_back(mask_timings(line));
  }
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_EQ(lines[0],
            R"J({"ts":#,"trace":"4bf92f3577b34da6a3ce929d0e0e4736","req":1,"id":"pin-\"1\"","method":"POST","path":"/solve","status":200,"error_class":"ok","bytes_in":274,"bytes_out":178,"queue_wait_s":#,"solve_s":#,"total_s":#,"degraded":false,"cache_hit":false})J");
  EXPECT_EQ(lines[1],
            R"J({"ts":#,"trace":"4bf92f3577b34da6a3ce929d0e0e4736","req":2,"id":"pin-\"1\"","method":"POST","path":"/solve","status":200,"error_class":"ok","bytes_in":274,"bytes_out":177,"queue_wait_s":#,"solve_s":#,"total_s":#,"degraded":false,"cache_hit":true})J");
  EXPECT_EQ(lines[2],
            R"J({"ts":#,"trace":"4bf92f3577b34da6a3ce929d0e0e4736","req":3,"id":"","method":"POST","path":"/solve","status":400,"error_class":"bad_request","bytes_in":194,"bytes_out":137,"queue_wait_s":#,"solve_s":#,"total_s":#,"degraded":false,"cache_hit":false})J");
  EXPECT_EQ(lines[3],
            R"J({"ts":#,"trace":"4bf92f3577b34da6a3ce929d0e0e4736","req":4,"id":"","method":"POST","path":"/solve","status":400,"error_class":"bad_request","bytes_in":207,"bytes_out":123,"queue_wait_s":#,"solve_s":#,"total_s":#,"degraded":false,"cache_hit":false})J");
  EXPECT_EQ(lines[4],
            R"J({"ts":#,"trace":"4bf92f3577b34da6a3ce929d0e0e4736","req":5,"id":"","method":"GET","path":"/nope","status":404,"error_class":"bad_request","bytes_in":125,"bytes_out":121,"queue_wait_s":#,"solve_s":#,"total_s":#,"degraded":false,"cache_hit":false})J");
  std::remove(log_path.c_str());
}

}  // namespace
