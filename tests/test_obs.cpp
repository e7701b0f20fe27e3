// Tests for the observability layer (src/obs/): metric semantics, span
// nesting and parenting (including across threads), the JSON writer and the
// Chrome trace export, the disabled-mode no-op guarantee, profiles and the
// sparse kernels' `bytes` attribute, and the span tree produced when the
// robust fallback chain degrades under injected faults.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/krylov.hpp"
#include "common/linsolve.hpp"
#include "common/sparse.hpp"
#include "markov/ctmc.hpp"
#include "obs/obs.hpp"
#include "robust/convergence_trace.hpp"
#include "robust/fault_injection.hpp"
#include "robust/robust.hpp"

namespace relkit {
namespace {

using relkit::testing::FaultInjectionScope;

// Most tests need the hooks compiled in; with -DRELKIT_OBS=OFF the
// enabled() gate is constexpr false and recording is (by design) a no-op.
#define RELKIT_REQUIRE_OBS_COMPILED_IN()                                 \
  if (!obs::kCompiledIn) GTEST_SKIP() << "obs compiled out (RELKIT_OBS=OFF)"

/// Enables obs for the duration of a test and restores the disabled default
/// (plus a clean sink list and zeroed metrics) afterwards.
class ObsScope {
 public:
  ObsScope() {
    obs::Registry::instance().reset_values();
    obs::set_enabled(true);
  }
  ~ObsScope() {
    obs::set_enabled(false);
    obs::Tracer::instance().remove_all_sinks();
    obs::Registry::instance().reset_values();
  }
};

// ---- metric semantics -------------------------------------------------------

TEST(Metrics, CounterAccumulatesAndResets) {
  RELKIT_REQUIRE_OBS_COMPILED_IN();
  ObsScope scope;
  obs::Counter& c = obs::counter("test.counter");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, CounterIsNoOpWhenDisabled) {
  obs::set_enabled(false);
  obs::Counter& c = obs::counter("test.disabled_counter");
  c.reset();
  c.add(100);
  EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, GaugeKeepsLastValue) {
  RELKIT_REQUIRE_OBS_COMPILED_IN();
  ObsScope scope;
  obs::Gauge& g = obs::gauge("test.gauge");
  g.set(1.5);
  g.set(-3.25);
  EXPECT_DOUBLE_EQ(g.value(), -3.25);
}

TEST(Metrics, HistogramStatsAndQuantiles) {
  RELKIT_REQUIRE_OBS_COMPILED_IN();
  ObsScope scope;
  obs::Histogram& h = obs::histogram("test.hist");
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.sum(), 5050.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  // Bucketed quantiles are approximate: the upper edge of the bucket
  // holding the rank. p50 of 1..100 lies in the bucket covering 50.
  EXPECT_GE(h.quantile(0.5), 50.0);
  EXPECT_LE(h.quantile(0.5), 64.0);  // base-2 bucket upper edge
  EXPECT_GE(h.quantile(0.99), 99.0);
}

TEST(Metrics, HistogramBucketsCoverExtremes) {
  RELKIT_REQUIRE_OBS_COMPILED_IN();
  ObsScope scope;
  obs::Histogram& h = obs::histogram("test.hist_extreme");
  h.observe(0.0);      // non-positive -> bucket 0
  h.observe(-5.0);     // non-positive -> bucket 0
  h.observe(1e-300);   // below range -> clamped to first exponential bucket
  h.observe(1e300);    // above range -> saturated top bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(obs::Histogram::kBuckets - 1), 1u);
}

TEST(Metrics, RegistryReturnsStableReferencesAndNames) {
  ObsScope scope;
  obs::Counter& a = obs::counter("test.stable");
  obs::Counter& b = obs::counter("test.stable");
  EXPECT_EQ(&a, &b);
  const auto names = obs::Registry::instance().names();
  bool found = false;
  for (const auto& n : names) found |= (n == "test.stable");
  EXPECT_TRUE(found);
}

// ---- spans ------------------------------------------------------------------

TEST(Spans, NestingRecordsParentAndDepth) {
  RELKIT_REQUIRE_OBS_COMPILED_IN();
  ObsScope scope;
  auto ring = std::make_shared<obs::RingBufferSink>();
  obs::Tracer::instance().add_sink(ring);
  {
    obs::Span outer("test.outer");
    {
      obs::Span inner("test.inner");
      inner.set("k", 3);
    }
  }
  const auto spans = ring->snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Spans are emitted on completion: inner first.
  EXPECT_EQ(spans[0].name, "test.inner");
  EXPECT_EQ(spans[1].name, "test.outer");
  EXPECT_EQ(spans[0].parent, spans[1].id);
  EXPECT_EQ(spans[1].parent, 0u);
  EXPECT_EQ(spans[0].depth, 1u);
  EXPECT_EQ(spans[1].depth, 0u);
  ASSERT_NE(spans[0].attr("k"), nullptr);
  EXPECT_EQ(*spans[0].attr("k"), "3");
  EXPECT_GE(spans[1].wall_s, spans[0].wall_s);
}

TEST(Spans, DisabledSpansEmitNothing) {
  auto ring = std::make_shared<obs::RingBufferSink>();
  obs::Tracer::instance().add_sink(ring);
  obs::set_enabled(false);
  {
    obs::Span span("test.silent");
    span.set("k", 1);
    EXPECT_FALSE(span.active());
  }
  EXPECT_TRUE(ring->snapshot().empty());
  obs::Tracer::instance().remove_all_sinks();
}

TEST(Spans, ThreadsGetIndependentStacksAndIndices) {
  RELKIT_REQUIRE_OBS_COMPILED_IN();
  ObsScope scope;
  auto ring = std::make_shared<obs::RingBufferSink>();
  obs::Tracer::instance().add_sink(ring);

  auto worker = [](const char* outer, const char* inner) {
    obs::Span o(outer);
    obs::Span i(inner);
  };
  std::thread t1(worker, "test.t1_outer", "test.t1_inner");
  std::thread t2(worker, "test.t2_outer", "test.t2_inner");
  t1.join();
  t2.join();

  const auto spans = ring->snapshot();
  ASSERT_EQ(spans.size(), 4u);
  std::uint64_t t1_thread = 0, t2_thread = 0;
  const obs::SpanRecord* records[4] = {};
  for (const auto& s : spans) {
    if (s.name == "test.t1_outer") records[0] = &s, t1_thread = s.thread;
    if (s.name == "test.t1_inner") records[1] = &s;
    if (s.name == "test.t2_outer") records[2] = &s, t2_thread = s.thread;
    if (s.name == "test.t2_inner") records[3] = &s;
  }
  for (const auto* r : records) ASSERT_NE(r, nullptr);
  EXPECT_NE(t1_thread, t2_thread);
  // Each inner span parents to its own thread's outer span, never across.
  EXPECT_EQ(records[1]->parent, records[0]->id);
  EXPECT_EQ(records[3]->parent, records[2]->id);
  EXPECT_EQ(records[1]->thread, t1_thread);
  EXPECT_EQ(records[3]->thread, t2_thread);
  EXPECT_EQ(records[0]->parent, 0u);
  EXPECT_EQ(records[2]->parent, 0u);
}

TEST(Spans, RingBufferDropsOldest) {
  RELKIT_REQUIRE_OBS_COMPILED_IN();
  ObsScope scope;
  auto ring = std::make_shared<obs::RingBufferSink>(4);
  obs::Tracer::instance().add_sink(ring);
  for (int i = 0; i < 10; ++i) {
    obs::Span span("test.ring" + std::to_string(i));
  }
  const auto spans = ring->snapshot();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(ring->dropped(), 6u);
  EXPECT_EQ(spans.front().name, "test.ring6");
  EXPECT_EQ(spans.back().name, "test.ring9");
}

// ---- integration: fallback chain under injected faults ---------------------

TEST(Integration, FallbackChainProducesAttemptSpanTree) {
  RELKIT_REQUIRE_OBS_COMPILED_IN();
  ObsScope scope;
  FaultInjectionScope faults;
  faults->fail_method("sor");  // force sor -> bicgstab degradation

  auto ring = std::make_shared<obs::RingBufferSink>();
  obs::Tracer::instance().add_sink(ring);

  markov::Ctmc chain;
  chain.add_states(12);
  for (std::size_t i = 0; i + 1 < 12; ++i) {
    chain.add_transition(i, i + 1, 1.0);
    chain.add_transition(i + 1, i, 2.0);
  }
  markov::SteadyStateOptions opts;
  opts.dense_threshold = 0;         // no primary GTH
  opts.gth_fallback_threshold = 0;  // no last-resort GTH
  opts.sor.adaptive_omega = false;  // plain Gauss-Seidel, failed by the probe
  robust::SolveReport report;
  const auto pi = chain.steady_state(opts, &report);
  ASSERT_EQ(pi.size(), 12u);
  EXPECT_TRUE(report.converged);

  const auto spans = ring->snapshot();
  const obs::SpanRecord* solve = nullptr;
  std::vector<const obs::SpanRecord*> attempts;
  for (const auto& s : spans) {
    if (s.name == "robust.steady_state") solve = &s;
    if (s.name == "robust.attempt") attempts.push_back(&s);
  }
  ASSERT_NE(solve, nullptr);
  ASSERT_GE(attempts.size(), 2u);

  // Every attempt is a child of the solve span and carries its verdict.
  bool saw_failed_sor = false, saw_accepted_bicgstab = false;
  for (const auto* a : attempts) {
    EXPECT_EQ(a->parent, solve->id);
    ASSERT_NE(a->attr("method"), nullptr);
    ASSERT_NE(a->attr("accepted"), nullptr);
    if (*a->attr("method") == "sor" && *a->attr("accepted") == "false") {
      saw_failed_sor = true;
    }
    if (*a->attr("method") == "bicgstab" && *a->attr("accepted") == "true") {
      saw_accepted_bicgstab = true;
      EXPECT_NE(a->attr("residual"), nullptr);
      EXPECT_NE(a->attr("iterations"), nullptr);
    }
  }
  EXPECT_TRUE(saw_failed_sor);
  EXPECT_TRUE(saw_accepted_bicgstab);

  // The solve span records the accepted method, and the SolveReport's
  // attempt details mirror the span attributes (same instrumentation
  // points).
  ASSERT_NE(solve->attr("method"), nullptr);
  EXPECT_EQ(*solve->attr("method"), "bicgstab");
  ASSERT_GE(report.attempt_details.size(), 2u);
  EXPECT_FALSE(report.attempt_details.front().accepted);
  EXPECT_TRUE(report.attempt_details.back().accepted);
  EXPECT_EQ(report.attempt_details.back().method, "bicgstab");

  // And the rendered tree shows the nesting.
  const std::string tree = obs::render_trace_tree(spans);
  EXPECT_NE(tree.find("robust.steady_state"), std::string::npos);
  EXPECT_NE(tree.find("  robust.attempt"), std::string::npos);
}

// ---- histogram quantile edge cases -----------------------------------------

TEST(Metrics, HistogramQuantileEdgeCases) {
  RELKIT_REQUIRE_OBS_COMPILED_IN();
  ObsScope scope;
  obs::Histogram& empty = obs::histogram("test.q_empty");
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);  // empty -> 0 by contract

  obs::Histogram& one = obs::histogram("test.q_one");
  one.observe(5.0);
  // A single sample is every quantile; bucket edges are clamped into the
  // observed range, so the answer is exact, not an edge.
  EXPECT_DOUBLE_EQ(one.quantile(0.0), 5.0);
  EXPECT_DOUBLE_EQ(one.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(one.quantile(1.0), 5.0);

  obs::Histogram& tail = obs::histogram("test.q_tail");
  tail.observe(1.0);
  tail.observe(1e300);  // lands in the saturated +Inf-edge top bucket
  EXPECT_DOUBLE_EQ(tail.quantile(1.0), 1e300);  // clamped to max, not inf
  // Bucketed quantiles answer with the rank bucket's upper edge, clamped
  // into the observed range: q=0 may overshoot min but never undershoots.
  EXPECT_GE(tail.quantile(0.0), 1.0);
  EXPECT_LE(tail.quantile(0.0), 2.0);  // base-2 edge above 1.0

  obs::Histogram& h = obs::histogram("test.q_range");
  for (int i = 1; i <= 10; ++i) h.observe(static_cast<double>(i));
  EXPECT_GE(h.quantile(0.0), h.min());
  EXPECT_LE(h.quantile(0.0), 2.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), h.max());
  // Out-of-range q clamps rather than indexing out of bounds.
  EXPECT_DOUBLE_EQ(h.quantile(-0.5), h.quantile(0.0));
  EXPECT_DOUBLE_EQ(h.quantile(1.5), h.quantile(1.0));
}

// ---- OpenMetrics exposition ------------------------------------------------

TEST(OpenMetrics, SanitizeMetricName) {
  EXPECT_EQ(obs::sanitize_metric_name("bdd.ite_calls"), "bdd_ite_calls");
  EXPECT_EQ(obs::sanitize_metric_name("a-b c"), "a_b_c");
  EXPECT_EQ(obs::sanitize_metric_name("9lives"), "_9lives");
  EXPECT_EQ(obs::sanitize_metric_name(""), "_");
  EXPECT_EQ(obs::sanitize_metric_name("ok_name:sub"), "ok_name:sub");
  // Idempotent: sanitizing a sanitized name changes nothing.
  const std::string once = obs::sanitize_metric_name("solver.ü.50%");
  EXPECT_EQ(obs::sanitize_metric_name(once), once);
}

TEST(OpenMetrics, ExpositionFormat) {
  RELKIT_REQUIRE_OBS_COMPILED_IN();
  ObsScope scope;
  obs::counter("test.om_counter").add(7);
  obs::gauge("test.om_gauge").set(2.5);
  obs::Histogram& h = obs::histogram("test.om_hist");
  h.observe(1.0);
  h.observe(1e300);
  const std::string text = obs::Registry::instance().to_openmetrics();
  const auto npos = std::string::npos;

  EXPECT_NE(text.find("# HELP test_om_counter RelKit counter "
                      "'test.om_counter'\n"),
            npos);
  EXPECT_NE(text.find("# TYPE test_om_counter counter\n"), npos);
  EXPECT_NE(text.find("test_om_counter_total 7\n"), npos);
  EXPECT_NE(text.find("# TYPE test_om_gauge gauge\n"), npos);
  EXPECT_NE(text.find("test_om_gauge 2.5\n"), npos);
  EXPECT_NE(text.find("# TYPE test_om_hist histogram\n"), npos);
  EXPECT_NE(text.find("test_om_hist_bucket{le=\"+Inf\"} 2\n"), npos);
  EXPECT_NE(text.find("test_om_hist_count 2\n"), npos);
  EXPECT_NE(text.find("test_om_hist_sum"), npos);
  // Terminated by the mandatory EOF marker.
  ASSERT_GE(text.size(), 6u);
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");

  // Bucket 'le' edges are strictly increasing and end at +Inf; cumulative
  // counts never decrease.
  const char* marker = "test_om_hist_bucket{le=\"";
  double prev_edge = -1.0;
  std::uint64_t prev_cum = 0;
  bool saw_inf = false;
  int buckets = 0;
  for (std::size_t pos = text.find(marker); pos != npos;
       pos = text.find(marker, pos)) {
    pos += std::strlen(marker);
    const std::size_t quote = text.find('"', pos);
    const std::string le = text.substr(pos, quote - pos);
    const std::uint64_t cum = std::stoull(text.substr(quote + 3));
    EXPECT_GE(cum, prev_cum);
    prev_cum = cum;
    ++buckets;
    if (le == "+Inf") {
      saw_inf = true;
    } else {
      EXPECT_FALSE(saw_inf) << "+Inf must be the last bucket";
      const double edge = std::stod(le);
      EXPECT_GT(edge, prev_edge);
      prev_edge = edge;
    }
  }
  EXPECT_EQ(buckets, obs::Histogram::kBuckets);
  EXPECT_TRUE(saw_inf);
}

TEST(OpenMetrics, HelpEscapesBackslashAndNewline) {
  RELKIT_REQUIRE_OBS_COMPILED_IN();
  ObsScope scope;
  obs::counter("test.om_weird\\name\nx");
  const std::string text = obs::Registry::instance().to_openmetrics();
  // The raw dotted name appears in the HELP text with \ and newline
  // escaped — never as a raw line break that would split the record.
  EXPECT_NE(text.find("test.om_weird\\\\name\\nx"), std::string::npos);
  EXPECT_EQ(text.find("test.om_weird\\name\nx"), std::string::npos);
  // The sample name itself is fully sanitized.
  EXPECT_NE(text.find("test_om_weird_name_x_total 0\n"), std::string::npos);
}

// ---- JSON writer -----------------------------------------------------------

TEST(JsonWriter, OwnsCommasAcrossNesting) {
  obs::JsonWriter w;
  w.begin_object().key("a").integer(1).key("b").begin_array();
  w.number(0.1).boolean(false).begin_object().end_object();
  w.begin_array().end_array().string("x").end_array();
  w.key("c").begin_object().key("d").raw("1.500").end_object();
  w.end_object();
  EXPECT_EQ(w.str(), R"({"a":1,"b":[0.1,false,{},[],"x"],"c":{"d":1.500}})");
}

TEST(JsonWriter, EscapesKeysAndStrings) {
  obs::JsonWriter w;
  w.begin_object().key("k\"\\").string("a\"b\\c\n\r\t\x01\x1f\xC3\xA9");
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"k\\\"\\\\\":\"a\\\"b\\\\c\\n\\r\\t\\u0001\\u001f\xC3\xA9\"}");
  EXPECT_EQ(obs::json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
}

TEST(JsonWriter, NumbersAndBareMemberLists) {
  // number() is %.12g; integer() is exact over the whole u64 range.
  obs::JsonWriter w;
  w.begin_array().number(1.0 / 3.0).number(1e-300).number(2.0);
  w.integer(18446744073709551615ULL).end_array();
  EXPECT_EQ(w.str(), "[0.333333333333,1e-300,2,18446744073709551615]");
  // Members without an enclosing object form a bare list, which raw()
  // splices into another object with the comma in the right place.
  obs::JsonWriter members;
  members.key("ok").boolean(true).key("n").integer(2);
  obs::JsonWriter outer;
  outer.begin_object().key("id").string("x").raw(members.take());
  outer.key("z").integer(0).end_object();
  EXPECT_EQ(outer.str(), R"({"id":"x","ok":true,"n":2,"z":0})");
}

TEST(JsonWriter, NewlineGoesAfterTheComma) {
  obs::JsonWriter w;
  w.begin_array().newline().integer(1).newline().integer(2).newline();
  w.end_array();
  EXPECT_EQ(w.str(), "[\n1,\n2\n]");
  obs::JsonWriter empty;
  EXPECT_EQ(empty.begin_array().newline().end_array().take(), "[\n]");
}

// ---- Chrome trace export ---------------------------------------------------

/// Structural JSON sanity: balanced braces/brackets outside strings.
void expect_balanced_json(const std::string& text) {
  int braces = 0, brackets = 0;
  bool in_string = false, escaped = false;
  for (const char c : text) {
    if (escaped) {
      escaped = false;
    } else if (c == '\\') {
      escaped = true;
    } else if (c == '"') {
      in_string = !in_string;
    } else if (!in_string) {
      braces += (c == '{') - (c == '}');
      brackets += (c == '[') - (c == ']');
      EXPECT_GE(braces, 0);
      EXPECT_GE(brackets, 0);
    }
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);
}

TEST(ChromeTrace, JsonNestsConsistentlyWithTree) {
  RELKIT_REQUIRE_OBS_COMPILED_IN();
  ObsScope scope;
  auto ring = std::make_shared<obs::RingBufferSink>();
  obs::Tracer::instance().add_sink(ring);
  {
    obs::Span outer("test.chrome_outer");
    {
      obs::Span inner("test.chrome_inner");
      inner.set("escaped", "a\"b\nc\xC3\xA9");  // quote, newline, non-ASCII
      inner.set("backslash", "a\"b\\c\n");
      inner.set("residual", 1.25e-9);
    }
    { obs::Span inner2("test.chrome_inner2"); }
  }
  const auto records = ring->snapshot();
  ASSERT_EQ(records.size(), 3u);
  const std::string json = obs::to_chrome_json(records);

  expect_balanced_json(json);
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  // One complete event per record.
  int x_events = 0;
  for (std::size_t pos = json.find("\"ph\":\"X\""); pos != std::string::npos;
       pos = json.find("\"ph\":\"X\"", pos + 1)) {
    ++x_events;
  }
  EXPECT_EQ(x_events, 3);
  // Attrs survive as escaped args (the raw newline must not appear inside
  // a string — json_escape turns it into \n), and numeric attrs keep the
  // text Span::set formatted them to.
  EXPECT_NE(json.find("a\\\"b\\nc"), std::string::npos);
  EXPECT_NE(json.find("\"backslash\":\"a\\\"b\\\\c\\n\""),
            std::string::npos);
  EXPECT_NE(json.find("\"residual\":\"1.25e-09\""), std::string::npos);

  // Nesting matches the span tree: each event's args carry the same
  // parent ids render_trace_tree() nests by.
  const obs::SpanRecord* outer = nullptr;
  for (const auto& r : records) {
    if (r.name == "test.chrome_outer") outer = &r;
  }
  ASSERT_NE(outer, nullptr);
  EXPECT_NE(json.find("\"name\":\"test.chrome_inner\""), std::string::npos);
  EXPECT_NE(
      json.find("\"parent\":\"" + std::to_string(outer->id) + "\""),
      std::string::npos);
  // And timestamps nest: children start at or after the parent's ts and
  // fit inside its duration (ts/dur are microseconds in trace-event JSON).
  for (const auto& r : records) {
    if (r.parent != outer->id) continue;
    EXPECT_GE(r.start_s, outer->start_s - 1e-9);
    EXPECT_LE(r.start_s + r.wall_s, outer->start_s + outer->wall_s + 1e-9);
  }
}

TEST(ChromeTrace, SinkWritesLoadableFile) {
  RELKIT_REQUIRE_OBS_COMPILED_IN();
  ObsScope scope;
  const std::string path = ::testing::TempDir() + "relkit_obs_chrome.json";
  {
    std::shared_ptr<obs::ChromeTraceSink> sink =
        obs::ChromeTraceSink::open(path);
    ASSERT_NE(sink, nullptr);
    obs::Tracer::instance().add_sink(sink);
    {
      obs::Span outer("test.chrome_file_outer");
      obs::Span inner("test.chrome_file_inner");
    }
    obs::Tracer::instance().remove_all_sinks();
    sink->flush();
    sink->flush();  // idempotent
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  expect_balanced_json(text);
  EXPECT_EQ(text.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(text.find("test.chrome_file_outer"), std::string::npos);
  EXPECT_NE(text.find("test.chrome_file_inner"), std::string::npos);
  std::remove(path.c_str());
}

// ---- profile reports -------------------------------------------------------

TEST(Profile, InclusiveTimesSumConsistently) {
  RELKIT_REQUIRE_OBS_COMPILED_IN();
  ObsScope scope;
  auto ring = std::make_shared<obs::RingBufferSink>();
  obs::Tracer::instance().add_sink(ring);
  {
    obs::Span outer("test.prof_outer");
    { obs::Span inner("test.prof_inner"); }
    { obs::Span inner("test.prof_inner"); }
  }
  const auto records = ring->snapshot();
  ASSERT_EQ(records.size(), 3u);
  const obs::ProfileReport profile = obs::build_profile(records);

  const obs::ProfileRow* outer = profile.row("test.prof_outer");
  const obs::ProfileRow* inner = profile.row("test.prof_inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->count, 1u);
  EXPECT_EQ(inner->count, 2u);

  // Invariant: a name's inclusive wall is the exact sum of its span wall
  // times, and the total is the sum over root spans.
  double outer_wall = 0.0, inner_wall = 0.0;
  for (const auto& r : records) {
    if (r.name == "test.prof_outer") outer_wall += r.wall_s;
    if (r.name == "test.prof_inner") inner_wall += r.wall_s;
  }
  EXPECT_DOUBLE_EQ(outer->inclusive_wall, outer_wall);
  EXPECT_DOUBLE_EQ(inner->inclusive_wall, inner_wall);
  EXPECT_DOUBLE_EQ(profile.total_wall, outer_wall);
  EXPECT_NEAR(outer->percent, 100.0, 1e-9);

  // Exclusive = inclusive minus children; leaves keep everything.
  EXPECT_NEAR(outer->exclusive_wall, outer_wall - inner_wall, 1e-12);
  EXPECT_DOUBLE_EQ(inner->exclusive_wall, inner->inclusive_wall);

  const std::string table = obs::render_profile_table(profile);
  EXPECT_NE(table.find("test.prof_outer"), std::string::npos);
  EXPECT_NE(table.find("test.prof_inner"), std::string::npos);
  const std::string json = obs::profile_to_json(profile);
  expect_balanced_json(json);
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"name\":\"test.prof_outer\""), std::string::npos);
}

// The GB/s column renders from `bytes` span attributes, so the table is
// testable on hand-built records: bytes over inclusive wall, "-" on a row
// without bytes, and no column when no span carried bytes.
TEST(Profile, TableRendersGbpsFromBytesAttrs) {
  std::vector<obs::SpanRecord> records(2);
  records[0].id = 1;
  records[0].name = "test.kernel";
  records[0].wall_s = 1.5;
  records[0].attrs = {{"bytes", "3000000000"}};
  records[1].id = 2;
  records[1].name = "test.plain";
  records[1].wall_s = 0.5;
  const obs::ProfileReport profile = obs::build_profile(records);
  ASSERT_NE(profile.row("test.kernel"), nullptr);
  ASSERT_NE(profile.row("test.plain"), nullptr);
  EXPECT_EQ(profile.row("test.kernel")->bytes, 3000000000u);
  EXPECT_EQ(profile.row("test.plain")->bytes, 0u);

  const std::string table = obs::render_profile_table(profile);
  EXPECT_NE(table.find("GB/s"), std::string::npos);
  const auto line_of = [&](const std::string& name) {
    const std::size_t at = table.find(name);
    return table.substr(at, table.find('\n', at) - at);
  };
  EXPECT_NE(line_of("test.kernel").find(" 2.00"), std::string::npos)
      << table;  // 3e9 bytes / 1.5 s
  EXPECT_EQ(line_of("test.plain").back(), '-') << table;

  records[0].attrs.clear();
  EXPECT_EQ(obs::render_profile_table(obs::build_profile(records)).find("GB/s"),
            std::string::npos);
}

// Each sparse kernel prices its memory traffic from sizes alone. On a
// 40 x 40 grid at jobs 2, every solver.bicgstab, solver.sor, solver.power
// and markov.matvec span carries the `bytes` of the formulas in
// docs/observability.md, and build_profile sums them into the rows.
TEST(Profile, KernelSpansCarryDocumentedBytes) {
  RELKIT_REQUIRE_OBS_COMPILED_IN();
  ObsScope scope;
  FaultInjectionScope injector;
  // A clamp at the default cap changes nothing but activates the injector,
  // which then counts BiCGSTAB's in-loop residual checks.
  injector->clamp_iterations("bicgstab.max_iters",
                             BicgstabOptions{}.max_iters);

  const std::size_t k = 40;
  const std::size_t n = k * k;
  SparseBuilder b(n, n);
  std::vector<double> diag(n, 0.0);
  const auto edge = [&](std::size_t from, std::size_t to, double rate) {
    b.add(to, from, rate);  // qt(to, from) = Q(from, to)
    diag[from] -= rate;
  };
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t s = i * k + j;
      if (i + 1 < k) edge(s, s + k, 0.7 + 0.001 * j);
      if (i > 0) edge(s, s - k, 1.1);
      if (j + 1 < k) edge(s, s + 1, 0.5 + 0.002 * i);
      if (j > 0) edge(s, s - 1, 0.9);
    }
  }
  const SparseMatrix qt = b.build();

  auto ring = std::make_shared<obs::RingBufferSink>(1 << 14);
  obs::Tracer::instance().add_sink(ring);
  for (const robust::SolverChoice solver :
       {robust::SolverChoice::kBicgstab, robust::SolverChoice::kSor}) {
    robust::RobustSteadyOptions opts;
    opts.solver = solver;
    opts.jobs = 2;
    robust::robust_steady_state(qt, diag, opts);
  }
  obs::Tracer::instance().remove_sink(ring);
  const std::vector<obs::SpanRecord> records = ring->snapshot();

  const auto attr = [](const obs::SpanRecord& r, const char* key) {
    const std::string* value = r.attr(key);
    EXPECT_NE(value, nullptr) << r.name << " has no " << key;
    return value == nullptr ? std::uint64_t{0} : std::stoull(*value);
  };
  const auto find = [&](const char* name) -> const obs::SpanRecord* {
    const auto it =
        std::find_if(records.begin(), records.end(),
                     [&](const obs::SpanRecord& r) { return r.name == name; });
    return it == records.end() ? nullptr : &*it;
  };
  const obs::SpanRecord* bicgstab = find("solver.bicgstab");
  const obs::SpanRecord* sor = find("solver.sor");
  ASSERT_NE(bicgstab, nullptr);
  ASSERT_NE(sor, nullptr);

  // CSR pass: a value and a column index per entry plus the row pointers.
  const auto pass = [](std::uint64_t rows, std::uint64_t nnz) {
    return nnz * 16 + (rows + 1) * 8;
  };
  const std::uint64_t vec = n * 8;
  const std::uint64_t check = qt.pass_bytes() + 2 * vec;
  EXPECT_EQ(qt.pass_bytes(), pass(n, qt.nnz()));

  // solver.bicgstab: per iteration two preconditioner applications, two
  // products on the factor's remainder R and 22 vector streams; per residual
  // check one pass over Q^T with diag and the candidate; per residual reset
  // one pass over Q^T and 6 vector streams. The start vector is checked once
  // before the loop; the residual is reset there and at the check of every
  // 32nd iteration that misses tol. An application reads L and U (4-byte
  // columns), their two row-pointer arrays and the pivots, and streams z
  // three times; a product reads R (4-byte columns) and its row pointers.
  // The products run on the calling thread, so they open no markov.matvec
  // span.
  const std::uint64_t iters = attr(*bicgstab, "iterations");
  const std::uint64_t factor_nnz = attr(*bicgstab, "factor_nnz");
  const std::uint64_t remainder_nnz = attr(*bicgstab, "remainder_nnz");
  // L and U hold the off-diagonal entries of the n - 1 equations kept (each
  // state of the grid has 2 to 4 neighbours) and of the row of ones.
  EXPECT_LE(qt.nnz() + (n - 1) - 4, factor_nnz);
  EXPECT_LE(factor_nnz, qt.nnz() + (n - 1) - 2);
  EXPECT_GT(remainder_nnz, 0u);  // ILU0 drops fill on a 2-D grid
  const std::uint64_t factor = factor_nnz * 12 + 2 * (n + 1) * 8 + n * 8;
  const std::uint64_t product = remainder_nnz * 12 + (n + 1) * 8;
  const std::uint64_t iteration =
      2 * (factor + 3 * vec + product) + 22 * vec;
  const std::uint64_t bicgstab_checks =
      1 + injector->hits("bicgstab.residual");
  const std::uint64_t resets = 1 + (iters - 1) / 32;
  EXPECT_EQ(attr(*bicgstab, "bytes"),
            iters * iteration + bicgstab_checks * check +
                resets * (qt.pass_bytes() + 6 * vec));

  // solver.sor: per sweep a pass over Q^T and 6 vector streams; residual
  // checks at the start and at sweeps 1-4 and every 8th.
  const std::uint64_t sweeps = attr(*sor, "iterations");
  std::uint64_t sor_checks = 1;
  for (std::uint64_t it = 1; it <= sweeps; ++it) {
    if (it % 8 == 0 || it <= 4) ++sor_checks;
  }
  EXPECT_EQ(attr(*sor, "bytes"),
            sweeps * (qt.pass_bytes() + 6 * vec) + sor_checks * check);

  const obs::ProfileReport profile = obs::build_profile(records);
  EXPECT_EQ(profile.row("markov.matvec"), nullptr);
  EXPECT_EQ(profile.row("solver.bicgstab")->bytes, attr(*bicgstab, "bytes"));
  EXPECT_EQ(profile.row("solver.sor")->bytes, attr(*sor, "bytes"));
  EXPECT_NE(obs::render_profile_table(profile).find("GB/s"),
            std::string::npos);

  // solver.power, traced on its own: per step a pass over P^T and 8 vector
  // streams. Its product is the step's markov.matvec span: one pass plus x
  // read and y written.
  auto power_ring = std::make_shared<obs::RingBufferSink>(1 << 14);
  obs::Tracer::instance().add_sink(power_ring);
  robust::RobustSteadyOptions power_opts;
  power_opts.solver = robust::SolverChoice::kPower;
  power_opts.jobs = 2;
  robust::robust_steady_state(qt, diag, power_opts);
  obs::Tracer::instance().remove_sink(power_ring);
  const std::vector<obs::SpanRecord> power_records = power_ring->snapshot();
  const auto power = std::find_if(
      power_records.begin(), power_records.end(),
      [](const obs::SpanRecord& r) { return r.name == "solver.power"; });
  ASSERT_NE(power, power_records.end());
  const std::uint64_t pt_pass = robust::uniformize(qt, diag).pt.pass_bytes();
  const std::uint64_t steps = attr(*power, "iterations");
  EXPECT_EQ(attr(*power, "bytes"), steps * (pt_pass + 8 * vec));
  std::uint64_t matvecs = 0, matvec_bytes = 0;
  for (const obs::SpanRecord& r : power_records) {
    if (r.name != "markov.matvec") continue;
    EXPECT_EQ(r.parent, power->id);
    const std::uint64_t rows = attr(r, "rows");
    EXPECT_EQ(pass(rows, attr(r, "nnz")), pt_pass);
    EXPECT_EQ(attr(r, "bytes"), pt_pass + 2 * rows * 8);
    matvec_bytes += attr(r, "bytes");
    ++matvecs;
  }
  EXPECT_EQ(matvecs, steps);
  const obs::ProfileReport power_profile = obs::build_profile(power_records);
  ASSERT_NE(power_profile.row("markov.matvec"), nullptr);
  EXPECT_EQ(power_profile.row("markov.matvec")->bytes, matvec_bytes);
}

// ---- convergence telemetry -------------------------------------------------

TEST(Convergence, TraceDecimatesToSampleBound) {
  robust::ConvergenceTrace trace;
  const std::uint64_t kIters = 100000;
  for (std::uint64_t it = 1; it <= kIters; ++it) {
    trace.record(it, 1.0 / static_cast<double>(it));
  }
  EXPECT_EQ(trace.recorded(), kIters);
  const auto samples = trace.samples();
  ASSERT_FALSE(samples.empty());
  EXPECT_LE(samples.size(), robust::ConvergenceTrace::kMaxSamples + 1);
  // The first and the final points are always retained, and iterations
  // stay strictly increasing through every decimation round.
  EXPECT_EQ(samples.front().iteration, 1u);
  EXPECT_EQ(samples.back().iteration, kIters);
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GT(samples[i].iteration, samples[i - 1].iteration);
  }
  // Stride doubling: the kept-stride is a power of two.
  EXPECT_EQ(trace.stride() & (trace.stride() - 1), 0u);
}

TEST(Convergence, HundredThousandIterationSolveStaysBounded) {
  // tol = 0 is unreachable (delta < 0 never holds), so power iteration
  // runs to max_iters and throws — with the full trajectory decimated
  // into the report it carries.
  SparseBuilder builder(3, 3);
  builder.add(0, 1, 1.0);
  builder.add(1, 2, 1.0);
  builder.add(2, 0, 1.0);
  PowerOptions opts;
  opts.tol = 0.0;
  opts.max_iters = 100000;
  opts.jobs = 1;
  try {
    (void)power_steady_state(builder.build(), opts);
    FAIL() << "tol=0 must not converge";
  } catch (const robust::ConvergenceError& e) {
    const auto& trace = e.report().convergence;
    EXPECT_EQ(trace.recorded(), 100000u);
    EXPECT_LE(trace.samples().size(),
              robust::ConvergenceTrace::kMaxSamples + 1);
    EXPECT_EQ(trace.samples().back().iteration, 100000u);
  }
}

TEST(Convergence, SolveReportCarriesTrajectory) {
  markov::Ctmc chain;
  chain.add_states(30);
  for (std::size_t i = 0; i + 1 < 30; ++i) {
    chain.add_transition(i, i + 1, 1.0);
    chain.add_transition(i + 1, i, 2.0);
  }
  markov::SteadyStateOptions opts;
  opts.dense_threshold = 0;  // force the iterative path
  opts.use_cache = false;    // a cache hit would skip the iteration
  robust::SolveReport report;
  (void)chain.steady_state(opts, &report);
  ASSERT_FALSE(report.convergence.empty());
  const auto samples = report.convergence.samples();
  // The trajectory ends at the iteration that met the tolerance.
  EXPECT_LT(samples.back().value, opts.sor.tol);
  EXPECT_NE(report.summary().find("convergence:"), std::string::npos);
  EXPECT_NE(report.summary().find("it->residual:"), std::string::npos);
}

// ---- sliding-window histogram ----------------------------------------------

TEST(SlidingWindow, MergesLiveSlicesAndExpiresOld) {
  RELKIT_REQUIRE_OBS_COMPILED_IN();
  ObsScope scope;
  // 60 s window in 6 slices -> 10 s slice width.
  obs::SlidingWindowHistogram h(60.0, 6);
  EXPECT_DOUBLE_EQ(h.window_seconds(), 60.0);
  h.observe_at(1.0, 5.0);    // slice tick 0
  h.observe_at(2.0, 15.0);   // slice tick 1
  h.observe_at(4.0, 15.5);   // same slice
  const auto live = h.snapshot_at(16.0);
  EXPECT_EQ(live.count, 3u);
  EXPECT_DOUBLE_EQ(live.sum, 7.0);
  EXPECT_DOUBLE_EQ(live.min, 1.0);
  EXPECT_DOUBLE_EQ(live.max, 4.0);

  // At t=65 the tick-0 slice (ages 60..70 s) has left the window; only the
  // tick-1 observations remain.
  const auto later = h.snapshot_at(65.0);
  EXPECT_EQ(later.count, 2u);
  EXPECT_DOUBLE_EQ(later.sum, 6.0);
  EXPECT_DOUBLE_EQ(later.min, 2.0);

  // Far in the future everything has expired: the empty snapshot is all
  // zeros by contract.
  const auto empty = h.snapshot_at(500.0);
  EXPECT_EQ(empty.count, 0u);
  EXPECT_DOUBLE_EQ(empty.sum, 0.0);
  EXPECT_DOUBLE_EQ(empty.p50, 0.0);
  EXPECT_DOUBLE_EQ(empty.p99, 0.0);
}

TEST(SlidingWindow, RingSlotReuseDropsStaleObservations) {
  RELKIT_REQUIRE_OBS_COMPILED_IN();
  ObsScope scope;
  obs::SlidingWindowHistogram h(60.0, 6);
  h.observe_at(100.0, 1.0);  // tick 0, slot 0
  // Tick 6 reuses slot 0 (6 % 6): the stale tick-0 data must be discarded,
  // not merged into the new slice.
  h.observe_at(7.0, 61.0);
  const auto snap = h.snapshot_at(61.0);
  EXPECT_EQ(snap.count, 1u);
  EXPECT_DOUBLE_EQ(snap.sum, 7.0);
  EXPECT_DOUBLE_EQ(snap.max, 7.0);
}

TEST(SlidingWindow, QuantilesDescribeWindowContents) {
  RELKIT_REQUIRE_OBS_COMPILED_IN();
  ObsScope scope;
  obs::SlidingWindowHistogram h(60.0, 6);
  for (int i = 1; i <= 100; ++i) {
    h.observe_at(static_cast<double>(i), 30.0);
  }
  const auto snap = h.snapshot_at(30.0);
  EXPECT_EQ(snap.count, 100u);
  // Bucketed quantiles: the rank bucket's upper edge, clamped into the
  // observed range (same contract as Histogram::quantile).
  EXPECT_GE(snap.p50, 50.0);
  EXPECT_LE(snap.p50, 64.0);  // base-2 bucket upper edge
  EXPECT_GE(snap.p99, 99.0);
  EXPECT_LE(snap.p99, 100.0);
  EXPECT_LE(snap.p50, snap.p90);
  EXPECT_LE(snap.p90, snap.p95);
  EXPECT_LE(snap.p95, snap.p99);
}

TEST(SlidingWindow, ObserveIsGatedButSeamsAreNot) {
  RELKIT_REQUIRE_OBS_COMPILED_IN();
  obs::set_enabled(false);
  obs::SlidingWindowHistogram h(60.0, 6);
  h.observe(5.0);  // disabled -> no-op, like every obs hook
  EXPECT_EQ(h.snapshot().count, 0u);
  h.observe_at(5.0, 1.0);  // the test seam records regardless
  EXPECT_EQ(h.snapshot_at(1.0).count, 1u);
}

// ---- distributed trace ids -------------------------------------------------

TEST(TraceIds, TraceparentRoundTrip) {
  const obs::TraceId id{0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  EXPECT_EQ(obs::trace_id_hex(id), "0123456789abcdeffedcba9876543210");
  const std::string header = obs::make_traceparent(id, 0xb7);
  EXPECT_EQ(header,
            "00-0123456789abcdeffedcba9876543210-00000000000000b7-01");
  EXPECT_EQ(obs::parse_traceparent(header), id);
}

TEST(TraceIds, ParseRejectsMalformedHeaders) {
  const char* bad[] = {
      "",
      "00",
      "00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7",     // no flags
      "00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-",    // short
      "00-0123456789ABCDEF0123456789abcdef-00f067aa0ba902b7-01",  // uppercase
      "ff-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01",  // ver ff
      "00-00000000000000000000000000000000-00f067aa0ba902b7-01",  // zero id
      "00-0123456789abcdef0123456789abcdef-0000000000000000-01",  // zero par
      "00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01x", // trailing
      "0x-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01",  // bad ver
      "00_0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01",  // bad sep
  };
  for (const char* header : bad) {
    EXPECT_FALSE(obs::parse_traceparent(header).valid())
        << "accepted: " << header;
  }
  // A longer header is valid only for a future version with a '-' right
  // after the version-00 prefix... which version 00 itself forbids.
  EXPECT_FALSE(
      obs::parse_traceparent(
          "00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01-extra")
          .valid());
}

TEST(TraceIds, GeneratedIdsAreValidUniqueAndLowercaseHex) {
  std::vector<std::string> seen;
  for (int i = 0; i < 100; ++i) {
    const obs::TraceId id = obs::generate_trace_id();
    EXPECT_TRUE(id.valid());
    const std::string hex = obs::trace_id_hex(id);
    ASSERT_EQ(hex.size(), 32u);
    for (const char c : hex) {
      EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << hex;
    }
    seen.push_back(hex);
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::unique(seen.begin(), seen.end()), seen.end());
}

TEST(TraceIds, SamplingExtremesAreDeterministic) {
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(obs::sample_trace(0.0));
    EXPECT_TRUE(obs::sample_trace(1.0));
    EXPECT_FALSE(obs::sample_trace(-1.0));
    EXPECT_TRUE(obs::sample_trace(2.0));
  }
}

// ---- rotating file writer --------------------------------------------------

TEST(RotatingWriter, RotatesWhenALineWouldExceedTheBound) {
  const std::string path = ::testing::TempDir() + "relkit_obs_rotate.log";
  const std::string rotated = path + ".1";
  std::remove(path.c_str());
  std::remove(rotated.c_str());
  {
    auto writer = obs::RotatingFileWriter::open(path, 64);
    ASSERT_NE(writer, nullptr);
    // 31 bytes per line with the '\n': two fit under 64, the third rotates.
    writer->write_line("aaaaaaaaaaaaaaaaaaaaaaaaaaaaa0");
    writer->write_line("aaaaaaaaaaaaaaaaaaaaaaaaaaaaa1");
    writer->write_line("aaaaaaaaaaaaaaaaaaaaaaaaaaaaa2");
    writer->flush();
  }
  std::ifstream cur(path);
  std::ifstream old(rotated);
  ASSERT_TRUE(cur.good());
  ASSERT_TRUE(old.good());
  std::string line;
  std::vector<std::string> cur_lines, old_lines;
  while (std::getline(cur, line)) cur_lines.push_back(line);
  while (std::getline(old, line)) old_lines.push_back(line);
  ASSERT_EQ(old_lines.size(), 2u);
  EXPECT_EQ(old_lines[1], "aaaaaaaaaaaaaaaaaaaaaaaaaaaaa1");
  ASSERT_EQ(cur_lines.size(), 1u);
  EXPECT_EQ(cur_lines[0], "aaaaaaaaaaaaaaaaaaaaaaaaaaaaa2");
  std::remove(path.c_str());
  std::remove(rotated.c_str());
}

TEST(RotatingWriter, ZeroBoundNeverRotatesAndAppendsAcrossOpens) {
  const std::string path = ::testing::TempDir() + "relkit_obs_norotate.log";
  std::remove(path.c_str());
  for (int round = 0; round < 2; ++round) {
    auto writer = obs::RotatingFileWriter::open(path, 0);
    ASSERT_NE(writer, nullptr);
    for (int i = 0; i < 50; ++i) {
      writer->write_line("0123456789012345678901234567890123456789");
    }
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::size_t lines = 0;
  for (std::string line; std::getline(in, line);) ++lines;
  EXPECT_EQ(lines, 100u);  // appended, not truncated, and never rotated
  EXPECT_FALSE(std::ifstream(path + ".1").good());
  std::remove(path.c_str());
}

// ---- build-info gauges -----------------------------------------------------

TEST(BuildInfo, RegistersIdentificationGaugesWithLabels) {
  RELKIT_REQUIRE_OBS_COMPILED_IN();
  ObsScope scope;
  obs::register_build_info();
  const std::string text = obs::Registry::instance().to_openmetrics();
  const auto npos = std::string::npos;
  EXPECT_NE(text.find("# TYPE relkit_build_info gauge\n"), npos);
  // The info gauge carries its provenance as labels and pins value 1.
  const std::size_t sample = text.find("relkit_build_info{");
  ASSERT_NE(sample, npos);
  const std::size_t eol = text.find('\n', sample);
  const std::string line = text.substr(sample, eol - sample);
  EXPECT_NE(line.find("build_type=\""), npos) << line;
  EXPECT_NE(line.find("git=\""), npos) << line;
  EXPECT_NE(line.find("obs=\"on\""), npos) << line;
  EXPECT_EQ(line.substr(line.size() - 2), " 1") << line;

  EXPECT_NE(text.find("# TYPE relkit_process_start_time_seconds gauge\n"),
            npos);
  EXPECT_GT(obs::gauge("relkit.process.start_time.seconds").value(),
            1.5e9);  // a plausible Unix timestamp, not a steady-clock value
}

// ---- thread filter sink ----------------------------------------------------

TEST(ThreadFilter, CollectsOnlyItsThreadsSpans) {
  RELKIT_REQUIRE_OBS_COMPILED_IN();
  ObsScope scope;
  auto mine = std::make_shared<obs::ThreadFilterSink>(
      obs::Tracer::instance().thread_index());
  obs::Tracer::instance().add_sink(mine);
  { obs::Span span("test.filter_mine"); }
  std::thread other([] { obs::Span span("test.filter_other"); });
  other.join();
  obs::Tracer::instance().remove_sink(mine);

  const auto peek = mine->snapshot();
  ASSERT_EQ(peek.size(), 1u);  // the other thread's span was filtered out
  EXPECT_EQ(peek[0].name, "test.filter_mine");
  const auto taken = mine->take();
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_EQ(taken[0].name, "test.filter_mine");
  EXPECT_TRUE(mine->take().empty());  // take() empties the buffer
}

TEST(Integration, MetricsFireDuringSolve) {
  RELKIT_REQUIRE_OBS_COMPILED_IN();
  ObsScope scope;
  markov::Ctmc chain;
  chain.add_states(30);
  for (std::size_t i = 0; i + 1 < 30; ++i) {
    chain.add_transition(i, i + 1, 1.0);
    chain.add_transition(i + 1, i, 2.0);
  }
  markov::SteadyStateOptions opts;
  opts.dense_threshold = 0;  // force the iterative path
  (void)chain.steady_state(opts);
  EXPECT_GT(obs::counter("markov.sor_sweeps").value(), 0u);
  EXPECT_GT(obs::histogram("markov.sor_residual").count(), 0u);
}

}  // namespace
}  // namespace relkit
