// Obs-layer overhead check: the instrumentation contract (docs/
// observability.md) is that a hook with tracing disabled costs one relaxed
// atomic load and a predictable branch — under 2% of any real workload.
//
// This bench pins the claim three ways on the hottest instrumented path
// (BDD construction + evaluation, which fires bdd.ite_calls /
// bdd.nodes_allocated / bdd.prob_evals on every solve):
//
//   1. A/B wall time of the workload with obs disabled vs. enabled
//      (no sinks attached) — the enabled case is the *upper* bound, the
//      disabled case is what production runs pay;
//   2. hook density: how many hooks one workload iteration fires
//      (counted with obs enabled);
//   3. per-hook cost of a disabled Counter::add() measured in a tight
//      loop, giving a deterministic estimate
//        overhead = hooks/iter x cost/hook / workload time
//      that does not depend on run-to-run scheduler jitter;
//   4. sink ablation: the same workload with a RingBufferSink and with a
//      ChromeTraceSink attached, plus tight-loop per-span costs for each
//      sink — what --trace / --trace=FILE add on top of
//      "enabled, no sink";
//   5. flight-recorder ablation: the enabled workload with the always-on
//      crash recorder switched off, plus a tight-loop enabled-hook A/B
//      (recorder on vs. off) that gates the recorder's own contract — it
//      rides along on every enabled run, so it must stay under the same
//      2% line.
//
// A second table pins the same contract on the relkit_serve request path:
// every request pays a fixed trace-id + sampling cost even with --trace
// and --access-log off, so the gate here is that fixed cost against the
// median /solve round trip (again a deterministic tight-loop estimate,
// not an A/B of two noisy network timings), plus ablation rows for
// sampled tracing, full tracing, and the access log.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/relkit.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/obs.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

using namespace relkit;

namespace {

ftree::FaultTree make_kofn_tree(std::uint32_t n) {
  std::vector<ftree::NodePtr> leaves;
  std::map<std::string, ftree::EventModel> events;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::string name = "e" + std::to_string(i);
    leaves.push_back(ftree::Node::basic(name));
    events.emplace(name, ftree::EventModel::fixed(0.995));
  }
  return ftree::FaultTree(
      ftree::Node::k_of_n_gate(n / 4 + 1, std::move(leaves)), events);
}

double one_workload() {
  const auto tree = make_kofn_tree(96);
  return tree.top_probability_limit();
}

// Contract verdict line. perfcheck.sh greps the output for "MISSES", so an
// unoptimized build — where per-hook cost is dominated by missing inlining,
// not by design — prints the number but does not gate: the 2% contracts
// are statements about optimized code, and bench/run_all.sh already
// refuses debug-built baselines for the same reason.
void print_contract_line(const char* label, double pct) {
#if defined(__OPTIMIZE__) || defined(NDEBUG)
  std::printf("%s %s 2%% target: %s\n", label, pct < 2.0 ? "meets" : "MISSES",
              pct < 2.0 ? "PASS" : "FAIL");
#else
  (void)pct;
  std::printf("%s vs 2%% target: not gated (unoptimized build)\n", label);
#endif
}

/// Median seconds per workload iteration over `reps` timed repetitions.
double time_workload(int reps) {
  std::vector<double> samples;
  samples.reserve(reps);
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(one_workload());
    samples.push_back(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
  }
  std::nth_element(samples.begin(), samples.begin() + samples.size() / 2,
                   samples.end());
  return samples[samples.size() / 2];
}

void print_table() {
  std::printf("== obs overhead on the BDD hot path ======================\n");
  if (!obs::kCompiledIn) {
    std::printf("obs compiled out (RELKIT_OBS=OFF): hooks are constexpr-"
                "false branches, overhead is zero by construction.\n\n");
    return;
  }

  constexpr int kReps = 31;
  obs::set_enabled(false);
  time_workload(5);  // warm up allocators and caches
  const double disabled_s = time_workload(kReps);
  obs::set_enabled(true);
  const double enabled_s = time_workload(kReps);

  // Flight-recorder ablation: the recorder rides along whenever obs is
  // enabled (always-on is its contract — a crash report needs the tail
  // nobody asked for in advance), so "enabled" above already includes it.
  // Turning it off isolates what the always-on rings cost.
  obs::flight::set_enabled(false);
  const double norec_s = time_workload(kReps);
  obs::flight::set_enabled(true);

  // Sink ablation: same workload, spans now reach an attached sink.
  auto& tracer = obs::Tracer::instance();
  const auto ring = std::make_shared<obs::RingBufferSink>();
  tracer.add_sink(ring);
  const double ring_s = time_workload(kReps);
  tracer.remove_sink(ring);
  const char* chrome_path = "bench_obs_overhead.chrome.tmp.json";
  std::shared_ptr<obs::ChromeTraceSink> chrome =
      obs::ChromeTraceSink::open(chrome_path);
  double chrome_s = 0.0;
  if (chrome) {
    tracer.add_sink(chrome);
    chrome_s = time_workload(kReps);
    tracer.remove_sink(chrome);
    chrome.reset();  // finalizes the file
    std::remove(chrome_path);
  }

  // Hook density of one iteration.
  auto& registry = obs::Registry::instance();
  registry.reset_values();
  benchmark::DoNotOptimize(one_workload());
  const std::uint64_t hooks_per_iter =
      obs::counter("bdd.ite_calls").value() +
      obs::counter("bdd.ite_cache_hits").value() +
      obs::counter("bdd.nodes_allocated").value() +
      obs::counter("bdd.prob_evals").value();
  obs::set_enabled(false);
  registry.reset_values();

  // Per-hook disabled cost, amortized over a tight loop.
  static obs::Counter& probe = obs::counter("bench.obs_probe");
  constexpr std::uint64_t kProbeLoops = 50'000'000;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < kProbeLoops; ++i) probe.add();
  const double probe_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const double ns_per_hook = probe_s / kProbeLoops * 1e9;

  // Per-hook ENABLED cost with the recorder off vs. on. A tight loop hits
  // one counter repeatedly, so this measures the coalesced path (repeat
  // hits fold into the newest ring event: a compare + add, not a full
  // 64-byte store) — the path hot solver loops live on, and the one that
  // regresses first if anyone reintroduces shared-cacheline traffic. The
  // mixed-counter cost shows up in the ungated workload A/B row instead.
  const auto time_hooks = [&]() {
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < kProbeLoops; ++i) probe.add();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  obs::set_enabled(true);
  obs::flight::set_enabled(false);
  const double hook_norec_s = time_hooks();
  obs::flight::set_enabled(true);
  const double hook_rec_s = time_hooks();
  obs::set_enabled(false);
  const double recorder_ns_per_hook =
      (hook_rec_s - hook_norec_s) / kProbeLoops * 1e9;
  const double recorder_pct =
      hooks_per_iter *
      (recorder_ns_per_hook > 0.0 ? recorder_ns_per_hook * 1e-9 : 0.0) /
      disabled_s * 100.0;

  const double estimated_pct =
      hooks_per_iter * (probe_s / kProbeLoops) / disabled_s * 100.0;
  const double ab_pct = (enabled_s / disabled_s - 1.0) * 100.0;

  std::printf("workload: build + solve 2-of-96 fault tree (BDD)\n");
  std::printf("%-42s %10.1f us\n", "median iteration, obs disabled",
              disabled_s * 1e6);
  std::printf("%-42s %10.1f us\n", "median iteration, obs enabled (no sink)",
              enabled_s * 1e6);
  std::printf("%-42s %10.1f us\n", "median iteration, enabled, recorder off",
              norec_s * 1e6);
  std::printf("%-42s %10.1f us\n", "median iteration, enabled + ring sink",
              ring_s * 1e6);
  if (chrome_s > 0.0) {
    std::printf("%-42s %10.1f us\n",
                "median iteration, enabled + chrome sink", chrome_s * 1e6);
  }
  std::printf("%-42s %10.2f %%\n", "enabled-vs-disabled A/B delta", ab_pct);
  std::printf("%-42s %10llu\n", "hooks fired per iteration",
              static_cast<unsigned long long>(hooks_per_iter));
  std::printf("%-42s %10.2f ns\n", "cost per disabled hook", ns_per_hook);
  std::printf("%-42s %10.3f %%\n", "estimated disabled-hook overhead",
              estimated_pct);
  print_contract_line("disabled overhead", estimated_pct);
  std::printf("%-42s %10.2f %%\n", "recorder on-vs-off A/B delta (enabled)",
              (enabled_s / norec_s - 1.0) * 100.0);
  std::printf("%-42s %10.2f ns\n",
              "flight-recorder cost per coalesced hook", recorder_ns_per_hook);
  std::printf("%-42s %10.3f %%\n", "estimated always-on recorder overhead",
              recorder_pct);
  print_contract_line("always-on recorder", recorder_pct);
  std::printf("\n");
}

// ---- serve request path ----------------------------------------------------

constexpr const char* kServeModel =
    "model rbd duplex\n"
    "event a prob 0.99\n"
    "event b prob 0.95\n"
    "gate top and a b\n"
    "top top\n";

std::string serve_request_body() {
  return "{\"model\":\"" + obs::json_escape(kServeModel) + "\"}";
}

/// Starts a server with `options`, times `reps` sequential POST /solve
/// round trips, stops it. Returns the median seconds per request, or a
/// negative value when a request fails.
double time_serve_requests(serve::ServerOptions options, int reps) {
  options.port = 0;
  serve::Server server(std::move(options));
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "serve bench: %s\n", error.c_str());
    return -1.0;
  }
  const std::string body = serve_request_body();
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  double failed = 0.0;
  for (int r = 0; r < reps + 3; ++r) {  // 3 warm-up round trips
    const auto t0 = std::chrono::steady_clock::now();
    const auto response =
        serve::http_post("127.0.0.1", server.port(), "/solve", body);
    const double dt = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (!response.ok || response.status != 200) failed = 1.0;
    if (r >= 3) samples.push_back(dt);
  }
  server.stop();
  if (failed > 0.0 || samples.empty()) return -1.0;
  std::nth_element(samples.begin(), samples.begin() + samples.size() / 2,
                   samples.end());
  return samples[samples.size() / 2];
}

void print_serve_table() {
  std::printf("== serve-path tracing / access-log overhead ==============\n");
  if (!obs::kCompiledIn) {
    std::printf("obs compiled out (RELKIT_OBS=OFF): request tracing is "
                "unavailable, nothing to gate.\n\n");
    return;
  }
  obs::set_enabled(true);

  constexpr int kReps = 31;
  serve::ServerOptions off;  // no trace_path, no access_log_path
  const double off_s = time_serve_requests(off, kReps);

  serve::ServerOptions sampled = off;
  sampled.trace_path = "bench_obs_overhead.serve_trace.tmp.json";
  sampled.trace_sample = 0.1;
  const double sampled_s = time_serve_requests(sampled, kReps);

  serve::ServerOptions full = off;
  full.trace_path = "bench_obs_overhead.serve_trace.tmp.json";
  full.trace_sample = 1.0;
  const double full_s = time_serve_requests(full, kReps);
  std::remove("bench_obs_overhead.serve_trace.tmp.json");

  serve::ServerOptions logged = off;
  logged.access_log_path = "bench_obs_overhead.serve_access.tmp.log";
  const double logged_s = time_serve_requests(logged, kReps);
  std::remove("bench_obs_overhead.serve_access.tmp.log");

  obs::set_enabled(false);
  if (off_s <= 0.0 || sampled_s <= 0.0 || full_s <= 0.0 || logged_s <= 0.0) {
    std::printf("serve bench requests failed; skipping the serve gate.\n\n");
    return;
  }

  // The cost a request pays with tracing and logging both off: one trace-id
  // generation + hex expansion + one sampling draw. Measured in a tight
  // loop so the gate does not ride on loopback round-trip jitter.
  constexpr std::uint64_t kIdLoops = 2'000'000;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < kIdLoops; ++i) {
    benchmark::DoNotOptimize(obs::trace_id_hex(obs::generate_trace_id()));
    benchmark::DoNotOptimize(obs::sample_trace(0.0));
  }
  const double id_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const double ns_per_request = id_s / kIdLoops * 1e9;
  const double estimated_pct = (id_s / kIdLoops) / off_s * 100.0;

  std::printf("workload: POST /solve, inline 2-event RBD, loopback\n");
  std::printf("%-42s %10.1f us\n", "median request, tracing + log off",
              off_s * 1e6);
  std::printf("%-42s %10.1f us\n", "median request, tracing sampled 10%",
              sampled_s * 1e6);
  std::printf("%-42s %10.1f us\n", "median request, tracing full",
              full_s * 1e6);
  std::printf("%-42s %10.1f us\n", "median request, access log on",
              logged_s * 1e6);
  std::printf("%-42s %10.2f ns\n", "trace-id + sampling cost per request",
              ns_per_request);
  std::printf("%-42s %10.3f %%\n", "estimated disabled-tracing overhead",
              estimated_pct);
  print_contract_line("serve disabled overhead", estimated_pct);
  std::printf("\n");
}

void BM_WorkloadObsDisabled(benchmark::State& state) {
  obs::set_enabled(false);
  for (auto _ : state) benchmark::DoNotOptimize(one_workload());
}
BENCHMARK(BM_WorkloadObsDisabled);

void BM_WorkloadObsEnabled(benchmark::State& state) {
  if (!obs::kCompiledIn) {
    state.SkipWithError("obs compiled out");
    return;
  }
  obs::set_enabled(true);
  for (auto _ : state) benchmark::DoNotOptimize(one_workload());
  obs::set_enabled(false);
}
BENCHMARK(BM_WorkloadObsEnabled);

void BM_CounterAddDisabled(benchmark::State& state) {
  obs::set_enabled(false);
  static obs::Counter& c = obs::counter("bench.obs_probe");
  for (auto _ : state) c.add();
}
BENCHMARK(BM_CounterAddDisabled);

void BM_CounterAddEnabled(benchmark::State& state) {
  if (!obs::kCompiledIn) {
    state.SkipWithError("obs compiled out");
    return;
  }
  obs::set_enabled(true);
  static obs::Counter& c = obs::counter("bench.obs_probe");
  for (auto _ : state) c.add();
  obs::set_enabled(false);
}
BENCHMARK(BM_CounterAddEnabled);

// Same enabled hook with the flight recorder off: the gap against
// BM_CounterAddEnabled is the per-hit cost of the always-on crash rings.
void BM_CounterAddEnabledRecorderOff(benchmark::State& state) {
  if (!obs::kCompiledIn) {
    state.SkipWithError("obs compiled out");
    return;
  }
  obs::set_enabled(true);
  obs::flight::set_enabled(false);
  static obs::Counter& c = obs::counter("bench.obs_probe");
  for (auto _ : state) c.add();
  obs::flight::set_enabled(true);
  obs::set_enabled(false);
}
BENCHMARK(BM_CounterAddEnabledRecorderOff);

void BM_SpanDisabled(benchmark::State& state) {
  obs::set_enabled(false);
  for (auto _ : state) {
    obs::Span span("bench.obs_span");
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_SpanDisabled);

void BM_SpanEnabledRingSink(benchmark::State& state) {
  if (!obs::kCompiledIn) {
    state.SkipWithError("obs compiled out");
    return;
  }
  obs::set_enabled(true);
  const auto sink = std::make_shared<obs::RingBufferSink>();
  obs::Tracer::instance().add_sink(sink);
  for (auto _ : state) {
    obs::Span span("bench.obs_span");
    benchmark::DoNotOptimize(&span);
  }
  obs::Tracer::instance().remove_sink(sink);
  obs::set_enabled(false);
}
BENCHMARK(BM_SpanEnabledRingSink);

// Fixed iteration count: the chrome sink buffers every span until flush
// (the object format has no valid incremental prefix), so an open-ended
// benchmark loop would grow memory without bound.
void BM_SpanEnabledChromeSink(benchmark::State& state) {
  if (!obs::kCompiledIn) {
    state.SkipWithError("obs compiled out");
    return;
  }
  const char* path = "bench_obs_overhead.chrome.bm.tmp.json";
  std::shared_ptr<obs::ChromeTraceSink> sink =
      obs::ChromeTraceSink::open(path);
  if (!sink) {
    state.SkipWithError("cannot open temp trace file");
    return;
  }
  obs::set_enabled(true);
  obs::Tracer::instance().add_sink(sink);
  for (auto _ : state) {
    obs::Span span("bench.obs_span");
    benchmark::DoNotOptimize(&span);
  }
  obs::Tracer::instance().remove_sink(sink);
  sink.reset();  // finalizes and closes the file
  std::remove(path);
  obs::set_enabled(false);
}
BENCHMARK(BM_SpanEnabledChromeSink)->Iterations(1 << 16);

// Serve-path ablation rows. Fixed iteration counts: each request is a full
// loopback HTTP round trip (~hundreds of us) and the traced variants buffer
// spans until server shutdown, so an open-ended loop would be both slow and
// unbounded in memory.
void run_serve_benchmark(benchmark::State& state,
                         const serve::ServerOptions& base) {
  if (!obs::kCompiledIn) {
    state.SkipWithError("obs compiled out");
    return;
  }
  obs::set_enabled(true);
  serve::ServerOptions options = base;
  options.port = 0;
  serve::Server server(std::move(options));
  std::string error;
  if (!server.start(&error)) {
    state.SkipWithError(error.c_str());
    obs::set_enabled(false);
    return;
  }
  const std::string body = serve_request_body();
  for (auto _ : state) {
    const auto response =
        serve::http_post("127.0.0.1", server.port(), "/solve", body);
    if (!response.ok || response.status != 200) {
      state.SkipWithError("request failed");
      break;
    }
  }
  server.stop();
  obs::set_enabled(false);
}

void BM_ServeSolveTracingOff(benchmark::State& state) {
  run_serve_benchmark(state, serve::ServerOptions{});
}
BENCHMARK(BM_ServeSolveTracingOff)->Iterations(200);

void BM_ServeSolveTracingSampled(benchmark::State& state) {
  serve::ServerOptions options;
  options.trace_path = "bench_obs_overhead.serve_trace.bm.tmp.json";
  options.trace_sample = 0.1;
  run_serve_benchmark(state, options);
  std::remove(options.trace_path.c_str());
}
BENCHMARK(BM_ServeSolveTracingSampled)->Iterations(200);

void BM_ServeSolveTracingFull(benchmark::State& state) {
  serve::ServerOptions options;
  options.trace_path = "bench_obs_overhead.serve_trace.bm.tmp.json";
  options.trace_sample = 1.0;
  run_serve_benchmark(state, options);
  std::remove(options.trace_path.c_str());
}
BENCHMARK(BM_ServeSolveTracingFull)->Iterations(200);

void BM_ServeSolveAccessLog(benchmark::State& state) {
  serve::ServerOptions options;
  options.access_log_path = "bench_obs_overhead.serve_access.bm.tmp.log";
  run_serve_benchmark(state, options);
  std::remove(options.access_log_path.c_str());
}
BENCHMARK(BM_ServeSolveAccessLog)->Iterations(200);

}  // namespace

int main(int argc, char** argv) {
  const benchjson::Options opts = benchjson::init(&argc, argv);
  print_table();
  print_serve_table();
  if (opts.table_only) return 0;
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
