// relkit_perfbench: runs one benchmark workload and reports its metrics.
//
//   relkit_perfbench run --workload W --seed N --seconds S --trace 0|1
//                        --jobs J --tools DIR --models DIR --references FILE
//                        [--trace-out FILE]
//   relkit_perfbench selftest --tools DIR --models DIR --references FILE
//                             --benchmark-json FILE
//   relkit_perfbench pin --tools DIR --models DIR --references FILE
//
// `run` prints one line per metric (name, value, unit, how it was taken),
// a `stamp` line with the host, build and sample counts, and as its last
// line the JSON result: {"correct", "attempted", "failed", "metrics"}. It
// exits 1 when any answer check failed. perfbench/run.py builds the
// binaries and calls `run`; see perfbench/README.md.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "catalog.hpp"
#include "ledger.hpp"
#include "loadgen.hpp"
#include "parallel/pool.hpp"
#include "proc.hpp"
#include "robust/robust.hpp"
#include "serve/json.hpp"
#include "stats.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

struct Args {
  std::string command;
  std::map<std::string, std::string> flags;

  std::string get(const std::string& name) const {
    const auto it = flags.find(name);
    if (it == flags.end()) throw std::invalid_argument("missing --" + name);
    return it->second;
  }
  std::string get(const std::string& name, const std::string& fallback) const {
    const auto it = flags.find(name);
    return it == flags.end() ? fallback : it->second;
  }
};

Args parse_args(int argc, char** argv) {
  Args a;
  if (argc < 2) throw std::invalid_argument("missing command");
  a.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) {
      throw std::invalid_argument(std::string("bad argument ") + argv[i]);
    }
    a.flags[argv[i] + 2] = argv[i + 1];
    ++i;
  }
  return a;
}

/// One reported metric.
struct Row {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  std::string how;
  bool skipped = false;
  bool gated = true;  ///< in the result line (kReportOnly metrics are not)
};

const char* unit_of(const std::string& name) {
  for (const auto& d : kEndToEnd) {
    if (name == d.name) return d.unit;
  }
  for (const auto& d : kReportOnly) {
    if (name == d.name) return d.unit;
  }
  for (const auto& d : kPerLayer) {
    if (name == d.name) return d.unit;
  }
  throw std::logic_error("metric not in the catalog: " + name);
}

bool in_result_line(const std::string& name) {
  return std::any_of(std::begin(kEndToEnd), std::end(kEndToEnd),
                     [&](const MetricDef& d) { return name == d.name; });
}

double mean(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

/// The fastest of a run's operations: what the library workloads report as
/// solve_s and cpu_s. Their operations repeat the same work, and on a
/// shared host other tenants slow every operation by up to half for
/// seconds at a time. How much of a run falls into such phases changes
/// from run to run, and the median and mean move with it. That noise only
/// ever adds time, so the fast end of a run's times is its steady figure.
double fastest(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

/// `how`, followed by the median and mean of `v` for the reader.
std::string with_centre(const char* how, const std::vector<double>& v) {
  if (v.empty()) return how;
  char buf[48];
  std::snprintf(buf, sizeof buf, "; median %.4g, mean %.4g", median(v), mean(v));
  return how + std::string(buf);
}

/// Every reported value is the median of its samples, except the time and
/// CPU per operation of the library workloads (fastest).
std::vector<Row> end_to_end_rows(const std::string& workload,
                                 const WorkloadResult& r) {
  const bool serve = workload == "serve_mixed";
  std::vector<Row> rows;
  auto add = [&](const char* name, const std::vector<double>& v,
                 const std::string& how,
                 double (*reduce)(const std::vector<double>&)) {
    Row row{name, 0.0, unit_of(name), v.size(), how};
    row.gated = in_result_line(name);
    row.skipped = v.empty();
    if (row.skipped) {
      row.how = "skipped: no samples";
    } else {
      row.value = reduce(v);
    }
    rows.push_back(std::move(row));
  };
  auto med = [](const std::vector<double>& v) { return median(v); };
  add("setup_s", r.setup_s,
      serve ? "median of set-ups, the first from process start"
            : "median of set-ups, the first from process start, the rest "
              "spread over the run",
      med);
  if (serve) {
    add("solve_s", r.op_s,
        "median open-loop round trip from send to checked response", med);
    add("cpu_s", r.cpu_s,
        "median daemon CPU per response over 2-s open-loop windows", med);
  } else {
    add("solve_s", r.op_s,
        with_centre("fastest operation, model input to checked answer", r.op_s),
        fastest);
    add("cpu_s", r.cpu_s,
        with_centre("least process CPU of an operation", r.cpu_s), fastest);
  }
  if (serve) {
    add("lat_p50_ms", r.lat_ms,
        "open loop, timed from each request's scheduled send", med);
    add("lat_p99_ms", r.tail_ms,
        "p99 of each second of the open loop, median over the seconds", med);
    add("throughput_rps", r.rps,
        "correct responses per second of the closed loop, one connection "
        "per job, median over the seconds",
        med);
  } else {
    // A library operation's latency is solve_s; these need a request stream.
    for (const char* name : {"lat_p50_ms", "lat_p99_ms", "throughput_rps"}) {
      add(name, {}, "", med);
      rows.back().how = "skipped: defined on serve_mixed only";
    }
  }
  add("rss_peak_mb", {r.rss_peak_mb},
      serve ? "daemon peak resident set"
      : workload == "rare_event" ? "largest relkit_cli peak resident set"
                                 : "benchmark process peak resident set "
                                   "through the first operation",
      med);
  return rows;
}

std::vector<Row> per_layer_rows(const std::map<std::string, LayerValue>& ledger) {
  std::vector<Row> rows;
  for (const auto& def : kPerLayer) {
    Row row{def.name, 0.0, def.unit, 1, ""};
    const auto it = ledger.find(def.name);
    if (it == ledger.end() || !std::isfinite(it->second.value)) {
      row.skipped = true;
      row.how = "skipped: not measured";
    } else {
      row.value = it->second.value;
      row.how = it->second.note;
    }
    rows.push_back(row);
  }
  return rows;
}

int run(const Args& args, double process_start) {
  RunConfig cfg;
  const std::string workload = args.get("workload");
  cfg.seed = std::stoull(args.get("seed"));
  cfg.seconds = std::stod(args.get("seconds"));
  cfg.process_start_s = process_start;
  cfg.jobs = static_cast<unsigned>(std::stoul(args.get("jobs")));
  cfg.tools_dir = args.get("tools");
  cfg.models_dir = args.get("models");
  cfg.references = args.get("references");
  const bool traced = args.get("trace") == "1";
  relkit::parallel::set_default_jobs(cfg.jobs);

  const Host host = host_info();
  std::printf("perfbench %s: seed %llu, %g s, trace %d, jobs %u\n",
              workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, traced ? 1 : 0, cfg.jobs);
  std::printf("host: nproc %u, cpu \"%s\", kernel %s, build %s\n", host.nproc,
              host.cpu_model.c_str(), host.kernel.c_str(), PERFBENCH_BUILD_TYPE);
  std::fflush(stdout);

  WorkloadResult r;
  std::vector<Row> rows;
  if (traced) {
    const auto ledger =
        run_ledger(workload, cfg, r, args.get("trace-out", "/dev/null"));
    rows = per_layer_rows(ledger);
  } else if (workload == "ctmc_grid") {
    r = run_ctmc_grid(cfg);
  } else if (workload == "srn_pools") {
    r = run_srn_pools(cfg);
  } else if (workload == "serve_mixed") {
    r = run_serve_mixed(cfg);
  } else if (workload == "rare_event") {
    r = run_rare_event(cfg);
  } else {
    throw std::invalid_argument("unknown workload " + workload);
  }
  if (!traced) rows = end_to_end_rows(workload, r);

  for (const Row& row : rows) {
    if (row.skipped) {
      std::printf("  %-28s %-14s %-6s %s\n", row.name.c_str(), "skipped",
                  row.unit.c_str(), row.how.c_str());
    } else {
      std::printf("  %-28s %-14.6g %-6s %s%s\n", row.name.c_str(), row.value,
                  row.unit.c_str(), row.how.c_str(),
                  row.samples > 1
                      ? (" (n=" + std::to_string(row.samples) + ")").c_str()
                      : "");
    }
  }
  const double failed_frac =
      r.attempted == 0 ? 0.0
                       : static_cast<double>(r.failed) /
                             static_cast<double>(r.attempted);
  std::printf("  %-28s %-14.6g %-6s %zu of %zu operations failed a check\n",
              "failed_frac", failed_frac, "ratio", r.failed, r.attempted);
  for (const auto& note : r.notes) std::printf("  note: %s\n", note.c_str());
  for (const auto& why : r.failures) std::printf("  FAILED: %s\n", why.c_str());

  std::string samples, metrics;
  for (const Row& row : rows) {
    if (row.skipped || !row.gated) continue;
    char value[48];
    std::snprintf(value, sizeof value, "%.17g", row.value);
    samples += (samples.empty() ? "\"" : ",\"") + row.name +
               "\":" + std::to_string(row.samples);
    metrics += (metrics.empty() ? "\"" : ", \"") + row.name +
               "\": {\"value\": " + value + ", \"unit\": \"" + row.unit + "\"}";
  }
  std::printf(
      "stamp: {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,\"trace\":%d,"
      "\"jobs\":%u,\"build_type\":\"%s\",\"host\":{\"nproc\":%u,"
      "\"cpu_model\":%s,\"kernel\":%s},\"samples\":{%s}}\n",
      workload.c_str(), static_cast<unsigned long long>(cfg.seed), cfg.seconds,
      traced ? 1 : 0, cfg.jobs, PERFBENCH_BUILD_TYPE, host.nproc,
      json_string(host.cpu_model).c_str(), json_string(host.kernel).c_str(),
      samples.c_str());
  const bool correct = r.failed == 0 && r.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", r.attempted, r.failed,
              metrics.c_str());
  return correct ? 0 : 1;
}

// ---- selftest ------------------------------------------------------------------

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("  %s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

void test_stats() {
  expect(median({3, 1, 2}) == 2.0, "median of an odd sample");
  expect(median({4, 1, 3, 2}) == 2.5, "median of an even sample");
  std::vector<double> v1000, v100, v15;
  for (int i = 1; i <= 1000; ++i) v1000.push_back(i);
  for (int i = 1; i <= 100; ++i) v100.push_back(i);
  for (int i = 1; i <= 15; ++i) v15.push_back(i);
  const Tail t1000 = supported_tail(v1000);
  expect(t1000.percentile == 99.0 && t1000.value == 990.0,
         "1000 samples support p99 (10 beyond)");
  const Tail t100 = supported_tail(v100);
  expect(t100.percentile == 90.0 && t100.value == 90.0,
         "100 samples support p90");
  const Tail t15 = supported_tail(v15);
  expect(t15.percentile == 50.0 && t15.value == 8.0,
         "15 samples support only the median");
}

void test_names(const std::string& benchmark_json) {
  bool all_valid = true;
  for (const auto& d : kEndToEnd) all_valid = all_valid && valid_metric_name(d.name);
  for (const auto& d : kReportOnly) all_valid = all_valid && valid_metric_name(d.name);
  for (const auto& d : kPerLayer) all_valid = all_valid && valid_metric_name(d.name);
  expect(all_valid, "every metric name matches [A-Za-z0-9_.-]+");
  expect(!valid_metric_name("lat p99") && !valid_metric_name("") &&
             !valid_metric_name("x/y"),
         "names with spaces, slashes or nothing are rejected");

  std::ifstream in(benchmark_json);
  std::stringstream text;
  text << in.rdbuf();
  const auto parsed = relkit::serve::parse_json(text.str());
  expect(parsed.ok, "BENCHMARK.json parses");
  if (!parsed.ok) return;
  auto same = [&](const char* key, const auto& catalog) {
    const auto* list = parsed.value.get(key);
    if (list == nullptr || !list->is_array()) return false;
    const auto& items = list->as_array();
    if (items.size() != std::size(catalog)) return false;
    for (std::size_t i = 0; i < items.size(); ++i) {
      const auto* name = items[i].get("name");
      const auto* unit = items[i].get("unit");
      if (name == nullptr || unit == nullptr ||
          name->as_string() != catalog[i].name ||
          unit->as_string() != catalog[i].unit) {
        return false;
      }
    }
    return true;
  };
  expect(same("end_to_end", kEndToEnd),
         "BENCHMARK.json end_to_end matches the catalog");
  expect(same("per_layer", kPerLayer),
         "BENCHMARK.json per_layer matches the catalog");
  const auto* workloads = parsed.value.get("workloads");
  bool listed = workloads != nullptr && workloads->is_array() &&
                !workloads->as_array().empty();
  for (std::size_t i = 0; listed && i < workloads->as_array().size(); ++i) {
    const auto* name = workloads->as_array()[i].get("name");
    listed = name != nullptr &&
             std::find(std::begin(kWorkloads), std::end(kWorkloads),
                       name->as_string()) != std::end(kWorkloads);
  }
  expect(listed, "BENCHMARK.json lists only workloads this program runs");
}

void test_open_loop() {
  // One worker, one request due every millisecond; request 50 stalls the
  // server for 30 ms. Requests due during the stall leave late, and their
  // latency from the scheduled send must include the wait.
  const auto t = open_loop(1000.0, 0.12, 1, [](std::size_t k) {
    if (k == 50) std::this_thread::sleep_for(std::chrono::milliseconds(30));
    return true;
  });
  expect(t.size() == 120, "open loop sends rate x seconds requests");
  const Timed& after = t[55];
  expect(after.done - after.due >= 0.020,
         "a request due during the stall is charged the wait");
  expect(after.done - after.sent < 0.010,
         "its own round trip (from the actual send) stays short");
  expect(after.sent - after.due >= 0.020,
         "the generator's lateness shows in sent - due");
  expect(t[49].done - t[49].due < 0.020,
         "a request before the stall is not charged it");
}

void test_inputs(const RunConfig& cfg) {
  for (const char* w : kWorkloads) {
    const auto a = inputs_digest(w, 7, cfg);
    const auto b = inputs_digest(w, 7, cfg);
    const auto c = inputs_digest(w, 8, cfg);
    expect(a == b && a != c, std::string(w) +
                                 ": one seed, one set of inputs; another "
                                 "seed, other inputs");
  }
}

int selftest(const Args& args) {
  RunConfig cfg;
  cfg.tools_dir = args.get("tools");
  cfg.models_dir = args.get("models");
  cfg.references = args.get("references");
  std::printf("perfbench selftest\n");
  test_stats();
  test_names(args.get("benchmark-json"));
  test_open_loop();
  test_inputs(cfg);
  std::printf("%s (%d failed)\n", g_failures == 0 ? "PASS" : "FAIL", g_failures);
  return g_failures == 0 ? 0 : 1;
}

// ---- pin: recompute the pinned references --------------------------------------

int pin(const Args& args) {
  RunConfig cfg;
  cfg.tools_dir = args.get("tools");
  cfg.models_dir = args.get("models");
  cfg.references = args.get("references");
  const unsigned jobs = host_info().nproc;
  relkit::parallel::set_default_jobs(jobs);
  const References refs = load_references(cfg.references);

  // srn_pools: two independent solvers must agree on the availability.
  const spn::GeneratedChain g = build_pools(1.0, false).generate();
  const Transposed t = transposed_generator(g.ctmc);
  double a[2];
  const relkit::robust::SolverChoice solvers[2] = {
      relkit::robust::SolverChoice::kAuto, relkit::robust::SolverChoice::kBicgstab};
  for (int i = 0; i < 2; ++i) {
    relkit::robust::RobustSteadyOptions opts;
    opts.solver = solvers[i];
    const auto res = relkit::robust::robust_steady_state(t.qt, t.diag, opts);
    a[i] = pools_availability(g, res.pi);
    std::printf("srn_pools availability by %-8s %.15f (%s)\n",
                relkit::robust::solver_choice_name(solvers[i]), a[i],
                res.report.method.c_str());
  }
  std::printf("srn_pools: solvers differ by %.3g\n", std::abs(a[0] - a[1]));

  // rare_event: the estimate of each seed at jobs 1 and jobs nproc.
  for (const char* method : {"is", "restart"}) {
    const std::size_t cycles =
        std::strcmp(method, "is") == 0 ? refs.is_cycles : refs.restart_cycles;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      std::string est[2];
      bool covered = false;
      for (int j = 0; j < 2; ++j) {
        cfg.jobs = j == 0 ? 1 : jobs;
        const RareOutput out =
            parse_rare_output(run_child(rare_argv(cfg, method, seed, cycles), 120).out);
        est[j] = out.estimate;
        covered = out.mean - out.half_width <= refs.rare_analytic &&
                  refs.rare_analytic <= out.mean + out.half_width;
      }
      std::printf("%s seed %llu: jobs 1 %s, jobs %u %s%s\n", method,
                  static_cast<unsigned long long>(seed), est[0].c_str(), jobs,
                  est[1].c_str(), covered ? ", CI covers" : ", CI misses");
    }
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const double process_start = perfbench::now_s();
  if (!perfbench::kOptimized) {
    std::fprintf(stderr,
                 "relkit_perfbench: refusing to measure a non-optimized "
                 "build; configure with -DCMAKE_BUILD_TYPE=Release\n");
    return 2;
  }
  try {
    const perfbench::Args args = perfbench::parse_args(argc, argv);
    if (args.command == "run") return perfbench::run(args, process_start);
    if (args.command == "selftest") return perfbench::selftest(args);
    if (args.command == "pin") return perfbench::pin(args);
    throw std::invalid_argument("unknown command " + args.command);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "relkit_perfbench: %s\n", e.what());
    return 3;
  }
}
