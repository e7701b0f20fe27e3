// relkit_cli — analyze fault-tree / RBD / relgraph model files from the
// command line.
//
//   relkit_cli <model-file> [--time t1 t2 ...] [--cuts] [--importance]
//              [--diagnostics] [--trace[=FILE]] [--metrics[=FILE]]
//              [--profile] [--jobs N] [--no-solver-cache] [--timeout-ms N]
//              [--solver M] [--rare-event[=METHOD]] [--seed N]
//              [--rare-rel-err X] [--rare-max-cycles N] [--rare-bias X]
//              [--rare-splits N] [--postmortem[=DIR]] [--watchdog-ms N]
//   relkit_cli --batch LIST [--time t ...] [--profile] [--jobs N]
//              [--no-solver-cache] [--timeout-ms N] [--solver M]
//              [--postmortem[=DIR]] [--watchdog-ms N]
//   relkit_cli --obs-selftest segv|abort|terminate|stall
//              [--postmortem[=DIR]] [--watchdog-ms N]
//
// Prints, depending on the model's component specifications:
//   * steady-state availability / top-event probability,
//   * reliability / unreliability at the requested time points,
//   * minimal cut sets (--cuts) and importance measures (--importance),
//   * the last solver's SolveReport (--diagnostics), including the
//     bounded residual/iteration convergence trajectory,
//   * completed spans: --trace prints them as a nested tree on stdout,
//     --trace=FILE writes Chrome trace-event JSON loadable in Perfetto,
//   * the metrics registry (--metrics[=FILE]) as an OpenMetrics text
//     exposition, on stdout or into FILE,
//   * a per-solve profile (--profile): completed spans aggregated by name
//     into inclusive/exclusive wall + CPU time, call counts, % of total,
//     and GB/s for the sparse kernels, whose spans carry the bytes they
//     stream (computed from the matrix sizes, no hardware counters).
//
// --jobs N sets the process-wide parallelism degree (default: hardware
// concurrency; the library default without the CLI is sequential).
// --no-solver-cache disables the process-wide CTMC solution cache
// (markov::SolutionCache) — the escape hatch when every solve must run.
// --solver M forces a single stationary method instead of the verified
// fallback chain: auto (the default chain), gth, sor, bicgstab, power, or
// ad (NCD aggregation-disaggregation). The forced method is still
// verified; if it fails the solve fails instead of falling back. See
// docs/solvers.md for when each wins.
// --rare-event[=METHOD] cross-checks the analytic steady-state result with
// the rare-event simulation engine (sim::SystemSimulator): the model's
// repairable components are replayed as a CTMC and the steady-state
// unavailability is estimated with METHOD = naive (plain regenerative
// cycles), restart (importance splitting), or is (balanced failure
// biasing, the default). Requires an ftree or rbd model whose components
// are all repairable ('event NAME rate L repair M'). --seed fixes the
// replication seed (default 42; results are bit-identical for any --jobs),
// --rare-rel-err sets the stopping-rule relative-error target (default
// 0.1), --rare-max-cycles the cycle cap (default 10^6), --rare-bias the IS
// failure-biasing mass (default 0.5), and --rare-splits the RESTART branch
// count per level crossing (default 8). See docs/rare_events.md.
// --timeout-ms N bounds the analysis wall clock (per model in batch mode)
// by installing a robust::ScopedDeadline; when an iterative solver runs
// out mid-solve with a usable iterate, the CLI prints that partial result
// plus its SolveReport and exits 5 instead of discarding the work.
// --postmortem[=DIR] installs the crash/abort handler: if the process dies
// on SIGSEGV/SIGBUS/SIGFPE/SIGABRT or an unhandled exception, a JSON
// postmortem (backtrace, flight-recorder tail, metrics snapshot, last
// SolveReport) is written to DIR/relkit-crash-<pid>.json (DIR defaults to
// the working directory). --watchdog-ms N additionally starts a stall
// watchdog that dumps the same report when an in-flight solve makes no
// observable progress for N ms (the process keeps running). Both flags
// enable the observability layer. --obs-selftest MODE exercises the
// machinery end to end (it crashes or stalls on purpose) and is what the
// crash-path tests drive; see docs/postmortem.md.
// --batch LIST reads one model path per line from LIST ('#' comments and
// blank lines skipped), solves the models concurrently on the thread
// pool, and streams one JSON object per model to stdout as each finishes
// (fields: index, model, ok, and either name/kind/steady/at or
// error_class/error; with --profile additionally profile and, when an
// iterative solver ran, convergence), followed by one final summary line
// with per-error-class counts — the same object relkit_serve prints when
// it drains. Full reference: docs/cli.md.
//
// --time takes the values up to the next --flag; each must be a finite
// number >= 0.
//
// Exit codes: 0 success, 1 usage error, 2 model error, 3 numerical error
// (including convergence failures), 4 invalid argument (every malformed,
// missing or out-of-range flag value, and unusable --trace/--metrics/
// --batch files), 5 deadline exceeded with a partial result available
// (--timeout-ms).
// Batch mode exits 0 only when every model solved; otherwise it uses the
// exit class of the first failing model in input order.
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "flags.hpp"

#include "core/relkit.hpp"
#include "io/model_parser.hpp"
#include "sim/simulator.hpp"
#include "markov/solution_cache.hpp"
#include "obs/obs.hpp"
#include "obs/postmortem.hpp"
#include "parallel/pool.hpp"
#include "robust/budget.hpp"
#include "robust/robust.hpp"
#include "serve/solve_json.hpp"
#include "serve/summary.hpp"

void relkit::flags::usage() {
  std::fprintf(stderr,
               "usage: relkit_cli <model-file> [--time t ...] [--cuts] "
               "[--importance] [--diagnostics] [--trace[=FILE]] "
               "[--metrics[=FILE]] [--profile] [--jobs N] "
               "[--no-solver-cache] [--timeout-ms N] "
               "[--solver auto|gth|sor|bicgstab|power|ad] "
               "[--rare-event[=naive|restart|is]] [--seed N] "
               "[--rare-rel-err X] [--rare-max-cycles N] [--rare-bias X] "
               "[--rare-splits N] [--postmortem[=DIR]] [--watchdog-ms N]\n"
               "       relkit_cli --batch LIST [--time t ...] [--profile] "
               "[--jobs N] [--no-solver-cache] [--timeout-ms N] "
               "[--solver M] [--postmortem[=DIR]] [--watchdog-ms N]\n"
               "       relkit_cli --obs-selftest segv|abort|terminate|stall "
               "[--postmortem[=DIR]] [--watchdog-ms N]\n");
}

namespace {

void print_cuts(const std::vector<std::vector<std::string>>& cuts) {
  std::printf("minimal cut sets (%zu):\n", cuts.size());
  for (const auto& cut : cuts) {
    std::printf("  {");
    for (std::size_t i = 0; i < cut.size(); ++i) {
      std::printf("%s%s", i ? ", " : " ", cut[i].c_str());
    }
    std::printf(" }\n");
  }
}

/// Prints the most recent solver diagnostics (or where they came from, when
/// failing out of an exception handler).
void print_diagnostics() {
  if (relkit::robust::has_last_report()) {
    std::printf("--- solver diagnostics ---\n%s",
                relkit::robust::last_report().summary().c_str());
  } else {
    std::printf(
        "--- solver diagnostics ---\n"
        "no solve recorded (the analysis used closed-form/BDD paths "
        "only)\n");
  }
}

// ---- rare-event cross-check (--rare-event) ---------------------------------

/// Rebuilds a parsed combinatorial model as a SystemSimulator over its
/// repairable components and estimates the steady-state unavailability
/// with the requested variance-reduction method, printed next to the
/// analytic value. Returns an exit code (0 ok, 2 model error, 4 invalid
/// argument); numerical errors propagate to main's handlers.
int run_rare_event(const relkit::io::ParsedModel& model,
                   const relkit::sim::RareEventOptions& opts,
                   std::uint64_t seed) {
  namespace sim = relkit::sim;
  if (model.graph) {
    std::fprintf(stderr,
                 "invalid argument: --rare-event supports ftree and rbd "
                 "models (relgraph components carry no repair "
                 "semantics)\n");
    return 4;
  }
  const auto& names = model.fault_tree ? model.fault_tree->event_names()
                                       : model.rbd->component_names();
  const auto& specs = model.fault_tree ? model.fault_tree->event_models()
                                       : model.rbd->component_models();
  std::vector<sim::SimComponent> components;
  components.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].kind != relkit::ComponentModel::Kind::kRepairable) {
      std::fprintf(stderr,
                   "model error: --rare-event requires every component to "
                   "be repairable ('event %s rate LAMBDA repair MU')\n",
                   names[i].c_str());
      return 2;
    }
    components.push_back({relkit::exponential(specs[i].failure_rate),
                          relkit::exponential(specs[i].repair_rate)});
  }

  // Structure function over 0/1 component states: one walk down the
  // model's BDD, whose level i is component i. A fault tree's top event and
  // an RBD's failure function both read "component i down" variables.
  // Components past the 64th read as up; unavailability_rare rejects such
  // models itself.
  const auto* ft = model.fault_tree.get();
  const auto* rbd = model.rbd.get();
  const relkit::bdd::Manager& bdd = ft != nullptr ? ft->manager()
                                                  : rbd->manager();
  const relkit::bdd::NodeRef down =
      ft != nullptr ? ft->top_ref() : rbd->failure_ref();
  sim::StructureFn system_up = [&bdd, down](const std::vector<bool>& state) {
    std::uint64_t down_mask = 0;
    for (std::size_t i = 0; i < state.size() && i < 64; ++i) {
      if (!state[i]) down_mask |= std::uint64_t{1} << i;
    }
    return !bdd.evaluate(down, down_mask);
  };

  const double analytic = ft != nullptr ? ft->top_probability_limit()
                                        : 1.0 - rbd->availability();
  const char* method = opts.method == sim::RareMethod::kNaive ? "naive"
                       : opts.method == sim::RareMethod::kRestart
                           ? "restart"
                           : "importance-sampling";

  const sim::SystemSimulator simulator(std::move(components),
                                       std::move(system_up));
  const sim::Estimate est = simulator.unavailability_rare(seed, opts);
  std::printf("rare-event unavailability (%s, seed %llu):\n", method,
              static_cast<unsigned long long>(seed));
  if (est.one_sided) {
    std::printf("  estimate : zero failures in %zu cycles; one-sided 95%% "
                "bound U <= %.3e\n",
                est.replications, est.hi());
  } else {
    std::printf("  estimate : %.9e  (95%% CI +/- %.3e, rel. err. %.3f)\n",
                est.mean, est.half_width, est.relative_error());
  }
  std::printf("  analytic : %.9e%s\n", analytic,
              !est.one_sided && analytic >= est.lo() && analytic <= est.hi()
                  ? "  (covered by the CI)"
                  : "");
  std::printf("  cycles   : %zu%s\n", est.replications,
              est.budget_stopped ? "  (budget stopped)" : "");
  return 0;
}

// ---- batch mode ------------------------------------------------------------

/// One model's outcome in --batch mode: a self-contained JSON line plus
/// the exit class (0 ok, 2/3/4 per the error taxonomy above).
struct BatchOutcome {
  int exit_class = 0;
  std::string json;
};

/// Parses and solves one model file; never throws. The returned JSON line
/// carries everything a consumer needs to correlate out-of-order results.
/// With `profile` set, spans emitted by this thread during the solve are
/// aggregated into a "profile" field (plus "convergence" when an iterative
/// solver recorded a trajectory). `timeout_ms > 0` bounds this model's
/// solve (deadline armed here, at solve start).
BatchOutcome solve_one(const std::string& path,
                       const std::vector<double>& times, std::size_t index,
                       bool profile, long timeout_ms) {
  BatchOutcome out;
  // RAII so the collector detaches on every exit path, including throws.
  // The obs::ThreadFilterSink sees only this worker thread's spans — each
  // model is parsed and solved entirely on one pool thread, but all
  // threads share one Tracer.
  struct ProfileScope {
    std::shared_ptr<relkit::obs::ThreadFilterSink> sink;
    explicit ProfileScope(bool on) {
      if (!on) return;
      sink = std::make_shared<relkit::obs::ThreadFilterSink>(
          relkit::obs::Tracer::instance().thread_index());
      relkit::obs::Tracer::instance().add_sink(sink);
    }
    ~ProfileScope() {
      if (sink) relkit::obs::Tracer::instance().remove_sink(sink);
    }
  } profile_scope(profile);
  // The solve itself is the same shared core relkit_serve answers with, so
  // a batch line and a served response carry identical result fields.
  relkit::serve::SolveSpec spec;
  spec.path = path;
  spec.times = times;
  if (timeout_ms > 0) {
    spec.deadline = relkit::robust::Deadline::after_seconds(timeout_ms /
                                                            1000.0);
  }
  const relkit::serve::SolveOutcome outcome = relkit::serve::solve_model(spec);
  out.exit_class = outcome.exit_class;
  relkit::obs::JsonWriter line;
  line.begin_object().key("index").integer(index).key("model").string(path);
  line.raw(outcome.fields);
  // Profile/convergence fields ride along where they historically did:
  // successful solves and solver failures (model/argument errors never ran
  // a solver).
  const bool solver_ran = outcome.exit_class == 0 || outcome.exit_class == 3 ||
                          outcome.exit_class == 5;
  if (solver_ran && profile_scope.sink) {
    line.key("profile").raw(relkit::obs::profile_to_json(
        relkit::obs::build_profile(profile_scope.sink->take())));
    const auto& report = relkit::robust::last_report();
    if (relkit::robust::has_last_report() && !report.convergence.empty()) {
      // The trajectory as [iteration, value] pairs.
      line.key("convergence").begin_array();
      for (const auto& sample : report.convergence.samples()) {
        line.begin_array().integer(sample.iteration).number(sample.value);
        line.end_array();
      }
      line.end_array();
    }
  }
  out.json = line.end_object().take();
  return out;
}

/// Solves every model listed in `list_path` concurrently on the global
/// pool, streaming one JSON line per model as it completes, then one final
/// summary line with per-error-class counts. Returns the process exit
/// code.
int run_batch(const std::string& list_path, const std::vector<double>& times,
              bool profile, long timeout_ms) {
  std::ifstream list(list_path);
  if (!list.good()) {
    std::fprintf(stderr, "invalid argument: cannot open batch list '%s'\n",
                 list_path.c_str());
    return 4;
  }
  std::vector<std::string> paths;
  std::string line;
  while (std::getline(list, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const auto begin = line.find_first_not_of(" \t\r");
    if (begin == std::string::npos) continue;
    const auto end = line.find_last_not_of(" \t\r");
    paths.push_back(line.substr(begin, end - begin + 1));
  }
  if (paths.empty()) {
    std::fprintf(stderr, "invalid argument: batch list '%s' names no models\n",
                 list_path.c_str());
    return 4;
  }

  // Profiling needs span emission; each model's spans stay on its worker
  // thread, so the per-model ThreadFilterSink sees only its own solve.
  if (profile) relkit::obs::set_enabled(true);

  std::vector<int> exit_classes(paths.size(), 0);
  relkit::serve::ErrorClassCounts counts;
  std::mutex print_mu;
  relkit::parallel::global_pool().for_chunks(
      paths.size(), 1, [&](std::size_t begin, std::size_t) {
        const BatchOutcome outcome =
            solve_one(paths[begin], times, begin, profile, timeout_ms);
        exit_classes[begin] = outcome.exit_class;
        counts.add(outcome.exit_class);
        std::lock_guard<std::mutex> lock(print_mu);
        std::printf("%s\n", outcome.json.c_str());
        std::fflush(stdout);
      });
  // Final summary line: the same object relkit_serve prints when it
  // drains, so batch consumers and daemon operators read one format.
  std::printf("%s\n", counts.to_json().c_str());
  std::fflush(stdout);
  for (const int cls : exit_classes) {
    if (cls != 0) return cls;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  namespace flags = relkit::flags;
  if (argc < 2) {
    flags::usage();
    return 1;
  }
  std::string path;
  std::vector<double> times;
  bool want_cuts = false;
  bool want_importance = false;
  bool want_diagnostics = false;
  bool want_trace = false;
  bool want_metrics = false;
  bool want_profile = false;
  std::string trace_file;    // empty = span tree on stdout
  std::string metrics_file;  // empty = exposition on stdout
  std::string batch_file;
  bool no_solver_cache = false;
  unsigned jobs = 0;       // 0 = hardware concurrency
  long timeout_ms = 0;     // 0 = unlimited
  bool want_rare = false;
  relkit::sim::RareEventOptions rare_opts;
  std::uint64_t rare_seed = 42;
  bool want_postmortem = false;
  std::string postmortem_dir;    // empty = working directory
  long watchdog_ms = 0;          // 0 = watchdog off
  std::string selftest_mode;     // segv|abort|terminate|stall; empty = none
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (flags::matches(arg, "--jobs")) {
      jobs = static_cast<unsigned>(
          flags::parse_count(argc, argv, i, "--jobs", 1, 4096));
    } else if (flags::matches(arg, "--timeout-ms")) {
      timeout_ms = static_cast<long>(
          flags::parse_count(argc, argv, i, "--timeout-ms", 1, 86400000));
    } else if (flags::matches(arg, "--solver")) {
      const char* value = flags::value(argc, argv, i, "--solver");
      relkit::robust::SolverChoice choice = relkit::robust::SolverChoice::kAuto;
      if (!relkit::robust::parse_solver_choice(value, choice)) {
        flags::invalid(std::string("--solver must be auto, gth, sor, "
                                   "bicgstab, power, or ad, got '") +
                       value + "'");
      }
      relkit::robust::set_default_solver(choice);
    } else if (flags::matches(arg, "--batch")) {
      batch_file = flags::value(argc, argv, i, "--batch");
    } else if (std::strcmp(arg, "--time") == 0) {
      flags::parse_times(argc, argv, i, times);
    } else if (std::strcmp(arg, "--cuts") == 0) {
      want_cuts = true;
    } else if (std::strcmp(arg, "--importance") == 0) {
      want_importance = true;
    } else if (std::strcmp(arg, "--diagnostics") == 0) {
      want_diagnostics = true;
    } else if (std::strcmp(arg, "--no-solver-cache") == 0) {
      no_solver_cache = true;
    } else if (std::strcmp(arg, "--profile") == 0) {
      want_profile = true;
    } else if (flags::matches(arg, "--trace")) {
      want_trace = true;
      trace_file = flags::parse_optional_path(arg, "--trace", "");
    } else if (flags::matches(arg, "--metrics")) {
      want_metrics = true;
      metrics_file = flags::parse_optional_path(arg, "--metrics", "");
    } else if (flags::matches(arg, "--rare-event")) {
      want_rare = true;
      const std::string method =
          flags::parse_optional_path(arg, "--rare-event", "is");
      if (method == "naive") {
        rare_opts.method = relkit::sim::RareMethod::kNaive;
      } else if (method == "restart") {
        rare_opts.method = relkit::sim::RareMethod::kRestart;
      } else if (method == "is") {
        rare_opts.method = relkit::sim::RareMethod::kImportanceSampling;
      } else {
        flags::invalid("--rare-event must be naive, restart, or is, got '" +
                       method + "'");
      }
    } else if (flags::matches(arg, "--seed")) {
      rare_seed =
          flags::parse_count(argc, argv, i, "--seed", 0, UINT64_MAX);
    } else if (flags::matches(arg, "--rare-rel-err")) {
      rare_opts.relative_error = flags::parse_fraction(
          argc, argv, i, "--rare-rel-err", 0.0, 1.0, flags::End::kOpen);
    } else if (flags::matches(arg, "--rare-max-cycles")) {
      rare_opts.max_cycles = static_cast<std::size_t>(flags::parse_count(
          argc, argv, i, "--rare-max-cycles", 2, SIZE_MAX));
    } else if (flags::matches(arg, "--rare-bias")) {
      rare_opts.bias =
          flags::parse_fraction(argc, argv, i, "--rare-bias", 0.0, 1.0,
                                flags::End::kOpen, flags::End::kOpen);
    } else if (flags::matches(arg, "--rare-splits")) {
      rare_opts.splits = static_cast<unsigned>(
          flags::parse_count(argc, argv, i, "--rare-splits", 2, 1024));
    } else if (flags::matches(arg, "--postmortem")) {
      want_postmortem = true;
      postmortem_dir = flags::parse_optional_path(arg, "--postmortem", "");
    } else if (flags::matches(arg, "--watchdog-ms")) {
      watchdog_ms = static_cast<long>(
          flags::parse_count(argc, argv, i, "--watchdog-ms", 1, LONG_MAX));
    } else if (flags::matches(arg, "--obs-selftest")) {
      selftest_mode = flags::value(argc, argv, i, "--obs-selftest");
    } else if (arg[0] == '-') {
      flags::usage();
      return 1;
    } else {
      path = arg;
    }
  }
  // Postmortem machinery installs before anything can crash or stall —
  // including argument-dependent work like batch parsing.
  if (want_postmortem || watchdog_ms > 0 || !selftest_mode.empty()) {
    relkit::obs::set_enabled(true);
  }
  if (want_postmortem) {
    if (!relkit::obs::postmortem::install(
            postmortem_dir.empty() ? nullptr : postmortem_dir.c_str())) {
      std::fprintf(stderr,
                   "invalid argument: --postmortem directory '%s' is not "
                   "writable\n",
                   postmortem_dir.empty() ? "." : postmortem_dir.c_str());
      return 4;
    }
  }
  if (watchdog_ms > 0) {
    relkit::obs::postmortem::start_watchdog(
        static_cast<unsigned>(watchdog_ms));
  }
  if (!selftest_mode.empty()) {
    return relkit::obs::postmortem::run_selftest(selftest_mode.c_str());
  }
  // Parallelism degree: the CLI (unlike the library) defaults to the
  // hardware concurrency — it is a leaf process, not a building block.
  relkit::parallel::set_default_jobs(jobs);
  if (no_solver_cache) {
    relkit::markov::SolutionCache::instance().set_enabled(false);
  }

  if (!batch_file.empty()) {
    if (!path.empty() || want_cuts || want_importance || want_diagnostics ||
        want_trace || want_metrics || want_rare) {
      flags::invalid(
          "--batch combines only with --time, --profile, --jobs, "
          "--timeout-ms, --solver, and --no-solver-cache");
    }
    return run_batch(batch_file, times, want_profile, timeout_ms);
  }

  if (path.empty()) {
    flags::usage();
    return 1;
  }

  std::shared_ptr<relkit::obs::RingBufferSink> ring;
  std::shared_ptr<relkit::obs::ChromeTraceSink> trace_chrome;
  std::shared_ptr<relkit::obs::RingBufferSink> profile_ring;
  if (want_trace || want_metrics || want_profile) {
    relkit::obs::set_enabled(true);
  }
  // Build provenance belongs in every exposition a scraper might diff
  // across versions (gauges are set-gated, so this must follow enable).
  if (want_metrics) relkit::obs::register_build_info();
  if (want_trace && trace_file.empty()) {
    // The tree renders from a snapshot once the analysis is done.
    ring = std::make_shared<relkit::obs::RingBufferSink>();
    relkit::obs::Tracer::instance().add_sink(ring);
  } else if (want_trace) {
    trace_chrome = relkit::obs::ChromeTraceSink::open(trace_file);
    if (!trace_chrome) {
      flags::invalid("cannot open trace file '" + trace_file + "'");
    }
    relkit::obs::Tracer::instance().add_sink(trace_chrome);
  }
  if (want_profile) {
    // Dedicated sink: --profile must see every span even when --trace
    // routes elsewhere or is absent. Sized generously; profiles aggregate,
    // so a dropped span only shaves its row's count.
    profile_ring = std::make_shared<relkit::obs::RingBufferSink>(65536);
    relkit::obs::Tracer::instance().add_sink(profile_ring);
  }

  // --timeout-ms: one wall-clock budget for the whole analysis, installed
  // as the thread's ambient deadline so every nested CTMC solve (including
  // the parser's hierarchical submodels) inherits it.
  std::optional<relkit::robust::ScopedDeadline> scoped_deadline;
  if (timeout_ms > 0) {
    scoped_deadline.emplace(
        relkit::robust::Deadline::after_seconds(timeout_ms / 1000.0));
  }

  try {
    const relkit::io::ParsedModel model =
        relkit::io::parse_model_file(path);
    if (model.fault_tree) {
      const auto& ft = *model.fault_tree;
      std::printf("fault tree '%s': %zu events, BDD %zu nodes\n",
                  model.name.c_str(), ft.event_count(), ft.bdd_node_count());
      std::printf("steady-state top probability: %.9e\n",
                  ft.top_probability_limit());
      for (const double t : times) {
        std::printf("top probability at t=%g: %.9e\n", t,
                    ft.top_probability(t));
      }
      if (want_cuts) print_cuts(ft.minimal_cut_sets());
      if (want_importance) {
        std::printf("importance (steady state):\n");
        std::printf("  %-16s %12s %12s %8s %8s\n", "event", "Birnbaum",
                    "F-V", "RAW", "RRW");
        for (const auto& row : ft.importance(-1.0)) {
          std::printf("  %-16s %12.4e %12.4e %8.2f %8.2f\n",
                      row.event.c_str(), row.birnbaum, row.fussell_vesely,
                      row.raw, row.rrw);
        }
      }
    } else if (model.graph) {
      const auto& graph = *model.graph;
      std::printf("reliability graph '%s': %zu components, BDD %zu nodes\n",
                  model.name.c_str(), graph.component_count(),
                  graph.bdd_node_count());
      std::printf("steady-state s-t reliability: %.9f\n",
                  graph.reliability(-1.0));
      std::printf("factoring cross-check       : %.9f\n",
                  graph.reliability_factoring(-1.0));
      for (const double t : times) {
        std::printf("reliability at t=%g: %.9f\n", t, graph.reliability(t));
      }
      if (want_cuts) print_cuts(graph.minimal_cut_sets());
      if (want_importance) {
        std::fprintf(stderr,
                     "note: --importance is not available for relgraph "
                     "models\n");
      }
    } else {
      const auto& diagram = *model.rbd;
      std::printf("RBD '%s': %zu components, BDD %zu nodes\n",
                  model.name.c_str(), diagram.component_count(),
                  diagram.bdd_node_count());
      std::printf("steady-state availability: %.9f\n",
                  diagram.availability());
      for (const double t : times) {
        std::printf("reliability at t=%g: %.9f\n", t, diagram.reliability(t));
      }
      if (want_cuts) print_cuts(diagram.minimal_cut_sets());
      if (want_importance) {
        std::printf("importance (steady state):\n");
        std::printf("  %-16s %12s %12s %12s\n", "component", "Birnbaum",
                    "criticality", "F-V");
        for (const auto& row : diagram.importance(-1.0)) {
          std::printf("  %-16s %12.4e %12.4e %12.4e\n",
                      row.component.c_str(), row.birnbaum, row.criticality,
                      row.fussell_vesely);
        }
      }
    }
    if (want_rare) {
      const int code = run_rare_event(model, rare_opts, rare_seed);
      if (code != 0) return code;
    }
    if (want_diagnostics) print_diagnostics();
    if (ring) {
      std::printf("--- trace ---\n%s",
                  relkit::obs::render_trace_tree(ring->snapshot()).c_str());
      if (ring->dropped() > 0) {
        std::printf("(%llu older spans dropped from the ring buffer)\n",
                    static_cast<unsigned long long>(ring->dropped()));
      }
    } else if (trace_chrome) {
      trace_chrome->flush();
      std::printf("trace written to %s\n", trace_file.c_str());
    }
    if (want_metrics) {
      // Sample the process-wide resource gauges (peak RSS, CPU time, open
      // fds) so the exposition carries them.
      relkit::obs::refresh_process_gauges();
      const std::string exposition =
          relkit::obs::Registry::instance().to_openmetrics();
      if (metrics_file.empty()) {
        std::fwrite(exposition.data(), 1, exposition.size(), stdout);
      } else {
        std::FILE* f = std::fopen(metrics_file.c_str(), "w");
        if (f == nullptr) {
          flags::invalid("cannot open metrics file '" + metrics_file + "'");
        }
        std::fwrite(exposition.data(), 1, exposition.size(), f);
        std::fclose(f);
        std::printf("metrics written to %s\n", metrics_file.c_str());
      }
    }
    if (want_profile && profile_ring) {
      std::printf("--- profile ---\n%s",
                  relkit::obs::render_profile_table(
                      relkit::obs::build_profile(profile_ring->snapshot()))
                      .c_str());
    }
    relkit::obs::Tracer::instance().remove_all_sinks();
  } catch (const relkit::robust::ConvergenceError& e) {
    if (scoped_deadline && scoped_deadline->effective().expired() &&
        !e.partial_result().empty()) {
      // Deadline-exceeded with a usable partial iterate: degraded mode.
      // The partial result and its diagnostics go to stdout (they are the
      // product), the degradation notice to stderr, and the distinct exit
      // code 5 lets scripts tell "partial answer" from "no answer".
      std::fprintf(stderr, "deadline exceeded (degraded result): %s\n",
                   e.what());
      std::printf("DEGRADED: deadline exceeded; best partial result:\n");
      const auto& partial = e.partial_result();
      for (std::size_t i = 0; i < partial.size(); ++i) {
        std::printf("  state %zu: %.9e\n", i, partial[i]);
      }
      std::printf("--- solver diagnostics ---\n%s",
                  e.report().summary().c_str());
      return 5;
    }
    std::fprintf(stderr, "numerical error: %s\n", e.what());
    if (want_diagnostics) {
      std::fprintf(stderr, "--- solver diagnostics ---\n%s",
                   e.report().summary().c_str());
    }
    return 3;
  } catch (const relkit::ModelError& e) {
    std::fprintf(stderr, "model error: %s\n", e.what());
    return 2;
  } catch (const relkit::NumericalError& e) {
    std::fprintf(stderr, "numerical error: %s\n", e.what());
    if (want_diagnostics) print_diagnostics();
    return 3;
  } catch (const relkit::InvalidArgument& e) {
    std::fprintf(stderr, "invalid argument: %s\n", e.what());
    return 4;
  } catch (const relkit::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  return 0;
}
