// relkit_serve — a long-running availability-modeling daemon.
//
//   relkit_serve [--port N] [--bind ADDR] [--jobs N] [--queue-cap N]
//                [--timeout-ms N] [--read-timeout-ms N]
//                [--write-timeout-ms N] [--max-body BYTES] [--allow-paths]
//                [--time t1 t2 ...] [--trace[=FILE]] [--trace-sample P]
//                [--access-log[=FILE]] [--access-log-max-bytes N]
//                [--postmortem[=DIR]] [--watchdog-ms N]
//                [--obs-selftest MODE]
//
// Accepts model-solve requests over HTTP/JSON and answers them from the
// process-wide thread pool behind a bounded admission queue:
//
//   POST /solve   {"model": "<model source>", "id": "...", "times": [...],
//                  "timeout_ms": N}  (or {"path": ...} with --allow-paths)
//   GET  /healthz liveness
//   GET  /readyz  readiness (503 while draining)
//   GET  /metrics OpenMetrics exposition of the obs registry
//   GET  /statusz in-flight request table + rolling latency SLOs
//
// Responses reuse the relkit_cli --batch JSON fields, so a served solve is
// bit-identical to a CLI solve of the same model. Requests past the queue
// capacity are shed with 503 ("overload"); per-request deadlines produce
// flagged degraded responses carrying the solver's partial result. On
// SIGTERM/SIGINT the daemon stops admissions, drains queued requests, and
// prints the same per-error-class summary line that --batch prints.
//
// --time takes the values up to the next --flag; each must be a finite
// number >= 0.
//
// Every request gets a 128-bit trace id (adopted from a valid incoming
// `traceparent`, generated otherwise). --trace[=FILE] records sampled
// requests' span trees into a Chrome trace-event file on shutdown
// (--trace-sample P sets the fraction); --access-log[=FILE] appends one
// JSONL line per request, rotated once past --access-log-max-bytes.
// --postmortem[=DIR] installs the crash handler (a dying daemon leaves
// DIR/relkit-crash-<pid>.json behind); --watchdog-ms N starts the stall
// watchdog, whose state /statusz reports; --obs-selftest MODE crashes or
// stalls on purpose before serving starts (crash-path tests only). See
// docs/postmortem.md. Full reference: docs/serving.md.
//
// Exit codes: 0 clean shutdown, 1 usage error, 4 invalid argument (every
// malformed, missing or out-of-range flag value included).
#include <pthread.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include "flags.hpp"
#include "obs/obs.hpp"
#include "obs/postmortem.hpp"
#include "parallel/pool.hpp"
#include "serve/server.hpp"

void relkit::flags::usage() {
  std::fprintf(stderr,
               "usage: relkit_serve [--port N] [--bind ADDR] [--jobs N] "
               "[--queue-cap N] [--timeout-ms N] [--read-timeout-ms N] "
               "[--write-timeout-ms N] [--max-body BYTES] [--allow-paths] "
               "[--time t ...] [--trace[=FILE]] [--trace-sample P] "
               "[--access-log[=FILE]] [--access-log-max-bytes N] "
               "[--postmortem[=DIR]] [--watchdog-ms N] "
               "[--obs-selftest segv|abort|terminate|stall]\n");
}

int main(int argc, char** argv) {
  relkit::serve::ServerOptions options;
  unsigned jobs = 0;
  bool want_postmortem = false;
  std::string postmortem_dir;
  long watchdog_ms = 0;
  std::string selftest_mode;
  namespace flags = relkit::flags;
  using flags::matches;
  using flags::parse_count;
  for (int i = 1; i < argc; ++i) {
    if (matches(argv[i], "--port")) {
      options.port = static_cast<int>(
          parse_count(argc, argv, i, "--port", 0, 65535));
    } else if (matches(argv[i], "--bind")) {
      options.bind_address = flags::value(argc, argv, i, "--bind");
    } else if (matches(argv[i], "--jobs")) {
      jobs = static_cast<unsigned>(
          parse_count(argc, argv, i, "--jobs", 1, 4096));
    } else if (matches(argv[i], "--queue-cap")) {
      options.queue_capacity = static_cast<std::size_t>(
          parse_count(argc, argv, i, "--queue-cap", 1, 1 << 20));
    } else if (matches(argv[i], "--timeout-ms")) {
      options.default_timeout_ms = static_cast<int>(
          parse_count(argc, argv, i, "--timeout-ms", 1, 86400000));
    } else if (matches(argv[i], "--read-timeout-ms")) {
      options.read_timeout_ms = static_cast<int>(
          parse_count(argc, argv, i, "--read-timeout-ms", 1, 86400000));
    } else if (matches(argv[i], "--write-timeout-ms")) {
      options.write_timeout_ms = static_cast<int>(
          parse_count(argc, argv, i, "--write-timeout-ms", 1, 86400000));
    } else if (matches(argv[i], "--max-body")) {
      options.max_body_bytes = static_cast<std::size_t>(
          parse_count(argc, argv, i, "--max-body", 1, 1L << 30));
    } else if (std::strcmp(argv[i], "--allow-paths") == 0) {
      options.allow_path_requests = true;
    } else if (matches(argv[i], "--trace-sample")) {
      options.trace_sample =
          flags::parse_fraction(argc, argv, i, "--trace-sample", 0.0, 1.0);
    } else if (matches(argv[i], "--trace")) {
      options.trace_path = flags::parse_optional_path(
          argv[i], "--trace", "relkit_serve_trace.json");
    } else if (matches(argv[i], "--access-log-max-bytes")) {
      options.access_log_max_bytes = static_cast<std::size_t>(
          parse_count(argc, argv, i, "--access-log-max-bytes", 0, 1L << 40));
    } else if (matches(argv[i], "--access-log")) {
      options.access_log_path = flags::parse_optional_path(
          argv[i], "--access-log", "relkit_serve_access.log");
    } else if (matches(argv[i], "--postmortem")) {
      want_postmortem = true;
      postmortem_dir = flags::parse_optional_path(argv[i], "--postmortem", ".");
    } else if (matches(argv[i], "--watchdog-ms")) {
      watchdog_ms = static_cast<long>(
          parse_count(argc, argv, i, "--watchdog-ms", 1, 86400000));
    } else if (matches(argv[i], "--obs-selftest")) {
      selftest_mode = flags::value(argc, argv, i, "--obs-selftest");
    } else if (std::strcmp(argv[i], "--time") == 0) {
      flags::parse_times(argc, argv, i, options.default_times);
    } else {
      flags::usage();
      return 1;
    }
  }

  // Like the CLI, the daemon is a leaf process: default to the hardware
  // concurrency unless --jobs pins a degree.
  relkit::parallel::set_default_jobs(jobs);

  // Crash/stall machinery comes up before the listener so even startup
  // faults leave a report. The daemon always runs with obs on when any of
  // these are requested (the server enables obs for /metrics anyway).
  if (want_postmortem || watchdog_ms > 0 || !selftest_mode.empty()) {
    relkit::obs::set_enabled(true);
  }
  if (want_postmortem &&
      !relkit::obs::postmortem::install(postmortem_dir.c_str())) {
    std::fprintf(stderr,
                 "invalid argument: --postmortem directory '%s' is not "
                 "writable\n",
                 postmortem_dir.c_str());
    return 4;
  }
  // SIGTERM/SIGINT are blocked before the first thread starts, so every
  // thread inherits the mask and the signal stays pending until main's
  // sigwait below takes it: none can be lost to a worker thread or arrive
  // before the daemon is ready to drain.
  sigset_t stop_signals;
  sigemptyset(&stop_signals);
  sigaddset(&stop_signals, SIGTERM);
  sigaddset(&stop_signals, SIGINT);
  pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);
  if (watchdog_ms > 0) {
    relkit::obs::postmortem::start_watchdog(
        static_cast<unsigned>(watchdog_ms));
  }
  if (!selftest_mode.empty()) {
    return relkit::obs::postmortem::run_selftest(selftest_mode.c_str());
  }

  relkit::serve::Server server(options);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "invalid argument: cannot start server: %s\n",
                 error.c_str());
    return 4;
  }
  std::printf("listening on %d\n", server.port());
  std::fflush(stdout);

  int received = 0;
  sigwait(&stop_signals, &received);

  // Graceful drain: stop admissions, answer everything already accepted,
  // then report the same per-error-class summary --batch prints.
  const std::string summary = server.stop(/*drain=*/true);
  std::printf("%s\n", summary.c_str());
  return 0;
}
