// Clocks, host identity and child processes for relkit_perfbench.
//
// Every child relkit_perfbench starts is reaped before it returns: a
// one-shot child (relkit_cli) is killed when it overruns its timeout, and
// the daemon (relkit_serve) gets SIGTERM, a bounded wait, then SIGKILL.
// The daemon announces `listening on` before it installs its signal
// handlers and then waits in sigsuspend while other threads may take the
// signal, so a SIGTERM alone can be lost; the fallback keeps a run bounded.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall clock, seconds.
double now_s();
/// CPU time of this process (all threads), seconds.
double process_cpu_s();
/// Peak resident set of this process, MB.
double self_rss_peak_mb();

struct Host {
  unsigned nproc = 1;  ///< CPUs this process may run on
  std::string cpu_model;
  std::string kernel;
};
Host host_info();

/// Outcome of a child run to completion.
struct ChildRun {
  int exit_code = -1;  ///< -1 when it died on a signal or was killed
  bool timed_out = false;
  std::string out;     ///< everything it wrote to stdout
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< user + system, from wait4
  double rss_peak_mb = 0.0;
};

/// Runs argv[0] with stdout captured; SIGKILLs it after `timeout_s`.
ChildRun run_child(const std::vector<std::string>& argv, double timeout_s);

/// A long-running child whose stdout is read line by line.
class Daemon {
 public:
  explicit Daemon(const std::vector<std::string>& argv);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Waits up to `timeout_s` for a stdout line starting with `prefix` and
  /// returns it ("" on timeout or end of output).
  std::string wait_line(const std::string& prefix, double timeout_s);

  /// SIGTERM, wait up to `term_wait_s`, then SIGKILL and reap. Returns
  /// true when the daemon exited by itself after SIGTERM. Idempotent.
  bool stop(double term_wait_s = 5.0);

  pid_t pid() const { return pid_; }
  /// CPU time its threads have used so far, seconds.
  double cpu_s() const;
  /// Peak resident set so far (/proc/<pid>/status VmHWM), MB.
  double rss_peak_mb() const;

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string buffer_;
};

}  // namespace perfbench
