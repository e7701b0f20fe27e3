// The books of one iterative steady-state solve: SteadyResult and
// SolveBooks.
//
// SOR, power iteration, BiCGSTAB and A/D differ in their arithmetic and
// share everything around it: one obs::Span, one SolveReport attempt, a
// copy of the ambient deadline, an iteration cap passed through its
// FaultInjector probe, the residual trajectory, the best (lowest-residual)
// iterate and the ways a solve ends. SolveBooks keeps those books. A kernel
// calls check() at its own cadence and leaves through converged(), fail(),
// deadline_stop() or cap_stop(); each exit sets the span's `iterations`,
// `residual`, `converged` and, when the kernel counts its traffic, `bytes`,
// and SolveReport::finish publishes the report as last_report().
//
// Header-only, like report.hpp, so the base `common` module can use it
// without a link dependency on the robust module.
#pragma once

#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "robust/budget.hpp"
#include "robust/fault_injection.hpp"
#include "robust/report.hpp"

namespace relkit::robust {

/// What every iterative steady-state kernel and the fallback chain return.
struct SteadyResult {
  std::vector<double> pi;
  std::size_t iterations = 0;
  /// max |(pi Q)_i| of `pi` as the solver measured it; power iteration
  /// measures the max-norm change of its last step instead.
  double residual = 0.0;
  SolveReport report;
};

class SolveBooks {
 public:
  /// Opens the span `span` with `n`, notes the one attempt `method`,
  /// copies the ambient deadline and passes `cap` through the probe
  /// `cap_probe`. `what` (the kernel's function name) starts every failure
  /// message.
  SolveBooks(const char* method, const char* what, const char* span,
             std::size_t n, const char* cap_probe, std::size_t cap)
      : method_(method),
        what_(what),
        n_(n),
        cap_(testing::FaultInjector::instance().cap(cap_probe, cap)),
        span_(span) {
    span_.set("n", static_cast<std::uint64_t>(n));
    report_.note_attempt(method_);
  }

  /// Records the trajectory point (it, res), then keeps `x` as the best
  /// iterate when `res` is finite and the lowest so far.
  void check(std::size_t it, double res, const std::vector<double>& x) {
    report_.convergence.record(it, res);
    keep_best(res, x);
  }

  /// The best-iterate half of check(), without a trajectory point (for a
  /// start vector's residual).
  void keep_best(double res, const std::vector<double>& x) {
    if (std::isfinite(res) && res < best_res_) {
      best_ = x;
      best_res_ = res;
    }
  }

  const std::vector<double>& best() const { return best_; }
  double best_residual() const { return best_res_; }
  /// Adds to the traffic the span reports as `bytes` (docs/observability.md).
  void add_bytes(std::size_t b) { bytes_ += b; }
  bool expired() const { return deadline_.expired(); }
  /// The iteration cap after the fault probe.
  std::size_t cap() const { return cap_; }
  obs::Span& span() { return span_; }
  SolveReport& report() { return report_; }

  /// Closes a converged solve that returns `pi`.
  SteadyResult converged(std::vector<double> pi, std::size_t it, double res) {
    close(it, res, true);
    return {std::move(pi), it, res, std::move(report_)};
  }

  /// Closes a failed solve on the best residual. The error's message is
  /// "<what>: <why>", and its partial is the best iterate, or a uniform
  /// vector when no check has kept one.
  ConvergenceError fail(const std::string& why, std::size_t it) {
    close(it, best_res_, false);
    if (best_.empty()) best_.assign(n_, 1.0 / static_cast<double>(n_));
    return ConvergenceError(what_ + ": " + why, std::move(best_),
                            std::move(report_));
  }

  /// fail() at the deadline, after `it` iterations counted in `unit`s.
  ConvergenceError deadline_stop(std::size_t it, const char* unit) {
    const std::string after = std::to_string(it) + " " + unit + "s";
    report_.warn("deadline expired after " + after);
    return fail("deadline expired after " + after + " (best residual " +
                    std::to_string(best_res_) + ")",
                it);
  }

  /// fail() when the loop ends unconverged after `it` iterations.
  ConvergenceError cap_stop(std::size_t it, const char* unit) {
    report_.warn(std::string(unit) + " budget exhausted");
    return fail("no convergence after " + std::to_string(it) + " " + unit +
                    "s (best residual " + std::to_string(best_res_) + ")",
                it);
  }

 private:
  void close(std::size_t it, double res, bool ok) {
    span_.set("iterations", static_cast<std::uint64_t>(it));
    span_.set("residual", res);
    span_.set("converged", ok);
    if (bytes_ != 0) span_.set("bytes", static_cast<std::uint64_t>(bytes_));
    report_.finish(method_, it, res, ok, start_);
  }

  std::string method_;
  std::string what_;
  std::size_t n_;
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
  Deadline deadline_ = ambient_deadline();
  std::size_t cap_;
  obs::Span span_;
  SolveReport report_;
  std::vector<double> best_;
  double best_res_ = std::numeric_limits<double>::infinity();
  std::size_t bytes_ = 0;
};

}  // namespace relkit::robust
