// Solve deadlines: one wall-clock bound for a whole analysis.
//
// An entry point (relkit_cli --timeout-ms, a relkit_serve request)
// installs a ScopedDeadline; every long-running solver (SOR, power
// iteration, BiCGSTAB, A/D, the steady-state fallback chain, the
// uniformization series, fixed-point iteration, the Monte Carlo and
// rare-event simulators) copies ambient_deadline() once at entry and stops
// when that copy expires, throwing robust::ConvergenceError carrying its
// best partial result and a SolveReport instead of discarding the work
// done so far. Iteration caps are each solver's own options field
// (max_iters, max_sweeps, max_iterations, max_cycles, replications).
//
// Header-only so the base `common` module can use it without a link
// dependency on the robust module.
#pragma once

#include <chrono>
#include <limits>

namespace relkit::robust {

/// Wall-clock deadline. Default-constructed deadlines are unlimited.
class Deadline {
 public:
  Deadline() = default;

  /// Deadline `seconds` from now: <= 0 is already expired, and a bound
  /// the clock cannot represent from now (+inf included) is unlimited.
  static Deadline after_seconds(double seconds) {
    Deadline d;
    d.armed_ = true;
    d.end_ = Clock::now();
    if (!(seconds > 0.0)) return d;
    // Clock ticks are int64 nanoseconds, so compare in ticks before
    // converting: a cast past the clock's last instant would overflow.
    const double ticks = std::chrono::duration<double, Clock::period>(
                             std::chrono::duration<double>(seconds))
                             .count();
    const auto room = (Clock::time_point::max() - d.end_).count();
    if (ticks >= static_cast<double>(room)) return Deadline();
    d.end_ += Clock::duration(static_cast<Clock::duration::rep>(ticks));
    return d;
  }

  bool unlimited() const { return !armed_; }
  bool expired() const { return armed_ && Clock::now() >= end_; }

  /// Seconds left (+inf when unlimited, <= 0 when expired).
  double remaining_seconds() const {
    if (!armed_) return std::numeric_limits<double>::infinity();
    return std::chrono::duration<double>(end_ - Clock::now()).count();
  }

  /// The tighter of two deadlines (an unlimited deadline never binds).
  static Deadline earliest(const Deadline& a, const Deadline& b) {
    if (!a.armed_) return b;
    if (!b.armed_) return a;
    return a.end_ <= b.end_ ? a : b;
  }

 private:
  using Clock = std::chrono::steady_clock;
  bool armed_ = false;
  Clock::time_point end_{};
};

namespace detail {
inline Deadline& ambient_deadline_slot() {
  thread_local Deadline ambient;
  return ambient;
}
}  // namespace detail

/// The calling thread's ambient deadline (unlimited unless a ScopedDeadline
/// is active) and the only deadline a solver reads. A solver copies it once
/// at entry, on the caller's thread, so a deadline installed at an entry
/// point binds every nested solve — including the hierarchical
/// `event ... markov` submodels the model parser solves on the spot, which
/// never see caller options. The slot is thread-local and unset on pool
/// workers: work handed to them tests the caller's copy, or installs it
/// with a ScopedDeadline of its own.
inline const Deadline& ambient_deadline() {
  return detail::ambient_deadline_slot();
}

/// RAII installer of the ambient deadline for the current thread. Entry
/// points use it to give one whole analysis a wall-clock bound:
/// relkit_cli --timeout-ms wraps the full model analysis, and every
/// relkit_serve worker wraps one request's solve. Nesting tightens — an
/// inner scope can only shorten the effective deadline, never extend it.
class ScopedDeadline {
 public:
  explicit ScopedDeadline(const Deadline& d)
      : previous_(detail::ambient_deadline_slot()) {
    detail::ambient_deadline_slot() = Deadline::earliest(previous_, d);
  }
  ~ScopedDeadline() { detail::ambient_deadline_slot() = previous_; }
  ScopedDeadline(const ScopedDeadline&) = delete;
  ScopedDeadline& operator=(const ScopedDeadline&) = delete;

  /// The deadline in effect inside this scope.
  const Deadline& effective() const {
    return detail::ambient_deadline_slot();
  }

 private:
  Deadline previous_;
};

}  // namespace relkit::robust
