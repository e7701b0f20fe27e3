// Discrete-event simulation — the independent estimator used to
// cross-validate every analytic solver in RelKit (experiment E9).
//
// Two simulators:
//
//   * SystemSimulator — components with arbitrary lifetime/repair
//     distributions and an arbitrary structure function over component
//     states. Estimates point availability, interval availability,
//     reliability (no system failure before t) and MTTF, each with a
//     95% confidence half-width.
//
//   * SrnSimulator — plays the token game of a stochastic reward net
//     (exponential timed transitions raced by sampling, immediates resolved
//     by priority/weight) and estimates transient and accumulated rewards.
//
// Replications are driven by independent RNG streams split from one seed
// in replication order, so results are reproducible. They run in fixed
// batches on a pool of parallel::default_jobs() workers (inline on the
// caller at jobs 1); each value lands at its index and the values are
// added in replication order, so for a given seed every worker count
// returns the bits of one sequential loop over the replications
// (determinism contract: docs/parallelism.md). The ambient deadline
// (robust::ScopedDeadline), copied on the caller's thread, is polled
// between chunks, so cancellation keeps working.
#pragma once

#include <functional>
#include <vector>

#include "common/distributions.hpp"
#include "common/rng.hpp"
#include "common/statistics.hpp"
#include "robust/report.hpp"
#include "spn/srn.hpp"

namespace relkit::sim {

/// Point estimate with a confidence interval.
struct Estimate {
  double mean = 0.0;
  double half_width = 0.0;  ///< 95% normal-approximation half-width
  std::size_t replications = 0;
  /// True when the run stopped short of its target — the ambient deadline
  /// expired, or a rare-event run reached max_cycles before its
  /// relative-error target; the estimate is still valid, just wider.
  /// Details are in robust::last_report().
  bool budget_stopped = false;
  /// True when every observation of a Bernoulli estimator landed on the
  /// same side (zero observed failures, or zero observed successes): the
  /// sample variance is 0 and a two-sided CI would be a zero-width
  /// interval that "covers" nothing. Instead half_width carries the
  /// one-sided 95% rule-of-three bound 3/n, so hi() (mean 0) or lo()
  /// (mean 1) is a valid one-sided confidence limit.
  bool one_sided = false;

  double lo() const { return mean - half_width; }
  double hi() const { return mean + half_width; }
  /// half_width / mean — the stopping-rule quantity of the rare-event
  /// estimators (inf when mean == 0).
  double relative_error() const;
};

/// Variance-reduction method for the rare-event estimators
/// (docs/rare_events.md has the selection table).
enum class RareMethod {
  kNaive,               ///< plain regenerative cycles, no biasing
  kRestart,             ///< importance splitting at level up-crossings
  kImportanceSampling,  ///< balanced failure biasing + likelihood ratios
};

/// Options for the rare-event entry points (`unavailability_rare`,
/// `mttf_rare`, `rare_unavailability`, `rare_mttf`).
struct RareEventOptions {
  RareMethod method = RareMethod::kImportanceSampling;
  /// IS: probability mass moved onto the failure transitions in states
  /// where both failure and repair transitions are enabled (balanced
  /// failure biasing). Must be in (0, 1).
  double bias = 0.5;
  /// RESTART: importance thresholds, ascending. Splitting happens when a
  /// trajectory's importance up-crosses a threshold. Empty = auto-derive
  /// from the model (RareEventModel::auto_levels()).
  std::vector<double> levels;
  /// RESTART: branches per threshold up-crossing (>= 2).
  unsigned splits = 8;
  /// Stopping rule: stop as soon as the 95% CI half-width is at most this
  /// fraction of the estimate.
  double relative_error = 0.1;
  /// Regenerative cycles between stopping-rule checks.
  std::size_t batch = 4096;
  /// Hard cap on regenerative cycles (the "replication" unit of the rare
  /// estimators); reaching it before the relative-error target sets
  /// budget_stopped.
  std::size_t max_cycles = 1'000'000;
  /// Parallelism degree: 0 = parallel::default_jobs(), 1 = sequential.
  /// The estimate is identical for every jobs value (pre-split per-cycle
  /// streams, fixed chunk boundaries, ordered merge).
  unsigned jobs = 0;
};

/// One simulated component: lifetime distribution plus optional repair-time
/// distribution (null = non-repairable).
struct SimComponent {
  DistPtr lifetime;
  DistPtr repair;  // may be null
};

/// System-up predicate over component states (true = up).
using StructureFn = std::function<bool(const std::vector<bool>&)>;

/// Simulates independent components under a structure function.
class SystemSimulator {
 public:
  SystemSimulator(std::vector<SimComponent> components, StructureFn system_up);

  /// P(system up at time t). All estimators stop early at the ambient
  /// deadline (robust::ScopedDeadline); a deadline stop with >= 2 completed
  /// replications returns the partial estimate with budget_stopped set,
  /// fewer throws robust::ConvergenceError.
  Estimate availability_at(double t, std::size_t replications,
                           std::uint64_t seed) const;

  /// Fraction of [0, t] the system is up (expected interval availability).
  Estimate interval_availability(double t, std::size_t replications,
                                 std::uint64_t seed) const;

  /// P(system never down during [0, t]) — reliability with repairable
  /// components; equal to availability_at for non-repairable ones.
  Estimate reliability(double t, std::size_t replications,
                       std::uint64_t seed) const;

  /// Mean time to first system failure.
  Estimate mttf(std::size_t replications, std::uint64_t seed) const;

  /// Steady-state unavailability 1 - A by rare-event regenerative
  /// simulation (RESTART splitting or failure-biasing IS, see
  /// docs/rare_events.md). Requires every component to have an exponential
  /// lifetime AND an exponential repair distribution (the component-state
  /// process must be a CTMC) and at most 64 components. Cycles regenerate
  /// at the all-up state; the run stops at opts.relative_error, or at
  /// opts.max_cycles or the ambient deadline (budget_stopped).
  Estimate unavailability_rare(std::uint64_t seed,
                               const RareEventOptions& opts = {}) const;

  /// Mean time to first system failure by rare-event regenerative
  /// simulation (same requirements as unavailability_rare). Uses the
  /// ratio identity MTTF = E[Z] / gamma over regeneration cycles. Throws
  /// robust::ConvergenceError when no failure was observed within the
  /// cycle cap (naive method on a nine-nines system will).
  Estimate mttf_rare(std::uint64_t seed,
                     const RareEventOptions& opts = {}) const;

 private:
  struct RunResult {
    double first_failure;  ///< time of first system-down (inf if none)
    double up_time;        ///< total up time in [0, horizon]
    bool up_at_horizon;
  };
  /// Simulates one replication up to `horizon` (or to first system failure
  /// when `stop_at_failure`).
  RunResult run(double horizon, bool stop_at_failure, Rng& rng) const;

  std::vector<SimComponent> components_;
  StructureFn up_;
};

/// Token-game simulator for stochastic reward nets.
class SrnSimulator {
 public:
  explicit SrnSimulator(const spn::Srn& net);

  /// E[reward rate at time t].
  Estimate transient_reward(const spn::RewardFn& reward, double t,
                            std::size_t replications,
                            std::uint64_t seed) const;

  /// E[integral of reward over [0, t]].
  Estimate accumulated_reward(const spn::RewardFn& reward, double t,
                              std::size_t replications,
                              std::uint64_t seed) const;

 private:
  /// Advances the marking to time t; calls `observe(interval, marking)` for
  /// every sojourn interval.
  spn::Marking play(
      double t, Rng& rng,
      const std::function<void(double, const spn::Marking&)>& observe) const;

  const spn::Srn& net_;
};

}  // namespace relkit::sim
