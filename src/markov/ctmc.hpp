// Continuous-time Markov chains (CTMC) and Markov reward models.
//
// The tutorial's state-space workhorse: dependencies that combinatorial
// models cannot express (shared repair, imperfect coverage, failover,
// rejuvenation) are modeled as a CTMC. Solvers:
//
//   * steady-state     — the verified fallback chain of src/robust/ (dense
//                        GTH first on small chains, then SOR, NCD
//                        aggregation-disaggregation, BiCGSTAB, last-resort
//                        GTH), or one forced method
//   * transient        — uniformization with stable Poisson weights
//   * cumulative       — expected total time per state in [0, t]
//                        (uniformization integral form)
//   * transient series — both measures at many time points from one series
//   * absorbing chains — mean time to absorption (MTTF), per-state expected
//                        sojourns, absorption probabilities, reliability(t)
//   * reward models    — expected reward rate (instantaneous, steady-state),
//                        expected accumulated reward, interval availability
//   * sensitivity      — d(pi)/d(theta) for a parameterized generator
//
// States are addressed by index: add_states(n) only grows per-state arrays,
// and a name is stored only for a state added with add_state(name); the
// others answer to the implied name "s<k>". Transitions accumulate rates.
// The generator is assembled lazily on first solve.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/linsolve.hpp"
#include "common/matrix.hpp"
#include "common/sparse.hpp"
#include "markov/solution_cache.hpp"
#include "robust/report.hpp"
#include "robust/robust.hpp"

namespace relkit::markov {

using StateId = std::size_t;

/// Options controlling the stationary solver: the verified chain's options
/// (robust/robust.hpp) plus the solution cache. The *effective* solver
/// choice is part of the cache key; `jobs` never is, since every value gives
/// the same bits.
struct SteadyStateOptions : robust::RobustSteadyOptions {
  /// Consult/populate the process-wide markov::SolutionCache. The cache can
  /// also be disabled globally (CLI --no-solver-cache).
  bool use_cache = true;
};

/// Result of analyzing a CTMC with absorbing states.
struct AbsorbingAnalysis {
  /// Expected total time spent in each transient state before absorption
  /// (0 for absorbing states).
  std::vector<double> expected_sojourn;
  /// Mean time to absorption from the given initial distribution.
  double mean_time_to_absorption = 0.0;
  /// Probability of eventually being absorbed into each absorbing state
  /// (0 for transient states).
  std::vector<double> absorption_probability;
};

/// Both transient measures at one time point of Ctmc::transient_series.
struct TransientPoint {
  /// State distribution at t, as Ctmc::transient returns it.
  std::vector<double> pi;
  /// Expected time per state in [0, t], as Ctmc::cumulative_time returns it.
  std::vector<double> cumulative;
};

/// A finite CTMC over index-addressed states, optionally named.
class Ctmc {
 public:
  /// Adds a named state; names must be non-empty and unique, also against
  /// the implied names "s<k>" of anonymous states (whichever came first).
  StateId add_state(std::string name);
  /// Adds `count` anonymous states and returns the first one's id. No name
  /// is stored: state k answers to "s<k>" in state_name() and
  /// state_index(). Costs O(1) allocations for any count.
  StateId add_states(std::size_t count);

  /// Accumulates a transition rate from -> to (rate > 0, from != to).
  void add_transition(StateId from, StateId to, double rate);

  std::size_t state_count() const { return exit_rates_.size(); }
  /// The stored name of a named state, "s<k>" for anonymous state k.
  std::string state_name(StateId s) const;
  /// Index of a state by name (stored or implied); throws InvalidArgument
  /// if unknown.
  StateId state_index(const std::string& name) const;

  /// Total exit rate of a state.
  double exit_rate(StateId s) const;
  /// True if the state has no outgoing transitions.
  bool is_absorbing(StateId s) const;

  /// Stationary distribution (requires an irreducible chain). Solves via
  /// the verified fallback chain (see src/robust/); diagnostics of the
  /// solve are written to `report` when non-null and always recorded as
  /// robust::last_report().
  std::vector<double> steady_state(const SteadyStateOptions& opts = {},
                                   robust::SolveReport* report = nullptr)
      const;

  /// State distribution at time t from initial distribution pi0
  /// (uniformization; eps is the Poisson truncation mass). `jobs`
  /// parallelizes the per-step vector-matrix product (0 = default_jobs(),
  /// 1 = sequential; every value gives the same bits); results are
  /// memoized in the SolutionCache.
  std::vector<double> transient(const std::vector<double>& pi0, double t,
                                double eps = 1e-12, unsigned jobs = 0) const;

  /// Expected total time spent in each state during [0, t]. `jobs` as in
  /// transient().
  std::vector<double> cumulative_time(const std::vector<double>& pi0,
                                      double t, double eps = 1e-12,
                                      unsigned jobs = 0) const;

  /// transient() and cumulative_time() at every entry of `times` (any
  /// order, repeats allowed, each >= 0) from one uniformization series, one
  /// TransientPoint per entry in input order. Each entry equals the
  /// single-point calls bit for bit, and t = 0 gives pi0 and zeros. Not
  /// memoized; holds 2K state vectors for K times.
  std::vector<TransientPoint> transient_series(
      const std::vector<double>& pi0, const std::vector<double>& times,
      double eps = 1e-12, unsigned jobs = 0) const;

  /// Absorbing-chain analysis from initial distribution pi0. Throws
  /// ModelError if the chain has no absorbing state reachable or if a
  /// transient state cannot reach absorption.
  AbsorbingAnalysis absorbing_analysis(const std::vector<double>& pi0) const;

  /// P(not yet absorbed at time t): the reliability function when absorbing
  /// states model system failure.
  double survival(const std::vector<double>& pi0, double t,
                  double eps = 1e-12) const;

  /// Dense generator matrix (diagnostics, tests, small direct methods).
  Matrix dense_generator() const;

  /// Sparse generator (CSR), built on demand.
  SparseMatrix sparse_generator() const;

  /// Initial distribution concentrated on one state.
  std::vector<double> point_mass(StateId s) const;

 private:
  struct Transition {
    StateId from, to;
    double rate;
  };

  /// Q's off-diagonal part transposed (row i holds column i of Q) and its
  /// diagonal: the form robust_steady_state and robust::uniformize take.
  /// Taps "ctmc.rate" once per transition.
  struct TransposedGenerator {
    SparseMatrix qt;
    std::vector<double> diag;
  };
  TransposedGenerator transposed_generator() const;
  /// robust::uniformize of the above, for the uniformization series.
  robust::Uniformized uniformized() const;
  /// The solution-cache key of a solve of this chain: `tag`, the state
  /// count, every transition triple, then `params` (options, or t, eps and
  /// pi0). Its digest starts from transitions_digest_, so no transition is
  /// read until a stored entry has the same digest.
  SolutionCache::LazyKey cache_key(std::uint64_t tag,
                                   std::vector<std::uint64_t> params) const;

  void check_distribution(const std::vector<double>& pi0) const;
  bool is_anonymous(StateId s) const {
    return s >= names_.size() || names_[s].empty();
  }

  /// names_[k] is state k's stored name, "" for an anonymous state; it only
  /// reaches as far as the last named state.
  std::vector<std::string> names_;
  /// Stored names only.
  std::map<std::string, StateId> index_;
  /// k for every stored name "s<k>" given before state k existed: an
  /// anonymous state k would clash with it, so add_states refuses it.
  std::vector<StateId> reserved_;
  std::vector<Transition> transitions_;
  /// digest_step over every (from, to, rate) word of transitions_, in
  /// order, kept up to date by add_transition.
  std::uint64_t transitions_digest_ = kDigestSeed;
  std::vector<double> exit_rates_;
};

/// Expected instantaneous reward rate at time t: sum_s pi_s(t) r_s.
double reward_rate_at(const Ctmc& chain, const std::vector<double>& rewards,
                      const std::vector<double>& pi0, double t);

/// Steady-state expected reward rate: sum_s pi_s r_s.
double reward_rate_steady(const Ctmc& chain,
                          const std::vector<double>& rewards,
                          const SteadyStateOptions& opts = {});

/// Expected reward accumulated over [0, t]: sum_s L_s(t) r_s.
double accumulated_reward(const Ctmc& chain,
                          const std::vector<double>& rewards,
                          const std::vector<double>& pi0, double t);

/// Interval availability over [0, t] when rewards are the up-state
/// indicator: accumulated_reward / t.
double interval_availability(const Ctmc& chain,
                             const std::vector<double>& up_indicator,
                             const std::vector<double>& pi0, double t);

/// Derivative of the stationary distribution with respect to a scalar
/// parameter theta, given dQ/dtheta as a dense matrix (rows must sum to 0).
/// Solves (d pi) Q = -pi (dQ/dtheta) with sum(d pi) = 0. Dense; intended for
/// chains of up to a few thousand states.
std::vector<double> steady_state_sensitivity(const Ctmc& chain,
                                             const Matrix& dq);

/// Derivative of the mean time to absorption with respect to a scalar
/// parameter theta, given dQ/dtheta dense (rows over transient states must
/// sum to <= 0 consistently with Q's structure; absorbing rows ignored).
/// From tau Q_TT = -pi0_T: d(MTTA) = sum(d tau), d tau Q_TT = -tau dQ_TT.
double mtta_sensitivity(const Ctmc& chain, const Matrix& dq,
                        const std::vector<double>& pi0);

/// Derivative of the transient distribution pi(t) with respect to a scalar
/// parameter theta, given dQ/dtheta dense (rows summing to 0). Integrates
/// the forward sensitivity ODE s' = s Q + pi dQ jointly with pi' = pi Q by
/// a fixed-step RK4 scheme (steps chosen from the uniformization rate, at
/// most 4e6). Throws NumericalError when q*t (q the largest exit rate) is
/// past what that many steps integrate stably, about 5.56e6; use
/// steady_state_sensitivity for such horizons. Intended for the
/// moderate-size chains used in design studies.
std::vector<double> transient_sensitivity(const Ctmc& chain,
                                          const Matrix& dq,
                                          const std::vector<double>& pi0,
                                          double t);

/// Closed-form stationary distribution of a birth-death chain with birth
/// rates lambda[i] (i -> i+1) and death rates mu[i] (i+1 -> i). Used as an
/// oracle in tests and for M/M/1/K-style availability models.
std::vector<double> birth_death_steady_state(const std::vector<double>& birth,
                                             const std::vector<double>& death);

}  // namespace relkit::markov
