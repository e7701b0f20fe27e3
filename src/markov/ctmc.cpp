#include "markov/ctmc.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/error.hpp"
#include "common/poisson_weights.hpp"
#include "markov/solution_cache.hpp"
#include "obs/obs.hpp"
#include "parallel/pool.hpp"
#include "robust/fault_injection.hpp"

namespace relkit::markov {

namespace {

/// Uniformization refuses Poisson means beyond this: the number of vector-
/// matrix products grows linearly with q*t, so anything larger is hours of
/// compute and a sign the caller wants steady_state() instead. Stiff
/// shipped workloads legitimately reach ~1e8 (e.g. the rejuvenation study's
/// PH-expanded timer chain), so the guard only rejects clearly infeasible
/// means.
constexpr double kMaxPoissonMean = 1e9;

/// k when `name` is "s<k>" spelled the way an anonymous state's name is (no
/// sign, no leading zero), else nullopt.
std::optional<StateId> implied_index(const std::string& name) {
  if (name.size() < 2 || name.size() > 20 || name[0] != 's') return {};
  if (name[1] == '0' && name.size() > 2) return {};
  StateId k = 0;
  for (std::size_t i = 1; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return {};
    k = 10 * k + static_cast<StateId>(name[i] - '0');
  }
  return k;
}

[[noreturn]] void throw_duplicate(const std::string& name) {
  throw InvalidArgument("Ctmc::add_state: duplicate state '" + name + "'");
}

}  // namespace

StateId Ctmc::add_state(std::string name) {
  detail::require(!name.empty(), "Ctmc::add_state: empty name");
  const StateId id = state_count();
  const std::optional<StateId> k = implied_index(name);
  if (index_.count(name) || (k && *k < id && is_anonymous(*k))) {
    throw_duplicate(name);
  }
  if (k && *k > id) reserved_.push_back(*k);
  names_.resize(id);
  names_.push_back(name);
  index_.emplace(std::move(name), id);
  exit_rates_.push_back(0.0);
  return id;
}

StateId Ctmc::add_states(std::size_t count) {
  detail::require(count >= 1, "Ctmc::add_states: count must be >= 1");
  const StateId first = state_count();
  std::optional<StateId> taken;
  for (const StateId k : reserved_) {
    if (k >= first && k - first < count && (!taken || k < *taken)) taken = k;
  }
  if (taken) throw_duplicate("s" + std::to_string(*taken));
  exit_rates_.resize(first + count, 0.0);
  return first;
}

void Ctmc::add_transition(StateId from, StateId to, double rate) {
  detail::require(from < state_count() && to < state_count(),
                  "Ctmc::add_transition: state out of range");
  detail::require(from != to, "Ctmc::add_transition: self-loop");
  detail::require(rate > 0.0, "Ctmc::add_transition: rate must be > 0");
  transitions_.push_back({from, to, rate});
  exit_rates_[from] += rate;
}

std::string Ctmc::state_name(StateId s) const {
  detail::require(s < state_count(), "Ctmc::state_name: out of range");
  if (is_anonymous(s)) return "s" + std::to_string(s);
  return names_[s];
}

StateId Ctmc::state_index(const std::string& name) const {
  const auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  const std::optional<StateId> k = implied_index(name);
  if (k && *k < state_count() && is_anonymous(*k)) return *k;
  throw InvalidArgument("Ctmc::state_index: unknown state '" + name + "'");
}

double Ctmc::exit_rate(StateId s) const {
  detail::require(s < state_count(), "Ctmc::exit_rate: out of range");
  return exit_rates_[s];
}

bool Ctmc::is_absorbing(StateId s) const { return exit_rate(s) == 0.0; }

Matrix Ctmc::dense_generator() const {
  const std::size_t n = state_count();
  auto& injector = testing::FaultInjector::instance();
  Matrix q(n, n);
  for (const auto& t : transitions_) {
    const double rate = injector.tap("ctmc.rate", t.rate);
    q(t.from, t.to) += rate;
    q(t.from, t.from) -= rate;
  }
  return q;
}

SparseMatrix Ctmc::sparse_generator() const {
  const std::size_t n = state_count();
  auto& injector = testing::FaultInjector::instance();
  SparseBuilder b(n, n);
  for (const auto& t : transitions_) {
    const double rate = injector.tap("ctmc.rate", t.rate);
    b.add(t.from, t.to, rate);
    b.add(t.from, t.from, -rate);
  }
  return b.build();
}

std::vector<double> Ctmc::point_mass(StateId s) const {
  detail::require(s < state_count(), "Ctmc::point_mass: out of range");
  std::vector<double> pi0(state_count(), 0.0);
  pi0[s] = 1.0;
  return pi0;
}

void Ctmc::check_distribution(const std::vector<double>& pi0) const {
  detail::require(pi0.size() == state_count(),
                  "Ctmc: distribution size mismatch");
  double s = 0.0;
  for (double x : pi0) {
    detail::require(x >= 0.0, "Ctmc: negative probability in distribution");
    s += x;
  }
  detail::require(std::abs(s - 1.0) < 1e-9,
                  "Ctmc: distribution does not sum to 1");
}

namespace {

/// Serializes the solver options that can change a steady-state answer.
/// Budgets and `jobs` are deliberately excluded (see solution_cache.hpp).
void key_steady_options(CacheKey& key, const SteadyStateOptions& opts) {
  key.add(opts.dense_threshold);
  key.add(opts.gth_fallback_threshold);
  key.add(opts.sor.omega);
  key.add(opts.sor.tol);
  key.add(opts.sor.max_iters);
  key.add(opts.sor.adaptive_omega);
  key.add(opts.bicgstab.tol);
  key.add(opts.bicgstab.max_iters);
  key.add(static_cast<std::size_t>(opts.bicgstab.precond));
  key.add(opts.bicgstab.use_rcm);
  key.add(opts.ncd.coupling_threshold);
  key.add(opts.ncd.tol);
  key.add(opts.ncd.max_sweeps);
  // The *effective* solver choice: a forced method must not collide with
  // an auto-chain entry for the same model (different method, possibly
  // different answer within tolerance).
  const robust::SolverChoice effective =
      opts.solver != robust::SolverChoice::kAuto ? opts.solver
                                                 : robust::ambient_solver();
  key.add(static_cast<std::size_t>(effective));
}

}  // namespace

std::vector<double> Ctmc::steady_state(const SteadyStateOptions& opts,
                                       robust::SolveReport* report) const {
  const std::size_t n = state_count();
  detail::require_model(n >= 1, "Ctmc::steady_state: no states");

  obs::Span span("markov.steady_state");
  span.set("states", n);
  span.set("transitions", static_cast<std::uint64_t>(transitions_.size()));

  // Memoization: exact-keyed on (generator structure, rates, options).
  // Bypassed while fault injection is armed — injected failures act inside
  // the solver, where the key cannot see them (and with the injector idle,
  // tapped rates equal the raw rates the key uses).
  auto& injector = testing::FaultInjector::instance();
  auto& cache = SolutionCache::instance();
  const bool use_cache =
      opts.use_cache && cache.enabled() && !injector.active();
  CacheKey key;
  if (use_cache) {
    key.add(SolutionCache::kSteadyTag);
    key.add(n);
    for (const auto& t : transitions_) {
      key.add(t.from);
      key.add(t.to);
      key.add(t.rate);
    }
    key_steady_options(key, opts);
    if (auto hit = cache.lookup(key)) {
      hit->report.cache_hit = true;
      span.set("cache", "hit");
      robust::record_last_report(hit->report);
      if (report) *report = std::move(hit->report);
      return std::move(hit->result);
    }
    span.set("cache", "miss");
  }

  // Transposed off-diagonal generator + diagonal, the form every method in
  // the fallback chain consumes.
  SparseBuilder bt(n, n);
  std::vector<double> diag(n, 0.0);
  for (const auto& t : transitions_) {
    const double rate = injector.tap("ctmc.rate", t.rate);
    bt.add(t.to, t.from, rate);
    diag[t.from] -= rate;
  }

  robust::RobustSteadyOptions robust_opts;
  robust_opts.dense_primary = opts.dense_threshold;
  robust_opts.dense_fallback =
      std::max(opts.dense_threshold, opts.gth_fallback_threshold);
  robust_opts.sor = opts.sor;
  robust_opts.bicgstab = opts.bicgstab;
  robust_opts.ncd = opts.ncd;
  robust_opts.solver = opts.solver;
  robust_opts.budget = opts.budget;
  // The thread's ambient deadline (CLI --timeout-ms, relkit_serve request
  // deadlines) binds every solve, including ones reached through paths that
  // carry no options — the earliest deadline wins. Never part of the cache
  // key: a hit trivially satisfies any deadline.
  robust_opts.budget.deadline = robust::Deadline::earliest(
      robust_opts.budget.deadline, robust::ambient_deadline());
  robust_opts.jobs = opts.jobs;
  robust::RobustResult r =
      robust::robust_steady_state(bt.build(), diag, robust_opts);
  if (use_cache) cache.insert(std::move(key), {r.pi, r.report});
  if (report) *report = std::move(r.report);
  return std::move(r.pi);
}

namespace {

// Shared uniformization machinery: returns the DTMC matrix P = I + Q/q and
// the uniformization rate q (slightly above the max exit rate so that P has
// strictly positive diagonal, improving convergence for stiff chains).
struct Uniformized {
  SparseMatrix p;
  double q;
};

Uniformized uniformize(const SparseMatrix& generator,
                       const std::vector<double>& exit_rates) {
  double qmax = 0.0;
  for (double r : exit_rates) qmax = std::max(qmax, r);
  const double q = qmax > 0.0 ? qmax * 1.02 : 1.0;
  const std::size_t n = exit_rates.size();
  SparseBuilder b(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    double diag = 1.0;
    for (std::size_t k = generator.row_begin(r); k < generator.row_end(r);
         ++k) {
      const std::size_t c = generator.col(k);
      const double v = generator.value(k);
      if (c == r) {
        diag += v / q;
      } else {
        b.add(r, c, v / q);
      }
    }
    b.add(r, r, diag);
  }
  return {b.build(), q};
}

}  // namespace

namespace {

/// Overflow guard shared by the uniformization solvers: rejects Poisson
/// means that are non-finite or large enough to make the step loop
/// effectively unbounded. Throws ConvergenceError carrying `partial`.
double guarded_poisson_mean(double q, double t, const char* context,
                            const std::vector<double>& partial) {
  double mean = testing::FaultInjector::instance().tap("uniformize.qt",
                                                       q * t);
  if (!std::isfinite(mean) || mean < 0.0 || mean > kMaxPoissonMean) {
    robust::SolveReport report;
    report.method = "uniformization";
    report.attempts = {"uniformization"};
    report.warn("q*t = " + std::to_string(mean) +
                " exceeds the uniformization guard (max " +
                std::to_string(kMaxPoissonMean) + ")");
    robust::record_last_report(report);
    throw robust::ConvergenceError(
        std::string(context) + ": uniformization infeasible, q*t = " +
            std::to_string(mean) +
            " (stiff chain x long horizon); use steady_state() or split "
            "the interval",
        partial, report);
  }
  return mean;
}

}  // namespace

std::vector<double> Ctmc::transient(const std::vector<double>& pi0, double t,
                                    double eps, unsigned jobs) const {
  check_distribution(pi0);
  detail::require(t >= 0.0, "Ctmc::transient: t must be >= 0");
  if (t == 0.0) return pi0;

  obs::Span span("markov.transient");
  span.set("states", state_count());
  span.set("t", t);
  static obs::Counter& steps_counter =
      obs::counter("markov.uniformization_steps");

  auto& injector = testing::FaultInjector::instance();
  auto& cache = SolutionCache::instance();
  const bool use_cache = cache.enabled() && !injector.active();
  CacheKey key;
  if (use_cache) {
    key.add(SolutionCache::kTransientTag);
    key.add(state_count());
    for (const auto& tr : transitions_) {
      key.add(tr.from);
      key.add(tr.to);
      key.add(tr.rate);
    }
    key.add(t);
    key.add(eps);
    for (const double x : pi0) key.add(x);
    if (auto hit = cache.lookup(key)) {
      hit->report.cache_hit = true;
      span.set("cache", "hit");
      robust::record_last_report(hit->report);
      return std::move(hit->result);
    }
    span.set("cache", "miss");
  }

  const parallel::PoolLease lease(jobs);
  span.set("jobs", static_cast<std::uint64_t>(lease.jobs()));
  const auto [p, q] = uniformize(sparse_generator(), exit_rates_);
  const double mean = guarded_poisson_mean(q, t, "Ctmc::transient", pi0);
  const PoissonWeights pw = poisson_weights(mean, eps);

  // The convergence series of a uniformized solve is the unprocessed
  // Poisson tail mass, which decays from 1 toward eps as the window closes.
  robust::ConvergenceTrace trace;
  std::vector<double> v = pi0;  // pi0 P^n
  std::vector<double> out(state_count(), 0.0);
  const std::size_t steps = pw.left + pw.weights.size();
  steps_counter.add(steps);
  span.set("steps", steps);
  span.set("q", q);
  const robust::Deadline deadline = robust::ambient_deadline();
  double window_mass = 0.0;
  for (std::size_t n = 0; n < steps; ++n) {
    if (n >= pw.left) {
      const double w =
          injector.tap("uniformize.weight", pw.weights[n - pw.left]);
      window_mass += w;
      for (std::size_t i = 0; i < out.size(); ++i) out[i] += w * v[i];
    }
    trace.record(n + 1, std::max(0.0, 1.0 - window_mass));
    if (n + 1 == steps) break;
    if ((n & 15u) == 0 && deadline.expired()) {
      // Ambient deadline (CLI --timeout-ms / serve request budget): stop
      // and hand back the best partial — the window accumulated so far,
      // renormalized when it carries any mass, else the initial state.
      robust::SolveReport report;
      report.method = "uniformization";
      report.attempts = {"uniformization"};
      report.iterations = n + 1;
      report.convergence = std::move(trace);
      report.warn("deadline expired after " + std::to_string(n + 1) + " of " +
                  std::to_string(steps) + " uniformization steps");
      std::vector<double> partial = window_mass > 0.0 ? out : pi0;
      if (window_mass > 0.0) {
        for (double& x : partial) x /= window_mass;
      }
      robust::record_last_report(report);
      throw robust::ConvergenceError(
          "Ctmc::transient: deadline expired after " + std::to_string(n + 1) +
              " of " + std::to_string(steps) + " uniformization steps",
          std::move(partial), report);
    }
    v = p.multiply_left(v, lease.get());
  }

  // Post-solve verification: the result must be a finite probability
  // vector; small drift is renormalized, NaN/Inf is never returned.
  robust::SolveReport report;
  report.convergence = std::move(trace);
  report.method = "uniformization";
  report.attempts = {"uniformization"};
  report.iterations = steps;
  const double mass = [&] {
    double s = 0.0;
    for (const double x : out) s += x;
    return s;
  }();
  report.residual = std::abs(mass - 1.0);
  robust::repair_distribution(out, report, "Ctmc::transient");
  report.converged = true;
  robust::record_last_report(report);
  if (use_cache) cache.insert(std::move(key), {out, report});
  return out;
}

std::vector<double> Ctmc::cumulative_time(const std::vector<double>& pi0,
                                          double t, double eps,
                                          unsigned jobs) const {
  check_distribution(pi0);
  detail::require(t >= 0.0, "Ctmc::cumulative_time: t must be >= 0");
  std::vector<double> acc(state_count(), 0.0);
  if (t == 0.0) return acc;

  obs::Span span("markov.cumulative");
  span.set("states", state_count());
  span.set("t", t);
  static obs::Counter& steps_counter =
      obs::counter("markov.uniformization_steps");

  const parallel::PoolLease lease(jobs);
  span.set("jobs", static_cast<std::uint64_t>(lease.jobs()));
  const auto [p, q] = uniformize(sparse_generator(), exit_rates_);
  const double mean = guarded_poisson_mean(q, t, "Ctmc::cumulative_time",
                                           acc);
  const PoissonWeights pw = poisson_weights(mean, eps);

  // L(t) = (1/q) sum_{n>=0} (1 - CDF_Poisson(n)) pi0 P^n.
  // With the normalized window, CDF(n) = sum of weights up to n; beyond the
  // window's right end the factor is 0, so iterate to the window end.
  auto& injector = testing::FaultInjector::instance();
  robust::ConvergenceTrace trace;
  std::vector<double> v = pi0;
  double cdf = 0.0;
  const std::size_t steps = pw.left + pw.weights.size();
  steps_counter.add(steps);
  span.set("steps", steps);
  span.set("q", q);
  for (std::size_t n = 0; n < steps; ++n) {
    if (n >= pw.left) {
      cdf += injector.tap("uniformize.weight", pw.weights[n - pw.left]);
    }
    trace.record(n + 1, std::max(0.0, 1.0 - cdf));
    const double factor = (1.0 - cdf) / q;
    if (factor > 0.0) {
      for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += factor * v[i];
    }
    if (n + 1 == steps) break;
    v = p.multiply_left(v, lease.get());
  }

  // Verification: total sojourn time over [0, t] must equal t; repair small
  // drift by rescaling, never return NaN/Inf.
  robust::SolveReport report;
  report.convergence = std::move(trace);
  report.method = "uniformization";
  report.attempts = {"uniformization"};
  report.iterations = steps;
  if (!robust::all_finite(acc)) {
    report.warn("cumulative_time: non-finite entries in result");
    robust::record_last_report(report);
    throw robust::ConvergenceError(
        "Ctmc::cumulative_time: result contains NaN/Inf — refusing to "
        "return it silently",
        acc, report);
  }
  double total = 0.0;
  for (double& x : acc) {
    if (x < 0.0) x = 0.0;
    total += x;
  }
  report.residual = std::abs(total - t) / t;
  if (total > 0.0 && report.residual > 1e-9) {
    report.warn("cumulative_time: rescaled (sum of sojourns drifted to " +
                std::to_string(total) + " over horizon " +
                std::to_string(t) + ")");
    for (double& x : acc) x *= t / total;
  }
  report.converged = true;
  robust::record_last_report(report);
  return acc;
}

AbsorbingAnalysis Ctmc::absorbing_analysis(
    const std::vector<double>& pi0) const {
  check_distribution(pi0);
  const std::size_t n = state_count();

  std::vector<StateId> transient_states;
  std::vector<StateId> absorbing_states;
  std::vector<std::size_t> tindex(n, SIZE_MAX);
  for (StateId s = 0; s < n; ++s) {
    if (is_absorbing(s)) {
      absorbing_states.push_back(s);
    } else {
      tindex[s] = transient_states.size();
      transient_states.push_back(s);
    }
  }
  detail::require_model(!absorbing_states.empty(),
                        "absorbing_analysis: chain has no absorbing state");
  for (StateId s : absorbing_states) {
    if (pi0[s] != 0.0) {
      throw ModelError("absorbing_analysis: initial mass on absorbing state '" +
                       state_name(s) + "'");
    }
  }

  // Solve tau^T Q_TT = -pi0_T  (expected sojourn times).
  const std::size_t m = transient_states.size();
  Matrix qtt(m, m);
  for (const auto& tr : transitions_) {
    if (tindex[tr.from] == SIZE_MAX) continue;
    qtt(tindex[tr.from], tindex[tr.from]) -= tr.rate;
    if (tindex[tr.to] != SIZE_MAX) {
      qtt(tindex[tr.from], tindex[tr.to]) += tr.rate;
    }
  }
  std::vector<double> rhs(m, 0.0);
  for (std::size_t i = 0; i < m; ++i) rhs[i] = -pi0[transient_states[i]];
  std::vector<double> tau;
  try {
    tau = lu_solve_transposed(qtt, rhs);
  } catch (const NumericalError&) {
    throw ModelError(
        "absorbing_analysis: some transient state cannot reach an absorbing "
        "state (Q_TT singular)");
  }

  AbsorbingAnalysis out;
  out.expected_sojourn.assign(n, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    detail::require_model(tau[i] > -1e-9,
                          "absorbing_analysis: negative sojourn time "
                          "(reducibility or numerical issue)");
    out.expected_sojourn[transient_states[i]] = std::max(0.0, tau[i]);
    out.mean_time_to_absorption += std::max(0.0, tau[i]);
  }

  // Absorption probabilities: p_a = pi0_a + sum_i tau_i q_{i,a}.
  out.absorption_probability.assign(n, 0.0);
  for (const auto& tr : transitions_) {
    if (tindex[tr.from] == SIZE_MAX || tindex[tr.to] != SIZE_MAX) continue;
    out.absorption_probability[tr.to] +=
        out.expected_sojourn[tr.from] * tr.rate;
  }
  return out;
}

double Ctmc::survival(const std::vector<double>& pi0, double t,
                      double eps) const {
  const std::vector<double> pi = transient(pi0, t, eps);
  double absorbed = 0.0;
  for (StateId s = 0; s < state_count(); ++s) {
    if (is_absorbing(s)) absorbed += pi[s];
  }
  return std::clamp(1.0 - absorbed, 0.0, 1.0);
}

double reward_rate_at(const Ctmc& chain, const std::vector<double>& rewards,
                      const std::vector<double>& pi0, double t) {
  detail::require(rewards.size() == chain.state_count(),
                  "reward_rate_at: reward vector size mismatch");
  const std::vector<double> pi = chain.transient(pi0, t);
  return dot(pi, rewards);
}

double reward_rate_steady(const Ctmc& chain,
                          const std::vector<double>& rewards,
                          const SteadyStateOptions& opts) {
  detail::require(rewards.size() == chain.state_count(),
                  "reward_rate_steady: reward vector size mismatch");
  return dot(chain.steady_state(opts), rewards);
}

double accumulated_reward(const Ctmc& chain,
                          const std::vector<double>& rewards,
                          const std::vector<double>& pi0, double t) {
  detail::require(rewards.size() == chain.state_count(),
                  "accumulated_reward: reward vector size mismatch");
  return dot(chain.cumulative_time(pi0, t), rewards);
}

double interval_availability(const Ctmc& chain,
                             const std::vector<double>& up_indicator,
                             const std::vector<double>& pi0, double t) {
  detail::require(t > 0.0, "interval_availability: t must be > 0");
  return accumulated_reward(chain, up_indicator, pi0, t) / t;
}

std::vector<double> steady_state_sensitivity(const Ctmc& chain,
                                             const Matrix& dq) {
  const std::size_t n = chain.state_count();
  detail::require(dq.rows() == n && dq.cols() == n,
                  "steady_state_sensitivity: dQ shape mismatch");
  for (std::size_t r = 0; r < n; ++r) {
    double s = 0.0;
    for (std::size_t c = 0; c < n; ++c) s += dq(r, c);
    detail::require(std::abs(s) < 1e-9,
                    "steady_state_sensitivity: dQ rows must sum to 0");
  }
  const std::vector<double> pi = chain.steady_state();

  // Solve s Q = -pi dQ subject to sum(s) = 0. Write as Q^T s^T = -(pi dQ)^T
  // and replace the last equation by the normalization sum(s) = 0 (Q is rank
  // n-1 for an irreducible chain).
  Matrix qt = chain.dense_generator().transposed();
  std::vector<double> rhs(n, 0.0);
  for (std::size_t c = 0; c < n; ++c) {
    double acc = 0.0;
    for (std::size_t r = 0; r < n; ++r) acc += pi[r] * dq(r, c);
    rhs[c] = -acc;
  }
  for (std::size_t c = 0; c < n; ++c) qt(n - 1, c) = 1.0;
  rhs[n - 1] = 0.0;
  return lu_solve(std::move(qt), std::move(rhs));
}

double mtta_sensitivity(const Ctmc& chain, const Matrix& dq,
                        const std::vector<double>& pi0) {
  const std::size_t n = chain.state_count();
  detail::require(dq.rows() == n && dq.cols() == n,
                  "mtta_sensitivity: dQ shape mismatch");
  detail::require(pi0.size() == n, "mtta_sensitivity: pi0 size mismatch");

  std::vector<std::size_t> tstates, tindex(n, SIZE_MAX);
  for (StateId s = 0; s < n; ++s) {
    if (!chain.is_absorbing(s)) {
      tindex[s] = tstates.size();
      tstates.push_back(s);
    }
  }
  detail::require_model(tstates.size() < n,
                        "mtta_sensitivity: chain has no absorbing state");
  const std::size_t m = tstates.size();

  const Matrix q = chain.dense_generator();
  Matrix qtt(m, m);
  Matrix dqtt(m, m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      qtt(i, j) = q(tstates[i], tstates[j]);
      dqtt(i, j) = dq(tstates[i], tstates[j]);
    }
  }
  std::vector<double> rhs(m);
  for (std::size_t i = 0; i < m; ++i) rhs[i] = -pi0[tstates[i]];
  std::vector<double> tau;
  try {
    tau = lu_solve_transposed(qtt, rhs);
  } catch (const NumericalError&) {
    throw ModelError(
        "mtta_sensitivity: some transient state cannot reach absorption");
  }
  // d tau Q_TT = -tau dQ_TT  =>  Q_TT^T (d tau)^T = -(tau dQ_TT)^T.
  std::vector<double> rhs2(m, 0.0);
  for (std::size_t j = 0; j < m; ++j) {
    double acc = 0.0;
    for (std::size_t i = 0; i < m; ++i) acc += tau[i] * dqtt(i, j);
    rhs2[j] = -acc;
  }
  const std::vector<double> dtau = lu_solve_transposed(qtt, rhs2);
  return sum(dtau);
}

std::vector<double> transient_sensitivity(const Ctmc& chain, const Matrix& dq,
                                          const std::vector<double>& pi0,
                                          double t) {
  const std::size_t n = chain.state_count();
  detail::require(dq.rows() == n && dq.cols() == n,
                  "transient_sensitivity: dQ shape mismatch");
  detail::require(pi0.size() == n, "transient_sensitivity: pi0 size mismatch");
  detail::require(t >= 0.0, "transient_sensitivity: t must be >= 0");
  for (std::size_t r = 0; r < n; ++r) {
    double s = 0.0;
    for (std::size_t c = 0; c < n; ++c) s += dq(r, c);
    detail::require(std::abs(s) < 1e-9,
                    "transient_sensitivity: dQ rows must sum to 0");
  }
  if (t == 0.0) return std::vector<double>(n, 0.0);

  const SparseMatrix q = chain.sparse_generator();
  // Step size from the uniformization rate: h ~ 0.1 / q_max keeps RK4 well
  // inside its stability region for this linear system.
  double qmax = 1.0;
  for (StateId s = 0; s < n; ++s) qmax = std::max(qmax, chain.exit_rate(s));
  const auto steps = static_cast<std::size_t>(
      std::ceil(t * qmax / 0.1));
  const std::size_t nsteps = std::min<std::size_t>(
      std::max<std::size_t>(steps, 16), 4000000);
  const double h = t / static_cast<double>(nsteps);

  std::vector<double> pi = pi0;
  std::vector<double> sens(n, 0.0);

  // d/dt [pi, s] = [pi Q, s Q + pi dQ]; RK4 on the coupled pair.
  const auto deriv = [&](const std::vector<double>& p,
                         const std::vector<double>& s,
                         std::vector<double>& dp, std::vector<double>& ds) {
    dp = q.multiply_left(p);
    ds = q.multiply_left(s);
    for (std::size_t c = 0; c < n; ++c) {
      double acc = 0.0;
      for (std::size_t r = 0; r < n; ++r) acc += p[r] * dq(r, c);
      ds[c] += acc;
    }
  };

  std::vector<double> k1p(n), k1s(n), k2p(n), k2s(n), k3p(n), k3s(n),
      k4p(n), k4s(n), tp(n), ts(n);
  for (std::size_t step = 0; step < nsteps; ++step) {
    deriv(pi, sens, k1p, k1s);
    for (std::size_t i = 0; i < n; ++i) {
      tp[i] = pi[i] + 0.5 * h * k1p[i];
      ts[i] = sens[i] + 0.5 * h * k1s[i];
    }
    deriv(tp, ts, k2p, k2s);
    for (std::size_t i = 0; i < n; ++i) {
      tp[i] = pi[i] + 0.5 * h * k2p[i];
      ts[i] = sens[i] + 0.5 * h * k2s[i];
    }
    deriv(tp, ts, k3p, k3s);
    for (std::size_t i = 0; i < n; ++i) {
      tp[i] = pi[i] + h * k3p[i];
      ts[i] = sens[i] + h * k3s[i];
    }
    deriv(tp, ts, k4p, k4s);
    for (std::size_t i = 0; i < n; ++i) {
      pi[i] += h / 6.0 * (k1p[i] + 2 * k2p[i] + 2 * k3p[i] + k4p[i]);
      sens[i] += h / 6.0 * (k1s[i] + 2 * k2s[i] + 2 * k3s[i] + k4s[i]);
    }
  }
  return sens;
}

std::vector<double> birth_death_steady_state(const std::vector<double>& birth,
                                             const std::vector<double>& death) {
  detail::require(birth.size() == death.size(),
                  "birth_death_steady_state: size mismatch");
  const std::size_t k = birth.size();
  std::vector<double> pi(k + 1, 0.0);
  pi[0] = 1.0;
  double total = 1.0;
  double prod = 1.0;
  for (std::size_t i = 0; i < k; ++i) {
    detail::require(birth[i] > 0.0 && death[i] > 0.0,
                    "birth_death_steady_state: rates must be > 0");
    prod *= birth[i] / death[i];
    pi[i + 1] = prod;
    total += prod;
  }
  for (double& x : pi) x /= total;
  return pi;
}

}  // namespace relkit::markov
