#include "markov/ctmc.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/error.hpp"
#include "common/poisson_weights.hpp"
#include "markov/solution_cache.hpp"
#include "obs/obs.hpp"
#include "parallel/pool.hpp"
#include "robust/budget.hpp"
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
  transitions_digest_ = digest_step(
      digest_step(digest_step(transitions_digest_, from), to), word_of(rate));
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
  b.reserve(2 * transitions_.size());
  for (const auto& t : transitions_) {
    const double rate = injector.tap("ctmc.rate", t.rate);
    b.add(t.from, t.to, rate);
    b.add(t.from, t.from, -rate);
  }
  return b.build();
}

Ctmc::TransposedGenerator Ctmc::transposed_generator() const {
  const std::size_t n = state_count();
  auto& injector = testing::FaultInjector::instance();
  SparseBuilder bt(n, n);
  bt.reserve(transitions_.size());
  std::vector<double> diag(n, 0.0);
  for (const auto& t : transitions_) {
    const double rate = injector.tap("ctmc.rate", t.rate);
    bt.add(t.to, t.from, rate);
    diag[t.from] -= rate;
  }
  return {bt.build(), std::move(diag)};
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
/// The deadline and `jobs` are deliberately excluded (see solution_cache.hpp).
std::vector<std::uint64_t> steady_option_words(
    const SteadyStateOptions& opts) {
  CacheKey key;
  key.add(opts.dense_threshold);
  key.add(opts.gth_fallback_threshold);
  key.add(opts.sor.omega);
  key.add(opts.sor.tol);
  key.add(opts.sor.max_iters);
  key.add(opts.sor.adaptive_omega);
  key.add(opts.bicgstab.tol);
  key.add(opts.bicgstab.max_iters);
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
  return key.take_words();
}

}  // namespace

SolutionCache::LazyKey Ctmc::cache_key(
    std::uint64_t tag, std::vector<std::uint64_t> params) const {
  std::uint64_t digest = digest_step(kDigestSeed, tag);
  digest = digest_step(digest, state_count());
  digest = digest_step(digest, transitions_digest_);
  for (const std::uint64_t w : params) digest = digest_step(digest, w);
  const std::size_t words = 2 + 3 * transitions_.size() + params.size();
  return {digest, words,
          [this, tag, params = std::move(params)](CacheKey& key) {
            key.add(tag);
            key.add(state_count());
            for (const auto& t : transitions_) {
              key.add(t.from);
              key.add(t.to);
              key.add(t.rate);
            }
            for (const std::uint64_t w : params) key.add(w);
          }};
}

std::vector<double> Ctmc::steady_state(const SteadyStateOptions& opts,
                                       robust::SolveReport* report) const {
  const std::size_t n = state_count();
  detail::require_model(n >= 1, "Ctmc::steady_state: no states");

  obs::Span span("markov.steady_state");
  span.set("states", n);
  span.set("transitions", static_cast<std::uint64_t>(transitions_.size()));

  // Memoization: exact-keyed on (generator structure, rates, options), looked
  // up by digest first. Bypassed while fault injection is armed — injected
  // failures act inside the solver, where the key cannot see them (and with
  // the injector idle, tapped rates equal the raw rates the key uses).
  auto& injector = testing::FaultInjector::instance();
  auto& cache = SolutionCache::instance();
  const bool use_cache =
      opts.use_cache && cache.enabled() && !injector.active();
  std::optional<SolutionCache::LazyKey> key;
  if (use_cache) {
    key = cache_key(SolutionCache::kSteadyTag, steady_option_words(opts));
    if (auto hit = cache.lookup(*key, n)) {
      hit->report.cache_hit = true;
      span.set("cache", "hit");
      robust::record_last_report(hit->report);
      if (report) *report = std::move(hit->report);
      return std::move(hit->result);
    }
    span.set("cache", "miss");
  }

  robust::SteadyResult r = [&] {
    const TransposedGenerator g = transposed_generator();
    return robust::robust_steady_state(g.qt, g.diag, opts);
  }();
  // The generator and the solver's buffers are gone by now, so the key the
  // insert builds does not add to the solve's peak.
  if (use_cache) cache.insert(*key, {r.pi, r.report});
  if (report) *report = std::move(r.report);
  return std::move(r.pi);
}

namespace {

/// One time point's Poisson window and the running sum of its weights.
struct Window {
  PoissonWeights pw;
  std::size_t end = 0;  ///< steps the point needs: pw.left + window length
  double cdf = 0.0;     ///< window weights consumed so far
};

/// What run_series accumulates at each time point.
enum Measures : unsigned { kPi = 1, kCumulative = 2 };

/// The one uniformization series behind Ctmc::transient, cumulative_time
/// and transient_series: with v_n = pi0 P^n and a point's Poisson weights
/// w_n (mean q t, CDF(n) = their sum up to n), pi(t) = sum_n w_n v_n and
/// L(t) = (1/q) sum_n (1 - CDF(n)) v_n. Each point adds its own window's
/// terms in step order, so it gets a one-point series' bits; v steps once
/// per n for all of them. Fills and records `report`.
std::vector<TransientPoint> run_series(const robust::Uniformized& u,
                                       const std::vector<double>& pi0,
                                       const std::vector<double>& times,
                                       double eps, unsigned jobs,
                                       unsigned measures, const char* context,
                                       obs::Span& span,
                                       robust::SolveReport& report) {
  static obs::Counter& steps_counter =
      obs::counter("markov.uniformization_steps");
  auto& injector = testing::FaultInjector::instance();
  const std::size_t n = pi0.size();
  const bool want_pi = (measures & kPi) != 0;
  const bool want_cum = (measures & kCumulative) != 0;
  const parallel::PoolLease lease(jobs);
  span.set("jobs", static_cast<std::uint64_t>(lease.jobs()));

  report.method = "uniformization";
  report.attempts = {"uniformization"};
  // `order` lists the points with t > 0 by descending window end, ties in
  // input order, so the points still open at step s are a prefix of it and
  // order[0] has the longest window.
  std::vector<TransientPoint> out(times.size());
  std::vector<Window> win(times.size());
  std::vector<std::size_t> order;
  for (std::size_t k = 0; k < times.size(); ++k) {
    if (want_pi) out[k].pi = times[k] == 0.0 ? pi0 : std::vector<double>(n);
    if (want_cum) out[k].cumulative.assign(n, 0.0);
    if (times[k] == 0.0) continue;  // pi0 and zeros, verbatim
    // Overflow guard: a Poisson mean that is non-finite or large enough to
    // make the step loop effectively unbounded throws with the initial
    // state (pi) or zeros (L) as the partial.
    const double mean = injector.tap("uniformize.qt", u.q * times[k]);
    if (!std::isfinite(mean) || mean < 0.0 || mean > kMaxPoissonMean) {
      report.warn("q*t = " + std::to_string(mean) +
                  " exceeds the uniformization guard (max " +
                  std::to_string(kMaxPoissonMean) + ")");
      robust::record_last_report(report);
      throw robust::ConvergenceError(
          std::string(context) + ": uniformization infeasible, q*t = " +
              std::to_string(mean) +
              " (stiff chain x long horizon); use steady_state() or split "
              "the interval",
          want_pi ? pi0 : out[k].cumulative, report);
    }
    win[k].pw = poisson_weights(mean, eps);
    win[k].end = win[k].pw.left + win[k].pw.weights.size();
    order.push_back(k);
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return win[a].end != win[b].end ? win[a].end > win[b].end : a < b;
  });
  const std::size_t steps = order.empty() ? 0 : win[order[0]].end;
  steps_counter.add(steps);
  span.set("steps", steps);
  span.set("q", u.q);

  // The convergence series is the longest window's unprocessed Poisson tail
  // mass, which decays from 1 toward eps as the window closes.
  const robust::Deadline deadline = robust::ambient_deadline();
  std::vector<double> v = pi0;  // pi0 P^s
  std::vector<double> next(n);
  std::size_t open = order.size();
  for (std::size_t s = 0; s < steps; ++s) {
    while (win[order[open - 1]].end <= s) --open;
    for (std::size_t i = 0; i < open; ++i) {
      Window& w = win[order[i]];
      TransientPoint& p = out[order[i]];
      if (s >= w.pw.left) {
        const double wt =
            injector.tap("uniformize.weight", w.pw.weights[s - w.pw.left]);
        w.cdf += wt;
        if (want_pi) {
          for (std::size_t j = 0; j < n; ++j) p.pi[j] += wt * v[j];
        }
      }
      if (want_cum) {
        const double factor = (1.0 - w.cdf) / u.q;
        if (factor > 0.0) {
          for (std::size_t j = 0; j < n; ++j) {
            p.cumulative[j] += factor * v[j];
          }
        }
      }
    }
    const Window& longest = win[order[0]];
    report.convergence.record(s + 1, std::max(0.0, 1.0 - longest.cdf));
    if (s + 1 == steps) break;
    if ((s & 15u) == 0 && deadline.expired()) {
      // Ambient deadline (CLI --timeout-ms / serve request deadline): stop
      // and hand back the longest point's best partial — for pi, the window
      // accumulated so far, renormalized when it carries any mass, else the
      // initial state; for L, the time accumulated so far.
      report.iterations = s + 1;
      report.warn("deadline expired after " + std::to_string(s + 1) + " of " +
                  std::to_string(steps) + " uniformization steps");
      const TransientPoint& p = out[order[0]];
      std::vector<double> partial =
          want_pi ? (longest.cdf > 0.0 ? p.pi : pi0) : p.cumulative;
      if (want_pi && longest.cdf > 0.0) {
        for (double& x : partial) x /= longest.cdf;
      }
      robust::record_last_report(report);
      throw robust::ConvergenceError(
          std::string(context) + ": deadline expired after " +
              std::to_string(s + 1) + " of " + std::to_string(steps) +
              " uniformization steps",
          std::move(partial), report);
    }
    u.pt.multiply(v, next, lease.get());
    v.swap(next);
  }

  // Post-solve verification: pi(t) must be a finite probability vector
  // (small drift is renormalized), and the sojourns in L(t) must be finite
  // and add up to t (small drift is rescaled). NaN/Inf is never returned.
  report.iterations = steps;
  for (const std::size_t k : order) {
    if (want_pi) {
      double mass = 0.0;
      for (const double x : out[k].pi) mass += x;
      report.residual = std::max(std::abs(mass - 1.0), report.residual);
      robust::repair_distribution(out[k].pi, report, context);
    }
    if (want_cum) {
      std::vector<double>& acc = out[k].cumulative;
      if (!robust::all_finite(acc)) {
        report.warn("cumulative_time: non-finite entries in result");
        robust::record_last_report(report);
        throw robust::ConvergenceError(
            std::string(context) +
                ": result contains NaN/Inf — refusing to return it silently",
            acc, report);
      }
      const double t = times[k];
      double total = 0.0;
      for (double& x : acc) {
        if (x < 0.0) x = 0.0;
        total += x;
      }
      const double residual = std::abs(total - t) / t;
      report.residual = std::max(residual, report.residual);
      if (total > 0.0 && residual > 1e-9) {
        report.warn("cumulative_time: rescaled (sum of sojourns drifted to " +
                    std::to_string(total) + " over horizon " +
                    std::to_string(t) + ")");
        for (double& x : acc) x *= t / total;
      }
    }
  }
  report.converged = true;
  robust::record_last_report(report);
  return out;
}

}  // namespace

robust::Uniformized Ctmc::uniformized() const {
  const TransposedGenerator g = transposed_generator();
  return robust::uniformize(g.qt, g.diag);
}

std::vector<double> Ctmc::transient(const std::vector<double>& pi0, double t,
                                    double eps, unsigned jobs) const {
  check_distribution(pi0);
  detail::require(t >= 0.0, "Ctmc::transient: t must be >= 0");
  if (t == 0.0) return pi0;

  obs::Span span("markov.transient");
  span.set("states", state_count());
  span.set("t", t);

  auto& cache = SolutionCache::instance();
  const bool use_cache =
      cache.enabled() && !testing::FaultInjector::instance().active();
  std::optional<SolutionCache::LazyKey> key;
  if (use_cache) {
    std::vector<std::uint64_t> params = {word_of(t), word_of(eps)};
    for (const double x : pi0) params.push_back(word_of(x));
    key = cache_key(SolutionCache::kTransientTag, std::move(params));
    if (auto hit = cache.lookup(*key, state_count())) {
      hit->report.cache_hit = true;
      span.set("cache", "hit");
      robust::record_last_report(hit->report);
      return std::move(hit->result);
    }
    span.set("cache", "miss");
  }

  robust::SolveReport report;
  std::vector<double> out = std::move(
      run_series(uniformized(), pi0, {t}, eps, jobs, kPi, "Ctmc::transient",
                 span, report)[0]
          .pi);
  if (use_cache) cache.insert(*key, {out, std::move(report)});
  return out;
}

std::vector<double> Ctmc::cumulative_time(const std::vector<double>& pi0,
                                          double t, double eps,
                                          unsigned jobs) const {
  check_distribution(pi0);
  detail::require(t >= 0.0, "Ctmc::cumulative_time: t must be >= 0");
  if (t == 0.0) return std::vector<double>(state_count(), 0.0);

  obs::Span span("markov.cumulative");
  span.set("states", state_count());
  span.set("t", t);
  robust::SolveReport report;
  return std::move(run_series(uniformized(), pi0, {t}, eps, jobs,
                              kCumulative, "Ctmc::cumulative_time", span,
                              report)[0]
                       .cumulative);
}

std::vector<TransientPoint> Ctmc::transient_series(
    const std::vector<double>& pi0, const std::vector<double>& times,
    double eps, unsigned jobs) const {
  check_distribution(pi0);
  for (const double t : times) {
    detail::require(t >= 0.0, "Ctmc::transient_series: t must be >= 0");
  }
  obs::Span span("markov.transient");
  span.set("states", state_count());
  span.set("points", times.size());
  robust::SolveReport report;
  return run_series(uniformized(), pi0, times, eps, jobs, kPi | kCumulative,
                    "Ctmc::transient_series", span, report);
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

  // Step size from the uniformization rate: h ~ 0.1 / q_max keeps RK4 well
  // inside its stability region for this linear system, up to the step cap.
  // Past the cap the step grows with t. By Gershgorin 2 q_max bounds Q's
  // spectral radius, and RK4's real stability interval ends near
  // h |lambda| = 2.78, so a capped step stays stable only while
  // q_max t <= 2.78 cap / 2; beyond that the integration would return NaN.
  constexpr std::size_t kMaxSteps = 4000000;
  constexpr double kMaxQt = 2.78 * static_cast<double>(kMaxSteps) / 2.0;
  double qmax = 1.0;
  for (StateId s = 0; s < n; ++s) qmax = std::max(qmax, chain.exit_rate(s));
  if (!(qmax * t <= kMaxQt)) {
    throw NumericalError("transient_sensitivity: q*t = " +
                         std::to_string(qmax * t) +
                         " exceeds what RK4 integrates stably in " +
                         std::to_string(kMaxSteps) + " steps (max " +
                         std::to_string(kMaxQt) +
                         "); use steady_state_sensitivity() for long "
                         "horizons");
  }
  const SparseMatrix qt = chain.sparse_generator().transposed();  // p Q = Q^T p
  const auto steps = static_cast<std::size_t>(
      std::ceil(t * qmax / 0.1));
  const std::size_t nsteps =
      std::min<std::size_t>(std::max<std::size_t>(steps, 16), kMaxSteps);
  const double h = t / static_cast<double>(nsteps);

  std::vector<double> pi = pi0;
  std::vector<double> sens(n, 0.0);

  // d/dt [pi, s] = [pi Q, s Q + pi dQ]; RK4 on the coupled pair.
  const auto deriv = [&](const std::vector<double>& p,
                         const std::vector<double>& s,
                         std::vector<double>& dp, std::vector<double>& ds) {
    qt.multiply(p, dp);
    qt.multiply(s, ds);
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
    // As in gth_steady_state: an exact rescale keeps pi within the double
    // range when it grows along the chain.
    if (prod > 0x1p512) {
      for (std::size_t j = 0; j <= i + 1; ++j) pi[j] *= 0x1p-512;
      prod *= 0x1p-512;
      total *= 0x1p-512;
    }
  }
  for (double& x : pi) x /= total;
  return pi;
}

}  // namespace relkit::markov
