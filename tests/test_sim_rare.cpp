// Property suite for the rare-event estimation engine (sim/rare_event.hpp):
// likelihood-ratio unbiasedness against birth-death closed forms, RESTART
// level-crossing invariants, the jobs-independence determinism contract
// (jobs == 1 is bitwise-pinned; every jobs value agrees exactly), budget /
// deadline semantics, the zero-failure rule-of-three path, and the
// fault-injected RESTART failure edge. The full nine-nines sweep (the E9b
// acceptance gate: naive MC blind at 10^6 replications while RESTART and
// IS cover at <= 10% relative error) runs under RELKIT_LARGE=1.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <vector>

#include "common/error.hpp"
#include "common/statistics.hpp"
#include "markov/ctmc.hpp"
#include "obs/obs.hpp"
#include "robust/budget.hpp"
#include "robust/fault_injection.hpp"
#include "robust/report.hpp"
#include "sim/rare_event.hpp"

namespace relkit::sim {
namespace {

/// Two identical repairable components in parallel (1-of-2), each with its
/// own repair. Closed forms: U = p^2 with p = lam/(lam+mu); MTTF from the
/// all-up state equals the absorbing 3-state chain's mean time to
/// absorption.
SystemSimulator duplex(double lam, double mu) {
  return SystemSimulator(
      {{exponential(lam), exponential(mu)},
       {exponential(lam), exponential(mu)}},
      [](const std::vector<bool>& s) { return s[0] || s[1]; });
}

double duplex_unavailability(double lam, double mu) {
  const double p = lam / (lam + mu);
  return p * p;
}

// ---- BivariateStats (the delta-method ratio accumulator) -------------------

TEST(BivariateStats, MergeMatchesSequentialAdd) {
  Rng rng(11);
  std::vector<std::pair<double, double>> xs;
  for (int i = 0; i < 1000; ++i) {
    xs.push_back({rng.uniform(), 1.0 + rng.uniform()});
  }
  BivariateStats all;
  BivariateStats left, right;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    all.add(xs[i].first, xs[i].second);
    (i < 500 ? left : right).add(xs[i].first, xs[i].second);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean_x(), all.mean_x(), 1e-13);
  EXPECT_NEAR(left.mean_y(), all.mean_y(), 1e-13);
  EXPECT_NEAR(left.covariance(), all.covariance(), 1e-10);
  EXPECT_NEAR(left.ratio(), all.ratio(), 1e-13);
  EXPECT_NEAR(left.ratio_std_error(), all.ratio_std_error(), 1e-12);
}

TEST(BivariateStats, RatioOfConstantsHasZeroError) {
  BivariateStats s;
  for (int i = 0; i < 10; ++i) s.add(2.0, 4.0);
  EXPECT_DOUBLE_EQ(s.ratio(), 0.5);
  EXPECT_DOUBLE_EQ(s.ratio_std_error(), 0.0);
}

// ---- closed-form agreement -------------------------------------------------

TEST(RareUnavailability, ImportanceSamplingCoversDuplexClosedForm) {
  const double lam = 1e-3, mu = 1.0;
  const double analytic = duplex_unavailability(lam, mu);
  RareEventOptions opts;
  opts.method = RareMethod::kImportanceSampling;
  const Estimate est = duplex(lam, mu).unavailability_rare(42, opts);
  EXPECT_FALSE(est.one_sided);
  EXPECT_LE(est.relative_error(), opts.relative_error + 1e-12);
  EXPECT_GE(analytic, est.lo());
  EXPECT_LE(analytic, est.hi());
}

TEST(RareUnavailability, RestartCoversDuplexClosedForm) {
  const double lam = 1e-3, mu = 1.0;
  const double analytic = duplex_unavailability(lam, mu);
  RareEventOptions opts;
  opts.method = RareMethod::kRestart;
  opts.splits = 8;
  opts.relative_error = 0.15;
  opts.max_cycles = 200'000;
  const Estimate est = duplex(lam, mu).unavailability_rare(43, opts);
  EXPECT_FALSE(est.one_sided);
  EXPECT_GE(analytic, est.lo());
  EXPECT_LE(analytic, est.hi());
}

/// Likelihood-ratio estimator calibration: on a seeded birth-death chain
/// with a closed-form stationary law, the 95% CI must cover the truth in
/// at least 93 of 100 independent seeds (binomial slack below the nominal
/// 95 to keep the test deterministic-but-honest).
TEST(RareUnavailability, LikelihoodRatioCiCoversAcross100Seeds) {
  const std::vector<double> birth = {1.0, 0.8, 0.5};
  const std::vector<double> death = {10.0, 10.0, 10.0};
  const auto pi = markov::birth_death_steady_state(birth, death);
  const double analytic = pi[3];

  markov::Ctmc chain;
  chain.add_states(4);
  for (std::size_t i = 0; i < 3; ++i) {
    chain.add_transition(i, i + 1, birth[i]);
    chain.add_transition(i + 1, i, death[i]);
  }
  const CtmcRareModel model(chain,
                            [](markov::StateId s) { return s != 3; });

  RareEventOptions opts;
  opts.method = RareMethod::kImportanceSampling;
  opts.relative_error = 1e-9;  // never met: fixed 3000-cycle budget per seed
  opts.max_cycles = 3000;
  int covered = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const Estimate est = rare_unavailability(model, seed, opts);
    if (analytic >= est.lo() && analytic <= est.hi()) ++covered;
  }
  EXPECT_GE(covered, 93);
}

/// Multi-level RESTART in the regime where the weight accounting actually
/// matters: a 4-state birth-death chain (auto ladder {0.5, 1.5}) with
/// moderate rates, so trajectories routinely descend a level and re-ascend
/// before regenerating. A weight that is divided at up-crossings but never
/// restored at down-crossings under-counts every such re-ascent and the CI
/// confidently excludes the stationary truth; the correct region-weight
/// scheme must cover across seeds.
TEST(RareRestart, MultiLevelCoversBirthDeathStationaryLaw) {
  const std::vector<double> birth = {1.0, 0.8, 0.5};
  const std::vector<double> death = {2.0, 2.0, 2.0};
  const auto pi = markov::birth_death_steady_state(birth, death);
  const double analytic = pi[3];

  markov::Ctmc chain;
  chain.add_states(4);
  for (std::size_t i = 0; i < 3; ++i) {
    chain.add_transition(i, i + 1, birth[i]);
    chain.add_transition(i + 1, i, death[i]);
  }
  const CtmcRareModel model(chain,
                            [](markov::StateId s) { return s != 3; });
  ASSERT_EQ(model.auto_levels().size(), 2u);

  RareEventOptions opts;
  opts.method = RareMethod::kRestart;
  opts.splits = 2;
  opts.relative_error = 1e-9;  // never met: fixed 2000-cycle budget per seed
  opts.max_cycles = 2000;
  int covered = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const Estimate est = rare_unavailability(model, seed, opts);
    if (analytic >= est.lo() && analytic <= est.hi()) ++covered;
  }
  EXPECT_GE(covered, 93);
}

/// The same multi-level regime through the component adapter: 1-of-3
/// parallel (min cut 3, auto ladder {0.5, 1.5}) with non-tiny rates and
/// the closed form U = p^3.
TEST(RareRestart, MultiLevelCoversTriplexClosedForm) {
  const double lam = 1.0, mu = 2.0;
  const double p = lam / (lam + mu);
  const double analytic = p * p * p;
  SystemSimulator triplex(
      {{exponential(lam), exponential(mu)},
       {exponential(lam), exponential(mu)},
       {exponential(lam), exponential(mu)}},
      [](const std::vector<bool>& s) { return s[0] || s[1] || s[2]; });
  RareEventOptions opts;
  opts.method = RareMethod::kRestart;
  opts.splits = 3;
  opts.relative_error = 1e-9;  // never met: fixed 1500-cycle budget per seed
  opts.max_cycles = 1500;
  int covered = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const Estimate est = triplex.unavailability_rare(seed, opts);
    if (analytic >= est.lo() && analytic <= est.hi()) ++covered;
  }
  EXPECT_GE(covered, 93);
}

TEST(RareMttf, ImportanceSamplingCoversAbsorbingAnalysis) {
  const double lam = 1e-3, mu = 1.0;
  // Truth: 3-state chain where "both down" absorbs.
  markov::Ctmc chain;
  chain.add_states(3);
  chain.add_transition(0, 1, 2 * lam);
  chain.add_transition(1, 0, mu);
  chain.add_transition(1, 2, lam);
  const double truth =
      chain.absorbing_analysis(chain.point_mass(0)).mean_time_to_absorption;

  RareEventOptions opts;
  opts.method = RareMethod::kImportanceSampling;
  const Estimate est = duplex(lam, mu).mttf_rare(44, opts);
  EXPECT_GE(truth, est.lo());
  EXPECT_LE(truth, est.hi());
}

// ---- RESTART invariants ----------------------------------------------------

/// A model whose smallest cut set is a single component derives no
/// importance levels, so RESTART must degenerate to the naive walk — not
/// approximately, but bit for bit (same seed, same stream consumption).
TEST(RareRestart, NoLevelsIsBitwiseNaive) {
  SystemSimulator single({{exponential(0.01), exponential(1.0)}},
                         [](const std::vector<bool>& s) { return s[0]; });
  RareEventOptions naive;
  naive.method = RareMethod::kNaive;
  naive.relative_error = 1e-9;
  naive.max_cycles = 2000;
  RareEventOptions restart = naive;
  restart.method = RareMethod::kRestart;
  const Estimate a = single.unavailability_rare(7, naive);
  const Estimate b = single.unavailability_rare(7, restart);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.half_width, b.half_width);
  EXPECT_EQ(a.replications, b.replications);
}

/// Every split spawns exactly splits - 1 children, so the splits counter
/// must advance by a positive multiple of splits - 1.
TEST(RareRestart, SplitCounterAdvancesInMultiples) {
  obs::set_enabled(true);
  obs::Counter& splits = obs::counter("sim.restart.splits");
  splits.reset();
  RareEventOptions opts;
  opts.method = RareMethod::kRestart;
  opts.splits = 5;
  opts.relative_error = 1e-9;
  opts.max_cycles = 500;
  (void)duplex(1e-2, 1.0).unavailability_rare(8, opts);
  obs::set_enabled(false);
  EXPECT_GT(splits.value(), 0u);
  EXPECT_EQ(splits.value() % (opts.splits - 1), 0u);
}

TEST(RareRestart, FaultInjectedSplitFailureThrowsWithReport) {
  testing::FaultInjectionScope scope;
  scope->fail_method("sim.restart.split");
  RareEventOptions opts;
  opts.method = RareMethod::kRestart;
  opts.max_cycles = 1000;
  try {
    (void)duplex(1e-2, 1.0).unavailability_rare(9, opts);
    FAIL() << "expected ConvergenceError";
  } catch (const robust::ConvergenceError& e) {
    EXPECT_EQ(e.report().method, "rare-event/restart");
    EXPECT_FALSE(e.report().converged);
    ASSERT_FALSE(e.report().warnings.empty());
    EXPECT_NE(e.report().warnings[0].find("fault injection"),
              std::string::npos);
  }
}

// ---- determinism contract --------------------------------------------------

/// jobs == 1 is pinned to a literal generated at development time: any
/// change to stream pre-splitting, chunking, or merge order breaks this
/// test rather than silently changing published numbers. The literals go
/// through std::log/std::exp, whose last bits differ across libm
/// implementations, so the pin only runs on the reference platform
/// (x86-64 glibc); Jobs1AndJobs4AgreeExactly carries the actual
/// jobs-independence contract everywhere.
TEST(RareDeterminism, Jobs1BitwisePin) {
#if !(defined(__x86_64__) && defined(__GLIBC__))
  GTEST_SKIP() << "bitwise pin recorded on x86-64/glibc libm";
#endif
  RareEventOptions opts;
  opts.method = RareMethod::kImportanceSampling;
  opts.relative_error = 1e-9;
  opts.max_cycles = 20000;
  opts.jobs = 1;
  const Estimate est = duplex(1e-3, 1.0).unavailability_rare(42, opts);
  EXPECT_EQ(est.mean, 9.9494032543925482e-07);
  EXPECT_EQ(est.half_width, 2.7544500438481411e-08);
  EXPECT_EQ(est.replications, 20000u);
  EXPECT_TRUE(est.budget_stopped);
}

TEST(RareDeterminism, Jobs1AndJobs4AgreeExactly) {
  for (const RareMethod method :
       {RareMethod::kNaive, RareMethod::kRestart,
        RareMethod::kImportanceSampling}) {
    RareEventOptions opts;
    opts.method = method;
    opts.relative_error = 1e-9;
    opts.max_cycles = 20000;  // five 4096-cycle batches
    opts.jobs = 1;
    const Estimate a = duplex(1e-3, 1.0).unavailability_rare(42, opts);
    opts.jobs = 4;
    const Estimate b = duplex(1e-3, 1.0).unavailability_rare(42, opts);
    EXPECT_EQ(a.mean, b.mean) << "method " << static_cast<int>(method);
    EXPECT_EQ(a.half_width, b.half_width);
    EXPECT_EQ(a.replications, b.replications);
  }
}

// ---- budgets, deadlines, degenerate outcomes -------------------------------

TEST(RareBudget, IterationCapReturnsPartialEstimate) {
  RareEventOptions opts;
  opts.method = RareMethod::kImportanceSampling;
  opts.relative_error = 1e-9;
  opts.max_cycles = 100;
  const Estimate est = duplex(1e-2, 1.0).unavailability_rare(10, opts);
  EXPECT_EQ(est.replications, 100u);
  EXPECT_TRUE(est.budget_stopped);
  ASSERT_TRUE(robust::has_last_report());
  EXPECT_EQ(robust::last_report().iterations, 100u);
  EXPECT_FALSE(robust::last_report().converged);
}

TEST(RareBudget, ExpiredDeadlineThrowsConvergenceError) {
  RareEventOptions opts;
  const robust::ScopedDeadline expired(robust::Deadline::after_seconds(-1.0));
  EXPECT_THROW((void)duplex(1e-2, 1.0).unavailability_rare(11, opts),
               robust::ConvergenceError);
}

TEST(RareBudget, FaultInjectedCycleCapClampsTarget) {
  testing::FaultInjectionScope scope;
  scope->clamp_iterations("sim.rare.cycles", 50);
  RareEventOptions opts;
  opts.relative_error = 1e-9;
  const Estimate est = duplex(1e-2, 1.0).unavailability_rare(12, opts);
  EXPECT_EQ(est.replications, 50u);
  EXPECT_TRUE(est.budget_stopped);
}

/// Zero observed failures must produce the one-sided rule-of-three bound
/// 3/n, never a zero-width "covering" interval.
TEST(RareBudget, ZeroFailureUnavailabilityReportsRuleOfThree) {
  RareEventOptions opts;
  opts.method = RareMethod::kNaive;
  opts.relative_error = 1e-9;
  opts.max_cycles = 500;
  const Estimate est = duplex(1e-6, 1.0).unavailability_rare(13, opts);
  EXPECT_DOUBLE_EQ(est.mean, 0.0);
  EXPECT_TRUE(est.one_sided);
  EXPECT_TRUE(est.budget_stopped);
  EXPECT_DOUBLE_EQ(est.half_width, 3.0 / 500.0);
  EXPECT_DOUBLE_EQ(est.hi(), 3.0 / 500.0);
  EXPECT_TRUE(std::isinf(est.relative_error()));
}

TEST(RareBudget, ZeroFailureMttfThrows) {
  RareEventOptions opts;
  opts.method = RareMethod::kNaive;
  opts.max_cycles = 100;
  try {
    (void)duplex(1e-6, 1.0).mttf_rare(14, opts);
    FAIL() << "expected ConvergenceError";
  } catch (const robust::ConvergenceError& e) {
    EXPECT_NE(std::string(e.what()).find("no failures"), std::string::npos);
  }
}

// ---- adapters and validation -----------------------------------------------

TEST(RareValidation, RequiresExponentialRepairableComponents) {
  SystemSimulator weib({{weibull(1.5, 100.0), exponential(1.0)}},
                       [](const std::vector<bool>& s) { return s[0]; });
  EXPECT_THROW((void)weib.unavailability_rare(1), InvalidArgument);
  SystemSimulator norepair({{exponential(0.01), nullptr}},
                           [](const std::vector<bool>& s) { return s[0]; });
  EXPECT_THROW((void)norepair.unavailability_rare(1), InvalidArgument);
}

TEST(RareValidation, RejectsBadOptions) {
  auto s = duplex(1e-2, 1.0);
  RareEventOptions opts;
  opts.bias = 1.5;
  EXPECT_THROW((void)s.unavailability_rare(1, opts), InvalidArgument);
  opts = {};
  opts.splits = 1;
  opts.method = RareMethod::kRestart;
  EXPECT_THROW((void)s.unavailability_rare(1, opts), InvalidArgument);
  opts = {};
  opts.relative_error = 0.0;
  EXPECT_THROW((void)s.unavailability_rare(1, opts), InvalidArgument);
}

TEST(CtmcRareModelT, DistanceClassificationAndAutoLevels) {
  markov::Ctmc chain;  // PSU duplex with shared repair
  chain.add_states(3);
  chain.add_transition(0, 1, 2e-3);
  chain.add_transition(1, 2, 1e-3);
  chain.add_transition(1, 0, 0.125);
  chain.add_transition(2, 1, 0.125);
  const CtmcRareModel model(chain,
                            [](markov::StateId s) { return s != 2; });
  EXPECT_EQ(model.distance_to_failure(0), 2u);
  EXPECT_EQ(model.distance_to_failure(1), 1u);
  EXPECT_EQ(model.distance_to_failure(2), 0u);
  EXPECT_DOUBLE_EQ(model.importance(0), 0.0);
  EXPECT_DOUBLE_EQ(model.importance(2), 2.0);
  const auto levels = model.auto_levels();
  ASSERT_EQ(levels.size(), 1u);
  EXPECT_DOUBLE_EQ(levels[0], 0.5);
  std::vector<RareTransition> out;
  model.transitions(1, out);
  ASSERT_EQ(out.size(), 2u);
  for (const auto& t : out) {
    EXPECT_EQ(t.is_failure, t.target == 2);  // only the 1 -> 2 edge fails
  }
}

TEST(CtmcRareModelT, RejectsChainWithoutReachableDownState) {
  markov::Ctmc chain;
  chain.add_states(2);
  chain.add_transition(0, 1, 1.0);
  chain.add_transition(1, 0, 1.0);
  EXPECT_THROW(CtmcRareModel(chain, [](markov::StateId) { return true; }),
               ModelError);
}

// ---- the nine-nines acceptance sweep (RELKIT_LARGE=1) ----------------------

/// Naive time-horizon MC on an explicit model: R Bernoulli replications of
/// "down at t = horizon?". Returns the number of observed failures.
std::size_t naive_hits(const RareEventModel& model, double horizon,
                       std::size_t reps, std::uint64_t seed) {
  Rng master(seed);
  std::size_t down = 0;
  std::vector<RareTransition> trans;
  for (std::size_t r = 0; r < reps; ++r) {
    Rng rng = master.split();
    std::uint64_t s = model.initial_state();
    double t = 0.0;
    while (true) {
      model.transitions(s, trans);
      double total = 0.0;
      for (const auto& tr : trans) total += tr.rate;
      t += -std::log(rng.uniform_pos()) / total;
      if (t >= horizon) break;
      double pick = rng.uniform() * total;
      std::size_t chosen = trans.size() - 1;
      for (std::size_t i = 0; i < trans.size(); ++i) {
        chosen = i;
        if (pick < trans[i].rate) break;
        pick -= trans[i].rate;
      }
      s = trans[chosen].target;
    }
    if (!model.up(s)) ++down;
  }
  return down;
}

void expect_rare_methods_cover(const RareEventModel& model, double analytic,
                               unsigned restart_splits, std::uint64_t seed) {
  RareEventOptions restart;
  restart.method = RareMethod::kRestart;
  restart.splits = restart_splits;
  const Estimate r = rare_unavailability(model, seed, restart);
  EXPECT_LE(r.replications, 1'000'000u);
  EXPECT_LE(r.relative_error(), 0.1 + 1e-12);
  EXPECT_GE(analytic, r.lo());
  EXPECT_LE(analytic, r.hi());

  RareEventOptions is;
  is.method = RareMethod::kImportanceSampling;
  const Estimate i = rare_unavailability(model, seed + 1, is);
  EXPECT_LE(i.replications, 1'000'000u);
  EXPECT_LE(i.relative_error(), 0.1 + 1e-12);
  EXPECT_GE(analytic, i.lo());
  EXPECT_LE(analytic, i.hi());
}

/// The E9b acceptance gate on every analytic nine-nines example: naive MC
/// with a 10^6-replication budget observes zero failures while RESTART and
/// importance sampling cover the analytic value at <= 10% relative error
/// within 10^6 regenerative cycles. Mirrors bench_sim_validation's E9b
/// table; gated because the sweep takes tens of seconds.
TEST(NineNines, LargeSweepNaiveBlindRareCovers) {
  if (std::getenv("RELKIT_LARGE") == nullptr) {
    GTEST_SKIP() << "set RELKIT_LARGE=1 to run the nine-nines sweep";
  }

  {  // BladeCenter PSU duplex, one shared repair crew. U ~ 5.7e-9.
    markov::Ctmc chain;
    chain.add_states(3);
    chain.add_transition(0, 1, 2.0 / 150000.0);
    chain.add_transition(1, 2, 1.0 / 150000.0);
    chain.add_transition(1, 0, 0.125);
    chain.add_transition(2, 1, 0.125);
    const double analytic = chain.steady_state()[2];
    ASSERT_LT(analytic, 1e-8);
    const CtmcRareModel model(chain,
                              [](markov::StateId s) { return s != 2; });
    EXPECT_EQ(naive_hits(model, 24.0, 1'000'000, 301), 0u);
    expect_rare_methods_cover(model, analytic, 64, 302);
  }

  {  // GGSN active/standby dual-failure probability ~ 5.9e-8.
    const double lam_hw = 1.0 / 30000.0, lam_sw = 1.0 / 1500.0;
    const double lam = lam_hw + lam_sw;
    const double w_sw = lam_sw / lam;
    const double mu_node = 1.0 / (w_sw / 6.0 + (1 - w_sw) / 0.25);
    markov::Ctmc chain;
    chain.add_states(5);  // both, switching, solo, uncovered, dual
    chain.add_transition(0, 1, lam * 0.95);
    chain.add_transition(0, 3, lam * 0.05);
    chain.add_transition(1, 2, 120.0);
    chain.add_transition(2, 4, lam);
    chain.add_transition(2, 0, mu_node);
    chain.add_transition(3, 2, 2.0);
    chain.add_transition(4, 2, mu_node);
    const double analytic = chain.steady_state()[4];
    ASSERT_LT(analytic, 1e-7);
    const CtmcRareModel model(chain,
                              [](markov::StateId s) { return s != 4; });
    EXPECT_EQ(naive_hits(model, 24.0, 1'000'000, 303), 0u);
    expect_rare_methods_cover(model, analytic, 16, 304);
  }

  {  // SIP cluster: 1-of-2 proxies in series with 4-of-6 app tier, U ~ 1e-8.
    std::vector<SimComponent> comps;
    for (int i = 0; i < 2; ++i) {
      comps.push_back({exponential(1e-4), exponential(1.0)});
    }
    for (int i = 0; i < 6; ++i) {
      comps.push_back({exponential(1e-4), exponential(2.0)});
    }
    const StructureFn up = [](const std::vector<bool>& s) {
      if (!s[0] && !s[1]) return false;
      int n = 0;
      for (std::size_t i = 2; i < 8; ++i) n += s[i] ? 1 : 0;
      return n >= 4;
    };
    const double p_p = 1e-4 / (1e-4 + 1.0);
    const double p_a = 1e-4 / (1e-4 + 2.0);
    const double binom[3] = {1.0, 6.0, 15.0};
    double a_app = 0.0;
    for (int k = 0; k <= 2; ++k) {
      a_app += binom[k] * std::pow(p_a, k) * std::pow(1.0 - p_a, 6 - k);
    }
    const double analytic = 1.0 - (1.0 - p_p * p_p) * a_app;
    ASSERT_LT(analytic, 2e-8);

    SystemSimulator simulator(comps, up);
    const Estimate naive = simulator.availability_at(24.0, 1'000'000, 207);
    EXPECT_TRUE(naive.one_sided);  // all replications up at t: blind
    EXPECT_DOUBLE_EQ(naive.mean, 1.0);

    RareEventOptions restart;
    restart.method = RareMethod::kRestart;
    restart.splits = 64;
    const Estimate r = simulator.unavailability_rare(208, restart);
    EXPECT_LE(r.replications, 1'000'000u);
    EXPECT_LE(r.relative_error(), 0.1 + 1e-12);
    EXPECT_GE(analytic, r.lo());
    EXPECT_LE(analytic, r.hi());

    RareEventOptions is;
    is.method = RareMethod::kImportanceSampling;
    const Estimate i = simulator.unavailability_rare(209, is);
    EXPECT_LE(i.replications, 1'000'000u);
    EXPECT_LE(i.relative_error(), 0.1 + 1e-12);
    EXPECT_GE(analytic, i.lo());
    EXPECT_LE(analytic, i.hi());
  }
}

}  // namespace
}  // namespace relkit::sim
