// Tests for the solver resilience layer (src/robust/): fault-injection
// driven fallback chains, budgets, post-solve verification, fixed-point
// safeguards, and simulator budget stops. Every fallback edge of
// robust_steady_state is exercised here, and no solver path may return
// NaN/Inf silently.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/krylov.hpp"
#include "common/linsolve.hpp"
#include "common/sparse.hpp"
#include "core/hierarchy.hpp"
#include "markov/ctmc.hpp"
#include "markov/dtmc.hpp"
#include "markov/solution_cache.hpp"
#include "obs/obs.hpp"
#include "robust/budget.hpp"
#include "robust/fault_injection.hpp"
#include "robust/report.hpp"
#include "robust/robust.hpp"
#include "sim/simulator.hpp"

namespace relkit {
namespace {

using relkit::testing::FaultInjectionScope;

/// Birth-death chain: i -> i+1 at `lambda`, i+1 -> i at `mu`.
markov::Ctmc birth_death_chain(std::size_t n, double lambda, double mu) {
  markov::Ctmc chain;
  chain.add_states(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    chain.add_transition(i, i + 1, lambda);
    chain.add_transition(i + 1, i, mu);
  }
  return chain;
}

std::vector<double> birth_death_oracle(std::size_t n, double lambda,
                                       double mu) {
  return markov::birth_death_steady_state(
      std::vector<double>(n - 1, lambda), std::vector<double>(n - 1, mu));
}

/// Two fast 2-state clusters coupled by ~1e-9 rates: irreducible but so
/// close to reducible that plain SOR cannot redistribute the inter-cluster
/// mass within a small sweep budget.
markov::Ctmc stiff_near_reducible_chain() {
  markov::Ctmc chain;
  chain.add_states(4);
  chain.add_transition(0, 1, 1.0);
  chain.add_transition(1, 0, 2.0);
  chain.add_transition(2, 3, 1.0);
  chain.add_transition(3, 2, 2.0);
  chain.add_transition(1, 2, 3e-9);
  chain.add_transition(2, 1, 1e-9);
  return chain;
}

/// Q's off-diagonal part transposed and its diagonal: the form the
/// iterative kernels take.
void kernel_form(const markov::Ctmc& chain, SparseMatrix& qt,
                 std::vector<double>& diag) {
  const SparseMatrix q = chain.sparse_generator();
  SparseBuilder b(q.rows(), q.cols());
  diag.assign(q.rows(), 0.0);
  for (std::size_t i = 0; i < q.rows(); ++i) {
    for (std::size_t k = q.row_begin(i); k < q.row_end(i); ++k) {
      if (q.col(k) == i) {
        diag[i] += q.value(k);
      } else {
        b.add(q.col(k), i, q.value(k));
      }
    }
  }
  qt = b.build();
}

bool has_fallback(const robust::SolveReport& report,
                  const std::string& edge) {
  for (const auto& f : report.fallbacks) {
    if (f == edge) return true;
  }
  return false;
}

// ---- fallback chain edges ---------------------------------------------------

TEST(FallbackChain, SorFallsBackToBicgstab) {
  FaultInjectionScope scope;
  scope->fail_method("sor", 1);

  const std::size_t n = 12;
  const auto chain = birth_death_chain(n, 1.0, 2.0);
  markov::SteadyStateOptions opts;
  opts.dense_threshold = 0;
  opts.gth_fallback_threshold = 0;
  robust::SolveReport report;
  const auto pi = chain.steady_state(opts, &report);

  // The chain is one NCD block, so the A/D gate stays shut and SOR hands
  // over to the Krylov tier directly.
  EXPECT_EQ(report.method, "bicgstab");
  EXPECT_TRUE(has_fallback(report, "sor->bicgstab")) << report.summary();
  const auto oracle = birth_death_oracle(n, 1.0, 2.0);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(pi[i], oracle[i], 1e-8);
  }
}

TEST(FallbackChain, BicgstabFallsBackToGth) {
  FaultInjectionScope scope;
  scope->fail_method("sor");
  scope->fail_method("bicgstab");

  const std::size_t n = 8;
  const auto chain = birth_death_chain(n, 1.0, 3.0);
  markov::SteadyStateOptions opts;
  opts.dense_threshold = 0;         // GTH not primary ...
  opts.gth_fallback_threshold = 64;  // ... but allowed as last resort
  robust::SolveReport report;
  const auto pi = chain.steady_state(opts, &report);

  EXPECT_EQ(report.method, "gth");
  EXPECT_TRUE(has_fallback(report, "sor->bicgstab")) << report.summary();
  EXPECT_TRUE(has_fallback(report, "bicgstab->gth")) << report.summary();
  const auto oracle = birth_death_oracle(n, 1.0, 3.0);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(pi[i], oracle[i], 1e-12);
  }
}

TEST(FallbackChain, AllMethodsExhaustedThrowsWithPartialAndReport) {
  FaultInjectionScope scope;
  scope->fail_method("sor");
  scope->fail_method("bicgstab");
  scope->fail_method("ad");
  scope->fail_method("power");
  scope->fail_method("gth");

  const std::size_t n = 8;
  const auto chain = birth_death_chain(n, 1.0, 2.0);
  markov::SteadyStateOptions opts;
  opts.dense_threshold = 0;
  opts.gth_fallback_threshold = 64;
  try {
    chain.steady_state(opts);
    FAIL() << "expected ConvergenceError";
  } catch (const robust::ConvergenceError& e) {
    EXPECT_EQ(e.partial_result().size(), n);
    EXPECT_FALSE(e.report().converged);
    EXPECT_GE(e.report().attempts.size(), 3u);
    EXPECT_NE(std::string(e.what()).find("all methods failed"),
              std::string::npos);
  }
}

TEST(FallbackChain, ClampedSorBudgetTriggersFallback) {
  FaultInjectionScope scope;
  scope->clamp_iterations("sor.max_iters", 2);  // starve SOR of sweeps

  const std::size_t n = 20;
  const auto chain = birth_death_chain(n, 1.0, 1.5);
  markov::SteadyStateOptions opts;
  opts.dense_threshold = 0;
  opts.gth_fallback_threshold = 64;
  robust::SolveReport report;
  const auto pi = chain.steady_state(opts, &report);

  EXPECT_NE(report.method, "sor");
  EXPECT_FALSE(report.fallbacks.empty()) << report.summary();
  const auto oracle = birth_death_oracle(n, 1.0, 1.5);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(pi[i], oracle[i], 1e-6);
  }
}

TEST(FallbackChain, SorNanInjectionFallsBackToFiniteResult) {
  FaultInjectionScope scope;
  // Corrupt SOR's normalization mass on its second visit: the iterate goes
  // non-finite mid-solve and the chain must recover elsewhere.
  scope->inject_nan("sor.sweep-total", 1);

  const std::size_t n = 12;
  const auto chain = birth_death_chain(n, 1.0, 2.0);
  markov::SteadyStateOptions opts;
  opts.dense_threshold = 0;
  opts.gth_fallback_threshold = 64;
  robust::SolveReport report;
  const auto pi = chain.steady_state(opts, &report);

  EXPECT_TRUE(report.converged);
  EXPECT_FALSE(report.fallbacks.empty()) << report.summary();
  for (const double x : pi) EXPECT_TRUE(std::isfinite(x));
  const auto oracle = birth_death_oracle(n, 1.0, 2.0);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(pi[i], oracle[i], 1e-6);
  }
}

// ---- regression: stiff near-reducible chain --------------------------------

TEST(FallbackChain, StiffNearReducibleRegression) {
  const auto chain = stiff_near_reducible_chain();

  // The raw single-method path gives up: 50 Gauss-Seidel sweeps cannot move
  // mass across a 1e-9 coupling.
  markov::SteadyStateOptions raw;
  raw.solver = robust::SolverChoice::kSor;
  raw.dense_threshold = 0;
  raw.sor.max_iters = 50;
  EXPECT_THROW(chain.steady_state(raw), robust::ConvergenceError);

  // The fallback chain now detects the 1e-9 coupling as an NCD split and
  // lands on aggregation-disaggregation, matching dense GTH exactly —
  // the textbook case for Courtois decomposition.
  markov::SteadyStateOptions opts;
  opts.dense_threshold = 0;
  opts.gth_fallback_threshold = 64;
  opts.sor.max_iters = 50;
  robust::SolveReport report;
  const auto pi = chain.steady_state(opts, &report);

  EXPECT_EQ(report.method, "ad");
  EXPECT_TRUE(has_fallback(report, "sor->ad")) << report.summary();
  const auto exact = gth_steady_state(chain.dense_generator());
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(pi[i], exact[i], 1e-10);
  }
}

// ---- regression: a chain adaptive SOR cannot finish -------------------------

/// A seeded one-directional random chain: the cycle i -> i+1 (mod n) plus
/// 2n one-way edges between random states, every rate 10^U(-1, 1). The
/// draws use the engine's raw output rather than a standard distribution,
/// whose algorithm each library chooses.
markov::Ctmc one_directional_chain(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto rate = [&] {
    const double u = static_cast<double>(rng() >> 11) * 0x1p-53;
    return std::pow(10.0, 2.0 * u - 1.0);
  };
  markov::Ctmc chain;
  chain.add_states(n);
  for (std::size_t i = 0; i < n; ++i) {
    chain.add_transition(i, (i + 1) % n, rate());
  }
  for (std::size_t e = 0; e < 2 * n; ++e) {
    const std::size_t from = rng() % n;
    std::size_t to = rng() % n;
    if (to == from) to = (to + 1) % n;
    chain.add_transition(from, to, rate());
  }
  return chain;
}

// On this 600-state chain adaptive SOR stalls at a residual of 2.8e-4
// whatever its sweep cap (2,000, 20,000 or 200,000), while plain
// Gauss-Seidel converges in 48 sweeps. The chain is one NCD block, so the
// solve goes from SOR to BiCGSTAB, which must agree with dense GTH.
TEST(FallbackChain, OneDirectionalChainSorStallsBicgstabAnswers) {
  const std::size_t n = 600;
  const auto chain = one_directional_chain(n, 60012);
  markov::SteadyStateOptions opts;
  opts.use_cache = false;
  opts.sor.max_iters = 2000;
  robust::SolveReport report;
  const auto pi = chain.steady_state(opts, &report);

  EXPECT_EQ(report.method, "bicgstab");
  EXPECT_TRUE(has_fallback(report, "sor->bicgstab")) << report.summary();
  const auto exact = gth_steady_state(chain.dense_generator());
  ASSERT_EQ(pi.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(pi[i], exact[i], 1e-8) << "state " << i;
  }
}

// ---- characterization: the exact walk of the chain --------------------------

constexpr std::size_t kAlways = std::numeric_limits<std::size_t>::max();

/// One scenario and the exact attempt sequence it must produce. An empty
/// `method` means the solve throws ConvergenceError.
struct ChainWalk {
  const char* name;
  bool stiff;  ///< stiff_near_reducible_chain(), else a 12-state BD chain
  robust::SolverChoice solver;
  std::vector<std::pair<const char*, std::size_t>> faults;  ///< fail_method
  std::vector<std::string> attempts;
  std::vector<std::string> fallbacks;
  std::string method;
};

const std::vector<ChainWalk>& chain_walks() {
  using S = robust::SolverChoice;
  static const std::vector<ChainWalk> walks = {
      {"sor accepted at once", false, S::kAuto, {}, {"sor"}, {}, "sor"},
      {"sor fails once", false, S::kAuto, {{"sor", 1}}, {"sor", "bicgstab"},
       {"sor->bicgstab"}, "bicgstab"},
      {"stiff near-reducible", true, S::kAuto, {}, {"sor", "ad"},
       {"sor->ad"}, "ad"},
      {"every probe armed", false, S::kAuto,
       {{"gth", kAlways}, {"sor", kAlways}, {"ad", kAlways},
        {"bicgstab", kAlways}, {"power", kAlways}},
       {"sor", "bicgstab", "gth"}, {"sor->bicgstab", "bicgstab->gth"}, ""},
      {"forced gth", false, S::kGth, {}, {"gth"}, {}, "gth"},
      {"forced sor", false, S::kSor, {}, {"sor"}, {}, "sor"},
      {"forced bicgstab", false, S::kBicgstab, {}, {"bicgstab"}, {},
       "bicgstab"},
      {"forced power", false, S::kPower, {}, {"power"}, {}, "power"},
      {"forced ad", true, S::kAd, {}, {"ad"}, {}, "ad"},
      {"forced gth, probe armed", false, S::kGth, {{"gth", kAlways}},
       {"gth"}, {}, ""},
      {"forced sor, probe armed", false, S::kSor, {{"sor", kAlways}},
       {"sor"}, {}, ""},
      {"forced bicgstab, probe armed", false, S::kBicgstab,
       {{"bicgstab", kAlways}}, {"bicgstab"}, {}, ""},
      {"forced power, probe armed", false, S::kPower, {{"power", kAlways}},
       {"power"}, {}, ""},
      {"forced ad, probe armed", true, S::kAd, {{"ad", kAlways}}, {"ad"},
       {}, ""},
  };
  return walks;
}

TEST(ChainCharacterization, FaultTablePinsAttemptsAndFallbacks) {
  for (const ChainWalk& w : chain_walks()) {
    SCOPED_TRACE(w.name);
    FaultInjectionScope scope;
    for (const auto& [method, times] : w.faults) {
      scope->fail_method(method, times);
    }
    const auto chain = w.stiff ? stiff_near_reducible_chain()
                               : birth_death_chain(12, 1.0, 2.0);
    markov::SteadyStateOptions opts;
    opts.dense_threshold = 0;          // no primary GTH
    opts.gth_fallback_threshold = 64;  // last-resort GTH allowed
    opts.use_cache = false;
    opts.solver = w.solver;
    if (w.stiff) opts.sor.max_iters = 50;

    robust::SolveReport report;
    if (!w.method.empty()) {
      const auto pi = chain.steady_state(opts, &report);
      EXPECT_EQ(report.method, w.method);
      EXPECT_TRUE(report.converged);
      EXPECT_EQ(pi.size(), chain.state_count());
    } else {
      try {
        chain.steady_state(opts, &report);
        ADD_FAILURE() << "expected ConvergenceError";
        continue;
      } catch (const robust::ConvergenceError& e) {
        report = e.report();
        const std::string why = w.solver == robust::SolverChoice::kAuto
                                    ? "all methods failed"
                                    : std::string("forced solver '") +
                                          w.attempts.front() + "' failed";
        EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
            << e.what();
        ASSERT_EQ(e.partial_result().size(), chain.state_count());
        for (const double x : e.partial_result()) {
          EXPECT_TRUE(std::isfinite(x));
        }
        EXPECT_FALSE(report.converged);
      }
    }
    EXPECT_EQ(report.attempts, w.attempts) << report.summary();
    EXPECT_EQ(report.fallbacks, w.fallbacks) << report.summary();
    ASSERT_EQ(report.attempt_details.size(), w.attempts.size());
    for (std::size_t i = 0; i < w.attempts.size(); ++i) {
      EXPECT_EQ(report.attempt_details[i].method, w.attempts[i]);
      const bool last_accepted =
          !w.method.empty() && i + 1 == w.attempts.size();
      EXPECT_EQ(report.attempt_details[i].accepted, last_accepted);
    }
  }
}

TEST(ChainCharacterization, AcceptedSorNeverRunsNcdDetector) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "obs compiled out";
  obs::set_enabled(true);
  obs::Gauge& blocks = obs::gauge("markov.ncd.blocks");
  constexpr double kSentinel = -7.0;
  const auto chain = birth_death_chain(12, 1.0, 2.0);
  markov::SteadyStateOptions opts;
  opts.dense_threshold = 0;
  opts.use_cache = false;

  blocks.set(kSentinel);
  robust::SolveReport report;
  chain.steady_state(opts, &report);
  EXPECT_EQ(report.method, "sor");
  EXPECT_EQ(blocks.value(), kSentinel);

  // Control: once SOR fails the chain reaches the A/D gate, and the
  // detector overwrites the sentinel.
  {
    FaultInjectionScope scope;
    scope->fail_method("sor");
    chain.steady_state(opts, &report);
  }
  EXPECT_EQ(report.method, "bicgstab");
  EXPECT_EQ(blocks.value(), 1.0);
  blocks.reset();
  obs::set_enabled(false);
}

// ---- uniformization guards --------------------------------------------------

TEST(Uniformization, OverflowGuardRejectsHugePoissonMean) {
  FaultInjectionScope scope;
  scope->inject_value("uniformize.qt", 1e18);

  const auto chain = birth_death_chain(4, 1.0, 2.0);
  const auto pi0 = chain.point_mass(0);
  try {
    chain.transient(pi0, 1.0);
    FAIL() << "expected ConvergenceError";
  } catch (const robust::ConvergenceError& e) {
    EXPECT_NE(std::string(e.what()).find("q*t"), std::string::npos);
    EXPECT_EQ(e.partial_result(), pi0);  // best available: the initial state
    EXPECT_FALSE(e.report().warnings.empty());
  }
}

TEST(Uniformization, WeightDriftIsRenormalizedAndReported) {
  const auto chain = birth_death_chain(4, 1.0, 2.0);
  const auto pi0 = chain.point_mass(0);
  const auto clean = chain.transient(pi0, 0.7);

  FaultInjectionScope scope;
  scope->scale("uniformize.weight", 1.05);  // inflate every Poisson weight
  const auto repaired = chain.transient(pi0, 0.7);

  double mass = 0.0;
  for (const double x : repaired) mass += x;
  EXPECT_NEAR(mass, 1.0, 1e-12);
  for (std::size_t i = 0; i < repaired.size(); ++i) {
    EXPECT_NEAR(repaired[i], clean[i], 1e-9);  // uniform scaling divides out
  }
  ASSERT_TRUE(robust::has_last_report());
  bool renorm_warned = false;
  for (const auto& w : robust::last_report().warnings) {
    renorm_warned |= w.find("renormalized") != std::string::npos;
  }
  EXPECT_TRUE(renorm_warned) << robust::last_report().summary();
}

TEST(Uniformization, InjectedNanNeverEscapesSilently) {
  FaultInjectionScope scope;
  scope->inject_nan("uniformize.weight", 2);

  const auto chain = birth_death_chain(4, 1.0, 2.0);
  const auto pi0 = chain.point_mass(0);
  EXPECT_THROW(chain.transient(pi0, 0.7), robust::ConvergenceError);
}

// The ambient deadline (CLI --timeout-ms, relkit_serve request budgets)
// stops the cumulative measure as it stops the transient one: a deadline
// that has already passed ends either series at its first check.
TEST(Uniformization, CumulativeHonoursAmbientDeadline) {
  const auto chain = birth_death_chain(50, 1.0, 2.0);
  const auto pi0 = chain.point_mass(0);
  const robust::ScopedDeadline expired(robust::Deadline::after_seconds(-1.0));
  try {
    chain.cumulative_time(pi0, 5000.0);
    FAIL() << "expected ConvergenceError";
  } catch (const robust::ConvergenceError& e) {
    EXPECT_NE(std::string(e.what()).find("Ctmc::cumulative_time: deadline"),
              std::string::npos)
        << e.what();
    EXPECT_EQ(e.partial_result().size(), chain.state_count());
    EXPECT_FALSE(e.report().warnings.empty());
  }
  EXPECT_THROW(chain.transient(pi0, 5000.0), robust::ConvergenceError);
}

TEST(Uniformization, GeneratorNanDetectedAtSteadyState) {
  FaultInjectionScope scope;
  scope->inject_nan("ctmc.rate");

  const auto chain = birth_death_chain(6, 1.0, 2.0);
  try {
    chain.steady_state();
    FAIL() << "expected NumericalError";
  } catch (const NumericalError& e) {
    EXPECT_NE(std::string(e.what()).find("non-finite"), std::string::npos);
  }
}

/// A 12-state chain with parallel transitions: each i -> i+1 twice (rates
/// 1 and 0.25), each i+1 -> i once, and 0 -> 6 three times. Returns its
/// transition count through `transitions`.
markov::Ctmc parallel_transition_chain(std::size_t& transitions) {
  markov::Ctmc chain;
  chain.add_states(12);
  transitions = 0;
  for (std::size_t i = 0; i + 1 < 12; ++i) {
    chain.add_transition(i, i + 1, 1.0);
    chain.add_transition(i + 1, i, 2.0 + static_cast<double>(i));
    chain.add_transition(i, i + 1, 0.25);
    transitions += 3;
  }
  for (const double rate : {0.5, 0.125, 3.0}) {
    chain.add_transition(0, 6, rate);
    ++transitions;
  }
  return chain;
}

TEST(GeneratorTap, EveryBuilderVisitsCtmcRateOncePerTransition) {
  std::size_t transitions = 0;
  const auto chain = parallel_transition_chain(transitions);
  FaultInjectionScope scope;
  const auto hits_of = [&](const std::function<void()>& build) {
    scope->reset();
    scope->scale("ctmc.rate", 1.0);  // armed, numerically inert
    build();
    return scope->hits("ctmc.rate");
  };
  EXPECT_EQ(hits_of([&] { chain.sparse_generator(); }), transitions);
  EXPECT_EQ(hits_of([&] { chain.dense_generator(); }), transitions);
  // The transposed generator, through the steady-state solve (an armed
  // injector bypasses the solution cache) and through uniformization.
  EXPECT_EQ(hits_of([&] { chain.steady_state(); }), transitions);
  EXPECT_EQ(hits_of([&] { chain.transient(chain.point_mass(0), 1.0); }),
            transitions);
}

TEST(GeneratorTap, InjectedNanLandsOnItsTransitionsEntries) {
  // A NaN at hit k replaces transition k's rate: its (from, to) entry and
  // its row's diagonal turn NaN, and every other entry keeps its bits.
  std::size_t transitions = 0;
  const auto chain = parallel_transition_chain(transitions);
  const SparseMatrix clean = chain.sparse_generator();
  struct Hit {
    std::size_t k, from, to;
  };
  // Hits 0 and 2 are the parallel pair 0 -> 1 and hit 1 is 1 -> 0; hit 31
  // is 11 -> 10, hit 32 the second 10 -> 11, hits 33-35 the three 0 -> 6.
  for (const Hit& hit : {Hit{0, 0, 1}, Hit{1, 1, 0}, Hit{2, 0, 1},
                         Hit{31, 11, 10}, Hit{32, 10, 11}, Hit{33, 0, 6},
                         Hit{35, 0, 6}}) {
    SCOPED_TRACE(::testing::Message() << "hit " << hit.k);
    FaultInjectionScope scope;
    scope->inject_nan("ctmc.rate", hit.k);
    const SparseMatrix q = chain.sparse_generator();
    ASSERT_EQ(q.nnz(), clean.nnz());
    for (std::size_t r = 0; r < clean.rows(); ++r) {
      ASSERT_EQ(q.row_end(r), clean.row_end(r));
      for (std::size_t k = clean.row_begin(r); k < clean.row_end(r); ++k) {
        ASSERT_EQ(q.col(k), clean.col(k));
        const bool hit_entry =
            r == hit.from && (q.col(k) == hit.to || q.col(k) == hit.from);
        if (hit_entry) {
          EXPECT_TRUE(std::isnan(q.value(k))) << r << ", " << q.col(k);
        } else {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(q.value(k)),
                    std::bit_cast<std::uint64_t>(clean.value(k)))
              << r << ", " << q.col(k);
        }
      }
    }
  }
}

// ---- budgets ----------------------------------------------------------------

TEST(Budgets, CapSemantics) {
  EXPECT_TRUE(robust::Deadline().unlimited());
  EXPECT_TRUE(robust::Deadline::after_seconds(-1.0).expired());
  EXPECT_FALSE(robust::Deadline::after_seconds(3600.0).expired());

  // Clock ticks are int64 nanoseconds (about 292 years): a bound the clock
  // cannot represent from now is unlimited, never wrapped into the past.
  for (const double seconds :
       {1e10, 1e300, std::numeric_limits<double>::infinity()}) {
    const robust::Deadline d = robust::Deadline::after_seconds(seconds);
    EXPECT_FALSE(d.expired()) << seconds;
    EXPECT_GT(d.remaining_seconds(), 1e9) << seconds;
  }
  for (const double seconds :
       {0.0, -1e300, -std::numeric_limits<double>::infinity()}) {
    EXPECT_TRUE(robust::Deadline::after_seconds(seconds).expired())
        << seconds;
  }
}

// The deadline contract, checked on every solver entry point instead of
// documented for all of them: under an expired ambient deadline each one
// throws ConvergenceError instead of running to completion.
TEST(Deadlines, EveryEntryPointStopsAtAmbientDeadline) {
  const markov::Ctmc chain = birth_death_chain(3000, 1.0, 1.3);
  SparseMatrix qt;
  std::vector<double> diag;
  kernel_form(chain, qt, diag);
  // ILU0 is exact on a tridiagonal chain and would answer at its first
  // check; on a grid it iterates, so BiCGSTAB reaches a deadline check.
  markov::Ctmc grid;
  const std::size_t side = 30;
  grid.add_states(side * side);
  for (std::size_t s = 0; s < side * side; ++s) {
    if (s % side + 1 < side) {
      grid.add_transition(s, s + 1, 0.5);
      grid.add_transition(s + 1, s, 0.9);
    }
    if (s + side < side * side) {
      grid.add_transition(s, s + side, 0.7);
      grid.add_transition(s + side, s, 1.1);
    }
  }
  SparseMatrix grid_qt;
  std::vector<double> grid_diag;
  kernel_form(grid, grid_qt, grid_diag);
  SparseMatrix ncd_qt;
  std::vector<double> ncd_diag;
  kernel_form(stiff_near_reducible_chain(), ncd_qt, ncd_diag);
  const robust::NcdPartition part =
      robust::detect_ncd_blocks(ncd_qt, ncd_diag, 0.05);
  ASSERT_GE(part.blocks, 2u);
  // A biased walk: its uniform start is not stationary, so power iteration
  // reaches a deadline check (a symmetric ring would converge at step 0).
  markov::Dtmc walk;
  const std::size_t walk_n = 3000;
  for (std::size_t i = 0; i < walk_n; ++i) {
    walk.add_state("s" + std::to_string(i));
  }
  for (std::size_t i = 0; i < walk_n; ++i) {
    walk.add_transition(i, i + 1 < walk_n ? i + 1 : i, 0.6);
    walk.add_transition(i, i > 0 ? i - 1 : i, 0.4);
  }
  const sim::SystemSimulator simulator(
      {{exponential(0.1), exponential(1.0)}},
      [](const std::vector<bool>& s) { return s[0]; });
  core::Hierarchy h;
  h.set_parameter("x", 0.0);

  const std::vector<std::pair<const char*, std::function<void()>>> entries{
      {"sor_steady_state", [&] { (void)sor_steady_state(qt, diag); }},
      {"power_steady_state",
       [&] {
         (void)power_steady_state(
             robust::uniformize(qt, diag).pt.transposed(), PowerOptions{});
       }},
      {"bicgstab_steady_state",
       [&] { (void)bicgstab_steady_state(grid_qt, grid_diag); }},
      {"robust_steady_state",
       [&] { (void)robust::robust_steady_state(qt, diag); }},
      {"ad_steady_state",
       [&] { (void)robust::ad_steady_state(ncd_qt, ncd_diag, part); }},
      {"Dtmc::steady_state", [&] { (void)walk.steady_state(512, 1); }},
      {"solve_fixed_point",
       [&] {
         (void)h.solve_fixed_point({{"x", [](const core::Hierarchy& hh) {
                                       return 0.5 * hh.value("x") + 1.0;
                                     }}});
       }},
      {"availability_at",
       [&] { (void)simulator.availability_at(5.0, 1000, 7); }},
      {"unavailability_rare",
       [&] { (void)simulator.unavailability_rare(11); }},
      {"Ctmc::steady_state",
       [&] {
         markov::SteadyStateOptions opts;
         opts.use_cache = false;
         (void)chain.steady_state(opts);
       }},
  };
  const robust::ScopedDeadline expired(robust::Deadline::after_seconds(-1.0));
  for (const auto& [name, run] : entries) {
    try {
      run();
      ADD_FAILURE() << name << " returned under an expired deadline";
    } catch (const robust::ConvergenceError& e) {
      // Stopped by the deadline, not by running into its iteration cap.
      bool by_deadline =
          std::string(e.what()).find("deadline") != std::string::npos;
      for (const auto& w : e.report().warnings) {
        by_deadline |= w.find("deadline") != std::string::npos;
      }
      EXPECT_TRUE(by_deadline) << name << ": " << e.what();
    }
  }
}

TEST(Budgets, SorDeadlineCarriesPartialResult) {
  const std::size_t n = 10;
  const auto chain = birth_death_chain(n, 1.0, 2.0);
  markov::SteadyStateOptions opts;
  opts.solver = robust::SolverChoice::kSor;  // SOR alone, no fallback
  opts.dense_threshold = 0;
  const robust::ScopedDeadline expired(robust::Deadline::after_seconds(-1.0));
  try {
    chain.steady_state(opts);
    FAIL() << "expected ConvergenceError";
  } catch (const robust::ConvergenceError& e) {
    EXPECT_EQ(e.partial_result().size(), n);
    EXPECT_FALSE(e.report().converged);
  }
}

// ---- fixed-point safeguards -------------------------------------------------

TEST(FixedPointSafeguards, OscillationTriggersDampingEscalation) {
  // x <- 2.2 - x oscillates forever under plain substitution; one damping
  // escalation (to 1/2) lands exactly on the fixed point x* = 1.1.
  core::Hierarchy h;
  h.set_parameter("x", 0.0);
  const auto res = h.solve_fixed_point(
      {{"x", [](const core::Hierarchy& hh) { return 2.2 - hh.value("x"); }}});
  EXPECT_TRUE(res.converged);
  EXPECT_GE(res.damping_escalations, 1u);
  EXPECT_GT(res.final_damping, 0.0);
  EXPECT_NEAR(h.value("x"), 1.1, 1e-9);
  EXPECT_FALSE(res.report.fallbacks.empty());
}

TEST(FixedPointSafeguards, AdaptiveOffStillThrowsWithPartial) {
  core::Hierarchy h;
  h.set_parameter("x", 0.0);
  core::FixedPointOptions opts;
  opts.adaptive_damping = false;
  opts.max_iterations = 40;
  try {
    h.solve_fixed_point(
        {{"x",
          [](const core::Hierarchy& hh) { return 2.2 - hh.value("x"); }}},
        opts);
    FAIL() << "expected ConvergenceError";
  } catch (const robust::ConvergenceError& e) {
    EXPECT_EQ(e.partial_result().size(), 1u);
    EXPECT_FALSE(e.report().converged);
  }
}

TEST(FixedPointSafeguards, TrueDivergenceStillThrows) {
  // x <- 2x + 1 diverges at every damping < 1; escalation must not mask it.
  core::Hierarchy h;
  h.set_parameter("x", 1.0);
  core::FixedPointOptions opts;
  opts.max_iterations = 200;
  try {
    h.solve_fixed_point(
        {{"x",
          [](const core::Hierarchy& hh) {
            return 2.0 * hh.value("x") + 1.0;
          }}},
        opts);
    FAIL() << "expected ConvergenceError";
  } catch (const robust::ConvergenceError& e) {
    EXPECT_FALSE(e.report().converged);
    EXPECT_FALSE(e.report().fallbacks.empty());  // escalations were tried
  }
}

TEST(FixedPointSafeguards, InjectedNanIsRecovered) {
  FaultInjectionScope scope;
  scope->inject_nan("fixed_point.update", 3);

  core::Hierarchy h;
  h.set_parameter("x", 0.0);
  const auto res = h.solve_fixed_point(
      {{"x",
        [](const core::Hierarchy& hh) {
          return 0.5 * hh.value("x") + 1.0;
        }}});
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(h.value("x"), 2.0, 1e-8);
}

// ---- simulator budgets ------------------------------------------------------

TEST(SimulatorBudgets, ReplicationCapStopsEarlyWithValidEstimate) {
  sim::SystemSimulator simulator(
      {{exponential(0.1), exponential(1.0)}},
      [](const std::vector<bool>& s) { return s[0]; });
  FaultInjectionScope scope;
  scope->clamp_iterations("sim.replications", 16);
  const auto est = simulator.availability_at(5.0, 1000, 7);
  EXPECT_EQ(est.replications, 16u);
  EXPECT_TRUE(est.budget_stopped);
  EXPECT_GE(est.mean, 0.0);
  EXPECT_LE(est.mean, 1.0);
  ASSERT_TRUE(robust::has_last_report());
  EXPECT_EQ(robust::last_report().method, "monte-carlo");
}

TEST(SimulatorBudgets, ExpiredDeadlineThrowsConvergenceError) {
  sim::SystemSimulator simulator(
      {{exponential(0.1), exponential(1.0)}},
      [](const std::vector<bool>& s) { return s[0]; });
  const robust::ScopedDeadline expired(robust::Deadline::after_seconds(-1.0));
  EXPECT_THROW(simulator.availability_at(5.0, 1000, 7),
               robust::ConvergenceError);
}

// ---- diagnostics registry ---------------------------------------------------

TEST(Diagnostics, LastReportRecordedForSuccessfulSolve) {
  const auto chain = birth_death_chain(6, 1.0, 2.0);
  robust::SolveReport report;
  chain.steady_state({}, &report);
  EXPECT_TRUE(report.converged);
  EXPECT_EQ(report.method, "gth");  // small chain, dense primary
  ASSERT_TRUE(robust::has_last_report());
  EXPECT_EQ(robust::last_report().method, report.method);
  EXPECT_FALSE(robust::last_report().summary().empty());
}

// ---- solution cache under fault injection -----------------------------------
//
// The cache's contract with the injector: while any fault is armed the
// cache is bypassed in BOTH directions. A lookup must not mask the fault
// with a pre-fault result, and an insert must not launder a faulted (or
// failed, or partial) solve into a "clean" entry future solves replay.

TEST(CacheFaultInteraction, ArmedInjectorBypassesLookupAndInsert) {
  auto& cache = markov::SolutionCache::instance();
  cache.clear();
  // Rates unique to this test so no other test's entry can collide.
  const auto chain = birth_death_chain(10, 0.377, 1.913);

  robust::SolveReport clean;
  chain.steady_state({}, &clean);
  EXPECT_FALSE(clean.cache_hit);
  const std::size_t populated = cache.size();
  EXPECT_GE(populated, 1u);

  robust::SolveReport replay;
  chain.steady_state({}, &replay);
  EXPECT_TRUE(replay.cache_hit);  // idle injector: the entry is served

  {
    FaultInjectionScope scope;
    scope->scale("ctmc.rate", 1.0);  // arm a (numerically inert) fault
    robust::SolveReport armed;
    chain.steady_state({}, &armed);
    // Lookup bypassed: the solve ran instead of replaying the entry...
    EXPECT_FALSE(armed.cache_hit);
    // ...and insert bypassed: the armed solve left no new entry behind.
    EXPECT_EQ(cache.size(), populated);
  }

  robust::SolveReport after;
  chain.steady_state({}, &after);
  EXPECT_TRUE(after.cache_hit);  // the original clean entry survived intact
}

TEST(CacheFaultInteraction, FailedSolveNeverPopulatesCache) {
  auto& cache = markov::SolutionCache::instance();
  cache.clear();
  FaultInjectionScope scope;
  scope->fail_method("sor");
  scope->fail_method("bicgstab");
  scope->fail_method("power");
  scope->fail_method("gth");

  const auto chain = birth_death_chain(8, 0.731, 2.117);
  markov::SteadyStateOptions opts;
  opts.dense_threshold = 0;
  opts.gth_fallback_threshold = 64;
  try {
    chain.steady_state(opts);
    FAIL() << "expected ConvergenceError";
  } catch (const robust::ConvergenceError& e) {
    EXPECT_FALSE(e.partial_result().empty());
  }
  // The failure produced a partial result — and no cache entry.
  EXPECT_EQ(cache.size(), 0u);
}

TEST(CacheFaultInteraction, ExpiredDeadlinePartialIsNotCached) {
  auto& cache = markov::SolutionCache::instance();
  cache.clear();
  const auto chain = birth_death_chain(16, 0.593, 1.733);
  markov::SteadyStateOptions opts;
  opts.dense_threshold = 0;         // force the deadline-checked SOR path
  opts.gth_fallback_threshold = 0;  // no dense last resort
  {
    const robust::ScopedDeadline expired(
        robust::Deadline::after_seconds(-1.0));
    EXPECT_THROW(chain.steady_state(opts), robust::ConvergenceError);
  }
  // Deadline-degraded partials must re-run on retry, never be replayed.
  EXPECT_EQ(cache.size(), 0u);

  // With the deadline lifted the same model solves and caches normally.
  robust::SolveReport report;
  chain.steady_state(opts, &report);
  EXPECT_TRUE(report.converged);
  EXPECT_EQ(cache.size(), 1u);
}

}  // namespace
}  // namespace relkit
