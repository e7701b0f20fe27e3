// Large-state-space smoke solves (ctest label `solver_large`, RUN_SERIAL):
// the 10^5-state banded chain the tutorial's largeness discussion is
// about, solved by forced BiCGSTAB+RCM to the 1e-10 verified residual,
// plus a 10^5-state NCD chain through aggregation-disaggregation. A
// 10^6-state solve is gated behind RELKIT_LARGE=1 so the default tier
// stays fast on small CI machines.
//
// The banded family keeps the stationary vector's dynamic range bounded
// (rates alternate x2 / x0.5, so pi alternates c, 2c, c, 2c, ...), which
// is what real availability models look like — and gives a closed form to
// assert against at any size.
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "markov/ctmc.hpp"
#include "markov/solution_cache.hpp"
#include "robust/report.hpp"
#include "robust/robust.hpp"

using namespace relkit;

namespace {

// Birth-death chain with alternating failure rates {2.0, 0.5} and unit
// repair rate: pi_{i+1} = pi_i * lam_i, so pi = c, 2c, c, 2c, ...
markov::Ctmc alternating_banded(std::size_t n) {
  markov::Ctmc c;
  c.add_states(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    c.add_transition(i, i + 1, (i % 2 == 0) ? 2.0 : 0.5);
    c.add_transition(i + 1, i, 1.0);
  }
  return c;
}

void expect_alternating_closed_form(const std::vector<double>& pi) {
  const std::size_t n = pi.size();
  // Total mass: ceil(n/2) states at c, floor(n/2) at 2c.
  const double c =
      1.0 / static_cast<double>((n + 1) / 2 + 2 * (n / 2));
  for (std::size_t i = 0; i < n; i += n / 97 + 1) {  // sample ~97 states
    const double expect = (i % 2 == 0) ? c : 2.0 * c;
    ASSERT_NEAR(pi[i], expect, 1e-9) << "state " << i;
  }
}

// NCD chain of `blocks` birth-death blocks (size `bs`) ring-coupled at
// 1e-6 — aggregation-disaggregation converges in a handful of sweeps no
// matter how many blocks there are.
markov::Ctmc large_ncd(std::size_t blocks, std::size_t bs) {
  markov::Ctmc c;
  c.add_states(blocks * bs);
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t base = b * bs;
    for (std::size_t i = 0; i + 1 < bs; ++i) {
      c.add_transition(base + i, base + i + 1, 1.0);
      c.add_transition(base + i + 1, base + i, 1.5);
    }
    const std::size_t next = ((b + 1) % blocks) * bs;
    c.add_transition(base, next, 1e-6);
    c.add_transition(next, base, 1e-6);
  }
  return c;
}

}  // namespace

// The headline acceptance check: a 10^5-state sparse banded CTMC solved
// by BiCGSTAB + RCM + ILU0 to a verified 1e-10 residual.
TEST(SolverLarge, Bicgstab100kStatesToTenMinusTen) {
  const std::size_t n = 100000;
  const markov::Ctmc c = alternating_banded(n);
  markov::SteadyStateOptions opts;
  opts.solver = robust::SolverChoice::kBicgstab;
  opts.bicgstab.tol = 1e-10;
  opts.use_cache = false;
  robust::SolveReport report;
  const std::vector<double> pi = c.steady_state(opts, &report);
  EXPECT_EQ(report.method, "bicgstab");
  EXPECT_TRUE(report.converged);
  EXPECT_LT(report.residual, 1e-10);
  ASSERT_EQ(pi.size(), n);
  expect_alternating_closed_form(pi);
}

// 10^5 NCD states (1000 blocks of 100): A/D's sweep count depends on the
// coupling, not the state count.
TEST(SolverLarge, Ad100kStatesNcd) {
  const markov::Ctmc c = large_ncd(1000, 100);
  markov::SteadyStateOptions opts;
  opts.solver = robust::SolverChoice::kAd;
  opts.use_cache = false;
  robust::SolveReport report;
  const std::vector<double> pi = c.steady_state(opts, &report);
  EXPECT_EQ(report.method, "ad");
  EXPECT_TRUE(report.converged);
  EXPECT_LT(report.residual, 1e-10);
  EXPECT_LE(report.iterations, 20u) << "A/D sweeps should not scale with n";
  ASSERT_EQ(pi.size(), 100000u);
}

// The auto fallback chain at 10^5 states: with SOR's sweep budget capped
// (its natural convergence on a chain this long takes minutes — exactly
// the largeness problem), the chain must fall through sor -> bicgstab and
// land on a verified Krylov answer.
TEST(SolverLarge, AutoChainFallsThroughToBicgstabAt100kStates) {
  const std::size_t n = 100000;
  const markov::Ctmc c = alternating_banded(n);
  markov::SteadyStateOptions opts;
  opts.use_cache = false;
  opts.sor.max_iters = 200;  // SOR cannot finish in 200 sweeps
  robust::SolveReport report;
  const std::vector<double> pi = c.steady_state(opts, &report);
  EXPECT_TRUE(report.converged);
  EXPECT_EQ(report.method, "bicgstab");
  EXPECT_FALSE(report.fallbacks.empty());
  ASSERT_EQ(pi.size(), n);
  expect_alternating_closed_form(pi);
}

// 10^6 states: only with RELKIT_LARGE=1 (several seconds and ~10x the
// memory of the default tier).
TEST(SolverLarge, Bicgstab1MStatesGated) {
  const char* gate = std::getenv("RELKIT_LARGE");
  if (gate == nullptr || gate[0] == '\0' || gate[0] == '0') {
    GTEST_SKIP() << "set RELKIT_LARGE=1 to run the 10^6-state solve";
  }
  const std::size_t n = 1000000;
  const markov::Ctmc c = alternating_banded(n);
  markov::SteadyStateOptions opts;
  opts.solver = robust::SolverChoice::kBicgstab;
  opts.bicgstab.tol = 1e-10;
  opts.use_cache = false;
  robust::SolveReport report;
  const std::vector<double> pi = c.steady_state(opts, &report);
  EXPECT_EQ(report.method, "bicgstab");
  EXPECT_LT(report.residual, 1e-10);
  ASSERT_EQ(pi.size(), n);
  expect_alternating_closed_form(pi);
}
