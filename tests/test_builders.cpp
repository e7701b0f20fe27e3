// Tests for the canonical availability-chain builders and the transient
// parametric sensitivity solver.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "markov/builders.hpp"
#include "markov/ctmc.hpp"

namespace relkit::markov {
namespace {

TEST(Builders, TwoStateClosedForm) {
  const Ctmc c = two_state_availability(0.01, 1.0);
  const auto pi = c.steady_state();
  EXPECT_NEAR(pi[c.state_index("up")], 1.0 / 1.01, 1e-13);
  EXPECT_THROW(two_state_availability(0.0, 1.0), InvalidArgument);
}

TEST(Builders, KofNSingleCrewMatchesBirthDeath) {
  const auto model = k_of_n_shared_repair(4, 3, 0.02, 0.5);
  EXPECT_EQ(model.chain.state_count(), 5u);
  // Hand birth-death: state i = #down, birth (4-i) lambda, death mu.
  const auto pi = birth_death_steady_state({4 * 0.02, 3 * 0.02, 2 * 0.02, 0.02},
                                           {0.5, 0.5, 0.5, 0.5});
  // Availability: >= 3 up -> states 0 and 1.
  EXPECT_NEAR(model.availability(), pi[0] + pi[1], 1e-12);
}

TEST(Builders, MoreCrewsImproveAvailability) {
  const auto one = k_of_n_shared_repair(6, 5, 0.05, 0.4, 1);
  const auto two = k_of_n_shared_repair(6, 5, 0.05, 0.4, 2);
  const auto six = k_of_n_shared_repair(6, 5, 0.05, 0.4, 6);
  EXPECT_LT(one.availability(), two.availability());
  EXPECT_LT(two.availability(), six.availability());
  // With n crews and k = n - 1, compare against independent 2-of-... check
  // a sanity bound instead: all availabilities in (0, 1).
  EXPECT_GT(one.availability(), 0.0);
  EXPECT_LT(six.availability(), 1.0);
}

TEST(Builders, KofNValidation) {
  EXPECT_THROW(k_of_n_shared_repair(3, 4, 0.1, 1.0), InvalidArgument);
  EXPECT_THROW(k_of_n_shared_repair(3, 0, 0.1, 1.0), InvalidArgument);
  EXPECT_THROW(k_of_n_shared_repair(3, 2, 0.1, 1.0, 0), InvalidArgument);
}

TEST(Builders, DuplexCoverageMonotoneInCoverage) {
  double prev = 0.0;
  for (double c : {0.8, 0.9, 0.99, 0.999}) {
    const auto model =
        duplex_with_coverage(1e-3, 0.5, c, 100.0, 1.0);
    const double a = model.availability();
    EXPECT_GT(a, prev) << "coverage " << c;
    prev = a;
  }
}

TEST(Builders, DuplexPerfectCoverageHandlesUnreachableState) {
  const auto model = duplex_with_coverage(1e-3, 0.5, 1.0, 100.0, 1.0);
  const double a = model.availability();
  EXPECT_GT(a, 0.999);
  const auto pi = model.chain.steady_state();
  EXPECT_NEAR(pi[model.chain.state_index("uncovered")], 0.0, 1e-15);
  EXPECT_GT(model.downtime_minutes_per_year(), 0.0);
}

TEST(Builders, RejuvenationReducesDowntimeWhenRepairIsSlow) {
  // Aging software, slow full repair: moderate rejuvenation beats none.
  const double aging = 1.0 / 240.0, fail = 1.0 / 120.0, repair = 1.0 / 8.0;
  const double rejuv_done = 6.0;  // 10 minutes
  const auto without = software_rejuvenation(aging, fail, repair, 1e-9,
                                             rejuv_done);
  const auto with = software_rejuvenation(aging, fail, repair, 1.0 / 168.0,
                                          rejuv_done);
  EXPECT_GT(with.availability(), without.availability());
}

TEST(TransientSensitivity, MatchesFiniteDifferenceTwoState) {
  const double lambda = 0.3, mu = 1.2, t = 2.5;
  const Ctmc c = two_state_availability(lambda, mu);
  Matrix dq(2, 2);  // d/dlambda
  dq(0, 0) = -1.0;
  dq(0, 1) = 1.0;
  const auto s = transient_sensitivity(c, dq, c.point_mass(0), t);
  const double h = 1e-6;
  const auto hi = two_state_availability(lambda + h, mu)
                      .transient({1.0, 0.0}, t);
  const auto lo = two_state_availability(lambda - h, mu)
                      .transient({1.0, 0.0}, t);
  EXPECT_NEAR(s[0], (hi[0] - lo[0]) / (2 * h), 1e-6);
  EXPECT_NEAR(s[1], (hi[1] - lo[1]) / (2 * h), 1e-6);
  // Sensitivities over a distribution sum to zero.
  EXPECT_NEAR(s[0] + s[1], 0.0, 1e-12);
}

TEST(TransientSensitivity, ConvergesToSteadyStateSensitivity) {
  const double lambda = 0.4, mu = 1.6;
  const Ctmc c = two_state_availability(lambda, mu);
  Matrix dq(2, 2);
  dq(0, 0) = -1.0;
  dq(0, 1) = 1.0;
  const auto s_t = transient_sensitivity(c, dq, c.point_mass(0), 40.0);
  const auto s_inf = steady_state_sensitivity(c, dq);
  EXPECT_NEAR(s_t[0], s_inf[0], 1e-8);
}

// Past the RK4 step cap the step grows with t; once it leaves RK4's
// stability interval the integration would return NaN, so the solver
// refuses that horizon up front. A capped but stable horizon still matches
// the stationary sensitivity.
TEST(TransientSensitivity, RefusesHorizonsPastRk4Stability) {
  const Ctmc c = two_state_availability(1000.0, 1000.0);
  Matrix dq(2, 2);  // d/d(up -> down rate)
  dq(0, 0) = -1.0;
  dq(0, 1) = 1.0;
  EXPECT_THROW(transient_sensitivity(c, dq, c.point_mass(0), 1e4),
               NumericalError);
  const auto s_t = transient_sensitivity(c, dq, c.point_mass(0), 1000.0);
  const auto s_inf = steady_state_sensitivity(c, dq);
  EXPECT_NEAR(s_t[0], s_inf[0], 1e-9);
  EXPECT_NEAR(s_t[1], s_inf[1], 1e-9);
}

TEST(TransientSensitivity, ZeroAtTimeZeroAndValidation) {
  const Ctmc c = two_state_availability(1.0, 1.0);
  Matrix dq(2, 2);
  dq(0, 0) = -1.0;
  dq(0, 1) = 1.0;
  const auto s = transient_sensitivity(c, dq, c.point_mass(0), 0.0);
  EXPECT_DOUBLE_EQ(s[0], 0.0);
  Matrix bad(2, 2);
  bad(0, 0) = 1.0;
  EXPECT_THROW(transient_sensitivity(c, bad, c.point_mass(0), 1.0),
               InvalidArgument);
}

}  // namespace
}  // namespace relkit::markov
