// Unit + property tests for CTMC solvers: steady state, uniformization
// transient vs matrix exponential, cumulative rewards, absorbing analysis,
// sensitivities, birth-death closed forms.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "markov/ctmc.hpp"

namespace relkit::markov {
namespace {

// The tutorial's canonical 2-state availability model.
Ctmc two_state(double lambda, double mu) {
  Ctmc c;
  const StateId up = c.add_state("up");
  const StateId down = c.add_state("down");
  c.add_transition(up, down, lambda);
  c.add_transition(down, up, mu);
  return c;
}

TEST(CtmcBasics, StateManagement) {
  Ctmc c;
  const StateId a = c.add_state("a");
  EXPECT_EQ(c.state_index("a"), a);
  EXPECT_EQ(c.state_name(a), "a");
  EXPECT_THROW(c.state_index("nope"), InvalidArgument);
  EXPECT_THROW(c.add_state("a"), InvalidArgument);
  EXPECT_THROW(c.add_transition(a, a, 1.0), InvalidArgument);
  EXPECT_TRUE(c.is_absorbing(a));
}

TEST(CtmcNaming, AnonymousStatesAnswerToImpliedNames) {
  Ctmc c;
  EXPECT_EQ(c.add_states(5), 0u);
  EXPECT_EQ(c.state_count(), 5u);
  for (StateId k = 0; k < 5; ++k) {
    EXPECT_EQ(c.state_name(k), "s" + std::to_string(k));
    EXPECT_EQ(c.state_index("s" + std::to_string(k)), k);
  }
  // Only the exact spelling of an implied name resolves.
  EXPECT_THROW(c.state_index("s5"), InvalidArgument);
  EXPECT_THROW(c.state_index("s01"), InvalidArgument);
  EXPECT_THROW(c.state_index("s"), InvalidArgument);
  EXPECT_THROW(c.state_index("s-1"), InvalidArgument);
  EXPECT_THROW(c.state_index("S1"), InvalidArgument);
  EXPECT_THROW(c.state_name(5), InvalidArgument);
  EXPECT_THROW(c.add_states(0), InvalidArgument);
}

TEST(CtmcNaming, MixedNamedAndAnonymousStates) {
  Ctmc c;
  const StateId up = c.add_state("up");
  EXPECT_EQ(c.add_states(2), 1u);
  const StateId down = c.add_state("down");
  const StateId s4 = c.add_state("s4");  // its own implied name
  EXPECT_EQ(c.add_states(1), 5u);
  EXPECT_EQ(c.state_count(), 6u);
  const std::vector<std::string> names{"up", "s1", "s2", "down", "s4", "s5"};
  for (StateId k = 0; k < names.size(); ++k) {
    EXPECT_EQ(c.state_name(k), names[k]);
    EXPECT_EQ(c.state_index(names[k]), k);
  }
  EXPECT_EQ(up, 0u);
  EXPECT_EQ(down, 3u);
  EXPECT_EQ(s4, 4u);
  // A named state's implied name is not an alias.
  EXPECT_THROW(c.state_index("s0"), InvalidArgument);
  EXPECT_THROW(c.state_index("s3"), InvalidArgument);
  c.add_transition(up, 2, 1.0);
  c.add_transition(2, up, 2.0);
  EXPECT_EQ(c.exit_rate(2), 2.0);
}

TEST(CtmcNaming, DuplicateImpliedNamesThrowWhicheverCameFirst) {
  {
    Ctmc c;
    c.add_states(5);
    try {
      c.add_state("s3");
      ADD_FAILURE() << "duplicate of an implied name accepted";
    } catch (const InvalidArgument& e) {
      EXPECT_STREQ(e.what(), "Ctmc::add_state: duplicate state 's3'");
    }
    EXPECT_EQ(c.state_count(), 5u);
    EXPECT_EQ(c.add_state("s5"), 5u);
    EXPECT_THROW(c.add_state("s5"), InvalidArgument);
  }
  {
    Ctmc c;
    EXPECT_EQ(c.add_state("s3"), 0u);
    try {
      c.add_states(5);
      ADD_FAILURE() << "implied name clashing with a stored one accepted";
    } catch (const InvalidArgument& e) {
      EXPECT_STREQ(e.what(), "Ctmc::add_state: duplicate state 's3'");
    }
    // Nothing was added; states up to s2 do not clash.
    EXPECT_EQ(c.state_count(), 1u);
    EXPECT_EQ(c.add_states(2), 1u);
    EXPECT_THROW(c.add_states(1), InvalidArgument);
    EXPECT_EQ(c.add_state("x"), 3u);  // a named state 3 takes no implied name
    EXPECT_EQ(c.add_states(1), 4u);
    EXPECT_EQ(c.state_index("s3"), 0u);
    EXPECT_EQ(c.state_index("s4"), 4u);
  }
}

TEST(CtmcSteady, TwoStateAvailability) {
  const double lambda = 1.0 / 1000.0, mu = 1.0 / 4.0;
  const Ctmc c = two_state(lambda, mu);
  const auto pi = c.steady_state();
  EXPECT_NEAR(pi[0], mu / (lambda + mu), 1e-14);
  EXPECT_NEAR(pi[1], lambda / (lambda + mu), 1e-14);
}

TEST(CtmcSteady, MatchesBirthDeathClosedForm) {
  // M/M/2/5-like chain.
  const std::vector<double> birth{3.0, 3.0, 3.0, 3.0, 3.0};
  const std::vector<double> death{2.0, 4.0, 4.0, 4.0, 4.0};
  Ctmc c;
  c.add_states(6);
  for (std::size_t i = 0; i < 5; ++i) {
    c.add_transition(i, i + 1, birth[i]);
    c.add_transition(i + 1, i, death[i]);
  }
  const auto pi = c.steady_state();
  const auto closed = birth_death_steady_state(birth, death);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_NEAR(pi[i], closed[i], 1e-13);
}

TEST(CtmcSteady, LargeChainUsesSorAndMatchesGth) {
  // 700-state birth-death chain exceeds the dense threshold (512).
  const std::size_t n = 700;
  Ctmc c;
  c.add_states(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    c.add_transition(i, i + 1, 1.0);
    c.add_transition(i + 1, i, 1.3);
  }
  const auto pi_sor = c.steady_state();  // SOR path
  SteadyStateOptions dense_opts;
  dense_opts.dense_threshold = 1024;
  const auto pi_gth = c.steady_state(dense_opts);  // GTH path
  for (std::size_t i = 0; i < n; i += 37) {
    EXPECT_NEAR(pi_sor[i], pi_gth[i], 1e-8) << "state " << i;
  }
}

TEST(CtmcTransient, MatchesMatrixExponential) {
  Rng rng(31);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t n = 3 + rng.below(3);
    Ctmc c;
    c.add_states(n);
    Matrix q(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        if (rng.uniform() < 0.7) {
          const double rate = 0.1 + 3.0 * rng.uniform();
          c.add_transition(i, j, rate);
          q(i, j) = rate;
          q(i, i) -= rate;
        }
      }
    }
    const double t = 0.5 + 2.0 * rng.uniform();
    const Matrix p = expm(q * t);
    const auto pi = c.transient(c.point_mass(0), t);
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(pi[j], p(0, j), 1e-9) << "trial " << trial << " j " << j;
    }
  }
}

TEST(CtmcTransient, TwoStateClosedForm) {
  const double lambda = 0.5, mu = 2.0;
  const Ctmc c = two_state(lambda, mu);
  for (double t : {0.0, 0.1, 0.5, 1.0, 5.0, 50.0}) {
    const auto pi = c.transient(c.point_mass(0), t);
    const double a = mu / (lambda + mu) +
                     lambda / (lambda + mu) * std::exp(-(lambda + mu) * t);
    EXPECT_NEAR(pi[0], a, 1e-11) << "t=" << t;
  }
}

TEST(CtmcTransient, StiffChainLargeQt) {
  // Fast repair (mu = 1e4) over long horizon: qt ~ 1e6.
  const Ctmc c = two_state(1.0, 1e4);
  const auto pi = c.transient(c.point_mass(0), 100.0);
  EXPECT_NEAR(pi[0], 1e4 / (1e4 + 1.0), 1e-9);
  double s = 0.0;
  for (double x : pi) s += x;
  EXPECT_NEAR(s, 1.0, 1e-10);
}

TEST(CtmcTransient, ValidatesDistribution) {
  const Ctmc c = two_state(1.0, 1.0);
  EXPECT_THROW(c.transient({0.5, 0.4}, 1.0), InvalidArgument);
  EXPECT_THROW(c.transient({1.0}, 1.0), InvalidArgument);
  EXPECT_THROW(c.transient(c.point_mass(0), -1.0), InvalidArgument);
}

TEST(CtmcCumulative, TotalTimeSumsToHorizon) {
  const Ctmc c = two_state(0.3, 1.1);
  const double t = 7.0;
  const auto acc = c.cumulative_time(c.point_mass(0), t);
  EXPECT_NEAR(acc[0] + acc[1], t, 1e-9);
  // Starting up, time in up exceeds steady-state share.
  const auto pi = c.steady_state();
  EXPECT_GT(acc[0] / t, pi[0]);
}

TEST(CtmcCumulative, MatchesQuadratureOfTransient) {
  const Ctmc c = two_state(0.8, 1.7);
  const double t = 3.0;
  const auto acc = c.cumulative_time(c.point_mass(0), t);
  // Riemann check of integral of pi_up(u) du.
  double integral = 0.0;
  const int steps = 2000;
  for (int i = 0; i < steps; ++i) {
    const double u = (i + 0.5) * t / steps;
    integral += c.transient(c.point_mass(0), u)[0] * t / steps;
  }
  EXPECT_NEAR(acc[0], integral, 1e-4);
}

TEST(CtmcAbsorbing, TwoComponentSeriesMttf) {
  // Two units in series, rates l1 l2, no repair: MTTF = 1/(l1+l2).
  Ctmc c;
  const StateId up = c.add_state("up");
  const StateId fail = c.add_state("fail");
  c.add_transition(up, fail, 0.004);
  const auto res = c.absorbing_analysis(c.point_mass(up));
  EXPECT_NEAR(res.mean_time_to_absorption, 250.0, 1e-9);
  EXPECT_NEAR(res.absorption_probability[fail], 1.0, 1e-12);
}

TEST(CtmcAbsorbing, DuplexWithRepairMttf) {
  // Classic duplex: 2 units, repair one at a time. States 2,1,0 (0 absorb).
  // MTTF from state 2 = (3*lambda + mu) / (2*lambda^2)  [standard formula].
  const double lambda = 0.01, mu = 1.0;
  Ctmc c;
  const StateId s2 = c.add_state("2up");
  const StateId s1 = c.add_state("1up");
  const StateId s0 = c.add_state("0up");
  c.add_transition(s2, s1, 2 * lambda);
  c.add_transition(s1, s0, lambda);
  c.add_transition(s1, s2, mu);
  const auto res = c.absorbing_analysis(c.point_mass(s2));
  const double expect = (3 * lambda + mu) / (2 * lambda * lambda);
  EXPECT_NEAR(res.mean_time_to_absorption, expect, expect * 1e-10);
}

TEST(CtmcAbsorbing, CompetingAbsorptionProbabilities) {
  // From s, rates a to A and b to B: P(A) = a/(a+b).
  Ctmc c;
  const StateId s = c.add_state("s");
  const StateId a = c.add_state("A");
  const StateId b = c.add_state("B");
  c.add_transition(s, a, 3.0);
  c.add_transition(s, b, 1.0);
  const auto res = c.absorbing_analysis(c.point_mass(s));
  EXPECT_NEAR(res.absorption_probability[a], 0.75, 1e-12);
  EXPECT_NEAR(res.absorption_probability[b], 0.25, 1e-12);
  EXPECT_NEAR(res.mean_time_to_absorption, 0.25, 1e-12);
}

TEST(CtmcAbsorbing, ErrorsOnBadInputs) {
  Ctmc ergodic = two_state(1.0, 1.0);
  EXPECT_THROW(ergodic.absorbing_analysis(ergodic.point_mass(0)), ModelError);

  Ctmc c;
  const StateId s = c.add_state("s");
  const StateId a = c.add_state("a");
  c.add_transition(s, a, 1.0);
  // Mass on absorbing state rejected.
  EXPECT_THROW(c.absorbing_analysis(c.point_mass(a)), ModelError);
}

TEST(CtmcSurvival, MatchesClosedFormExponential) {
  Ctmc c;
  const StateId up = c.add_state("up");
  const StateId down = c.add_state("down");
  c.add_transition(up, down, 0.02);
  for (double t : {1.0, 10.0, 100.0}) {
    EXPECT_NEAR(c.survival(c.point_mass(up), t), std::exp(-0.02 * t), 1e-10);
  }
}

TEST(Rewards, AvailabilityAsRewardRate) {
  const double lambda = 0.001, mu = 0.1;
  const Ctmc c = two_state(lambda, mu);
  const std::vector<double> up{1.0, 0.0};
  EXPECT_NEAR(reward_rate_steady(c, up), mu / (lambda + mu), 1e-13);
  EXPECT_NEAR(reward_rate_at(c, up, c.point_mass(0), 0.0), 1.0, 1e-13);
  const double ia = interval_availability(c, up, c.point_mass(0), 100.0);
  EXPECT_GT(ia, mu / (lambda + mu));  // starts up => above steady state
  EXPECT_LE(ia, 1.0);
}

TEST(Rewards, AccumulatedRewardLinearInRates) {
  const Ctmc c = two_state(0.5, 0.5);
  const std::vector<double> r{2.0, 0.0};
  const double acc = accumulated_reward(c, r, c.point_mass(0), 10.0);
  const double time_up = c.cumulative_time(c.point_mass(0), 10.0)[0];
  EXPECT_NEAR(acc, 2.0 * time_up, 1e-12);
}

TEST(Sensitivity, TwoStateClosedFormDerivative) {
  // pi_up = mu/(lambda+mu); d pi_up / d lambda = -mu/(lambda+mu)^2.
  const double lambda = 0.4, mu = 1.6;
  const Ctmc c = two_state(lambda, mu);
  Matrix dq(2, 2);  // dQ/dlambda
  dq(0, 0) = -1.0;
  dq(0, 1) = 1.0;
  const auto s = steady_state_sensitivity(c, dq);
  const double expect = -mu / ((lambda + mu) * (lambda + mu));
  EXPECT_NEAR(s[0], expect, 1e-12);
  EXPECT_NEAR(s[1], -expect, 1e-12);
}

TEST(Sensitivity, FiniteDifferenceAgreement) {
  const double lambda = 0.3, mu = 2.0;
  Matrix dq(2, 2);
  dq(1, 0) = 1.0;
  dq(1, 1) = -1.0;  // dQ/dmu
  const auto s = steady_state_sensitivity(two_state(lambda, mu), dq);
  const double h = 1e-6;
  const auto hi = two_state(lambda, mu + h).steady_state();
  const auto lo = two_state(lambda, mu - h).steady_state();
  EXPECT_NEAR(s[0], (hi[0] - lo[0]) / (2 * h), 1e-6);
}

TEST(Sensitivity, RejectsBadDq) {
  const Ctmc c = two_state(1.0, 1.0);
  Matrix dq(2, 2);
  dq(0, 0) = 1.0;  // row sum != 0
  EXPECT_THROW(steady_state_sensitivity(c, dq), InvalidArgument);
}

TEST(BirthDeath, ValidatesInput) {
  EXPECT_THROW(birth_death_steady_state({1.0}, {}), InvalidArgument);
  EXPECT_THROW(birth_death_steady_state({0.0}, {1.0}), InvalidArgument);
}

// Property: transient distribution converges to the stationary one.
class ConvergenceSweep : public ::testing::TestWithParam<double> {};

TEST_P(ConvergenceSweep, TransientApproachesSteadyState) {
  const double lambda = GetParam();
  Ctmc c;
  c.add_states(4);
  // Ring with asymmetric rates.
  for (std::size_t i = 0; i < 4; ++i) {
    c.add_transition(i, (i + 1) % 4, lambda);
    c.add_transition(i, (i + 3) % 4, 0.4);
  }
  const auto pi_inf = c.steady_state();
  const auto pi_t = c.transient(c.point_mass(0), 200.0 / lambda);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(pi_t[i], pi_inf[i], 1e-7) << "state " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Rates, ConvergenceSweep,
                         ::testing::Values(0.1, 1.0, 10.0, 100.0));

}  // namespace
}  // namespace relkit::markov
