// Unit tests for src/common: matrices, sparse algebra, linear solvers,
// special functions, Poisson weights, quadrature, statistics.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/interval.hpp"
#include "common/linsolve.hpp"
#include "common/matrix.hpp"
#include "common/poisson_weights.hpp"
#include "common/quadrature.hpp"
#include "common/rng.hpp"
#include "common/sparse.hpp"
#include "common/special.hpp"
#include "common/statistics.hpp"

namespace relkit {
namespace {

TEST(Matrix, IdentityAndProduct) {
  Matrix a(2, 3);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(0, 2) = 3;
  a(1, 0) = 4;
  a(1, 1) = 5;
  a(1, 2) = 6;
  const Matrix i3 = Matrix::identity(3);
  const Matrix p = a * i3;
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(p(r, c), a(r, c));
  }
}

TEST(Matrix, MatVecAndTranspose) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 3;
  a(1, 1) = 4;
  const std::vector<double> y = a * std::vector<double>{1.0, 1.0};
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
  const Matrix at = a.transposed();
  EXPECT_DOUBLE_EQ(at(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(at(1, 0), 2.0);
}

TEST(Matrix, ShapeMismatchThrows) {
  Matrix a(2, 3), b(2, 3);
  EXPECT_THROW(a * b, InvalidArgument);
  EXPECT_THROW(a += Matrix(3, 2), InvalidArgument);
}

TEST(LuSolve, SolvesWellConditionedSystem) {
  Matrix a(3, 3);
  const double vals[3][3] = {{4, 1, 0}, {1, 5, 2}, {0, 2, 6}};
  for (int r = 0; r < 3; ++r)
    for (int c = 0; c < 3; ++c) a(r, c) = vals[r][c];
  const std::vector<double> x = lu_solve(a, {5.0, 8.0, 8.0});
  // Verify A x = b.
  const std::vector<double> back = a * x;
  EXPECT_NEAR(back[0], 5.0, 1e-12);
  EXPECT_NEAR(back[1], 8.0, 1e-12);
  EXPECT_NEAR(back[2], 8.0, 1e-12);
}

TEST(LuSolve, SingularThrows) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 4;
  EXPECT_THROW(lu_solve(a, {1.0, 2.0}), NumericalError);
}

TEST(Inverse, RoundTrips) {
  Matrix a(2, 2);
  a(0, 0) = 2;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 3;
  const Matrix inv = inverse(a);
  const Matrix prod = a * inv;
  EXPECT_NEAR(prod(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(prod(1, 1), 1.0, 1e-12);
  EXPECT_NEAR(prod(0, 1), 0.0, 1e-12);
  EXPECT_NEAR(prod(1, 0), 0.0, 1e-12);
}

TEST(Expm, MatchesScalarExponential) {
  Matrix a(1, 1);
  a(0, 0) = -2.5;
  const Matrix e = expm(a);
  EXPECT_NEAR(e(0, 0), std::exp(-2.5), 1e-12);
}

TEST(Expm, NilpotentMatrix) {
  // exp([[0,1],[0,0]]) = [[1,1],[0,1]].
  Matrix a(2, 2);
  a(0, 1) = 1.0;
  const Matrix e = expm(a);
  EXPECT_NEAR(e(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(e(0, 1), 1.0, 1e-12);
  EXPECT_NEAR(e(1, 0), 0.0, 1e-12);
  EXPECT_NEAR(e(1, 1), 1.0, 1e-12);
}

TEST(Expm, GeneratorRowsStaySummedToOne) {
  // exp(Qt) of a generator is a stochastic matrix.
  Matrix q(3, 3);
  q(0, 0) = -3;
  q(0, 1) = 2;
  q(0, 2) = 1;
  q(1, 0) = 4;
  q(1, 1) = -5;
  q(1, 2) = 1;
  q(2, 0) = 0.5;
  q(2, 1) = 0.5;
  q(2, 2) = -1;
  const Matrix p = expm(q * 0.7);
  for (int r = 0; r < 3; ++r) {
    double s = 0.0;
    for (int c = 0; c < 3; ++c) {
      EXPECT_GE(p(r, c), -1e-12);
      s += p(r, c);
    }
    EXPECT_NEAR(s, 1.0, 1e-10);
  }
}

TEST(Sparse, BuildSumsDuplicatesAndSorts) {
  SparseBuilder b(2, 3);
  b.add(0, 2, 1.0);
  b.add(0, 0, 2.0);
  b.add(0, 2, 3.0);
  b.add(1, 1, -1.0);
  const SparseMatrix m = b.build();
  EXPECT_EQ(m.nnz(), 3u);
  EXPECT_DOUBLE_EQ(m.at(0, 2), 4.0);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), -1.0);
}

TEST(Sparse, DuplicatesSumInInsertionOrder) {
  // Floating-point addition is not associative: the two insertion orders
  // below give different doubles, and each must come out as added.
  SparseBuilder b(2, 2);
  b.add(0, 1, 1e16);
  b.add(1, 0, 1e16);
  b.add(0, 1, -1e16);
  b.add(1, 0, 1.0);
  b.add(0, 1, 1.0);
  b.add(1, 0, -1e16);
  const SparseMatrix m = b.build();
  EXPECT_EQ(m.at(0, 1), (0.0 + 1e16 + -1e16) + 1.0);  // 1
  EXPECT_EQ(m.at(1, 0), (0.0 + 1e16 + 1.0) + -1e16);  // 0 (1 is absorbed)
  EXPECT_EQ(m.at(0, 1), 1.0);
  // A row whose duplicates cancel keeps no entry.
  EXPECT_EQ(m.nnz(), 1u);
  EXPECT_EQ(m.row_begin(1), m.row_end(1));
}

TEST(Sparse, ZeroSumsDroppedAndEmptyRowsKept) {
  SparseBuilder b(5, 4);
  b.add(3, 2, 1.5);
  b.add(1, 3, 2.0);
  b.add(1, 0, 4.0);
  b.add(3, 2, -1.5);
  b.add(1, 3, 0.0);  // zero adds are ignored outright
  const SparseMatrix m = b.build();
  EXPECT_EQ(m.rows(), 5u);
  EXPECT_EQ(m.nnz(), 2u);
  for (const std::size_t r : {0u, 2u, 3u, 4u}) {
    EXPECT_EQ(m.row_begin(r), m.row_end(r)) << "row " << r;
  }
  ASSERT_EQ(m.row_end(1) - m.row_begin(1), 2u);
  EXPECT_EQ(m.col(m.row_begin(1)), 0u);
  EXPECT_EQ(m.value(m.row_begin(1)), 4.0);
  EXPECT_EQ(m.col(m.row_begin(1) + 1), 3u);
  EXPECT_EQ(m.value(m.row_begin(1) + 1), 2.0);
  // The builder is left empty and reusable.
  b.add(4, 1, 3.0);
  const SparseMatrix again = b.build();
  EXPECT_EQ(again.nnz(), 1u);
  EXPECT_EQ(again.at(4, 1), 3.0);
  const SparseMatrix empty = SparseBuilder(3, 3).build();
  EXPECT_EQ(empty.nnz(), 0u);
  EXPECT_EQ(empty.row_end(2), 0u);
}

TEST(Sparse, LongRowsKeepDuplicateOrder) {
  // Rows long enough that a comparison sort would reorder equal keys. Each
  // entry receives 1e16, -1e16 and 1 in that order, which sums to 1; four
  // of the other five orders sum to 0 and would drop the entry.
  constexpr std::size_t kCols = 64;
  SparseBuilder b(3, kCols);
  for (const double v : {1e16, -1e16, 1.0}) {
    for (std::size_t i = 0; i < kCols; ++i) {
      const std::size_t spread = v == 1.0 ? 37 : v > 0.0 ? 11 : 23;
      b.add(1, (spread * i) % kCols, v);
      b.add(0, (kCols - 1 - i + (v < 0.0 ? 5 : 0)) % kCols, v);
    }
  }
  const SparseMatrix m = b.build();
  EXPECT_EQ(m.nnz(), 2 * kCols);
  for (const std::size_t r : {0u, 1u}) {
    ASSERT_EQ(m.row_end(r) - m.row_begin(r), kCols) << "row " << r;
    for (std::size_t c = 0; c < kCols; ++c) {
      const std::size_t k = m.row_begin(r) + c;
      EXPECT_EQ(m.col(k), c);
      EXPECT_EQ(m.value(k), 1.0) << "row " << r << " col " << c;
    }
  }
}

TEST(Sparse, OutOfRangeAddThrows) {
  SparseBuilder b(2, 3);
  EXPECT_THROW(b.add(2, 0, 1.0), InvalidArgument);
  EXPECT_THROW(b.add(0, 3, 1.0), InvalidArgument);
  try {
    b.add(5, 5, 1.0);
  } catch (const InvalidArgument& e) {
    EXPECT_STREQ(e.what(), "SparseBuilder::add: out of range");
  }
}

TEST(Sparse, MultiplyBothSides) {
  SparseBuilder b(2, 2);
  b.add(0, 0, 1.0);
  b.add(0, 1, 2.0);
  b.add(1, 0, 3.0);
  const SparseMatrix m = b.build();
  const auto y = m.multiply({1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 3.0);
  const auto z = m.multiply_left({1.0, 1.0});
  EXPECT_DOUBLE_EQ(z[0], 4.0);
  EXPECT_DOUBLE_EQ(z[1], 2.0);
}

TEST(Sparse, TransposeRoundTrip) {
  SparseBuilder b(3, 2);
  b.add(2, 0, 5.0);
  b.add(0, 1, 7.0);
  const SparseMatrix m = b.build();
  const SparseMatrix t = m.transposed();
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_DOUBLE_EQ(t.at(0, 2), 5.0);
  EXPECT_DOUBLE_EQ(t.at(1, 0), 7.0);
}

TEST(Gth, TwoStateAvailabilityClosedForm) {
  // up --lambda--> down --mu--> up : pi_up = mu / (lambda + mu).
  const double lambda = 0.01, mu = 2.0;
  Matrix q(2, 2);
  q(0, 0) = -lambda;
  q(0, 1) = lambda;
  q(1, 0) = mu;
  q(1, 1) = -mu;
  const auto pi = gth_steady_state(q);
  EXPECT_NEAR(pi[0], mu / (lambda + mu), 1e-14);
  EXPECT_NEAR(pi[1], lambda / (lambda + mu), 1e-14);
}

TEST(Gth, ReducibleChainThrows) {
  Matrix q(2, 2);  // state 1 absorbing, unreachable back edges
  q(0, 0) = -1.0;
  q(0, 1) = 1.0;
  EXPECT_THROW(gth_steady_state(q), NumericalError);
}

TEST(Gth, DtmcStationary) {
  Matrix p(2, 2);
  p(0, 0) = 0.9;
  p(0, 1) = 0.1;
  p(1, 0) = 0.5;
  p(1, 1) = 0.5;
  const auto pi = gth_steady_state_dtmc(p);
  // pi = pi P: pi0 = 5/6, pi1 = 1/6.
  EXPECT_NEAR(pi[0], 5.0 / 6.0, 1e-13);
  EXPECT_NEAR(pi[1], 1.0 / 6.0, 1e-13);
}

TEST(Sor, MatchesGthOnBirthDeath) {
  // M/M/1/K birth-death chain: arrival 1.2, service 2.0, K = 20.
  const std::size_t n = 21;
  const double lam = 1.2, mu = 2.0;
  Matrix q(n, n);
  SparseBuilder bt(n, n);  // transposed builder
  std::vector<double> diag(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 1 < n) {
      q(i, i + 1) = lam;
      q(i, i) -= lam;
      bt.add(i + 1, i, lam);
    }
    if (i > 0) {
      q(i, i - 1) = mu;
      q(i, i) -= mu;
      bt.add(i - 1, i, mu);
    }
    diag[i] = q(i, i);
  }
  const auto exact = gth_steady_state(q);
  const auto sor = sor_steady_state(bt.build(), diag);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(sor.pi[i], exact[i], 1e-9) << "state " << i;
  }
}

TEST(Power, DtmcStationaryMatchesGth) {
  Matrix p(3, 3);
  p(0, 0) = 0.5;
  p(0, 1) = 0.3;
  p(0, 2) = 0.2;
  p(1, 0) = 0.1;
  p(1, 1) = 0.8;
  p(1, 2) = 0.1;
  p(2, 0) = 0.3;
  p(2, 1) = 0.3;
  p(2, 2) = 0.4;
  SparseBuilder b(3, 3);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c) b.add(r, c, p(r, c));
  const auto pi_pow = power_steady_state(b.build());
  const auto pi_gth = gth_steady_state_dtmc(p);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(pi_pow[i], pi_gth[i], 1e-10);
}

TEST(Special, GammaPAgainstKnownValues) {
  // P(1, x) = 1 - e^-x.
  for (double x : {0.1, 1.0, 5.0, 20.0}) {
    EXPECT_NEAR(gamma_p(1.0, x), 1.0 - std::exp(-x), 1e-12);
  }
  // P(0.5, x) = erf(sqrt(x)).
  for (double x : {0.25, 1.0, 4.0}) {
    EXPECT_NEAR(gamma_p(0.5, x), std::erf(std::sqrt(x)), 1e-12);
  }
  EXPECT_NEAR(gamma_p(3.0, 2.0) + gamma_q(3.0, 2.0), 1.0, 1e-14);
}

TEST(Special, BetaIncSymmetryAndUniform) {
  // I_x(1,1) = x.
  for (double x : {0.1, 0.5, 0.9}) {
    EXPECT_NEAR(beta_inc(1.0, 1.0, x), x, 1e-12);
  }
  // Symmetry I_x(a,b) = 1 - I_{1-x}(b,a).
  EXPECT_NEAR(beta_inc(2.5, 1.5, 0.3), 1.0 - beta_inc(1.5, 2.5, 0.7), 1e-12);
}

TEST(Special, NormalQuantileInvertsCdf) {
  for (double p : {0.001, 0.025, 0.5, 0.84, 0.999}) {
    EXPECT_NEAR(normal_cdf(normal_quantile(p)), p, 1e-10);
  }
  EXPECT_NEAR(normal_quantile(0.975), 1.959963985, 1e-6);
}

TEST(PoissonWeights, SmallLambdaMatchesDirectPmf) {
  const double lambda = 3.0;
  const PoissonWeights pw = poisson_weights(lambda, 1e-14);
  double checked = 0.0;
  for (std::size_t i = 0; i < pw.weights.size(); ++i) {
    const auto n = pw.left + i;
    const double pmf = std::exp(-lambda + static_cast<double>(n) * std::log(lambda) -
                                std::lgamma(static_cast<double>(n) + 1.0));
    EXPECT_NEAR(pw.weights[i], pmf, 1e-10);
    checked += pw.weights[i];
  }
  EXPECT_NEAR(checked, 1.0, 1e-12);
}

TEST(PoissonWeights, HugeLambdaStable) {
  // e^{-lambda} underflows for lambda > ~745; the window must still be sane.
  const PoissonWeights pw = poisson_weights(1.0e5);
  double total = 0.0;
  double mean = 0.0;
  for (std::size_t i = 0; i < pw.weights.size(); ++i) {
    total += pw.weights[i];
    mean += pw.weights[i] * static_cast<double>(pw.left + i);
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_NEAR(mean, 1.0e5, 1.0);  // Poisson mean = lambda
  EXPECT_LT(pw.weights.size(), 10000u);
}

// Property: across a wide lambda sweep, weights match the direct pmf where
// representable and always form a distribution centred at lambda.
class PoissonSweep : public ::testing::TestWithParam<double> {};

TEST_P(PoissonSweep, WindowIsAProperDistribution) {
  const double lambda = GetParam();
  const PoissonWeights pw = poisson_weights(lambda, 1e-12);
  double total = 0.0, mean = 0.0, m2 = 0.0;
  for (std::size_t i = 0; i < pw.weights.size(); ++i) {
    const double n = static_cast<double>(pw.left + i);
    EXPECT_GE(pw.weights[i], 0.0);
    total += pw.weights[i];
    mean += pw.weights[i] * n;
    m2 += pw.weights[i] * n * n;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_NEAR(mean, lambda, 1e-6 * lambda + 1e-6);
  // Poisson variance = lambda.
  EXPECT_NEAR(m2 - mean * mean, lambda, 2e-3 * lambda + 1e-4);
  // Window size is O(sqrt(lambda)), not O(lambda).
  EXPECT_LT(static_cast<double>(pw.weights.size()),
            40.0 * std::sqrt(lambda) + 60.0);
}

INSTANTIATE_TEST_SUITE_P(Lambdas, PoissonSweep,
                         ::testing::Values(0.1, 1.0, 10.0, 100.0, 5000.0,
                                           1.0e6),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "l" + std::to_string(static_cast<long>(
                                            info.param * 10));
                         });

TEST(PoissonWeights, ZeroLambda) {
  const PoissonWeights pw = poisson_weights(0.0);
  ASSERT_EQ(pw.weights.size(), 1u);
  EXPECT_EQ(pw.left, 0u);
  EXPECT_DOUBLE_EQ(pw.weights[0], 1.0);
}

TEST(Quadrature, PolynomialExact) {
  const double v = integrate([](double x) { return 3.0 * x * x; }, 0.0, 2.0);
  EXPECT_NEAR(v, 8.0, 1e-9);
}

TEST(Quadrature, ExponentialTailToInfinity) {
  // integral of e^{-2t} over [0, inf) = 0.5 — the MTTF integral pattern.
  const double v =
      integrate_to_inf([](double t) { return std::exp(-2.0 * t); });
  EXPECT_NEAR(v, 0.5, 1e-8);
}

TEST(Quadrature, WeibullMeanViaSurvivalIntegral) {
  // E[X] = integral of R(t); Weibull(2, 1) mean = Gamma(1.5).
  const double v = integrate_to_inf(
      [](double t) { return std::exp(-t * t); });
  EXPECT_NEAR(v, std::tgamma(1.5), 1e-8);
}

TEST(Rng, DeterministicAndUniformRange) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double up = r.uniform_pos();
    EXPECT_GT(up, 0.0);
    EXPECT_LE(up, 1.0);
  }
}

TEST(Rng, BelowIsInRangeAndCoversValues) {
  Rng r(11);
  bool seen[5] = {false, false, false, false, false};
  for (int i = 0; i < 500; ++i) {
    const auto v = r.below(5);
    ASSERT_LT(v, 5u);
    seen[v] = true;
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(OnlineStatsTest, MeanVarianceAndCi) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_GT(s.ci_halfwidth(0.95), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(PercentileTest, InterpolatesSorted) {
  std::vector<double> v{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 2.0);
}

TEST(IntervalTest, ArithmeticAndInvariants) {
  const Interval a(0.2, 0.4), b(0.1, 0.3);
  EXPECT_DOUBLE_EQ((a + b).lo, 0.3);
  EXPECT_DOUBLE_EQ((a + b).hi, 0.7);
  EXPECT_DOUBLE_EQ((a * b).lo, 0.2 * 0.1);
  EXPECT_DOUBLE_EQ((a * b).hi, 0.4 * 0.3);
  EXPECT_DOUBLE_EQ(a.complement().lo, 0.6);
  EXPECT_DOUBLE_EQ(a.complement().hi, 0.8);
  EXPECT_THROW(Interval(0.5, 0.4), InvalidArgument);
  const Interval c = a.intersect(Interval(0.3, 0.9));
  EXPECT_DOUBLE_EQ(c.lo, 0.3);
  EXPECT_DOUBLE_EQ(c.hi, 0.4);
}

}  // namespace
}  // namespace relkit
