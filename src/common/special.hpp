// Special functions needed by the distribution and uncertainty modules:
// regularized incomplete gamma, regularized incomplete beta, and the
// standard-normal cdf/quantile. Implementations follow the classic
// series/continued-fraction evaluations (Abramowitz & Stegun; Lentz's
// algorithm) with double-precision stopping criteria.
#pragma once

namespace relkit {

/// ln|Gamma(x)|, the value std::lgamma returns. Safe to call from several
/// threads at once: std::lgamma also writes the sign of Gamma(x) to the
/// global `signgam`, a data race when pool workers evaluate a cdf.
double log_gamma(double x);

/// Regularized lower incomplete gamma P(a, x) = gamma(a, x) / Gamma(a),
/// for a > 0, x >= 0. P is the cdf of a Gamma(shape=a, rate=1) variate.
double gamma_p(double a, double x);

/// Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x).
double gamma_q(double a, double x);

/// Regularized incomplete beta I_x(a, b) for a, b > 0 and x in [0, 1];
/// the cdf of a Beta(a, b) variate.
double beta_inc(double a, double b, double x);

/// Standard normal cdf Phi(x).
double normal_cdf(double x);

/// Standard normal quantile Phi^{-1}(p) for p in (0, 1)
/// (Acklam's rational approximation refined with one Halley step).
double normal_quantile(double p);

}  // namespace relkit
