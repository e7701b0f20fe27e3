#include "common/special.hpp"

#include <math.h>  // lgamma_r

#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace relkit {

double log_gamma(double x) {
  int sign = 0;
  return ::lgamma_r(x, &sign);
}

namespace {

constexpr int kMaxIter = 500;
constexpr double kEps = 3.0e-15;
constexpr double kFpMin = std::numeric_limits<double>::min() / kEps;

// Series representation of P(a, x), valid for x < a + 1.
double gamma_p_series(double a, double x) {
  double ap = a;
  double sum = 1.0 / a;
  double del = sum;
  for (int n = 0; n < kMaxIter; ++n) {
    ap += 1.0;
    del *= x / ap;
    sum += del;
    if (std::abs(del) < std::abs(sum) * kEps) {
      return sum * std::exp(-x + a * std::log(x) - log_gamma(a));
    }
  }
  throw NumericalError("gamma_p: series did not converge");
}

// Continued-fraction representation of Q(a, x), valid for x >= a + 1
// (modified Lentz).
double gamma_q_cf(double a, double x) {
  double b = x + 1.0 - a;
  double c = 1.0 / kFpMin;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= kMaxIter; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::abs(d) < kFpMin) d = kFpMin;
    c = b + an / c;
    if (std::abs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::abs(del - 1.0) < kEps) {
      return std::exp(-x + a * std::log(x) - log_gamma(a)) * h;
    }
  }
  throw NumericalError("gamma_q: continued fraction did not converge");
}

// Continued fraction for the incomplete beta (modified Lentz).
double beta_cf(double a, double b, double x) {
  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::abs(d) < kFpMin) d = kFpMin;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIter; ++m) {
    const int m2 = 2 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::abs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::abs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::abs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::abs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::abs(del - 1.0) < kEps) return h;
  }
  throw NumericalError("beta_inc: continued fraction did not converge");
}

}  // namespace

double gamma_p(double a, double x) {
  detail::require(a > 0.0 && x >= 0.0, "gamma_p: require a > 0, x >= 0");
  if (x == 0.0) return 0.0;
  if (x < a + 1.0) return gamma_p_series(a, x);
  return 1.0 - gamma_q_cf(a, x);
}

double gamma_q(double a, double x) {
  detail::require(a > 0.0 && x >= 0.0, "gamma_q: require a > 0, x >= 0");
  if (x == 0.0) return 1.0;
  if (x < a + 1.0) return 1.0 - gamma_p_series(a, x);
  return gamma_q_cf(a, x);
}

double beta_inc(double a, double b, double x) {
  detail::require(a > 0.0 && b > 0.0, "beta_inc: require a, b > 0");
  detail::require(x >= 0.0 && x <= 1.0, "beta_inc: require x in [0,1]");
  if (x == 0.0) return 0.0;
  if (x == 1.0) return 1.0;
  const double ln_front = log_gamma(a + b) - log_gamma(a) -
                          log_gamma(b) + a * std::log(x) +
                          b * std::log1p(-x);
  const double front = std::exp(ln_front);
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * beta_cf(a, b, x) / a;
  }
  return 1.0 - front * beta_cf(b, a, 1.0 - x) / b;
}

double normal_cdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

double normal_quantile(double p) {
  detail::require(p > 0.0 && p < 1.0, "normal_quantile: require p in (0,1)");
  // Acklam's rational approximation.
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double plow = 0.02425;
  double x;
  if (p < plow) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - plow) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
        q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log1p(-p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  // One Halley refinement step against the true cdf.
  const double e = normal_cdf(x) - p;
  const double u = e * std::sqrt(2.0 * M_PI) * std::exp(x * x / 2.0);
  x = x - u / (1.0 + x * u / 2.0);
  return x;
}

}  // namespace relkit
