#include "common/distributions.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/error.hpp"
#include "common/poisson_weights.hpp"
#include "common/special.hpp"

namespace relkit {

double Distribution::quantile(double p) const {
  detail::require(p > 0.0 && p < 1.0, "quantile: require p in (0,1)");
  // Bracket [0, hi] by doubling, then bisect.
  double hi = std::max(1.0, mean() + 10.0 * std::sqrt(variance()));
  int guard = 0;
  while (cdf(hi) < p) {
    hi *= 2.0;
    if (++guard > 200) throw NumericalError("quantile: failed to bracket");
  }
  double lo = 0.0;
  for (int i = 0; i < 200 && (hi - lo) > 1e-14 * (1.0 + hi); ++i) {
    const double mid = 0.5 * (lo + hi);
    if (cdf(mid) < p) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

double Distribution::hazard(double t) const {
  const double r = survival(t);
  if (r <= 0.0) return std::numeric_limits<double>::infinity();
  return pdf(t) / r;
}

double Distribution::cv() const {
  const double m = mean();
  detail::require(m > 0.0, "cv: mean must be positive");
  return std::sqrt(variance()) / m;
}

// ---------------------------------------------------------------- Exponential

Exponential::Exponential(double rate) : rate_(rate) {
  detail::require(rate > 0.0, "Exponential: rate must be > 0");
}
double Exponential::cdf(double t) const {
  return t <= 0.0 ? 0.0 : -std::expm1(-rate_ * t);
}
double Exponential::pdf(double t) const {
  return t < 0.0 ? 0.0 : rate_ * std::exp(-rate_ * t);
}
double Exponential::sample(Rng& rng) const {
  return -std::log(rng.uniform_pos()) / rate_;
}
double Exponential::quantile(double p) const {
  detail::require(p > 0.0 && p < 1.0, "quantile: require p in (0,1)");
  return -std::log1p(-p) / rate_;
}
std::string Exponential::describe() const {
  std::ostringstream os;
  os << "exponential(rate=" << rate_ << ")";
  return os.str();
}

// -------------------------------------------------------------------- Weibull

Weibull::Weibull(double shape, double scale) : shape_(shape), scale_(scale) {
  detail::require(shape > 0.0 && scale > 0.0,
                  "Weibull: shape and scale must be > 0");
}
double Weibull::cdf(double t) const {
  return t <= 0.0 ? 0.0 : -std::expm1(-std::pow(t / scale_, shape_));
}
double Weibull::pdf(double t) const {
  if (t <= 0.0) return 0.0;
  const double z = t / scale_;
  return (shape_ / scale_) * std::pow(z, shape_ - 1.0) *
         std::exp(-std::pow(z, shape_));
}
double Weibull::mean() const {
  return scale_ * std::tgamma(1.0 + 1.0 / shape_);
}
double Weibull::variance() const {
  const double g1 = std::tgamma(1.0 + 1.0 / shape_);
  const double g2 = std::tgamma(1.0 + 2.0 / shape_);
  return scale_ * scale_ * (g2 - g1 * g1);
}
double Weibull::sample(Rng& rng) const {
  return scale_ * std::pow(-std::log(rng.uniform_pos()), 1.0 / shape_);
}
double Weibull::quantile(double p) const {
  detail::require(p > 0.0 && p < 1.0, "quantile: require p in (0,1)");
  return scale_ * std::pow(-std::log1p(-p), 1.0 / shape_);
}
std::string Weibull::describe() const {
  std::ostringstream os;
  os << "weibull(shape=" << shape_ << ", scale=" << scale_ << ")";
  return os.str();
}

// ------------------------------------------------------------------ Lognormal

Lognormal::Lognormal(double mu, double sigma) : mu_(mu), sigma_(sigma) {
  detail::require(sigma > 0.0, "Lognormal: sigma must be > 0");
}
double Lognormal::cdf(double t) const {
  return t <= 0.0 ? 0.0 : normal_cdf((std::log(t) - mu_) / sigma_);
}
double Lognormal::pdf(double t) const {
  if (t <= 0.0) return 0.0;
  const double z = (std::log(t) - mu_) / sigma_;
  return std::exp(-0.5 * z * z) / (t * sigma_ * std::sqrt(2.0 * M_PI));
}
double Lognormal::mean() const { return std::exp(mu_ + 0.5 * sigma_ * sigma_); }
double Lognormal::variance() const {
  const double s2 = sigma_ * sigma_;
  return (std::exp(s2) - 1.0) * std::exp(2.0 * mu_ + s2);
}
double Lognormal::sample(Rng& rng) const {
  return std::exp(mu_ + sigma_ * normal_quantile(rng.uniform_pos()));
}
double Lognormal::quantile(double p) const {
  detail::require(p > 0.0 && p < 1.0, "quantile: require p in (0,1)");
  return std::exp(mu_ + sigma_ * normal_quantile(p));
}
std::string Lognormal::describe() const {
  std::ostringstream os;
  os << "lognormal(mu=" << mu_ << ", sigma=" << sigma_ << ")";
  return os.str();
}

// --------------------------------------------------------------------- Erlang

Erlang::Erlang(unsigned k, double rate) : k_(k), rate_(rate) {
  detail::require(k >= 1, "Erlang: need at least one stage");
  detail::require(rate > 0.0, "Erlang: rate must be > 0");
}
double Erlang::cdf(double t) const {
  return t <= 0.0 ? 0.0 : gamma_p(k_, rate_ * t);
}
double Erlang::pdf(double t) const {
  if (t <= 0.0) return 0.0;
  return std::exp(k_ * std::log(rate_) + (k_ - 1.0) * std::log(t) - rate_ * t -
                  log_gamma(k_));
}
double Erlang::sample(Rng& rng) const {
  double acc = 0.0;
  for (unsigned i = 0; i < static_cast<unsigned>(k_); ++i) {
    acc += -std::log(rng.uniform_pos());
  }
  return acc / rate_;
}
std::string Erlang::describe() const {
  std::ostringstream os;
  os << "erlang(k=" << static_cast<unsigned>(k_) << ", rate=" << rate_ << ")";
  return os.str();
}

// ---------------------------------------------------------------------- Gamma

Gamma::Gamma(double shape, double rate) : shape_(shape), rate_(rate) {
  detail::require(shape > 0.0 && rate > 0.0,
                  "Gamma: shape and rate must be > 0");
}
double Gamma::cdf(double t) const {
  return t <= 0.0 ? 0.0 : gamma_p(shape_, rate_ * t);
}
double Gamma::pdf(double t) const {
  if (t <= 0.0) return 0.0;
  return std::exp(shape_ * std::log(rate_) + (shape_ - 1.0) * std::log(t) -
                  rate_ * t - log_gamma(shape_));
}
double Gamma::sample(Rng& rng) const {
  // Marsaglia & Tsang (2000); the shape < 1 case uses the boost
  // G(a) = G(a+1) U^{1/a}.
  double a = shape_;
  double boost = 1.0;
  if (a < 1.0) {
    boost = std::pow(rng.uniform_pos(), 1.0 / a);
    a += 1.0;
  }
  const double d = a - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x, v;
    do {
      x = normal_quantile(rng.uniform_pos());
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = rng.uniform_pos();
    if (u < 1.0 - 0.0331 * x * x * x * x) return boost * d * v / rate_;
    if (std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return boost * d * v / rate_;
    }
  }
}
std::string Gamma::describe() const {
  std::ostringstream os;
  os << "gamma(shape=" << shape_ << ", rate=" << rate_ << ")";
  return os.str();
}

// ----------------------------------------------------------------------- Beta

Beta::Beta(double a, double b) : a_(a), b_(b) {
  detail::require(a > 0.0 && b > 0.0, "Beta: a and b must be > 0");
}
double Beta::cdf(double t) const {
  if (t <= 0.0) return 0.0;
  if (t >= 1.0) return 1.0;
  return beta_inc(a_, b_, t);
}
double Beta::pdf(double t) const {
  if (t <= 0.0 || t >= 1.0) return 0.0;
  return std::exp((a_ - 1.0) * std::log(t) + (b_ - 1.0) * std::log1p(-t) +
                  log_gamma(a_ + b_) - log_gamma(a_) - log_gamma(b_));
}
double Beta::variance() const {
  const double s = a_ + b_;
  return a_ * b_ / (s * s * (s + 1.0));
}
double Beta::sample(Rng& rng) const {
  const Gamma ga(a_, 1.0);
  const Gamma gb(b_, 1.0);
  const double x = ga.sample(rng);
  const double y = gb.sample(rng);
  return x / (x + y);
}
std::string Beta::describe() const {
  std::ostringstream os;
  os << "beta(a=" << a_ << ", b=" << b_ << ")";
  return os.str();
}

// ------------------------------------------------------------ HypoExponential

HypoExponential::HypoExponential(std::vector<double> rates)
    : rates_(std::move(rates)) {
  detail::require(!rates_.empty(), "HypoExponential: need at least one stage");
  for (double r : rates_) {
    detail::require(r > 0.0, "HypoExponential: all rates must be > 0");
  }
}

namespace {
// Probability of having completed all `k` stages (or being in the last
// transient stage, for the pdf) of a pure-series chain by time t, computed
// by uniformization. Stable for repeated rates, unlike the classic
// partial-fraction closed form.
struct SeriesChainProbs {
  double absorbed;   // P(all stages done by t)
  double last_stage; // P(currently in final transient stage at t)
};

SeriesChainProbs series_chain_probs(const std::vector<double>& rates,
                                    double t) {
  const std::size_t k = rates.size();
  if (t <= 0.0) return {0.0, k == 1 ? 1.0 : 0.0};
  // Tail guard: P(not absorbed by t) <= sum_i P(stage i alone takes more
  // than t/k) = sum_i exp(-rate_i t / k). When that bound is below double
  // noise, skip the O(q t) uniformization entirely (t can be astronomically
  // large when callers integrate the survival function to infinity).
  {
    double bound = 0.0;
    for (double r : rates) bound += std::exp(-r * t / static_cast<double>(k));
    if (bound < 1e-18) return {1.0, 0.0};
  }
  double q = 0.0;
  for (double r : rates) q = std::max(q, r);
  const PoissonWeights pw = poisson_weights(q * t);

  // pi over states 0..k (k = absorbed). Step with P = I + Q/q.
  std::vector<double> pi(k + 1, 0.0);
  pi[0] = 1.0;
  double absorbed = 0.0;
  double last = 0.0;
  std::vector<double> next(k + 1, 0.0);
  std::size_t n = 0;
  const std::size_t total_steps = pw.left + pw.weights.size();
  for (; n < total_steps; ++n) {
    if (n >= pw.left) {
      const double w = pw.weights[n - pw.left];
      absorbed += w * pi[k];
      last += w * pi[k - 1];
    }
    if (n + 1 == total_steps) break;
    // next = pi * (I + Q/q)
    for (std::size_t i = 0; i <= k; ++i) next[i] = pi[i];
    for (std::size_t i = 0; i < k; ++i) {
      const double flow = pi[i] * rates[i] / q;
      next[i] -= flow;
      next[i + 1] += flow;
    }
    pi.swap(next);
  }
  return {absorbed, last};
}
}  // namespace

double HypoExponential::cdf(double t) const {
  return series_chain_probs(rates_, t).absorbed;
}
double HypoExponential::pdf(double t) const {
  if (t < 0.0) return 0.0;
  return rates_.back() * series_chain_probs(rates_, t).last_stage;
}
double HypoExponential::mean() const {
  double m = 0.0;
  for (double r : rates_) m += 1.0 / r;
  return m;
}
double HypoExponential::variance() const {
  double v = 0.0;
  for (double r : rates_) v += 1.0 / (r * r);
  return v;
}
double HypoExponential::sample(Rng& rng) const {
  double acc = 0.0;
  for (double r : rates_) acc += -std::log(rng.uniform_pos()) / r;
  return acc;
}
std::string HypoExponential::describe() const {
  std::ostringstream os;
  os << "hypoexponential(rates=[";
  for (std::size_t i = 0; i < rates_.size(); ++i) {
    os << (i ? ", " : "") << rates_[i];
  }
  os << "])";
  return os.str();
}

// ----------------------------------------------------------- HyperExponential

HyperExponential::HyperExponential(std::vector<double> probs,
                                   std::vector<double> rates)
    : probs_(std::move(probs)), rates_(std::move(rates)) {
  detail::require(probs_.size() == rates_.size() && !probs_.empty(),
                  "HyperExponential: probs/rates size mismatch");
  double s = 0.0;
  for (double p : probs_) {
    detail::require(p >= 0.0, "HyperExponential: negative probability");
    s += p;
  }
  detail::require(std::abs(s - 1.0) < 1e-9,
                  "HyperExponential: probabilities must sum to 1");
  for (double r : rates_) {
    detail::require(r > 0.0, "HyperExponential: all rates must be > 0");
  }
}
double HyperExponential::cdf(double t) const {
  if (t <= 0.0) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < probs_.size(); ++i) {
    acc += probs_[i] * -std::expm1(-rates_[i] * t);
  }
  return acc;
}
double HyperExponential::pdf(double t) const {
  if (t < 0.0) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < probs_.size(); ++i) {
    acc += probs_[i] * rates_[i] * std::exp(-rates_[i] * t);
  }
  return acc;
}
double HyperExponential::mean() const {
  double m = 0.0;
  for (std::size_t i = 0; i < probs_.size(); ++i) m += probs_[i] / rates_[i];
  return m;
}
double HyperExponential::variance() const {
  double m2 = 0.0;
  for (std::size_t i = 0; i < probs_.size(); ++i) {
    m2 += 2.0 * probs_[i] / (rates_[i] * rates_[i]);
  }
  const double m = mean();
  return m2 - m * m;
}
double HyperExponential::sample(Rng& rng) const {
  double u = rng.uniform();
  std::size_t branch = probs_.size() - 1;
  for (std::size_t i = 0; i < probs_.size(); ++i) {
    if (u < probs_[i]) {
      branch = i;
      break;
    }
    u -= probs_[i];
  }
  return -std::log(rng.uniform_pos()) / rates_[branch];
}
std::string HyperExponential::describe() const {
  std::ostringstream os;
  os << "hyperexponential(k=" << probs_.size() << ")";
  return os.str();
}

// -------------------------------------------------------------- Deterministic

Deterministic::Deterministic(double value) : value_(value) {
  detail::require(value >= 0.0, "Deterministic: value must be >= 0");
}
double Deterministic::cdf(double t) const { return t >= value_ ? 1.0 : 0.0; }
std::string Deterministic::describe() const {
  std::ostringstream os;
  os << "deterministic(" << value_ << ")";
  return os.str();
}

// -------------------------------------------------------------------- Uniform

Uniform::Uniform(double a, double b) : a_(a), b_(b) {
  detail::require(a >= 0.0 && b > a, "Uniform: require 0 <= a < b");
}
double Uniform::cdf(double t) const {
  if (t <= a_) return 0.0;
  if (t >= b_) return 1.0;
  return (t - a_) / (b_ - a_);
}
double Uniform::pdf(double t) const {
  return (t >= a_ && t <= b_) ? 1.0 / (b_ - a_) : 0.0;
}
double Uniform::variance() const {
  const double w = b_ - a_;
  return w * w / 12.0;
}
double Uniform::sample(Rng& rng) const {
  return a_ + (b_ - a_) * rng.uniform();
}
double Uniform::quantile(double p) const {
  detail::require(p > 0.0 && p < 1.0, "quantile: require p in (0,1)");
  return a_ + (b_ - a_) * p;
}
std::string Uniform::describe() const {
  std::ostringstream os;
  os << "uniform(" << a_ << ", " << b_ << ")";
  return os.str();
}

// ------------------------------------------------------------------ factories

DistPtr exponential(double rate) { return std::make_shared<Exponential>(rate); }
DistPtr weibull(double shape, double scale) {
  return std::make_shared<Weibull>(shape, scale);
}
DistPtr lognormal(double mu, double sigma) {
  return std::make_shared<Lognormal>(mu, sigma);
}
DistPtr erlang(unsigned k, double rate) {
  return std::make_shared<Erlang>(k, rate);
}
DistPtr gamma_dist(double shape, double rate) {
  return std::make_shared<Gamma>(shape, rate);
}
DistPtr beta_dist(double a, double b) { return std::make_shared<Beta>(a, b); }
DistPtr hypoexponential(std::vector<double> rates) {
  return std::make_shared<HypoExponential>(std::move(rates));
}
DistPtr hyperexponential(std::vector<double> probs, std::vector<double> rates) {
  return std::make_shared<HyperExponential>(std::move(probs), std::move(rates));
}
DistPtr deterministic(double value) {
  return std::make_shared<Deterministic>(value);
}
DistPtr uniform(double a, double b) {
  return std::make_shared<Uniform>(a, b);
}

}  // namespace relkit
