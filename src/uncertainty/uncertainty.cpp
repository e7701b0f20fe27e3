#include "uncertainty/uncertainty.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/statistics.hpp"
#include "obs/obs.hpp"
#include "parallel/pool.hpp"
#include "robust/budget.hpp"

namespace relkit::uncertainty {

double UncertaintyResult::percentile(double p) const {
  return relkit::percentile(samples, p);
}

std::pair<double, double> UncertaintyResult::interval(double level) const {
  detail::require(level > 0.0 && level < 1.0,
                  "UncertaintyResult::interval: level in (0,1)");
  const double tail = 0.5 * (1.0 - level);
  return {percentile(tail), percentile(1.0 - tail)};
}

UncertaintyResult propagate(const std::vector<ParamSpec>& params,
                            const ModelFn& model, std::size_t n, Rng& rng,
                            Sampling sampling, std::size_t jobs) {
  detail::require(!params.empty(), "propagate: no parameters");
  detail::require(model != nullptr, "propagate: null model");
  detail::require(n >= 2, "propagate: need at least 2 samples");
  for (const auto& p : params) {
    if (p.dist == nullptr) {
      throw InvalidArgument("propagate: null distribution for '" + p.name +
                            "'");
    }
    detail::require(!p.name.empty(), "propagate: empty parameter name");
  }

  const std::size_t k = params.size();
  const bool lhs = sampling == Sampling::kLatinHypercube;

  // For LHS: per-parameter random permutation of strata.
  std::vector<std::vector<std::size_t>> strata;
  if (lhs) {
    strata.assign(k, {});
    for (std::size_t j = 0; j < k; ++j) {
      strata[j].resize(n);
      for (std::size_t i = 0; i < n; ++i) strata[j][i] = i;
      // Fisher-Yates.
      for (std::size_t i = n; i-- > 1;) {
        std::swap(strata[j][i], strata[j][rng.below(i + 1)]);
      }
    }
  }

  // Every random number is drawn here, on the caller's thread, sample by
  // sample and parameter by parameter. Gamma and Beta sample by rejection,
  // so their draws cannot be split across threads. LHS keeps the uniform
  // within the assigned stratum; its inverse CDF runs with the model below.
  std::vector<double> draws(n * k);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      if (lhs) {
        const double u = (static_cast<double>(strata[j][i]) + rng.uniform()) /
                         static_cast<double>(n);
        draws[i * k + j] = std::min(std::max(u, 1e-12), 1.0 - 1e-12);
      } else {
        draws[i * k + j] = params[j].dist->sample(rng);
      }
    }
  }

  // The model runs in chunks on the pool; each output lands at its index
  // and the outputs are added in sample order, so every worker count
  // returns the jobs-1 bits (docs/parallelism.md).
  const parallel::PoolLease lease(static_cast<unsigned>(jobs));
  obs::Span span("uncertainty.propagate");
  span.set("samples", n);
  span.set("jobs", static_cast<std::uint64_t>(lease.jobs()));
  UncertaintyResult out;
  out.samples.assign(n, 0.0);
  // The ambient slot is unset on pool workers: each chunk installs the
  // caller's deadline, so a solve inside `model` stops at it on any thread.
  const robust::Deadline deadline = robust::ambient_deadline();
  lease.get()->for_chunks(
      n, parallel::default_chunk(n), [&](std::size_t begin, std::size_t end) {
        const robust::ScopedDeadline scoped(deadline);
        std::map<std::string, double> assignment;
        for (std::size_t i = begin; i < end; ++i) {
          for (std::size_t j = 0; j < k; ++j) {
            const double draw = draws[i * k + j];
            assignment[params[j].name] =
                lhs ? params[j].dist->quantile(draw) : draw;
          }
          const double y = model(assignment);
          detail::require(std::isfinite(y),
                          "propagate: model returned a non-finite value");
          out.samples[i] = y;
        }
      });
  OnlineStats stats;
  for (const double y : out.samples) stats.add(y);
  out.mean = stats.mean();
  out.stddev = stats.stddev();
  return out;
}

DistPtr rate_posterior(double failures, double total_time, double prior_shape,
                       double prior_rate) {
  detail::require(failures >= 0.0, "rate_posterior: failures must be >= 0");
  detail::require(total_time > 0.0, "rate_posterior: total_time must be > 0");
  detail::require(prior_shape > 0.0 && prior_rate >= 0.0,
                  "rate_posterior: bad prior");
  return gamma_dist(prior_shape + failures, prior_rate + total_time);
}

DistPtr probability_posterior(double successes, double trials, double prior_a,
                              double prior_b) {
  detail::require(successes >= 0.0 && trials >= successes,
                  "probability_posterior: need 0 <= successes <= trials");
  detail::require(prior_a > 0.0 && prior_b > 0.0,
                  "probability_posterior: bad prior");
  return beta_dist(prior_a + successes, prior_b + trials - successes);
}

}  // namespace relkit::uncertainty
