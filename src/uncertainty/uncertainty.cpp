#include "uncertainty/uncertainty.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

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
  if (jobs == 0) jobs = parallel::default_jobs();

  const std::size_t k = params.size();

  // For LHS: per-parameter random permutation of strata.
  std::vector<std::vector<std::size_t>> strata;
  if (sampling == Sampling::kLatinHypercube) {
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

  UncertaintyResult out;
  OnlineStats stats;
  if (jobs <= 1) {
    out.samples.reserve(n);
    std::map<std::string, double> assignment;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < k; ++j) {
        double draw;
        if (sampling == Sampling::kLatinHypercube) {
          // Uniform within the assigned stratum, inverse-cdf transform.
          const double u =
              (static_cast<double>(strata[j][i]) + rng.uniform()) /
              static_cast<double>(n);
          const double clamped = std::min(std::max(u, 1e-12), 1.0 - 1e-12);
          draw = params[j].dist->quantile(clamped);
        } else {
          draw = params[j].dist->sample(rng);
        }
        assignment[params[j].name] = draw;
      }
      const double y = model(assignment);
      detail::require(std::isfinite(y),
                      "propagate: model returned a non-finite value");
      out.samples.push_back(y);
      stats.add(y);
    }
  } else {
    // Parallel path: each sample draws from its own sub-stream split from
    // `rng` in sample order, so sample i's parameter values depend only on
    // the seed and i — never on the worker count. Sample outputs land at
    // their index, and per-chunk moment accumulators merge in chunk order
    // (see docs/parallelism.md for the determinism contract).
    obs::Span span("uncertainty.propagate");
    span.set("samples", n);
    span.set("jobs", static_cast<std::uint64_t>(jobs));
    std::vector<Rng> streams;
    streams.reserve(n);
    for (std::size_t i = 0; i < n; ++i) streams.push_back(rng.split());
    out.samples.assign(n, 0.0);
    // Reuse the process-wide pool when it matches; a caller asking for a
    // different explicit degree gets a pool of its own for this call.
    std::unique_ptr<parallel::ThreadPool> local_pool;
    if (jobs != parallel::default_jobs()) {
      local_pool = std::make_unique<parallel::ThreadPool>(
          static_cast<unsigned>(jobs));
    }
    parallel::ThreadPool& pool =
        local_pool ? *local_pool : parallel::global_pool();
    // The ambient slot is unset on pool workers: each chunk installs the
    // caller's deadline, so a solve inside `model` stops at it on any thread.
    const robust::Deadline deadline = robust::ambient_deadline();
    stats = parallel::reduce_chunks<OnlineStats>(
        pool, n, parallel::default_chunk(n), OnlineStats{},
        [&](std::size_t begin, std::size_t end) {
          const robust::ScopedDeadline scoped(deadline);
          OnlineStats local;
          std::map<std::string, double> assignment;
          for (std::size_t i = begin; i < end; ++i) {
            for (std::size_t j = 0; j < k; ++j) {
              double draw;
              if (sampling == Sampling::kLatinHypercube) {
                const double u =
                    (static_cast<double>(strata[j][i]) +
                     streams[i].uniform()) /
                    static_cast<double>(n);
                const double clamped =
                    std::min(std::max(u, 1e-12), 1.0 - 1e-12);
                draw = params[j].dist->quantile(clamped);
              } else {
                draw = params[j].dist->sample(streams[i]);
              }
              assignment[params[j].name] = draw;
            }
            const double y = model(assignment);
            detail::require(std::isfinite(y),
                            "propagate: model returned a non-finite value");
            out.samples[i] = y;
            local.add(y);
          }
          return local;
        },
        [](OnlineStats& acc, const OnlineStats& chunk) { acc.merge(chunk); });
  }
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
