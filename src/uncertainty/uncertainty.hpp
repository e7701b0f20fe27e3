// Parametric (epistemic) uncertainty propagation.
//
// The tutorial's closing challenge: model inputs (failure rates, repair
// rates, coverage probabilities) are estimated from finite data, so the
// model output is itself a random variable. This module provides
//
//   * conjugate Bayesian posteriors from observed life data — Gamma for
//     exponential rates, Beta for probabilities — so that "r failures in
//     total time T" directly yields the rate distribution;
//   * Monte-Carlo and Latin-hypercube propagation of any set of parameter
//     distributions through an arbitrary scalar model function;
//   * summaries: mean, standard deviation, percentile confidence intervals.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/distributions.hpp"
#include "common/rng.hpp"

namespace relkit::uncertainty {

/// A named uncertain parameter.
struct ParamSpec {
  std::string name;
  DistPtr dist;
};

/// The model under study: maps a concrete parameter assignment to a scalar
/// output (availability, MTTF, top-event probability, ...).
using ModelFn = std::function<double(const std::map<std::string, double>&)>;

/// Sampling strategy.
enum class Sampling {
  kMonteCarlo,      ///< independent draws
  kLatinHypercube,  ///< stratified: each parameter's quantile space is
                    ///< partitioned into n strata sampled exactly once
};

/// Result of a propagation run.
struct UncertaintyResult {
  std::vector<double> samples;  ///< model outputs, unsorted
  double mean = 0.0;
  double stddev = 0.0;
  /// p-th percentile of the output distribution (p in [0,1]).
  double percentile(double p) const;
  /// Equal-tailed interval at the given level, e.g. 0.90 -> [5%, 95%].
  std::pair<double, double> interval(double level) const;
};

/// Propagates parameter uncertainty through `model` with `n` samples.
///
/// `jobs` is the number of threads that evaluate the model (a
/// parallel::PoolLease): 0 = parallel::default_jobs() (library default 1),
/// 1 = the calling thread only. Every parameter value is drawn from `rng`
/// on the calling thread in sample order, and the outputs are accumulated
/// in sample order, so the result and `rng`'s state afterwards are the
/// same bits at every `jobs` value. The model function is called
/// concurrently and must be thread-safe when jobs > 1 (every RelKit
/// solver is; capture-by-reference state in a caller's lambda may not be);
/// each call sees the caller's ambient deadline. See docs/parallelism.md.
UncertaintyResult propagate(const std::vector<ParamSpec>& params,
                            const ModelFn& model, std::size_t n, Rng& rng,
                            Sampling sampling = Sampling::kLatinHypercube,
                            std::size_t jobs = 0);

// ---- conjugate posteriors from life data -----------------------------------

/// Posterior of an exponential failure rate after observing `failures`
/// events in cumulative exposure `total_time`, with a Gamma(shape0, rate0)
/// prior (Jeffreys-ish default: shape0 = 0.5, rate0 ~ 0). Returns
/// Gamma(shape0 + failures, rate0 + total_time).
DistPtr rate_posterior(double failures, double total_time,
                       double prior_shape = 0.5, double prior_rate = 1e-9);

/// Posterior of a probability (e.g. coverage) after `successes` out of
/// `trials`, with a Beta(a0, b0) prior (uniform default). Returns
/// Beta(a0 + successes, b0 + trials - successes).
DistPtr probability_posterior(double successes, double trials,
                              double prior_a = 1.0, double prior_b = 1.0);

}  // namespace relkit::uncertainty
