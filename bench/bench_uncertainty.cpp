// E7 — "how to take into account parametric uncertainty in model inputs".
//
// Duplex-system availability with Gamma posteriors on failure and repair
// rates. Two series:
//   (a) CI width vs number of propagation samples (MC vs LHS) — LHS
//       converges faster for this monotone model;
//   (b) CI width vs amount of field data — more data, narrower posterior,
//       narrower availability interval.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"

#include <chrono>
#include <cstdio>

#include "core/relkit.hpp"
#include "parallel/pool.hpp"

using namespace relkit;

namespace {

double duplex_availability(const std::map<std::string, double>& p) {
  const double lambda = p.at("lambda");
  const double mu = p.at("mu");
  markov::Ctmc c;
  c.add_states(3);
  c.add_transition(0, 1, 2 * lambda);
  c.add_transition(1, 2, lambda);
  c.add_transition(1, 0, mu);
  c.add_transition(2, 1, mu);
  const auto pi = c.steady_state();
  return pi[0] + pi[1];
}

void print_table() {
  std::printf("== E7: parametric uncertainty propagation ==================\n");
  std::printf("(a) 90%% interval width vs sample count  "
              "(posterior from 20 failures / 20000 h)\n");
  std::printf("%-9s %-14s %-14s\n", "samples", "MC width", "LHS width");
  const std::vector<uncertainty::ParamSpec> params{
      {"lambda", uncertainty::rate_posterior(20, 20000.0)},
      {"mu", uncertainty::rate_posterior(20, 50.0)}};
  for (std::size_t n : {100u, 400u, 1600u, 6400u}) {
    Rng r1(7), r2(7);
    const auto mc = uncertainty::propagate(params, duplex_availability, n, r1,
                                           uncertainty::Sampling::kMonteCarlo);
    const auto lhs =
        uncertainty::propagate(params, duplex_availability, n, r2,
                               uncertainty::Sampling::kLatinHypercube);
    const auto [ml, mh] = mc.interval(0.90);
    const auto [ll, lh] = lhs.interval(0.90);
    std::printf("%-9zu %-14.3e %-14.3e\n", n, mh - ml, lh - ll);
  }

  std::printf("\n(b) interval width vs amount of field data (LHS, 3000 "
              "samples)\n");
  std::printf("%-22s %-14s %-16s %-14s\n", "data", "mean A",
              "90% interval", "width");
  for (double scale : {1.0, 4.0, 16.0, 64.0}) {
    const std::vector<uncertainty::ParamSpec> ps{
        {"lambda", uncertainty::rate_posterior(5 * scale, 5000.0 * scale)},
        {"mu", uncertainty::rate_posterior(5 * scale, 12.5 * scale)}};
    Rng rng(11);
    const auto res =
        uncertainty::propagate(ps, duplex_availability, 3000, rng);
    const auto [lo, hi] = res.interval(0.90);
    std::printf("%3.0fx (%3.0f failures)    %.8f [%.6f,%.6f] %-14.3e\n",
                scale, 5 * scale, res.mean, lo, hi, hi - lo);
  }
  std::printf("\n(c) parallel scaling (LHS, 6400 samples, explicit jobs)\n");
  std::printf("%-6s %-12s %-9s %s\n", "jobs", "wall (ms)", "speedup",
              "mean A (17 digits)");
  {
    double base_ms = 0.0;
    for (const std::size_t jobs : {1u, 2u, 4u}) {
      Rng rng(17);
      const auto start = std::chrono::steady_clock::now();
      const auto res = uncertainty::propagate(
          params, duplex_availability, 6400, rng,
          uncertainty::Sampling::kLatinHypercube, jobs);
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count();
      if (jobs == 1) base_ms = ms;
      std::printf("%-6zu %-12.2f %-9.2f %.17g\n", jobs, ms, base_ms / ms,
                  res.mean);
    }
  }

  std::printf("\nShape check: both samplers' width estimates stabilize by\n"
              "~1-2k samples (LHS's variance reduction appears on the MEAN,\n"
              "not the percentile width — see test_uncertainty); quadrupling\n"
              "the field data roughly halves the interval width (sqrt-n\n"
              "posterior shrink).\n\n");
}

void BM_PropagateMc(benchmark::State& state) {
  const std::vector<uncertainty::ParamSpec> params{
      {"lambda", uncertainty::rate_posterior(20, 20000.0)},
      {"mu", uncertainty::rate_posterior(20, 50.0)}};
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        uncertainty::propagate(params, duplex_availability, n, rng,
                               uncertainty::Sampling::kMonteCarlo));
  }
}
BENCHMARK(BM_PropagateMc)->RangeMultiplier(4)->Range(100, 6400);

void BM_PropagateLhs(benchmark::State& state) {
  const std::vector<uncertainty::ParamSpec> params{
      {"lambda", uncertainty::rate_posterior(20, 20000.0)},
      {"mu", uncertainty::rate_posterior(20, 50.0)}};
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        uncertainty::propagate(params, duplex_availability, n, rng,
                               uncertainty::Sampling::kLatinHypercube));
  }
}
BENCHMARK(BM_PropagateLhs)->RangeMultiplier(4)->Range(100, 6400);

void BM_PropagateLhsJobs(benchmark::State& state) {
  const std::vector<uncertainty::ParamSpec> params{
      {"lambda", uncertainty::rate_posterior(20, 20000.0)},
      {"mu", uncertainty::rate_posterior(20, 50.0)}};
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto jobs = static_cast<std::size_t>(state.range(1));
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        uncertainty::propagate(params, duplex_availability, n, rng,
                               uncertainty::Sampling::kLatinHypercube, jobs));
  }
}
BENCHMARK(BM_PropagateLhsJobs)
    ->Args({6400, 1})
    ->Args({6400, 2})
    ->Args({6400, 4});

}  // namespace

int main(int argc, char** argv) {
  const benchjson::Options opts = benchjson::init(&argc, argv);
  print_table();
  if (opts.table_only) return 0;
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
