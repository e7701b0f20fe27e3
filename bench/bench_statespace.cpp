// E3 — "the resulting state space explosion severely restricts the size of
// the problem": CTMC solution cost vs state count.
//
// Three series:
//   (a) birth-death availability chains from 10 to 100k states — steady
//       state via dense GTH (O(n^3)) vs sparse SOR (O(nnz) per sweep),
//       showing the crossover that forces iterative methods;
//   (b) the sparse-solver tier at 10^3..10^5 states on two chain
//       families (banded alternating-rate, near-completely-decomposable)
//       with per-solver columns — GTH / SOR / BiCGSTAB+RCM+ILU0 /
//       aggregation-disaggregation — all at the same 1e-10 target;
//   (c) transient uniformization cost vs qt (stiffness), showing cost
//       proportional to q t.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/relkit.hpp"
#include "markov/solution_cache.hpp"
#include "robust/robust.hpp"

using namespace relkit;

namespace {

markov::Ctmc birth_death(std::size_t n) {
  markov::Ctmc c;
  c.add_states(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    c.add_transition(i, i + 1, 1.0);
    c.add_transition(i + 1, i, 1.4);
  }
  return c;
}

// Banded family for the sparse-solver tier: alternating failure rates
// keep the stationary vector's dynamic range bounded (pi = c, 2c, c, ...),
// like a real availability model — and unlike a drifted chain, whose
// geometric pi underflows past a few thousand states.
markov::Ctmc banded_alternating(std::size_t n) {
  markov::Ctmc c;
  c.add_states(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    c.add_transition(i, i + 1, (i % 2 == 0) ? 2.0 : 0.5);
    c.add_transition(i + 1, i, 1.0);
  }
  return c;
}

// NCD family: n/100 strongly-mixing 100-state blocks ring-coupled at
// 1e-6 — the Courtois structure aggregation-disaggregation exploits.
markov::Ctmc ncd_chain(std::size_t n) {
  const std::size_t bs = 100;
  const std::size_t blocks = n / bs;
  markov::Ctmc c;
  c.add_states(blocks * bs);
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t base = b * bs;
    for (std::size_t i = 0; i + 1 < bs; ++i) {
      c.add_transition(base + i, base + i + 1, 1.0);
      c.add_transition(base + i + 1, base + i, 1.5);
    }
    const std::size_t next = ((b + 1) % blocks) * bs;
    c.add_transition(base, next, 1e-6);
    c.add_transition(next, base, 1e-6);
  }
  return c;
}

double ms(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

void print_table() {
  std::printf("== E3: state-space solution cost vs size ==================\n");
  std::printf("%-9s %-12s %-12s %-14s\n", "states", "GTH [ms]", "SOR [ms]",
              "pi[0] match");
  for (std::size_t n : {10u, 50u, 100u, 200u, 400u, 800u, 3000u, 10000u}) {
    const markov::Ctmc c = birth_death(n);
    double t_gth = -1.0;
    double pi0_gth = -1.0;
    if (n <= 800) {  // dense elimination becomes infeasible quickly
      auto t0 = std::chrono::steady_clock::now();
      markov::SteadyStateOptions opts;
      opts.dense_threshold = 1u << 20;
      pi0_gth = c.steady_state(opts)[0];
      t_gth = ms(t0);
    }
    auto t0 = std::chrono::steady_clock::now();
    markov::SteadyStateOptions sor_opts;
    sor_opts.dense_threshold = 0;
    sor_opts.sor.tol = 1e-10;
    const double pi0_sor = c.steady_state(sor_opts)[0];
    const double t_sor = ms(t0);
    std::printf("%-9zu %-12s %-12.2f %-14s\n", n,
                t_gth < 0 ? "(skipped)" : std::to_string(t_gth).substr(0, 8).c_str(),
                t_sor,
                t_gth < 0 ? "-"
                          : (std::abs(pi0_gth - pi0_sor) < 1e-8 ? "yes"
                                                                : "NO"));
  }

  std::printf("\ntransient uniformization cost (1000-state chain):\n");
  std::printf("%-10s %-12s %-12s\n", "t", "q*t", "time [ms]");
  const markov::Ctmc c = birth_death(1000);
  for (double t : {1.0, 10.0, 100.0, 1000.0}) {
    auto t0 = std::chrono::steady_clock::now();
    const auto pi = c.transient(c.point_mass(0), t);
    benchmark::DoNotOptimize(pi);
    std::printf("%-10.0f %-12.0f %-12.2f\n", t, 2.4 * 1.02 * t, ms(t0));
  }
  std::printf("\nShape check: GTH cost grows ~n^3 and becomes infeasible\n"
              "around 10^3-10^4 states; SOR extends the reach by orders of\n"
              "magnitude (sweep cost O(nnz); sweep count grows with the\n"
              "chain diameter). Uniformization cost grows linearly in qt.\n\n");
}

// Per-solver tier table: every solver that can feasibly run, on the same
// chain, to the same verified 1e-10 residual — the numbers docs/solvers.md
// and EXPERIMENTS.md quote. GTH rows stop at 10^3 (O(n^3)); A/D only
// applies to the NCD family (the detector collapses the banded chain to
// one block).
void print_solver_tier_table() {
  struct Cell {
    double t = -1.0;     // ms; <0 = skipped
    bool failed = false;
  };
  const auto timed = [](const markov::Ctmc& c, robust::SolverChoice which,
                        Cell& cell) {
    markov::SteadyStateOptions opts;
    opts.solver = which;
    opts.sor.tol = 1e-10;
    opts.bicgstab.tol = 1e-10;
    opts.ncd.tol = 1e-10;
    opts.use_cache = false;
    const auto t0 = std::chrono::steady_clock::now();
    try {
      benchmark::DoNotOptimize(c.steady_state(opts));
      cell.t = ms(t0);
    } catch (const std::exception&) {
      cell.failed = true;
    }
  };
  const auto fmt = [](const Cell& cell) {
    if (cell.failed) return std::string("FAILED");
    if (cell.t < 0) return std::string("(skipped)");
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2f", cell.t);
    return std::string(buf);
  };
  std::printf(
      "== sparse-solver tier, verified residual <= 1e-10 ==========\n");
  std::printf("%-8s %-9s %-11s %-11s %-14s %-11s %-10s\n", "family",
              "states", "GTH [ms]", "SOR [ms]", "BiCGSTAB [ms]", "A/D [ms]",
              "SOR/best");
  for (const bool ncd : {false, true}) {
    for (std::size_t n : {1000u, 10000u, 100000u}) {
      const markov::Ctmc c = ncd ? ncd_chain(n) : banded_alternating(n);
      Cell gth, sor, bicgstab, ad;
      if (n <= 1000) timed(c, robust::SolverChoice::kGth, gth);
      timed(c, robust::SolverChoice::kSor, sor);
      timed(c, robust::SolverChoice::kBicgstab, bicgstab);
      if (ncd) timed(c, robust::SolverChoice::kAd, ad);
      const double best =
          ncd && ad.t >= 0 ? std::min(ad.t, bicgstab.t) : bicgstab.t;
      char speed[32] = "-";
      if (sor.t > 0 && best > 0) {
        std::snprintf(speed, sizeof speed, "%.0fx", sor.t / best);
      }
      std::printf("%-8s %-9zu %-11s %-11s %-14s %-11s %-10s\n",
                  ncd ? "ncd" : "banded", n, fmt(gth).c_str(),
                  fmt(sor).c_str(), fmt(bicgstab).c_str(), fmt(ad).c_str(),
                  speed);
    }
  }
  std::printf(
      "\nShape check: BiCGSTAB+RCM+ILU0 cost stays O(nnz * iters) with a\n"
      "near-constant iteration count on banded chains, so the gap over\n"
      "SOR widens with the chain diameter (>=10x at 10^4 states is the\n"
      "perfcheck floor). A/D sweeps depend on the NCD coupling, not the\n"
      "state count. Both reach the same 1e-10 verified residual as the\n"
      "direct methods.\n\n");
}

// Threads table: the parallel state-space kernels (SOR residual, power
// matvec, uniformization matvec) at jobs = 1/2/4 on one large chain. The
// solution cache is held off so every row measures a real solve. The match
// column compares the whole SOR and transient vectors with jobs 1 bit for
// bit: every jobs value must give the same bits (docs/parallelism.md).
void print_threads_table() {
  const std::size_t n = 5000;
  const markov::Ctmc c = birth_death(n);
  const auto pi0 = c.point_mass(0);
  const auto same_bits = [](const std::vector<double>& a,
                            const std::vector<double>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  };
  std::printf("== parallel state-space kernels (%zu-state chain) =========\n",
              n);
  std::printf("%-7s %-14s %-16s %-14s\n", "jobs", "SOR [ms]",
              "transient [ms]", "bits = jobs 1");
  markov::SolutionCache::instance().set_enabled(false);
  std::vector<double> sor_ref, transient_ref;
  for (unsigned jobs : {1u, 2u, 4u}) {
    markov::SteadyStateOptions opts;
    opts.dense_threshold = 0;
    opts.sor.tol = 1e-10;
    opts.jobs = jobs;
    auto t0 = std::chrono::steady_clock::now();
    const auto sor = c.steady_state(opts);
    const double t_sor = ms(t0);
    t0 = std::chrono::steady_clock::now();
    const auto pi = c.transient(pi0, 50.0, 1e-12, jobs);
    benchmark::DoNotOptimize(pi);
    const double t_tr = ms(t0);
    if (jobs == 1) {
      sor_ref = sor;
      transient_ref = pi;
    }
    std::printf("%-7u %-14.2f %-16.2f %-14s\n", jobs, t_sor, t_tr,
                same_bits(sor, sor_ref) && same_bits(pi, transient_ref)
                    ? "yes"
                    : "NO");
  }
  markov::SolutionCache::instance().set_enabled(true);
  std::printf("\n");
}

// Cache ablation: the same steady-state solve repeated with the
// SolutionCache off (every repeat pays the full solve) and on (repeats are
// served from the cache).
void print_cache_table() {
  const std::size_t n = 3000;
  const markov::Ctmc c = birth_death(n);
  markov::SteadyStateOptions opts;
  opts.dense_threshold = 0;
  opts.sor.tol = 1e-10;
  auto& cache = markov::SolutionCache::instance();
  std::printf("== solution cache ablation (%zu-state chain, 5 repeats) ===\n",
              n);
  std::printf("%-10s %-14s %-14s %-8s\n", "cache", "total [ms]",
              "per-solve [ms]", "hits");
  for (const bool enabled : {false, true}) {
    cache.clear();
    cache.set_enabled(enabled);
    const std::uint64_t hits_before = cache.hits();
    const auto t0 = std::chrono::steady_clock::now();
    for (int rep = 0; rep < 5; ++rep) {
      benchmark::DoNotOptimize(c.steady_state(opts));
    }
    const double total = ms(t0);
    std::printf("%-10s %-14.2f %-14.2f %-8llu\n", enabled ? "on" : "off",
                total, total / 5.0,
                static_cast<unsigned long long>(cache.hits() - hits_before));
  }
  cache.set_enabled(true);
  cache.clear();
  std::printf("\n");
}

void BM_GthSteadyState(benchmark::State& state) {
  const markov::Ctmc c = birth_death(static_cast<std::size_t>(state.range(0)));
  markov::SteadyStateOptions opts;
  opts.dense_threshold = 1u << 20;
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.steady_state(opts));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GthSteadyState)->RangeMultiplier(2)->Range(16, 512)->Complexity();

void BM_SorSteadyState(benchmark::State& state) {
  const markov::Ctmc c = birth_death(static_cast<std::size_t>(state.range(0)));
  markov::SteadyStateOptions opts;
  opts.dense_threshold = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.steady_state(opts));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SorSteadyState)->RangeMultiplier(4)->Range(64, 4096)
    ->Complexity();

void BM_BicgstabSteadyState(benchmark::State& state) {
  const markov::Ctmc c =
      banded_alternating(static_cast<std::size_t>(state.range(0)));
  markov::SteadyStateOptions opts;
  opts.solver = robust::SolverChoice::kBicgstab;
  opts.bicgstab.tol = 1e-10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.steady_state(opts));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BicgstabSteadyState)->RangeMultiplier(4)->Range(1024, 65536)
    ->Complexity();

void BM_AdSteadyState(benchmark::State& state) {
  const markov::Ctmc c = ncd_chain(static_cast<std::size_t>(state.range(0)));
  markov::SteadyStateOptions opts;
  opts.solver = robust::SolverChoice::kAd;
  opts.ncd.tol = 1e-10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.steady_state(opts));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_AdSteadyState)->RangeMultiplier(4)->Range(1600, 102400)
    ->Complexity();

void BM_TransientUniformization(benchmark::State& state) {
  const markov::Ctmc c = birth_death(1000);
  const double t = static_cast<double>(state.range(0));
  const auto pi0 = c.point_mass(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.transient(pi0, t));
  }
}
BENCHMARK(BM_TransientUniformization)->RangeMultiplier(4)->Range(1, 256);

}  // namespace

int main(int argc, char** argv) {
  const benchjson::Options opts = benchjson::init(&argc, argv);
  print_table();
  print_solver_tier_table();
  print_threads_table();
  print_cache_table();
  if (opts.table_only) return 0;
  // The BM_ loops re-solve identical chains; keep the cache out of the
  // measurement so they report solver cost, not lookup cost.
  markov::SolutionCache::instance().set_enabled(false);
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
