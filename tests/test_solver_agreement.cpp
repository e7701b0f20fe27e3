// Cross-solver property suite: every stationary method RelKit ships must
// tell the same story about the same chain.
//
// ~200 seeded-random irreducible CTMCs from three families the tutorial
// actually uses (birth-death availability chains, k-of-n pools with one
// shared repairer, general random sparse chains) are solved six ways —
// dense GTH elimination, SOR sweeps, preconditioned BiCGSTAB (ILU0 and
// diagonal, with RCM reordering), damped power iteration on the
// uniformized DTMC, and long-horizon uniformization — and the
// distributions must agree within 1e-8, at jobs = 1 and jobs = 4, with
// the solution cache on and off. A fourth family of near-completely-
// decomposable chains exercises aggregation-disaggregation the same way,
// and an RCM permute-solve-invert round trip pins the reordering as pure
// relabeling. The suite carries the `tsan` ctest label so the jobs = 4
// paths also run under ThreadSanitizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/krylov.hpp"
#include "common/linsolve.hpp"
#include "common/matrix.hpp"
#include "common/reorder.hpp"
#include "common/sparse.hpp"
#include "markov/ctmc.hpp"
#include "markov/dtmc.hpp"
#include "markov/solution_cache.hpp"
#include "robust/budget.hpp"
#include "robust/report.hpp"
#include "robust/robust.hpp"

using namespace relkit;

namespace {

constexpr double kAgreeTol = 1e-8;

// --- chain families ---------------------------------------------------------

markov::Ctmc birth_death(std::mt19937_64& rng) {
  std::uniform_int_distribution<std::size_t> size(3, 30);
  std::uniform_real_distribution<double> rate(0.05, 5.0);
  const std::size_t n = size(rng);
  markov::Ctmc c;
  c.add_states(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    c.add_transition(i, i + 1, rate(rng));
    c.add_transition(i + 1, i, rate(rng));
  }
  return c;
}

// k-of-n unit pool with one shared repairer: state = number of failed
// units; failure rate scales with survivors, repair rate is constant.
markov::Ctmc kofn_shared_repair(std::mt19937_64& rng) {
  std::uniform_int_distribution<std::size_t> units(2, 12);
  std::uniform_real_distribution<double> lambda(0.001, 0.5);
  std::uniform_real_distribution<double> mu(0.2, 4.0);
  const std::size_t n = units(rng);
  const double lam = lambda(rng);
  const double rep = mu(rng);
  markov::Ctmc c;
  c.add_states(n + 1);
  for (std::size_t failed = 0; failed < n; ++failed) {
    c.add_transition(failed, failed + 1,
                     static_cast<double>(n - failed) * lam);
    c.add_transition(failed + 1, failed, rep);
  }
  return c;
}

// Random sparse chain, made irreducible by a guaranteed one-directional
// cycle 0 -> 1 -> ... -> n-1 -> 0; extra random edges come in pairs with
// independent rates (fully one-directional random chains can defeat plain
// Gauss-Seidel, which would test the fallback chain rather than SOR).
markov::Ctmc random_sparse(std::mt19937_64& rng) {
  std::uniform_int_distribution<std::size_t> size(4, 25);
  std::uniform_real_distribution<double> rate(0.01, 3.0);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  const std::size_t n = size(rng);
  markov::Ctmc c;
  c.add_states(n);
  for (std::size_t i = 0; i < n; ++i) {
    c.add_transition(i, (i + 1) % n, rate(rng));
  }
  std::uniform_int_distribution<std::size_t> pick(0, n - 1);
  const std::size_t extra = 2 * n;
  for (std::size_t e = 0; e < extra; ++e) {
    const std::size_t from = pick(rng);
    const std::size_t to = pick(rng);
    if (from != to && coin(rng) < 0.6) {
      c.add_transition(from, to, rate(rng));
      c.add_transition(to, from, rate(rng));
    }
  }
  return c;
}

markov::Ctmc make_chain(std::size_t index) {
  std::mt19937_64 rng(0x9e3779b97f4a7c15ULL + index);
  switch (index % 3) {
    case 0: return birth_death(rng);
    case 1: return kofn_shared_repair(rng);
    default: return random_sparse(rng);
  }
}

// NCD family for the aggregation-disaggregation solver: a handful of
// strongly-mixing birth-death blocks coupled in a ring by rates four-plus
// orders of magnitude weaker — the Courtois structure the detector is
// built to find.
markov::Ctmc make_ncd_chain(std::size_t index) {
  std::mt19937_64 rng(0xc2b2ae3d27d4eb4fULL + index);
  std::uniform_int_distribution<std::size_t> block_count(2, 5);
  std::uniform_int_distribution<std::size_t> block_size(3, 8);
  std::uniform_real_distribution<double> strong(0.5, 3.0);
  std::uniform_real_distribution<double> weak(1e-5, 1e-4);
  const std::size_t blocks = block_count(rng);
  std::vector<std::size_t> first_state;
  markov::Ctmc c;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t s = block_size(rng);
    first_state.push_back(c.state_count());
    c.add_states(s);
    for (std::size_t i = 0; i + 1 < s; ++i) {
      c.add_transition(first_state[b] + i, first_state[b] + i + 1,
                       strong(rng));
      c.add_transition(first_state[b] + i + 1, first_state[b] + i,
                       strong(rng));
    }
  }
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t next = (b + 1) % blocks;
    c.add_transition(first_state[b], first_state[next], weak(rng));
    c.add_transition(first_state[next], first_state[b], weak(rng));
  }
  return c;
}

// k x k product-form grid: state (i, j) = i k + j, each coordinate a
// birth-death walk whose rates drift gently with the other coordinate.
markov::Ctmc grid_chain(std::size_t k) {
  markov::Ctmc c;
  c.add_states(k * k);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t s = i * k + j;
      if (i + 1 < k) c.add_transition(s, s + k, 0.7 + 0.001 * j);
      if (i > 0) c.add_transition(s, s - k, 1.1);
      if (j + 1 < k) c.add_transition(s, s + 1, 0.5 + 0.002 * i);
      if (j > 0) c.add_transition(s, s - 1, 0.9);
    }
  }
  return c;
}

// Lazy random walk on a k x k torus (an aperiodic, irreducible DTMC).
markov::Dtmc torus_walk(std::size_t k) {
  markov::Dtmc d;
  for (std::size_t s = 0; s < k * k; ++s) {
    d.add_state("d" + std::to_string(s));
  }
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t s = i * k + j;
      d.add_transition(s, s, 0.2);
      d.add_transition(s, ((i + 1) % k) * k + j, 0.3);
      d.add_transition(s, i * k + (j + 1) % k, 0.1 + 0.001 * i);
      d.add_transition(s, ((i + k - 1) % k) * k + j, 0.2);
      d.add_transition(s, i * k + (j + k - 1) % k, 0.2 - 0.001 * i);
    }
  }
  return d;
}

// --- the four solvers -------------------------------------------------------

std::vector<double> solve_gth(const markov::Ctmc& c) {
  return gth_steady_state(c.dense_generator());
}

std::vector<double> solve_sor(const markov::Ctmc& c, unsigned jobs,
                              bool use_cache) {
  markov::SteadyStateOptions opts;
  opts.dense_threshold = 0;  // force the iterative path
  opts.solver = robust::SolverChoice::kSor;
  opts.sor.tol = 1e-13;
  opts.jobs = jobs;
  opts.use_cache = use_cache;
  return c.steady_state(opts);
}

std::vector<double> solve_power(const markov::Ctmc& c, unsigned jobs) {
  // Power iteration on the uniformized DTMC P = I + Q/q.
  const std::size_t n = c.state_count();
  double q = 0.0;
  for (std::size_t s = 0; s < n; ++s) q = std::max(q, c.exit_rate(s));
  q *= 1.02;
  const SparseMatrix qm = c.sparse_generator();
  SparseBuilder b(n, n);
  for (std::size_t s = 0; s < n; ++s) {
    b.add(s, s, 1.0 - c.exit_rate(s) / q);
  }
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t k = qm.row_begin(r); k < qm.row_end(r); ++k) {
      if (qm.col(k) != r) b.add(r, qm.col(k), qm.value(k) / q);
    }
  }
  PowerOptions opts;
  opts.tol = 1e-14;
  opts.jobs = jobs;
  return power_steady_state(b.build(), opts).pi;
}

std::vector<double> solve_bicgstab(const markov::Ctmc& c, unsigned jobs,
                                   bool use_cache, bool use_rcm = true) {
  markov::SteadyStateOptions opts;
  opts.solver = robust::SolverChoice::kBicgstab;  // forced, still verified
  opts.bicgstab.use_rcm = use_rcm;
  opts.bicgstab.tol = 1e-11;
  opts.jobs = jobs;
  opts.use_cache = use_cache;
  return c.steady_state(opts);
}

std::vector<double> solve_ad(const markov::Ctmc& c, unsigned jobs,
                             bool use_cache) {
  markov::SteadyStateOptions opts;
  opts.solver = robust::SolverChoice::kAd;
  opts.ncd.tol = 1e-11;
  opts.jobs = jobs;
  opts.use_cache = use_cache;
  return c.steady_state(opts);
}

std::vector<double> solve_uniformization(const markov::Ctmc& c,
                                         const std::vector<double>& pi_ref,
                                         unsigned jobs) {
  // Steady state is a fixed point of the transient operator: starting
  // *at* pi_ref must stay at pi_ref for any horizon.
  return c.transient(pi_ref, 5.0, 1e-13, jobs);
}

void expect_agree(const std::vector<double>& a, const std::vector<double>& b,
                  const char* what, std::size_t chain) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_NEAR(a[i], b[i], kAgreeTol)
        << what << " disagrees with GTH on chain " << chain << " at state "
        << i;
  }
}

class CacheOffGuard {
 public:
  CacheOffGuard() {
    markov::SolutionCache::instance().clear();
    markov::SolutionCache::instance().set_enabled(false);
  }
  ~CacheOffGuard() {
    markov::SolutionCache::instance().set_enabled(true);
    markov::SolutionCache::instance().clear();
  }
};

}  // namespace

// 200 chains x {GTH, SOR, power, uniformization} at jobs = 1, cache off:
// the pure sequential cross-solver contract.
TEST(SolverAgreement, TwoHundredChainsSequential) {
  const CacheOffGuard guard;
  for (std::size_t chain = 0; chain < 200; ++chain) {
    const markov::Ctmc c = make_chain(chain);
    const std::vector<double> ref = solve_gth(c);
    expect_agree(ref, solve_sor(c, 1, false), "SOR(jobs=1)", chain);
    expect_agree(ref, solve_power(c, 1), "power(jobs=1)", chain);
    expect_agree(ref, solve_uniformization(c, ref, 1),
                 "uniformization(jobs=1)", chain);
  }
}

// A spread of the same chains at jobs = 4: the parallel kernels (chunked
// SOR residual, chunked matvec) must land on the same answers. Runs under
// TSan via the `tsan` label.
TEST(SolverAgreement, ParallelJobsFourMatchesGth) {
  const CacheOffGuard guard;
  for (std::size_t chain = 0; chain < 200; chain += 5) {
    const markov::Ctmc c = make_chain(chain);
    const std::vector<double> ref = solve_gth(c);
    expect_agree(ref, solve_sor(c, 4, false), "SOR(jobs=4)", chain);
    expect_agree(ref, solve_power(c, 4), "power(jobs=4)", chain);
    expect_agree(ref, solve_uniformization(c, ref, 4),
                 "uniformization(jobs=4)", chain);
  }
}

// jobs = 1 and jobs = 4 agree with each other to full precision on the
// iterative path (the determinism contract makes the parallel residual /
// matvec reproduce sequential accumulation; see docs/parallelism.md).
TEST(SolverAgreement, JobsOneAndFourAgree) {
  const CacheOffGuard guard;
  for (std::size_t chain = 0; chain < 200; chain += 10) {
    const markov::Ctmc c = make_chain(chain);
    const std::vector<double> seq = solve_sor(c, 1, false);
    const std::vector<double> par = solve_sor(c, 4, false);
    ASSERT_EQ(seq.size(), par.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
      ASSERT_NEAR(seq[i], par[i], 1e-14) << "chain " << chain;
    }
  }
}

// Every jobs value returns the jobs = 1 bits. Each product is row-parallel
// (x A runs as A^T x), so no kernel groups a sum by chunk: uniformization
// (transient and cumulative), forced power, and the DTMC transient and
// stationary solves, plus forced SOR and BiCGSTAB, whose chunked loops
// already reduced in a fixed order. Runs under TSan via the `tsan` label.
TEST(SolverAgreement, JobsDoNotChangeBits) {
  const CacheOffGuard guard;
  const markov::Ctmc big = grid_chain(120);
  const markov::Ctmc small = grid_chain(40);
  const markov::Dtmc walk = torus_walk(30);
  const auto forced = [&](robust::SolverChoice solver, unsigned jobs) {
    markov::SteadyStateOptions opts;
    opts.dense_threshold = 0;
    opts.solver = solver;
    opts.jobs = jobs;
    opts.use_cache = false;
    return small.steady_state(opts);
  };
  const std::vector<std::string> what = {
      "transient", "cumulative_time", "forced power", "forced SOR",
      "forced BiCGSTAB", "Dtmc::transient", "Dtmc::steady_state"};
  std::vector<std::vector<double>> ref;
  for (const unsigned jobs : {1u, 2u, 4u}) {
    const std::vector<std::vector<double>> got = {
        big.transient(big.point_mass(0), 3.0, 1e-12, jobs),
        big.cumulative_time(big.point_mass(0), 3.0, 1e-12, jobs),
        forced(robust::SolverChoice::kPower, jobs),
        forced(robust::SolverChoice::kSor, jobs),
        forced(robust::SolverChoice::kBicgstab, jobs),
        walk.transient(walk.point_mass(0), 200, jobs),
        walk.steady_state(0, jobs)};
    if (jobs == 1) {
      ref = got;
      continue;
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].size(), ref[i].size()) << what[i];
      EXPECT_EQ(std::memcmp(got[i].data(), ref[i].data(),
                            got[i].size() * sizeof(double)),
                0)
          << what[i] << " at jobs " << jobs << " differs from jobs 1";
    }
  }
}

// Cache on: the second identical solve is served from the cache and is
// exactly the first result; cached and uncached answers agree with GTH.
TEST(SolverAgreement, CacheOnAgreesAndHits) {
  auto& cache = markov::SolutionCache::instance();
  cache.clear();
  cache.set_enabled(true);
  for (std::size_t chain = 0; chain < 200; chain += 7) {
    const markov::Ctmc c = make_chain(chain);
    const std::vector<double> ref = solve_gth(c);
    const std::vector<double> first = solve_sor(c, 1, true);
    const std::uint64_t hits_before = cache.hits();
    robust::SolveReport report;
    markov::SteadyStateOptions opts;
    opts.dense_threshold = 0;
    opts.solver = robust::SolverChoice::kSor;
    opts.sor.tol = 1e-13;
    const std::vector<double> second = c.steady_state(opts, &report);
    EXPECT_EQ(cache.hits(), hits_before + 1) << "chain " << chain;
    EXPECT_TRUE(report.cache_hit) << "chain " << chain;
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
      ASSERT_EQ(first[i], second[i]) << "cached result differs, chain "
                                     << chain;
    }
    expect_agree(ref, second, "cached SOR", chain);
  }
  cache.clear();
}

// Long-horizon uniformization from a point mass converges to the
// stationary distribution on the birth-death subset (small mixing times).
TEST(SolverAgreement, LongHorizonTransientReachesSteadyState) {
  const CacheOffGuard guard;
  for (std::size_t chain = 0; chain < 200; chain += 3) {  // family 0 only
    const markov::Ctmc c = make_chain(chain);
    const std::vector<double> ref = solve_gth(c);
    const std::vector<double> pi = c.transient(c.point_mass(0), 50000.0);
    ASSERT_EQ(ref.size(), pi.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_NEAR(ref[i], pi[i], 1e-7) << "chain " << chain;
    }
  }
}

// Budget cancellation mid-solve at jobs = 4: an already-hopeless deadline
// must surface as ConvergenceError carrying a partial iterate of the right
// size and a populated report — and must not leak pool threads (this test
// is in the TSan label set).
TEST(SolverAgreement, DeadlineMidSolveAtJobsFourReturnsPartial) {
  const CacheOffGuard guard;
  markov::Ctmc c;
  const std::size_t n = 20000;
  c.add_states(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    c.add_transition(i, i + 1, 1.0);
    c.add_transition(i + 1, i, 1.4);
  }
  markov::SteadyStateOptions opts;
  opts.dense_threshold = 0;
  opts.solver = robust::SolverChoice::kSor;
  opts.sor.tol = 1e-15;
  opts.jobs = 4;
  const robust::ScopedDeadline deadline(robust::Deadline::after_seconds(0.02));
  try {
    c.steady_state(opts);
    FAIL() << "a 20ms deadline finished a 20000-state 1e-15 solve";
  } catch (const robust::ConvergenceError& e) {
    EXPECT_EQ(e.partial_result().size(), n);
    EXPECT_FALSE(e.report().converged);
    EXPECT_GT(e.report().iterations, 0u);
    EXPECT_FALSE(e.report().attempts.empty());
  }
}

// 200 chains through forced BiCGSTAB (ILU0 with RCM) at jobs = 1, cache
// off.
TEST(SolverAgreement, BicgstabMatchesGthSequential) {
  const CacheOffGuard guard;
  for (std::size_t chain = 0; chain < 200; ++chain) {
    const markov::Ctmc c = make_chain(chain);
    const std::vector<double> ref = solve_gth(c);
    expect_agree(ref, solve_bicgstab(c, 1, false), "bicgstab(ilu0,jobs=1)",
                 chain);
  }
}

// The same chains at jobs = 4: the pooled matvec inside the Krylov loop
// must land on the same answers (tsan label covers the data-race side).
TEST(SolverAgreement, BicgstabParallelJobsFourMatchesGth) {
  const CacheOffGuard guard;
  for (std::size_t chain = 0; chain < 200; chain += 5) {
    const markov::Ctmc c = make_chain(chain);
    const std::vector<double> ref = solve_gth(c);
    expect_agree(ref, solve_bicgstab(c, 4, false),
                 "bicgstab(ilu0,jobs=4)", chain);
  }
}

// Cache on: a forced-bicgstab solve is keyed on the effective solver
// choice, so the second identical solve hits and returns byte-identical
// results — and never collides with a forced-SOR entry for the same chain.
TEST(SolverAgreement, BicgstabCacheOnAgreesAndHits) {
  auto& cache = markov::SolutionCache::instance();
  cache.clear();
  cache.set_enabled(true);
  for (std::size_t chain = 0; chain < 200; chain += 9) {
    const markov::Ctmc c = make_chain(chain);
    const std::vector<double> ref = solve_gth(c);
    const std::vector<double> first =
        solve_bicgstab(c, 1, true);
    const std::uint64_t hits_before = cache.hits();
    const std::vector<double> second =
        solve_bicgstab(c, 1, true);
    EXPECT_EQ(cache.hits(), hits_before + 1) << "chain " << chain;
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
      ASSERT_EQ(first[i], second[i]) << "cached result differs, chain "
                                     << chain;
    }
    // A different forced solver must MISS (distinct cache key), not serve
    // the bicgstab entry.
    const std::uint64_t hits_mid = cache.hits();
    const std::vector<double> sor = solve_sor(c, 1, true);
    EXPECT_EQ(cache.hits(), hits_mid) << "solver choice leaked into the "
                                         "cache key, chain " << chain;
    expect_agree(ref, second, "cached bicgstab", chain);
    expect_agree(ref, sor, "SOR after bicgstab caching", chain);
  }
  cache.clear();
}

// Four threads solve the same chains through the shared cache: one small
// chain and two large ones (two states joined by just over kLargeWords / 3
// parallel transitions), which take, free and promote from the probation
// slot. Every answer, hit or miss, must carry the uncached solve's bits.
TEST(SolverAgreement, ConcurrentCachedSolvesKeepTheirBits) {
  const auto large = [](double rate) {
    markov::Ctmc c;
    c.add_states(2);
    for (std::size_t i = 0; i <= markov::SolutionCache::kLargeWords / 6; ++i) {
      c.add_transition(0, 1, rate);
      c.add_transition(1, 0, 1.0);
    }
    return c;
  };
  const std::vector<markov::Ctmc> chains = {large(0.3), large(0.6),
                                            make_chain(3)};
  std::vector<std::vector<double>> expect;
  {
    const CacheOffGuard guard;
    for (const markov::Ctmc& c : chains) expect.push_back(c.steady_state());
  }
  auto& cache = markov::SolutionCache::instance();
  cache.clear();
  const std::uint64_t hits_before = cache.hits();
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t k = 0; k < 12; ++k) {
        const std::size_t i = (t + k) % chains.size();
        const std::vector<double> pi = chains[i].steady_state();
        if (pi.size() != expect[i].size() ||
            std::memcmp(pi.data(), expect[i].data(),
                        pi.size() * sizeof(double)) != 0) {
          ++wrong;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(cache.hits(), hits_before);
  cache.clear();
}

// 200 NCD chains through forced aggregation-disaggregation at jobs 1 and
// (every fifth) jobs 4, cache off, plus one cached double-solve.
TEST(SolverAgreement, AdMatchesGthOnNcdChains) {
  {
    const CacheOffGuard guard;
    for (std::size_t chain = 0; chain < 200; ++chain) {
      const markov::Ctmc c = make_ncd_chain(chain);
      const std::vector<double> ref = solve_gth(c);
      expect_agree(ref, solve_ad(c, 1, false), "ad(jobs=1)", chain);
      if (chain % 5 == 0) {
        expect_agree(ref, solve_ad(c, 4, false), "ad(jobs=4)", chain);
      }
    }
  }
  auto& cache = markov::SolutionCache::instance();
  cache.clear();
  cache.set_enabled(true);
  const markov::Ctmc c = make_ncd_chain(0);
  const std::vector<double> first = solve_ad(c, 1, true);
  const std::uint64_t hits_before = cache.hits();
  const std::vector<double> second = solve_ad(c, 1, true);
  EXPECT_EQ(cache.hits(), hits_before + 1);
  for (std::size_t i = 0; i < first.size(); ++i) {
    ASSERT_EQ(first[i], second[i]);
  }
  cache.clear();
}

// RCM round-trip property: symmetric-permuting the generator by the RCM
// ordering, solving the permuted chain exactly (GTH), and inverting the
// permutation must reproduce the direct solve — the permutation is pure
// relabeling, never a different answer.
TEST(SolverAgreement, RcmPermuteSolveInvertMatchesDirect) {
  for (std::size_t chain = 0; chain < 200; chain += 4) {
    const markov::Ctmc c = make_chain(chain);
    const std::size_t n = c.state_count();
    // Transposed off-diagonal generator + diagonal, as the solvers use.
    const SparseMatrix qm = c.sparse_generator();
    SparseBuilder bt(n, n);
    std::vector<double> diag(n, 0.0);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t k = qm.row_begin(r); k < qm.row_end(r); ++k) {
        if (qm.col(k) == r) continue;
        bt.add(qm.col(k), r, qm.value(k));
        diag[r] -= qm.value(k);
      }
    }
    const SparseMatrix qt = bt.build();

    const std::vector<std::size_t> perm = rcm_ordering(qt);
    std::vector<std::size_t> sorted = perm;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(sorted[i], i) << "rcm_ordering is not a permutation";
    }
    const std::vector<std::size_t> inv = invert_ordering(perm);

    const SparseMatrix qt_p = permute_symmetric(qt, perm);
    const std::vector<double> diag_p = permute_vector(diag, perm);

    auto densify = [](const SparseMatrix& t, const std::vector<double>& d) {
      Matrix q(t.rows(), t.rows());
      for (std::size_t i = 0; i < t.rows(); ++i) {
        for (std::size_t k = t.row_begin(i); k < t.row_end(i); ++k) {
          q(t.col(k), i) += t.value(k);
        }
        q(i, i) = d[i];
      }
      return q;
    };
    const std::vector<double> direct = gth_steady_state(densify(qt, diag));
    const std::vector<double> permuted =
        gth_steady_state(densify(qt_p, diag_p));
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_NEAR(direct[i], permuted[inv[i]], 1e-12)
          << "chain " << chain << " state " << i;
    }
  }
}
