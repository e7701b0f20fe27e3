// Allocation guard for state-space construction and the per-element paths
// around it. This executable replaces the global operator new with a
// counting one (the reason it is a binary of its own), then pins how many
// heap allocations the per-element entry points make: a passing check must
// make none, adding states must not allocate per state, adding transitions
// or triplets may only grow their vectors geometrically, and validating a
// chain's rows or evaluating a BDD must not build a message per state or
// node, walking a BDD for one assignment or sampling a CTMC lifetime must
// not allocate at all, and neither a uniformization step nor a BiCGSTAB
// iteration may allocate. Timing tests on a shared host cannot catch a
// regression here; a count can.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "common/error.hpp"
#include "common/krylov.hpp"
#include "common/rng.hpp"
#include "common/sparse.hpp"
#include "dft/dft.hpp"
#include "markov/ctmc.hpp"
#include "markov/dtmc.hpp"
#include "markov/solution_cache.hpp"
#include "robust/report.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace relkit {
namespace {

/// Global allocations made while `fn` runs on this thread.
template <class Fn>
std::size_t allocations_during(Fn&& fn) {
  g_allocations.store(0);
  g_counting.store(true);
  fn();
  g_counting.store(false);
  return g_allocations.load();
}

// Opaque to the optimizer, so checks are not folded away at compile time.
volatile bool g_true = true;

TEST(AllocGuard, CounterSeesAllocations) {
  std::vector<double> kept;  // outlives the count: the allocation is real
  const std::size_t n = allocations_during([&] { kept.assign(100, 1.0); });
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(kept.size(), 100u);
}

TEST(AllocGuard, PassingChecksDoNotAllocate) {
  const std::string held = "AllocGuard: a std::string message, 40 ch";
  const std::size_t n = allocations_during([&] {
    for (int i = 0; i < 1000; ++i) {
      detail::require(g_true, "AllocGuard: a message of forty characters");
      detail::require_model(g_true, "AllocGuard: a message of forty chars too");
      detail::require(g_true, held);
      detail::require_model(g_true, held);
    }
  });
  EXPECT_EQ(n, 0u);
  // A failing check still throws the same type with the same text.
  try {
    detail::require(!g_true, "AllocGuard: a message of forty characters");
    ADD_FAILURE() << "require did not throw";
  } catch (const InvalidArgument& e) {
    EXPECT_STREQ(e.what(), "AllocGuard: a message of forty characters");
  }
  EXPECT_THROW(detail::require_model(!g_true, "x"), ModelError);
}

TEST(AllocGuard, AddStatesAllocatesIndependentlyOfCount) {
  markov::Ctmc small, large;
  const std::size_t n_small =
      allocations_during([&] { small.add_states(100000); });
  const std::size_t n_large =
      allocations_during([&] { large.add_states(400000); });
  EXPECT_LE(n_small, 2u);
  EXPECT_EQ(n_small, n_large);
  EXPECT_EQ(large.state_count(), 400000u);
}

TEST(AllocGuard, AddTransitionGrowsGeometrically) {
  constexpr std::size_t kCalls = 100000;
  markov::Ctmc chain;
  chain.add_states(kCalls + 1);
  const std::size_t n = allocations_during([&] {
    for (std::size_t i = 0; i < kCalls; ++i) {
      chain.add_transition(i, i + 1, 1.0 + static_cast<double>(i % 7));
    }
  });
  EXPECT_LT(n, 64u);
}

TEST(AllocGuard, SparseBuilderAddGrowsGeometrically) {
  constexpr std::size_t kCalls = 100000;
  SparseBuilder b(1000, 1000);
  const std::size_t n = allocations_during([&] {
    for (std::size_t i = 0; i < kCalls; ++i) {
      b.add(i % 1000, i / 100, 1.0);
    }
  });
  EXPECT_LT(n, 64u);
  EXPECT_EQ(b.build().nnz(), kCalls);
}

TEST(AllocGuard, SparseBuilderReserveTakesEveryAdd) {
  constexpr std::size_t kCalls = 100000;
  SparseBuilder b(1000, 1000);
  b.reserve(kCalls);
  const std::size_t n = allocations_during([&] {
    for (std::size_t i = 0; i < kCalls; ++i) {
      b.add(i % 1000, i / 100, 1.0);
    }
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(b.build().nnz(), kCalls);
}

TEST(AllocGuard, SparseGeneratorAllocatesIndependentlyOfTransitions) {
  // Rings of 10^3 and 10^5 states, each state linked to both neighbours and
  // to the state opposite: four entries a row, far below
  // CsrAssembler::kInsertionWidth.
  const auto ring = [](std::size_t n) {
    markov::Ctmc chain;
    chain.add_states(n);
    for (std::size_t i = 0; i < n; ++i) {
      chain.add_transition(i, (i + 1) % n, 1.0);
      chain.add_transition((i + 1) % n, i, 2.0);
      chain.add_transition(i, (i + n / 2) % n, 0.5);
    }
    return chain;
  };
  const markov::Ctmc small = ring(1000);
  const markov::Ctmc large = ring(100000);
  SparseMatrix q_small = small.sparse_generator();  // warms the injector
  SparseMatrix q_large;
  const std::size_t n_small =
      allocations_during([&] { q_small = small.sparse_generator(); });
  const std::size_t n_large =
      allocations_during([&] { q_large = large.sparse_generator(); });
  // The row pointers, the row cursors, the columns, the values and the
  // diagonal: no triplet vector and no sort index.
  EXPECT_LE(n_small, 5u);
  EXPECT_EQ(n_small, n_large);
  EXPECT_EQ(q_large.nnz(), 4 * 100000u);
}

TEST(AllocGuard, BddProbAllocatesOnlyItsMemo) {
  bdd::Manager m;
  std::vector<bdd::NodeRef> vars;
  for (std::uint32_t i = 0; i < 64; ++i) vars.push_back(m.var(i));
  const bdd::NodeRef f = m.at_least(32, vars);
  const std::vector<double> p(64, 0.5);
  const double warm = m.prob(f, p);
  double again = 0.0;
  const std::size_t n = allocations_during([&] { again = m.prob(f, p); });
  EXPECT_EQ(again, warm);
  // One memo entry per node plus the memo's buckets and the stack; no
  // message per node.
  EXPECT_LT(n, m.node_count(f) + 64);
  // A vector that misses a level still throws the same type and text.
  try {
    m.prob(m.var(3), std::vector<double>(2, 0.5));
    ADD_FAILURE() << "prob did not throw";
  } catch (const InvalidArgument& e) {
    EXPECT_STREQ(e.what(),
                 "prob: probability vector does not cover variable level 3");
  }
}

TEST(AllocGuard, BddEvaluateDoesNotAllocate) {
  bdd::Manager m;
  std::vector<bdd::NodeRef> vars;
  for (std::uint32_t i = 0; i < 64; ++i) vars.push_back(m.var(i));
  const bdd::NodeRef f = m.at_least(32, vars);
  std::uint64_t bits = 0x9e3779b97f4a7c15ULL;
  std::size_t mismatches = 0;
  const std::size_t n = allocations_during([&] {
    for (int i = 0; i < 1000; ++i) {
      bits = bits * 6364136223846793005ULL + 1442695040888963407ULL;
      if (m.evaluate(f, bits) != (std::popcount(bits) >= 32)) ++mismatches;
    }
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(mismatches, 0u);
}

TEST(AllocGuard, CtmcLifetimeSampleDoesNotAllocate) {
  // The cold-spare chain of CtmcLifetimeTest.SamplingMatchesMoments.
  markov::Ctmc chain;
  const auto primary = chain.add_state("primary");
  const auto spare = chain.add_state("spare");
  const auto fired = chain.add_state("fired");
  chain.add_transition(primary, spare, 0.1);
  chain.add_transition(spare, fired, 0.1);
  const dft::CtmcLifetime life(std::move(chain), {1.0, 0.0, 0.0},
                               {false, false, true});
  Rng rng(13);
  double sum = 0.0;
  const std::size_t n = allocations_during([&] {
    for (int i = 0; i < 1000; ++i) sum += life.sample(rng);
  });
  EXPECT_EQ(n, 0u);
  EXPECT_NEAR(sum / 1000.0, 20.0, 2.0);  // mean 20, sd 14.1 per sample
}

TEST(AllocGuard, DtmcRowValidationDoesNotAllocatePerState) {
  constexpr std::size_t kStates = 10000;
  markov::Dtmc chain;
  for (std::size_t s = 0; s < kStates; ++s) {
    chain.add_state("s" + std::to_string(s));
  }
  for (std::size_t s = 0; s + 1 < kStates; ++s) {
    chain.add_transition(s, s + 1, 1.0);  // the last state absorbs
  }
  std::size_t nnz = 0;
  const std::size_t n =
      allocations_during([&] { nnz = chain.sparse_matrix().nnz(); });
  EXPECT_LT(n, 64u);
  EXPECT_EQ(nnz, kStates);
}

TEST(AllocGuard, TransientStepsDoNotAllocate) {
  constexpr std::size_t kStates = 1000;
  markov::Ctmc chain;
  chain.add_states(kStates);
  for (std::size_t s = 0; s + 1 < kStates; ++s) {
    chain.add_transition(s, s + 1, 1.0);
    chain.add_transition(s + 1, s, 1.5);
  }
  const std::vector<double> pi0 = chain.point_mass(0);
  // The cache would add its key and entry; this counts the solve itself.
  markov::SolutionCache::instance().set_enabled(false);
  for (const double t : {10.0, 100.0}) {
    std::vector<double> pi, time_in_state;
    // Building P and the Poisson window allocates a fixed amount; the
    // series steps on two reused buffers (t = 100 takes ~370 steps).
    EXPECT_LT(allocations_during(
                  [&] { pi = chain.transient(pi0, t, 1e-12, 1); }),
              100u)
        << "transient at t = " << t;
    EXPECT_LT(allocations_during([&] {
                time_in_state = chain.cumulative_time(pi0, t, 1e-12, 1);
              }),
              100u)
        << "cumulative_time at t = " << t;
    EXPECT_EQ(pi.size(), kStates);
    EXPECT_EQ(time_in_state.size(), kStates);
  }
  markov::SolutionCache::instance().set_enabled(true);
}

TEST(AllocGuard, BicgstabIterationsDoNotAllocate) {
  // A 100 x 100 product-form grid; tol 1e-300 is out of reach, so the cap
  // ends every solve. Set-up (RCM, A, the ILU0 factor, the vectors) and the
  // ConvergenceError cost the same at either cap, so 48 more iterations may
  // add nothing but the trajectory's geometric growth.
  constexpr std::size_t kSide = 100;
  constexpr std::size_t kStates = kSide * kSide;
  SparseBuilder b(kStates, kStates);
  std::vector<double> diag(kStates, 0.0);
  const auto edge = [&](std::size_t from, std::size_t to, double rate) {
    b.add(to, from, rate);  // qt(to, from) = Q(from, to)
    diag[from] -= rate;
  };
  for (std::size_t i = 0; i < kSide; ++i) {
    for (std::size_t j = 0; j < kSide; ++j) {
      const std::size_t s = i * kSide + j;
      if (i + 1 < kSide) edge(s, s + kSide, 0.7 + 0.001 * j);
      if (i > 0) edge(s, s - kSide, 1.1);
      if (j + 1 < kSide) edge(s, s + 1, 0.5 + 0.002 * i);
      if (j > 0) edge(s, s - 1, 0.9);
    }
  }
  const SparseMatrix qt = b.build();
  const auto capped = [&](std::size_t cap) {
    BicgstabOptions opts;
    opts.tol = 1e-300;
    opts.max_iters = cap;
    opts.jobs = 1;
    std::size_t iterations = 0;
    const std::size_t n = allocations_during([&] {
      try {
        bicgstab_steady_state(qt, diag, opts);
      } catch (const robust::ConvergenceError& e) {
        iterations = e.report().iterations;
      }
    });
    EXPECT_EQ(iterations, cap);
    return n;
  };
  const std::size_t at16 = capped(16);
  const std::size_t at64 = capped(64);
  EXPECT_LE(at64, at16) << "48 more iterations made " << at64 - at16
                        << " more allocations";
}

}  // namespace
}  // namespace relkit
