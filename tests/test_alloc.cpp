// Allocation guard for state-space construction. This executable replaces
// the global operator new with a counting one (the reason it is a binary of
// its own), then pins how many heap allocations the per-element entry
// points make: a passing check must make none, adding states must not
// allocate per state, and adding transitions or triplets may only grow
// their vectors geometrically. Timing tests on a shared host cannot catch a
// regression here; a count can.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/sparse.hpp"
#include "markov/ctmc.hpp"

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

}  // namespace
}  // namespace relkit
