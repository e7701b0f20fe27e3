// Unit + property tests for CTMC solvers: steady state, uniformization
// transient vs matrix exponential, cumulative rewards, absorbing analysis,
// sensitivities, birth-death closed forms.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <vector>

#include "common/error.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "common/sparse.hpp"
#include "markov/ctmc.hpp"
#include "markov/solution_cache.hpp"
#include "robust/fault_injection.hpp"

namespace relkit::markov {
namespace {

// The tutorial's canonical 2-state availability model.
Ctmc two_state(double lambda, double mu) {
  Ctmc c;
  const StateId up = c.add_state("up");
  const StateId down = c.add_state("down");
  c.add_transition(up, down, lambda);
  c.add_transition(down, up, mu);
  return c;
}

TEST(CtmcBasics, StateManagement) {
  Ctmc c;
  const StateId a = c.add_state("a");
  EXPECT_EQ(c.state_index("a"), a);
  EXPECT_EQ(c.state_name(a), "a");
  EXPECT_THROW(c.state_index("nope"), InvalidArgument);
  EXPECT_THROW(c.add_state("a"), InvalidArgument);
  EXPECT_THROW(c.add_transition(a, a, 1.0), InvalidArgument);
  EXPECT_TRUE(c.is_absorbing(a));
}

TEST(CtmcNaming, AnonymousStatesAnswerToImpliedNames) {
  Ctmc c;
  EXPECT_EQ(c.add_states(5), 0u);
  EXPECT_EQ(c.state_count(), 5u);
  for (StateId k = 0; k < 5; ++k) {
    EXPECT_EQ(c.state_name(k), "s" + std::to_string(k));
    EXPECT_EQ(c.state_index("s" + std::to_string(k)), k);
  }
  // Only the exact spelling of an implied name resolves.
  EXPECT_THROW(c.state_index("s5"), InvalidArgument);
  EXPECT_THROW(c.state_index("s01"), InvalidArgument);
  EXPECT_THROW(c.state_index("s"), InvalidArgument);
  EXPECT_THROW(c.state_index("s-1"), InvalidArgument);
  EXPECT_THROW(c.state_index("S1"), InvalidArgument);
  EXPECT_THROW(c.state_name(5), InvalidArgument);
  EXPECT_THROW(c.add_states(0), InvalidArgument);
}

TEST(CtmcNaming, MixedNamedAndAnonymousStates) {
  Ctmc c;
  const StateId up = c.add_state("up");
  EXPECT_EQ(c.add_states(2), 1u);
  const StateId down = c.add_state("down");
  const StateId s4 = c.add_state("s4");  // its own implied name
  EXPECT_EQ(c.add_states(1), 5u);
  EXPECT_EQ(c.state_count(), 6u);
  const std::vector<std::string> names{"up", "s1", "s2", "down", "s4", "s5"};
  for (StateId k = 0; k < names.size(); ++k) {
    EXPECT_EQ(c.state_name(k), names[k]);
    EXPECT_EQ(c.state_index(names[k]), k);
  }
  EXPECT_EQ(up, 0u);
  EXPECT_EQ(down, 3u);
  EXPECT_EQ(s4, 4u);
  // A named state's implied name is not an alias.
  EXPECT_THROW(c.state_index("s0"), InvalidArgument);
  EXPECT_THROW(c.state_index("s3"), InvalidArgument);
  c.add_transition(up, 2, 1.0);
  c.add_transition(2, up, 2.0);
  EXPECT_EQ(c.exit_rate(2), 2.0);
}

TEST(CtmcNaming, DuplicateImpliedNamesThrowWhicheverCameFirst) {
  {
    Ctmc c;
    c.add_states(5);
    try {
      c.add_state("s3");
      ADD_FAILURE() << "duplicate of an implied name accepted";
    } catch (const InvalidArgument& e) {
      EXPECT_STREQ(e.what(), "Ctmc::add_state: duplicate state 's3'");
    }
    EXPECT_EQ(c.state_count(), 5u);
    EXPECT_EQ(c.add_state("s5"), 5u);
    EXPECT_THROW(c.add_state("s5"), InvalidArgument);
  }
  {
    Ctmc c;
    EXPECT_EQ(c.add_state("s3"), 0u);
    try {
      c.add_states(5);
      ADD_FAILURE() << "implied name clashing with a stored one accepted";
    } catch (const InvalidArgument& e) {
      EXPECT_STREQ(e.what(), "Ctmc::add_state: duplicate state 's3'");
    }
    // Nothing was added; states up to s2 do not clash.
    EXPECT_EQ(c.state_count(), 1u);
    EXPECT_EQ(c.add_states(2), 1u);
    EXPECT_THROW(c.add_states(1), InvalidArgument);
    EXPECT_EQ(c.add_state("x"), 3u);  // a named state 3 takes no implied name
    EXPECT_EQ(c.add_states(1), 4u);
    EXPECT_EQ(c.state_index("s3"), 0u);
    EXPECT_EQ(c.state_index("s4"), 4u);
  }
}

struct Edge {
  StateId from, to;
  double rate;
};

/// CSR arrays of the reference below.
struct Csr {
  std::vector<std::size_t> ptr, col;
  std::vector<double> val;
};

/// The generator as it was assembled through triplets: (from, to, rate) and
/// (from, from, -rate) per transition, bucketed by row, each row's triplet
/// indices sorted by (column, index), duplicates summed from 0.0 in add
/// order, zero sums dropped.
Csr triplet_generator(std::size_t n, const std::vector<Edge>& edges) {
  struct Triplet {
    std::size_t r, c;
    double v;
  };
  std::vector<Triplet> t;
  for (const Edge& e : edges) {
    t.push_back({e.from, e.to, e.rate});
    t.push_back({e.from, e.from, -e.rate});
  }
  std::vector<std::size_t> order(t.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (t[a].r != t[b].r) return t[a].r < t[b].r;
    return t[a].c != t[b].c ? t[a].c < t[b].c : a < b;
  });
  Csr csr;
  csr.ptr.assign(n + 1, 0);
  for (std::size_t i = 0; i < order.size();) {
    const Triplet& first = t[order[i]];
    double v = 0.0;
    for (; i < order.size() && t[order[i]].r == first.r &&
           t[order[i]].c == first.c;
         ++i) {
      v += t[order[i]].v;
    }
    if (v != 0.0) {
      csr.col.push_back(first.c);
      csr.val.push_back(v);
      ++csr.ptr[first.r + 1];
    }
  }
  for (std::size_t r = 0; r < n; ++r) csr.ptr[r + 1] += csr.ptr[r];
  return csr;
}

TEST(CtmcGenerator, SparseGeneratorEqualsTheTripletPath) {
  // Random chains with parallel transitions (the same pair again at another
  // rate), rates over twelve decades, a few absorbing states, and rows of
  // up to a hundred entries.
  for (const std::size_t n : {2u, 9u, 60u, 400u}) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      SCOPED_TRACE(::testing::Message() << n << " states, seed " << seed);
      Rng rng(seed * 7919 + n);
      std::vector<Edge> edges;
      const std::size_t count = 3 * n + rng.below(4 * n);
      while (edges.size() < count) {
        StateId from = rng.below(n);
        if (n > 8 && from % 7 == 3) continue;  // absorbing
        if (rng.below(16) == 0) from = 0;       // a wide row
        const StateId to = rng.below(n);
        if (to == from) continue;
        const double rate = std::pow(10.0, 12.0 * rng.uniform() - 6.0);
        edges.push_back({from, to, rate});
        if (rng.below(5) == 0) edges.push_back({from, to, rate * 0.37});
      }
      Ctmc chain;
      chain.add_states(n);
      for (const Edge& e : edges) chain.add_transition(e.from, e.to, e.rate);
      const SparseMatrix got = chain.sparse_generator();
      const Csr want = triplet_generator(n, edges);
      ASSERT_EQ(got.nnz(), want.col.size());
      for (std::size_t r = 0; r < n; ++r) {
        ASSERT_EQ(got.row_end(r), want.ptr[r + 1]) << "row " << r;
      }
      for (std::size_t k = 0; k < want.col.size(); ++k) {
        ASSERT_EQ(got.col(k), want.col[k]) << "entry " << k;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got.value(k)),
                  std::bit_cast<std::uint64_t>(want.val[k]))
            << "entry " << k;
      }
    }
  }
}

TEST(CtmcSteady, TwoStateAvailability) {
  const double lambda = 1.0 / 1000.0, mu = 1.0 / 4.0;
  const Ctmc c = two_state(lambda, mu);
  const auto pi = c.steady_state();
  EXPECT_NEAR(pi[0], mu / (lambda + mu), 1e-14);
  EXPECT_NEAR(pi[1], lambda / (lambda + mu), 1e-14);
}

TEST(CtmcSteady, MatchesBirthDeathClosedForm) {
  // M/M/2/5-like chain.
  const std::vector<double> birth{3.0, 3.0, 3.0, 3.0, 3.0};
  const std::vector<double> death{2.0, 4.0, 4.0, 4.0, 4.0};
  Ctmc c;
  c.add_states(6);
  for (std::size_t i = 0; i < 5; ++i) {
    c.add_transition(i, i + 1, birth[i]);
    c.add_transition(i + 1, i, death[i]);
  }
  const auto pi = c.steady_state();
  const auto closed = birth_death_steady_state(birth, death);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_NEAR(pi[i], closed[i], 1e-13);
}

TEST(CtmcSteady, LargeChainUsesSorAndMatchesGth) {
  // 700-state birth-death chain exceeds the dense threshold (512).
  const std::size_t n = 700;
  Ctmc c;
  c.add_states(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    c.add_transition(i, i + 1, 1.0);
    c.add_transition(i + 1, i, 1.3);
  }
  const auto pi_sor = c.steady_state();  // SOR path
  SteadyStateOptions dense_opts;
  dense_opts.dense_threshold = 1024;
  const auto pi_gth = c.steady_state(dense_opts);  // GTH path
  for (std::size_t i = 0; i < n; i += 37) {
    EXPECT_NEAR(pi_sor[i], pi_gth[i], 1e-8) << "state " << i;
  }
}

TEST(CtmcTransient, MatchesMatrixExponential) {
  Rng rng(31);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t n = 3 + rng.below(3);
    Ctmc c;
    c.add_states(n);
    Matrix q(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        if (rng.uniform() < 0.7) {
          const double rate = 0.1 + 3.0 * rng.uniform();
          c.add_transition(i, j, rate);
          q(i, j) = rate;
          q(i, i) -= rate;
        }
      }
    }
    const double t = 0.5 + 2.0 * rng.uniform();
    const Matrix p = expm(q * t);
    const auto pi = c.transient(c.point_mass(0), t);
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(pi[j], p(0, j), 1e-9) << "trial " << trial << " j " << j;
    }
  }
}

TEST(CtmcTransient, TwoStateClosedForm) {
  const double lambda = 0.5, mu = 2.0;
  const Ctmc c = two_state(lambda, mu);
  for (double t : {0.0, 0.1, 0.5, 1.0, 5.0, 50.0}) {
    const auto pi = c.transient(c.point_mass(0), t);
    const double a = mu / (lambda + mu) +
                     lambda / (lambda + mu) * std::exp(-(lambda + mu) * t);
    EXPECT_NEAR(pi[0], a, 1e-11) << "t=" << t;
  }
}

TEST(CtmcTransient, StiffChainLargeQt) {
  // Fast repair (mu = 1e4) over long horizon: qt ~ 1e6.
  const Ctmc c = two_state(1.0, 1e4);
  const auto pi = c.transient(c.point_mass(0), 100.0);
  EXPECT_NEAR(pi[0], 1e4 / (1e4 + 1.0), 1e-9);
  double s = 0.0;
  for (double x : pi) s += x;
  EXPECT_NEAR(s, 1.0, 1e-10);
}

TEST(CtmcTransient, ValidatesDistribution) {
  const Ctmc c = two_state(1.0, 1.0);
  EXPECT_THROW(c.transient({0.5, 0.4}, 1.0), InvalidArgument);
  EXPECT_THROW(c.transient({1.0}, 1.0), InvalidArgument);
  EXPECT_THROW(c.transient(c.point_mass(0), -1.0), InvalidArgument);
}

TEST(CtmcCumulative, TotalTimeSumsToHorizon) {
  const Ctmc c = two_state(0.3, 1.1);
  const double t = 7.0;
  const auto acc = c.cumulative_time(c.point_mass(0), t);
  EXPECT_NEAR(acc[0] + acc[1], t, 1e-9);
  // Starting up, time in up exceeds steady-state share.
  const auto pi = c.steady_state();
  EXPECT_GT(acc[0] / t, pi[0]);
}

TEST(CtmcCumulative, MatchesQuadratureOfTransient) {
  const Ctmc c = two_state(0.8, 1.7);
  const double t = 3.0;
  const auto acc = c.cumulative_time(c.point_mass(0), t);
  // Riemann check of integral of pi_up(u) du.
  double integral = 0.0;
  const int steps = 2000;
  for (int i = 0; i < steps; ++i) {
    const double u = (i + 0.5) * t / steps;
    integral += c.transient(c.point_mass(0), u)[0] * t / steps;
  }
  EXPECT_NEAR(acc[0], integral, 1e-4);
}

/// Same length and the same bits in every entry (0.0 vs -0.0 and NaN
/// payloads included, unlike ==).
bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Seeded random chain of 3-24 states: a forward path through every state
/// plus random extra transitions. With `absorbing`, the last state has no
/// exit.
Ctmc random_chain(std::uint64_t seed, bool absorbing) {
  Rng rng(seed);
  const std::size_t n = 3 + static_cast<std::size_t>(rng.uniform() * 22);
  const auto rate = [&] { return 0.01 + 5.0 * rng.uniform(); };
  const auto pick = [&](std::size_t m) {
    return static_cast<std::size_t>(rng.uniform() * static_cast<double>(m));
  };
  Ctmc c;
  c.add_states(n);
  for (std::size_t i = 0; i + 1 < n; ++i) c.add_transition(i, i + 1, rate());
  if (!absorbing) c.add_transition(n - 1, 0, rate());
  const std::size_t sources = absorbing ? n - 1 : n;
  for (std::size_t e = 0; e < 2 * n; ++e) {
    const std::size_t from = pick(sources);
    const std::size_t to = pick(n);
    if (from != to) c.add_transition(from, to, rate());
  }
  return c;
}

// transient_series runs one uniformization series for many time points;
// each of its entries must be what the single-point calls return, bit for
// bit. 60 seeded chains (every third absorbing), cache off, times unsorted
// with a repeat and t = 0, from a point mass and from a spread start.
TEST(TransientSeries, EqualsSinglePointCallsBitForBit) {
  SolutionCache::instance().set_enabled(false);
  const std::vector<double> times = {3.0, 0.25, 0.0, 40.0, 3.0, 1e-3, 12.5};
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    const Ctmc c = random_chain(seed, seed % 3 == 0);
    std::vector<double> pi0 = c.point_mass(0);
    if (seed % 2 == 1) {
      pi0.assign(c.state_count(), 0.0);
      pi0[0] = 0.5;
      pi0[1] = 0.25;
      pi0[2] = 0.25;
    }
    const std::vector<TransientPoint> series = c.transient_series(pi0, times);
    ASSERT_EQ(series.size(), times.size());
    for (std::size_t k = 0; k < times.size(); ++k) {
      EXPECT_TRUE(same_bits(series[k].pi, c.transient(pi0, times[k])))
          << "pi, seed " << seed << ", t = " << times[k];
      EXPECT_TRUE(
          same_bits(series[k].cumulative, c.cumulative_time(pi0, times[k])))
          << "L, seed " << seed << ", t = " << times[k];
    }
  }
  SolutionCache::instance().set_enabled(true);
}

// ---- solution cache admission -----------------------------------------------

/// Two states joined by `pairs` parallel transitions each way: a key just
/// over SolutionCache::kLargeWords (three words per transition) on a chain
/// that GTH solves at once. `rate` tells chains apart.
Ctmc heavy_pair(double rate) {
  constexpr std::size_t pairs = SolutionCache::kLargeWords / 6 + 1;
  Ctmc c;
  c.add_states(2);
  for (std::size_t i = 0; i < pairs; ++i) {
    c.add_transition(0, 1, rate);
    c.add_transition(1, 0, 1.0);
  }
  return c;
}

/// Solves `c` with the default options; true when the solve was a hit.
bool solve_hits(const Ctmc& c) {
  robust::SolveReport report;
  c.steady_state({}, &report);
  return report.cache_hit;
}

// A large chain's first solve takes the probation slot, and its immediate
// repeat hits there and promotes it into the LRU, where a later large miss
// (which frees only the slot) leaves it resident.
TEST(SolutionCacheAdmission, ImmediateRepeatOfALargeChainHits) {
  auto& cache = SolutionCache::instance();
  cache.clear();
  const Ctmc a = heavy_pair(0.25);
  robust::SolveReport first, second;
  const std::vector<double> pi = a.steady_state({}, &first);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(same_bits(a.steady_state({}, &second), pi));
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_FALSE(solve_hits(heavy_pair(0.2)));
  EXPECT_TRUE(solve_hits(a));
  EXPECT_EQ(cache.size(), 2u);
  cache.clear();
}

TEST(SolutionCacheAdmission, OneOffLargeChainsKeepOneResident) {
  auto& cache = SolutionCache::instance();
  cache.clear();
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(solve_hits(heavy_pair(0.5 + 0.01 * i))) << "chain " << i;
    EXPECT_EQ(cache.size(), 1u) << "after chain " << i;
  }
  cache.clear();
}

// The slot is freed by the large miss itself, before the chain is solved,
// so a one-off chain's solve never holds the last one's entry; a small
// miss leaves the slot alone.
TEST(SolutionCacheAdmission, ALargeMissFreesTheSlotBeforeItsSolve) {
  auto& cache = SolutionCache::instance();
  cache.clear();
  EXPECT_FALSE(solve_hits(heavy_pair(0.45)));  // takes the slot
  const auto unseen = [](std::size_t words) {
    return SolutionCache::LazyKey{0x5107, words, [](CacheKey&) {}};
  };
  EXPECT_FALSE(cache.lookup(unseen(16), 2));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_FALSE(cache.lookup(unseen(SolutionCache::kLargeWords), 2));
  EXPECT_EQ(cache.size(), 0u);
  cache.clear();
}

// A, B, A, B, ...: every solve misses, because each large miss frees the
// probation slot, which holds the other chain. This is the price of one
// slot; the parent's plain LRU hit from the third solve on.
TEST(SolutionCacheAdmission, AlternatingLargeChainsMiss) {
  auto& cache = SolutionCache::instance();
  cache.clear();
  const Ctmc a = heavy_pair(0.75);
  const Ctmc b = heavy_pair(0.8);
  for (int k = 0; k < 6; ++k) {
    EXPECT_FALSE(solve_hits(k % 2 == 0 ? a : b)) << "solve " << k + 1;
    EXPECT_EQ(cache.size(), 1u) << "after solve " << k + 1;
  }
  cache.clear();
}

TEST(SolutionCacheAdmission, OverBudgetKeyIsNeverBuilt) {
  auto& cache = SolutionCache::instance();
  cache.clear();
  std::size_t writes = 0;
  const SolutionCache::LazyKey key{0x1234, SolutionCache::kMaxTotalWords,
                                   [&](CacheKey&) { ++writes; }};
  const std::uint64_t misses = cache.misses();
  EXPECT_FALSE(cache.lookup(key, 1));
  EXPECT_EQ(cache.misses(), misses + 1);
  cache.insert(key, {{0.5}, {}});
  EXPECT_EQ(writes, 0u);
  EXPECT_EQ(cache.size(), 0u);
}

// Equal digests only make candidates: the exact words decide, also between
// keys of different lengths.
TEST(SolutionCacheAdmission, EqualDigestsWithDifferentWordsNeverAlias) {
  auto& cache = SolutionCache::instance();
  cache.clear();
  const auto key = [](std::vector<std::uint64_t> words) {
    const std::size_t size = words.size();
    return SolutionCache::LazyKey{
        0xd16e57, size, [words = std::move(words)](CacheKey& k) {
          for (const std::uint64_t w : words) k.add(w);
        }};
  };
  const SolutionCache::LazyKey a = key({1, 2, 3});
  const SolutionCache::LazyKey b = key({1, 2, 4});
  const SolutionCache::LazyKey c = key({1, 2});
  cache.insert(a, {{0.25}, {}});
  EXPECT_FALSE(cache.lookup(b, 1));
  EXPECT_FALSE(cache.lookup(c, 1));
  cache.insert(b, {{0.75}, {}});
  const auto hit_a = cache.lookup(a, 1);
  const auto hit_b = cache.lookup(b, 1);
  ASSERT_TRUE(hit_a && hit_b);
  EXPECT_EQ(hit_a->result, std::vector<double>{0.25});
  EXPECT_EQ(hit_b->result, std::vector<double>{0.75});
  EXPECT_EQ(cache.size(), 2u);
  cache.clear();
}

// While the injector is armed a large solve neither frees the probation
// slot nor promotes from it on its lookup, and its insert does not take
// the slot.
TEST(SolutionCacheAdmission, ArmedInjectorBypassesProbation) {
  auto& cache = SolutionCache::instance();
  cache.clear();
  const Ctmc a = heavy_pair(0.3);
  const Ctmc b = heavy_pair(0.35);
  EXPECT_FALSE(solve_hits(a));  // a enters probation
  {
    relkit::testing::FaultInjectionScope scope;
    scope->scale("ctmc.rate", 1.0);  // armed, numerically inert
    EXPECT_FALSE(solve_hits(b));     // would free a's slot, then take it
    EXPECT_FALSE(solve_hits(a));     // would promote a
    EXPECT_EQ(cache.size(), 1u);
  }
  // b did not take the slot; a is still in it, not promoted, so b's miss
  // now frees it.
  EXPECT_FALSE(solve_hits(b));
  EXPECT_FALSE(solve_hits(a));
  EXPECT_EQ(cache.size(), 1u);
  cache.clear();
}

TEST(TransientSeries, ValidatesInputs) {
  const Ctmc c = two_state(0.3, 1.1);
  EXPECT_TRUE(c.transient_series(c.point_mass(0), {}).empty());
  EXPECT_THROW(c.transient_series(c.point_mass(0), {1.0, -1.0}),
               InvalidArgument);
  EXPECT_THROW(c.transient_series({0.5, 0.4}, {1.0}), InvalidArgument);
}

TEST(CtmcAbsorbing, TwoComponentSeriesMttf) {
  // Two units in series, rates l1 l2, no repair: MTTF = 1/(l1+l2).
  Ctmc c;
  const StateId up = c.add_state("up");
  const StateId fail = c.add_state("fail");
  c.add_transition(up, fail, 0.004);
  const auto res = c.absorbing_analysis(c.point_mass(up));
  EXPECT_NEAR(res.mean_time_to_absorption, 250.0, 1e-9);
  EXPECT_NEAR(res.absorption_probability[fail], 1.0, 1e-12);
}

TEST(CtmcAbsorbing, DuplexWithRepairMttf) {
  // Classic duplex: 2 units, repair one at a time. States 2,1,0 (0 absorb).
  // MTTF from state 2 = (3*lambda + mu) / (2*lambda^2)  [standard formula].
  const double lambda = 0.01, mu = 1.0;
  Ctmc c;
  const StateId s2 = c.add_state("2up");
  const StateId s1 = c.add_state("1up");
  const StateId s0 = c.add_state("0up");
  c.add_transition(s2, s1, 2 * lambda);
  c.add_transition(s1, s0, lambda);
  c.add_transition(s1, s2, mu);
  const auto res = c.absorbing_analysis(c.point_mass(s2));
  const double expect = (3 * lambda + mu) / (2 * lambda * lambda);
  EXPECT_NEAR(res.mean_time_to_absorption, expect, expect * 1e-10);
}

TEST(CtmcAbsorbing, CompetingAbsorptionProbabilities) {
  // From s, rates a to A and b to B: P(A) = a/(a+b).
  Ctmc c;
  const StateId s = c.add_state("s");
  const StateId a = c.add_state("A");
  const StateId b = c.add_state("B");
  c.add_transition(s, a, 3.0);
  c.add_transition(s, b, 1.0);
  const auto res = c.absorbing_analysis(c.point_mass(s));
  EXPECT_NEAR(res.absorption_probability[a], 0.75, 1e-12);
  EXPECT_NEAR(res.absorption_probability[b], 0.25, 1e-12);
  EXPECT_NEAR(res.mean_time_to_absorption, 0.25, 1e-12);
}

TEST(CtmcAbsorbing, ErrorsOnBadInputs) {
  Ctmc ergodic = two_state(1.0, 1.0);
  EXPECT_THROW(ergodic.absorbing_analysis(ergodic.point_mass(0)), ModelError);

  Ctmc c;
  const StateId s = c.add_state("s");
  const StateId a = c.add_state("a");
  c.add_transition(s, a, 1.0);
  // Mass on absorbing state rejected.
  EXPECT_THROW(c.absorbing_analysis(c.point_mass(a)), ModelError);
}

TEST(CtmcSurvival, MatchesClosedFormExponential) {
  Ctmc c;
  const StateId up = c.add_state("up");
  const StateId down = c.add_state("down");
  c.add_transition(up, down, 0.02);
  for (double t : {1.0, 10.0, 100.0}) {
    EXPECT_NEAR(c.survival(c.point_mass(up), t), std::exp(-0.02 * t), 1e-10);
  }
}

TEST(Rewards, AvailabilityAsRewardRate) {
  const double lambda = 0.001, mu = 0.1;
  const Ctmc c = two_state(lambda, mu);
  const std::vector<double> up{1.0, 0.0};
  EXPECT_NEAR(reward_rate_steady(c, up), mu / (lambda + mu), 1e-13);
  EXPECT_NEAR(reward_rate_at(c, up, c.point_mass(0), 0.0), 1.0, 1e-13);
  const double ia = interval_availability(c, up, c.point_mass(0), 100.0);
  EXPECT_GT(ia, mu / (lambda + mu));  // starts up => above steady state
  EXPECT_LE(ia, 1.0);
}

TEST(Rewards, AccumulatedRewardLinearInRates) {
  const Ctmc c = two_state(0.5, 0.5);
  const std::vector<double> r{2.0, 0.0};
  const double acc = accumulated_reward(c, r, c.point_mass(0), 10.0);
  const double time_up = c.cumulative_time(c.point_mass(0), 10.0)[0];
  EXPECT_NEAR(acc, 2.0 * time_up, 1e-12);
}

TEST(Sensitivity, TwoStateClosedFormDerivative) {
  // pi_up = mu/(lambda+mu); d pi_up / d lambda = -mu/(lambda+mu)^2.
  const double lambda = 0.4, mu = 1.6;
  const Ctmc c = two_state(lambda, mu);
  Matrix dq(2, 2);  // dQ/dlambda
  dq(0, 0) = -1.0;
  dq(0, 1) = 1.0;
  const auto s = steady_state_sensitivity(c, dq);
  const double expect = -mu / ((lambda + mu) * (lambda + mu));
  EXPECT_NEAR(s[0], expect, 1e-12);
  EXPECT_NEAR(s[1], -expect, 1e-12);
}

TEST(Sensitivity, FiniteDifferenceAgreement) {
  const double lambda = 0.3, mu = 2.0;
  Matrix dq(2, 2);
  dq(1, 0) = 1.0;
  dq(1, 1) = -1.0;  // dQ/dmu
  const auto s = steady_state_sensitivity(two_state(lambda, mu), dq);
  const double h = 1e-6;
  const auto hi = two_state(lambda, mu + h).steady_state();
  const auto lo = two_state(lambda, mu - h).steady_state();
  EXPECT_NEAR(s[0], (hi[0] - lo[0]) / (2 * h), 1e-6);
}

TEST(Sensitivity, RejectsBadDq) {
  const Ctmc c = two_state(1.0, 1.0);
  Matrix dq(2, 2);
  dq(0, 0) = 1.0;  // row sum != 0
  EXPECT_THROW(steady_state_sensitivity(c, dq), InvalidArgument);
}

TEST(BirthDeath, ValidatesInput) {
  EXPECT_THROW(birth_death_steady_state({1.0}, {}), InvalidArgument);
  EXPECT_THROW(birth_death_steady_state({0.0}, {1.0}), InvalidArgument);
}

// The closed form starts from pi_0 = 1 like GTH's back substitution, so it
// must keep pi in range when pi grows along the chain: birth rate 10, death
// rate 1, 400 states, pi_{n-1-j} = 0.9 * 10^-j (Gth.StateZeroMayBeTheLeast-
// Probable in test_common is the same chain).
TEST(BirthDeath, StateZeroMayBeTheLeastProbable) {
  const std::size_t n = 400;
  const auto pi = birth_death_steady_state(std::vector<double>(n - 1, 10.0),
                                           std::vector<double>(n - 1, 1.0));
  ASSERT_EQ(pi.size(), n);
  for (std::size_t j = 0; j < n; ++j) {
    const double x = pi[n - 1 - j];
    const double expect = 0.9 * std::pow(10.0, -static_cast<double>(j));
    ASSERT_TRUE(std::isfinite(x)) << "state " << n - 1 - j;
    if (expect > 1e-290) {
      EXPECT_NEAR(x, expect, 1e-12 * expect) << "state " << n - 1 - j;
    } else {
      EXPECT_NEAR(x, expect, 1e-300) << "state " << n - 1 - j;
    }
  }
}

// Property: transient distribution converges to the stationary one.
class ConvergenceSweep : public ::testing::TestWithParam<double> {};

TEST_P(ConvergenceSweep, TransientApproachesSteadyState) {
  const double lambda = GetParam();
  Ctmc c;
  c.add_states(4);
  // Ring with asymmetric rates.
  for (std::size_t i = 0; i < 4; ++i) {
    c.add_transition(i, (i + 1) % 4, lambda);
    c.add_transition(i, (i + 3) % 4, 0.4);
  }
  const auto pi_inf = c.steady_state();
  const auto pi_t = c.transient(c.point_mass(0), 200.0 / lambda);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(pi_t[i], pi_inf[i], 1e-7) << "state " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Rates, ConvergenceSweep,
                         ::testing::Values(0.1, 1.0, 10.0, 100.0));

}  // namespace
}  // namespace relkit::markov
