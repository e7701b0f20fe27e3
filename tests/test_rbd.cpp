// Unit + property tests for reliability block diagrams.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "rbd/rbd.hpp"

namespace relkit::rbd {
namespace {

/// Text of the `E` that `fn` throws ("" when it throws nothing).
template <class E, class Fn>
std::string thrown(Fn&& fn) {
  try {
    fn();
  } catch (const E& e) {
    return e.what();
  }
  return "";
}

Rbd make_series_parallel() {
  // (A series B) parallel C.
  const auto root = Block::parallel(
      {Block::series({Block::component("A"), Block::component("B")}),
       Block::component("C")});
  return Rbd(root, {{"A", ComponentModel::fixed(0.9)},
                    {"B", ComponentModel::fixed(0.8)},
                    {"C", ComponentModel::fixed(0.7)}});
}

TEST(RbdBasics, SeriesParallelClosedForm) {
  const Rbd rbd = make_series_parallel();
  // R = 1 - (1 - 0.9*0.8)(1 - 0.7).
  EXPECT_NEAR(rbd.availability(), 1.0 - (1.0 - 0.72) * 0.3, 1e-15);
  EXPECT_EQ(rbd.component_count(), 3u);
}

TEST(RbdBasics, ProbUpExplicit) {
  const Rbd rbd = make_series_parallel();
  const double r =
      rbd.prob_up({{"A", 1.0}, {"B", 1.0}, {"C", 0.0}});
  EXPECT_DOUBLE_EQ(r, 1.0);
  EXPECT_THROW(rbd.prob_up({{"A", 0.5}}), InvalidArgument);
  EXPECT_THROW(rbd.prob_up({{"A", 0.5}, {"B", 2.0}, {"C", 0.1}}),
               InvalidArgument);
  EXPECT_EQ(thrown<InvalidArgument>(
                [&] { rbd.prob_up({{"B", 0.5}, {"C", 0.5}}); }),
            "Rbd::prob_up: missing probability for 'A'");
  EXPECT_EQ(thrown<InvalidArgument>([&] {
              rbd.prob_up({{"A", 0.5}, {"B", 2.0}, {"C", 0.1}});
            }),
            "Rbd::prob_up: probability out of [0,1]");
}

TEST(RbdBasics, UnknownComponentThrows) {
  const auto root = Block::component("X");
  EXPECT_THROW(Rbd(root, {{"Y", ComponentModel::fixed(0.5)}}), ModelError);
  EXPECT_EQ(thrown<ModelError>(
                [&] { Rbd(root, {{"Y", ComponentModel::fixed(0.5)}}); }),
            "Rbd: leaf references unknown component 'X'");
}

TEST(RbdBasics, EmptyBlocksThrow) {
  EXPECT_THROW(Block::series({}), ModelError);
  EXPECT_THROW(Block::parallel({}), ModelError);
  EXPECT_THROW(Block::k_of_n(1, {}), ModelError);
  EXPECT_THROW(Block::k_of_n(3, {Block::component("A")}), ModelError);
}

TEST(RbdKofN, TmrMajorityFormula) {
  // Triple modular redundancy: 2-of-3 identical units, R = 3p^2 - 2p^3.
  std::vector<BlockPtr> units;
  std::map<std::string, ComponentModel> comps;
  for (int i = 0; i < 3; ++i) {
    const std::string name = "U" + std::to_string(i);
    units.push_back(Block::component(name));
    comps.emplace(name, ComponentModel::fixed(0.9));
  }
  const Rbd rbd(Block::k_of_n(2, units), comps);
  EXPECT_NEAR(rbd.availability(), 3 * 0.81 - 2 * 0.729, 1e-15);
}

TEST(RbdBridge, RepeatedComponentsExact) {
  // Classic bridge network expressed through its path sets with shared
  // components: paths {A,B}, {C,D}, {A,E,D}, {C,E,B}.
  const auto a = Block::component("A");
  const auto b = Block::component("B");
  const auto c = Block::component("C");
  const auto d = Block::component("D");
  const auto e = Block::component("E");
  const auto root = Block::parallel({
      Block::series({a, b}),
      Block::series({c, d}),
      Block::series({a, e, d}),
      Block::series({c, e, b}),
  });
  const double p = 0.9;
  std::map<std::string, ComponentModel> comps;
  for (const char* n : {"A", "B", "C", "D", "E"}) {
    comps.emplace(n, ComponentModel::fixed(p));
  }
  const Rbd rbd(root, comps);
  // Bridge reliability with all-equal p (factoring on E):
  // R = p * [1-(1-p)^2]^2 + (1-p) * [1 - (1-p^2)^2].
  const double up2 = 1.0 - (1.0 - p) * (1.0 - p);
  const double closed =
      p * up2 * up2 + (1.0 - p) * (1.0 - (1.0 - p * p) * (1.0 - p * p));
  EXPECT_NEAR(rbd.availability(), closed, 1e-14);

  // Bridge mincuts: {A,C},{B,D},{A,E,D},{C,E,B} in *failure* space:
  const auto cuts = rbd.minimal_cut_sets();
  EXPECT_EQ(cuts.size(), 4u);
  std::size_t pairs = 0, triples = 0;
  for (const auto& cutset : cuts) {
    if (cutset.size() == 2) ++pairs;
    if (cutset.size() == 3) ++triples;
  }
  EXPECT_EQ(pairs, 2u);
  EXPECT_EQ(triples, 2u);
}

TEST(RbdLifetime, SeriesExponentialMttf) {
  // Series of exponentials: rate adds, MTTF = 1 / sum(rates).
  const auto root = Block::series(
      {Block::component("A"), Block::component("B"), Block::component("C")});
  const Rbd rbd(root,
                {{"A", ComponentModel::with_lifetime(exponential(0.001))},
                 {"B", ComponentModel::with_lifetime(exponential(0.002))},
                 {"C", ComponentModel::with_lifetime(exponential(0.003))}});
  EXPECT_NEAR(rbd.mttf(), 1.0 / 0.006, 1e-3);
  EXPECT_NEAR(rbd.reliability(100.0), std::exp(-0.6), 1e-12);
}

TEST(RbdLifetime, ParallelExponentialMttf) {
  // Two-unit parallel, equal rate l: MTTF = 3/(2l).
  const double l = 0.01;
  const auto root =
      Block::parallel({Block::component("A"), Block::component("B")});
  const Rbd rbd(root, {{"A", ComponentModel::with_lifetime(exponential(l))},
                       {"B", ComponentModel::with_lifetime(exponential(l))}});
  EXPECT_NEAR(rbd.mttf(), 1.5 / l, 0.05);
}

TEST(RbdLifetime, MttfRejectsRepairableComponents) {
  const auto root = Block::component("A");
  const Rbd rbd(root, {{"A", ComponentModel::repairable(0.01, 1.0)}});
  EXPECT_THROW(rbd.mttf(), ModelError);
}

TEST(RbdAvailability, RepairableSteadyState) {
  // Two redundant repairable units (independent repair):
  // A_sys = 1 - (1-A)^2, A = mu/(lambda+mu).
  const double lambda = 0.02, mu = 1.0;
  const auto root =
      Block::parallel({Block::component("A"), Block::component("B")});
  const Rbd rbd(root,
                {{"A", ComponentModel::repairable(lambda, mu)},
                 {"B", ComponentModel::repairable(lambda, mu)}});
  const double a1 = mu / (lambda + mu);
  EXPECT_NEAR(rbd.availability(), 1.0 - (1.0 - a1) * (1.0 - a1), 1e-14);
  // Instantaneous availability starts at 1 and decreases toward the limit.
  EXPECT_NEAR(rbd.reliability(0.0), 1.0, 1e-15);
  EXPECT_GT(rbd.reliability(1.0), rbd.availability());
}

TEST(RbdPaths, SeriesParallelSets) {
  const Rbd rbd = make_series_parallel();
  const auto paths = rbd.minimal_path_sets();
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0], (std::vector<std::string>{"C"}));
  EXPECT_EQ(paths[1], (std::vector<std::string>{"A", "B"}));
  const auto cuts = rbd.minimal_cut_sets();
  ASSERT_EQ(cuts.size(), 2u);
  // Cuts: {A,C} and {B,C}.
  for (const auto& cutset : cuts) {
    EXPECT_EQ(cutset.size(), 2u);
    EXPECT_EQ(cutset.back(), "C");
  }
}

TEST(RbdImportance, SeriesWeakestLinkHasHighestBirnbaum) {
  // Series system: the least reliable component has the largest Birnbaum
  // importance dR/dp_i = prod_{j != i} p_j.
  const auto root = Block::series(
      {Block::component("good"), Block::component("bad")});
  const Rbd rbd(root, {{"good", ComponentModel::fixed(0.99)},
                       {"bad", ComponentModel::fixed(0.70)}});
  const auto rows = rbd.importance(-1.0);
  double b_good = 0, b_bad = 0;
  for (const auto& r : rows) {
    if (r.component == "good") b_good = r.birnbaum;
    if (r.component == "bad") b_bad = r.birnbaum;
  }
  EXPECT_NEAR(b_good, 0.70, 1e-15);
  EXPECT_NEAR(b_bad, 0.99, 1e-15);
  EXPECT_GT(b_bad, b_good);
}

TEST(RbdImportance, CriticalityNormalized) {
  const Rbd rbd = make_series_parallel();
  const auto rows = rbd.importance(-1.0);
  for (const auto& r : rows) {
    EXPECT_GE(r.criticality, 0.0);
    EXPECT_LE(r.criticality, 1.0 + 1e-12);
    EXPECT_GE(r.fussell_vesely, 0.0);
    EXPECT_LE(r.fussell_vesely, 1.0 + 1e-12);
  }
}

// Property: series of n equal components has R = p^n; parallel has
// R = 1 - (1-p)^n; k-of-n matches the binomial tail. Sweep sizes.
class RbdStructureSweep : public ::testing::TestWithParam<int> {};

TEST_P(RbdStructureSweep, ClosedFormsHold) {
  const int n = GetParam();
  const double p = 0.85;
  std::vector<BlockPtr> comps;
  std::map<std::string, ComponentModel> models;
  for (int i = 0; i < n; ++i) {
    const std::string name = "c" + std::to_string(i);
    comps.push_back(Block::component(name));
    models.emplace(name, ComponentModel::fixed(p));
  }
  const Rbd series(Block::series(comps), models);
  EXPECT_NEAR(series.availability(), std::pow(p, n), 1e-12);
  const Rbd par(Block::parallel(comps), models);
  EXPECT_NEAR(par.availability(), 1.0 - std::pow(1.0 - p, n), 1e-12);
  if (n >= 2) {
    const Rbd kofn(Block::k_of_n(static_cast<std::uint32_t>(n - 1), comps),
                   models);
    // at least n-1 of n: C(n,n-1) p^{n-1}(1-p) + p^n.
    const double expect = n * std::pow(p, n - 1) * (1.0 - p) + std::pow(p, n);
    EXPECT_NEAR(kofn.availability(), expect, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RbdStructureSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 40));

TEST(RbdScale, HundredsOfComponents) {
  // The tutorial: non-state-space algorithms handle hundreds of components.
  const int n = 400;
  std::vector<BlockPtr> comps;
  std::map<std::string, ComponentModel> models;
  for (int i = 0; i < n; ++i) {
    const std::string name = "c" + std::to_string(i);
    comps.push_back(Block::component(name));
    models.emplace(name, ComponentModel::fixed(0.999));
  }
  const Rbd rbd(Block::series(comps), models);
  EXPECT_NEAR(rbd.availability(), std::pow(0.999, n), 1e-9);
  EXPECT_EQ(rbd.component_count(), static_cast<std::size_t>(n));
}

}  // namespace
}  // namespace relkit::rbd
