// Unit + property tests for reliability graphs: BDD vs factoring agreement,
// bridge closed form, path/cut extraction.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "relgraph/relgraph.hpp"

namespace relkit::relgraph {
namespace {

TEST(RelGraph, TwoEdgeSeries) {
  ReliabilityGraph g(3, 0, 2);
  g.add_edge("e1", 0, 1, ComponentModel::fixed(0.9));
  g.add_edge("e2", 1, 2, ComponentModel::fixed(0.8));
  EXPECT_NEAR(g.reliability(-1.0), 0.72, 1e-15);
  EXPECT_NEAR(g.reliability_factoring(-1.0), 0.72, 1e-15);
}

TEST(RelGraph, TwoEdgeParallel) {
  ReliabilityGraph g(2, 0, 1);
  g.add_edge("e1", 0, 1, ComponentModel::fixed(0.9));
  g.add_edge("e2", 0, 1, ComponentModel::fixed(0.8));
  EXPECT_NEAR(g.reliability(-1.0), 1.0 - 0.1 * 0.2, 1e-15);
  EXPECT_NEAR(g.reliability_factoring(-1.0), 1.0 - 0.1 * 0.2, 1e-15);
}

TEST(RelGraph, BridgeClosedForm) {
  const double p = 0.9;
  const ReliabilityGraph g = make_bridge(p);
  const double up2 = 1.0 - (1.0 - p) * (1.0 - p);
  const double closed =
      p * up2 * up2 + (1.0 - p) * (1.0 - (1.0 - p * p) * (1.0 - p * p));
  EXPECT_NEAR(g.reliability(-1.0), closed, 1e-14);
  EXPECT_NEAR(g.reliability_factoring(-1.0), closed, 1e-14);
}

TEST(RelGraph, BridgePathAndCutSets) {
  const ReliabilityGraph g = make_bridge(0.9);
  const auto paths = g.minimal_path_sets();
  EXPECT_EQ(paths.size(), 4u);  // AB, CD, AED, CEB
  const auto cuts = g.minimal_cut_sets();
  EXPECT_EQ(cuts.size(), 4u);  // {A,C},{B,D},{A,E,D},{C,E,B}
  std::size_t pairs = 0;
  for (const auto& c : cuts) {
    if (c.size() == 2) ++pairs;
  }
  EXPECT_EQ(pairs, 2u);
}

TEST(RelGraph, DirectedEdgeHasDirection) {
  // Single directed edge t -> s gives zero s-t reliability.
  ReliabilityGraph g(2, 0, 1);
  g.add_edge("back", 1, 0, ComponentModel::fixed(0.99));
  EXPECT_DOUBLE_EQ(g.reliability(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(g.reliability_factoring(-1.0), 0.0);
}

TEST(RelGraph, SharedComponentAcrossEdges) {
  // Two parallel "routes" powered by one shared component: reliability is
  // just that component's probability, not 1-(1-p)^2.
  ReliabilityGraph g(3, 0, 2);
  g.add_edge("shared", 0, 1, ComponentModel::fixed(0.7));
  g.add_edge("shared", 1, 2, ComponentModel::fixed(0.7));
  EXPECT_NEAR(g.reliability(-1.0), 0.7, 1e-15);
  EXPECT_NEAR(g.reliability_factoring(-1.0), 0.7, 1e-15);

  // A later edge of the same component carrying a different model is still
  // that one component with its first model.
  ReliabilityGraph h(3, 0, 2);
  h.add_edge("shared", 0, 1, ComponentModel::fixed(0.7));
  h.add_undirected_edge("shared", 1, 2, ComponentModel::fixed(0.2));
  EXPECT_EQ(h.component_count(), 1u);
  EXPECT_NEAR(h.reliability(-1.0), 0.7, 1e-15);
  EXPECT_NEAR(h.reliability_factoring(-1.0), 0.7, 1e-15);
}

TEST(RelGraph, ValidationErrors) {
  EXPECT_THROW(ReliabilityGraph(1, 0, 0), InvalidArgument);
  EXPECT_THROW(ReliabilityGraph(3, 0, 3), InvalidArgument);
  ReliabilityGraph g(3, 0, 2);
  EXPECT_THROW(g.add_edge("x", 0, 0, ComponentModel::fixed(0.5)),
               InvalidArgument);
  EXPECT_THROW(g.add_edge("x", 0, 5, ComponentModel::fixed(0.5)),
               InvalidArgument);
}

TEST(RelGraph, TimeDependentEdges) {
  ReliabilityGraph g(2, 0, 1);
  g.add_edge("e", 0, 1,
             ComponentModel::with_lifetime(exponential(0.01)));
  EXPECT_NEAR(g.reliability(100.0), std::exp(-1.0), 1e-12);
  EXPECT_NEAR(g.reliability_factoring(100.0), std::exp(-1.0), 1e-12);
}

// Property: on random DAG-ish grids, BDD and factoring agree.
TEST(RelGraphProperty, BddMatchesFactoringOnRandomGraphs) {
  Rng rng(2024);
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t n = 5 + rng.below(3);  // 5..7 vertices
    ReliabilityGraph g(n, 0, n - 1);
    int edge_id = 0;
    // Random forward edges ensure acyclicity and s-t orientation.
    for (std::size_t u = 0; u < n; ++u) {
      for (std::size_t v = u + 1; v < n; ++v) {
        if (rng.uniform() < 0.55) {
          g.add_edge("e" + std::to_string(edge_id++), u, v,
                     ComponentModel::fixed(0.3 + 0.6 * rng.uniform()));
        }
      }
    }
    const double via_bdd = g.reliability(-1.0);
    const double via_factoring = g.reliability_factoring(-1.0);
    EXPECT_NEAR(via_bdd, via_factoring, 1e-12) << "trial " << trial;
  }
}

// Property: random graphs WITH undirected edges and shared components —
// the BDD and factoring solvers must still agree (exercises the
// component-conditioning correctness that naive edge-factoring would get
// wrong).
TEST(RelGraphProperty, UndirectedAndSharedComponentsAgree) {
  Rng rng(4242);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 5;
    ReliabilityGraph g(n, 0, n - 1);
    int id = 0;
    for (std::size_t u = 0; u < n; ++u) {
      for (std::size_t v = u + 1; v < n; ++v) {
        const double roll = rng.uniform();
        if (roll < 0.35) {
          g.add_undirected_edge("u" + std::to_string(id++), u, v,
                                ComponentModel::fixed(0.4 + 0.5 * rng.uniform()));
        } else if (roll < 0.6) {
          g.add_edge("d" + std::to_string(id++), u, v,
                     ComponentModel::fixed(0.4 + 0.5 * rng.uniform()));
        }
      }
    }
    // One shared component carrying two extra arcs.
    g.add_edge("shared", 0, 2, ComponentModel::fixed(0.7));
    g.add_edge("shared", 2, n - 1, ComponentModel::fixed(0.7));
    const double via_bdd = g.reliability(-1.0);
    const double via_factoring = g.reliability_factoring(-1.0);
    EXPECT_NEAR(via_bdd, via_factoring, 1e-12) << "trial " << trial;
    EXPECT_GT(via_bdd, 0.0);
  }
}

// Property: a 2xN ladder network's reliability is monotone in N being
// well-defined and between series and parallel envelopes.
class LadderSweep : public ::testing::TestWithParam<int> {};

TEST_P(LadderSweep, BddMatchesFactoring) {
  const int segments = GetParam();
  // Vertices 0..2*segments+1: source 0, sink 2*segments+1; rails + rungs.
  const std::size_t n = 2 * static_cast<std::size_t>(segments) + 2;
  ReliabilityGraph g(n, 0, n - 1);
  int id = 0;
  const auto m = ComponentModel::fixed(0.9);
  // source fans to 1 and 2; each segment connects pairs; last joins sink.
  g.add_edge("s1_" + std::to_string(id++), 0, 1, m);
  g.add_edge("s2_" + std::to_string(id++), 0, 2, m);
  for (int s = 0; s < segments - 1; ++s) {
    const std::size_t a = 1 + 2 * static_cast<std::size_t>(s);
    g.add_edge("r" + std::to_string(id++), a, a + 2, m);
    g.add_edge("r" + std::to_string(id++), a + 1, a + 3, m);
    g.add_undirected_edge("x" + std::to_string(id++), a, a + 1, m);
  }
  const std::size_t last = 1 + 2 * static_cast<std::size_t>(segments - 1);
  g.add_edge("t1_" + std::to_string(id++), last, n - 1, m);
  g.add_edge("t2_" + std::to_string(id++), last + 1, n - 1, m);

  const double via_bdd = g.reliability(-1.0);
  const double via_factoring = g.reliability_factoring(-1.0);
  EXPECT_NEAR(via_bdd, via_factoring, 1e-12);
  EXPECT_GT(via_bdd, std::pow(0.9, 2.0 * segments));  // better than one rail
  EXPECT_LT(via_bdd, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LadderSweep, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace relkit::relgraph
