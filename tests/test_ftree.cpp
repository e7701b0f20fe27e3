// Unit + property tests for fault trees, MOCUS, importance measures, and the
// bounding algorithms (the tutorial's Boeing 787 code path).
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "ftree/bounds.hpp"
#include "ftree/fault_tree.hpp"
#include "rbd/rbd.hpp"

namespace relkit::ftree {
namespace {

FaultTree simple_tree() {
  // TOP = (A AND B) OR C.
  const auto top = Node::or_gate(
      {Node::and_gate({Node::basic("A"), Node::basic("B")}),
       Node::basic("C")});
  return FaultTree(top, {{"A", EventModel::fixed(1.0 - 0.1)},
                         {"B", EventModel::fixed(1.0 - 0.2)},
                         {"C", EventModel::fixed(1.0 - 0.05)}});
}

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

TEST(FtreeBasics, TopProbabilityClosedForm) {
  const FaultTree ft = simple_tree();
  // Q = 1 - (1 - qA qB)(1 - qC) with qA=.1 qB=.2 qC=.05.
  const double expect = 1.0 - (1.0 - 0.1 * 0.2) * (1.0 - 0.05);
  EXPECT_NEAR(ft.top_probability_limit(), expect, 1e-15);
}

TEST(FtreeBasics, ExplicitProbabilities) {
  const FaultTree ft = simple_tree();
  EXPECT_NEAR(ft.top_probability({{"A", 1.0}, {"B", 1.0}, {"C", 0.0}}), 1.0,
              1e-15);
  EXPECT_NEAR(ft.top_probability({{"A", 0.0}, {"B", 1.0}, {"C", 0.0}}), 0.0,
              1e-15);
  EXPECT_THROW(ft.top_probability({{"A", 0.5}}), InvalidArgument);
  EXPECT_EQ(thrown<InvalidArgument>(
                [&] { ft.top_probability({{"B", 0.5}, {"C", 0.5}}); }),
            "FaultTree::top_probability: missing probability for 'A'");
  EXPECT_EQ(thrown<InvalidArgument>([&] {
              ft.top_probability({{"A", 0.5}, {"B", -0.1}, {"C", 0.5}});
            }),
            "FaultTree::top_probability: probability out of [0,1]");
}

TEST(FtreeBasics, UnknownEventThrows) {
  EXPECT_THROW(FaultTree(Node::basic("X"), {{"Y", EventModel::fixed(0.5)}}),
               ModelError);
  EXPECT_EQ(thrown<ModelError>([] {
              FaultTree(Node::basic("X"), {{"Y", EventModel::fixed(0.5)}});
            }),
            "FaultTree: unknown basic event 'X'");
  const FaultTree ft = simple_tree();
  EXPECT_EQ(ft.event_index("A"), 0u);
  EXPECT_EQ(thrown<InvalidArgument>([&] { ft.event_index("X"); }),
            "FaultTree::event_index: unknown event 'X'");
}

TEST(FtreeBasics, GateValidation) {
  EXPECT_THROW(Node::and_gate({}), ModelError);
  EXPECT_THROW(Node::or_gate({}), ModelError);
  EXPECT_THROW(Node::k_of_n_gate(0, {Node::basic("A")}), ModelError);
  EXPECT_THROW(Node::k_of_n_gate(2, {Node::basic("A")}), ModelError);
  EXPECT_THROW(Node::not_gate(nullptr), ModelError);
}

TEST(FtreeMincuts, BddAndMocusAgree) {
  const FaultTree ft = simple_tree();
  const auto bdd_cuts = ft.minimal_cut_sets();
  const auto mocus_cuts = ft.minimal_cut_sets_mocus();
  EXPECT_EQ(bdd_cuts, mocus_cuts);
  ASSERT_EQ(bdd_cuts.size(), 2u);
  EXPECT_EQ(bdd_cuts[0], (std::vector<std::string>{"C"}));
  EXPECT_EQ(bdd_cuts[1], (std::vector<std::string>{"A", "B"}));
}

TEST(FtreeMincuts, VotingGateExpansion) {
  // 2-of-3 gate: mincuts are all pairs.
  const auto top = Node::k_of_n_gate(
      2, {Node::basic("A"), Node::basic("B"), Node::basic("C")});
  const FaultTree ft(top, {{"A", EventModel::fixed(0.9)},
                           {"B", EventModel::fixed(0.9)},
                           {"C", EventModel::fixed(0.9)}});
  EXPECT_EQ(ft.minimal_cut_sets().size(), 3u);
  EXPECT_EQ(ft.minimal_cut_sets_mocus().size(), 3u);
  EXPECT_EQ(ft.minimal_cut_sets(), ft.minimal_cut_sets_mocus());
}

TEST(FtreeMincuts, RepeatedEventsMinimized) {
  // TOP = (A AND B) OR (A AND B AND C) — second cut non-minimal.
  const auto a = Node::basic("A");
  const auto b = Node::basic("B");
  const auto c = Node::basic("C");
  const auto top = Node::or_gate(
      {Node::and_gate({a, b}), Node::and_gate({a, b, c})});
  const FaultTree ft(top, {{"A", EventModel::fixed(0.9)},
                           {"B", EventModel::fixed(0.9)},
                           {"C", EventModel::fixed(0.9)}});
  const auto cuts = ft.minimal_cut_sets();
  ASSERT_EQ(cuts.size(), 1u);
  EXPECT_EQ(cuts[0], (std::vector<std::string>{"A", "B"}));
  EXPECT_EQ(ft.minimal_cut_sets_mocus(), cuts);
}

TEST(FtreeNonCoherent, NotGateSupportedForProbabilityOnly) {
  // TOP = A AND NOT B — probability fine, cut sets must throw.
  const auto top =
      Node::and_gate({Node::basic("A"), Node::not_gate(Node::basic("B"))});
  const FaultTree ft(top, {{"A", EventModel::fixed(1.0 - 0.3)},
                           {"B", EventModel::fixed(1.0 - 0.4)}});
  EXPECT_FALSE(ft.coherent());
  EXPECT_NEAR(ft.top_probability_limit(), 0.3 * (1.0 - 0.4), 1e-15);
  EXPECT_THROW(ft.minimal_cut_sets(), ModelError);
  EXPECT_THROW(ft.minimal_cut_sets_mocus(), ModelError);
}

TEST(FtreeTimeDependent, LifetimeEventsGrowInTime) {
  const auto top = Node::and_gate({Node::basic("A"), Node::basic("B")});
  const FaultTree ft(
      top, {{"A", EventModel::with_lifetime(exponential(0.01))},
            {"B", EventModel::with_lifetime(weibull(2.0, 150.0))}});
  EXPECT_NEAR(ft.top_probability(0.0), 0.0, 1e-15);
  const double q100 = ft.top_probability(100.0);
  const double q200 = ft.top_probability(200.0);
  EXPECT_GT(q200, q100);
  // Independent product.
  const double expect =
      (1.0 - std::exp(-1.0)) * (1.0 - std::exp(-std::pow(100.0 / 150.0, 2)));
  EXPECT_NEAR(q100, expect, 1e-12);
}

TEST(FtreeImportance, DefinitionsConsistent) {
  const FaultTree ft = simple_tree();
  const double q_top = ft.top_probability_limit();
  const auto rows = ft.importance(-1.0);
  ASSERT_EQ(rows.size(), 3u);
  for (const auto& r : rows) {
    // RAW >= 1 >= RRW^{-1}; criticality = birnbaum * q / Q.
    EXPECT_GE(r.raw, 1.0 - 1e-12);
    EXPECT_GE(r.rrw, 1.0 - 1e-12);
    EXPECT_GE(r.birnbaum, 0.0);
    EXPECT_LE(r.fussell_vesely, 1.0 + 1e-12);
  }
  // Single-event cut {C} dominates: C should top every ranking.
  const auto& c_row = *std::find_if(rows.begin(), rows.end(),
                                    [](const auto& r) { return r.event == "C"; });
  for (const auto& r : rows) {
    EXPECT_GE(c_row.fussell_vesely, r.fussell_vesely - 1e-12);
  }
  // Birnbaum of C = 1 - qA qB; check numerically.
  EXPECT_NEAR(c_row.birnbaum, 1.0 - 0.02, 1e-13);
  EXPECT_NEAR(c_row.criticality, c_row.birnbaum * 0.05 / q_top, 1e-13);
}

// ---------------- Bounds ----------------------------------------------------

TEST(Bounds, UnionBoundBracketsExact) {
  const FaultTree ft = simple_tree();
  const auto q = ft.event_probs(-1.0);
  // Index-space cuts from the BDD.
  const auto cuts = ft.manager().minimal_solutions(ft.top_ref());
  const Interval u = union_bound(cuts, q);
  const double exact = ft.top_probability_limit();
  EXPECT_LE(u.lo, exact + 1e-15);
  EXPECT_GE(u.hi, exact - 1e-15);
}

TEST(Bounds, BonferroniTightensWithDepth) {
  const GeneratedTree g = generate_wide_tree(6, 2, 4, 0.05);
  const FaultTree ft(g.top, g.events);
  const auto q = ft.event_probs(-1.0);
  const auto cuts = ft.manager().minimal_solutions(ft.top_ref());
  const double exact = ft.top_probability_limit();
  double prev_width = 2.0;
  for (std::uint32_t depth = 1; depth <= 3; ++depth) {
    const Interval b = bonferroni_bound(cuts, q, depth);
    EXPECT_LE(b.lo, exact + 1e-12) << "depth " << depth;
    EXPECT_GE(b.hi, exact - 1e-12) << "depth " << depth;
    EXPECT_LE(b.width(), prev_width + 1e-15) << "depth " << depth;
    prev_width = b.width();
  }
}

TEST(Bounds, BonferroniExactWhenDepthReachesCutCount) {
  const FaultTree ft = simple_tree();
  const auto q = ft.event_probs(-1.0);
  const auto cuts = ft.manager().minimal_solutions(ft.top_ref());
  const Interval b =
      bonferroni_bound(cuts, q, static_cast<std::uint32_t>(cuts.size()));
  EXPECT_NEAR(b.lo, ft.top_probability_limit(), 1e-14);
  EXPECT_NEAR(b.hi, ft.top_probability_limit(), 1e-14);
}

TEST(Bounds, EsaryProschanBracketsExact) {
  const GeneratedTree g = generate_wide_tree(5, 2, 3, 0.08);
  const FaultTree ft(g.top, g.events);
  const auto q = ft.event_probs(-1.0);
  const auto cuts = ft.manager().minimal_solutions(ft.top_ref());
  // Path sets: minimal solutions of the dual; for this synthetic tree use
  // bonferroni-free check against exact only for upper bound, and compute
  // paths from the success function (NOT top) which is coherent in up-vars.
  // Here we validate bounds bracket the exact value.
  const double exact = ft.top_probability_limit();
  const Interval ep = esary_proschan_bound(cuts, {}, q);
  EXPECT_GE(ep.hi, exact - 1e-12);
  EXPECT_LE(ep.lo, exact + 1e-12);
  // Cuts inside one k-of-n cluster share events, so EP is a strict upper
  // bound here — but a tight one (within a few percent at these q).
  EXPECT_LT(ep.hi - exact, 0.05 * exact + 1e-3);
}

TEST(Bounds, ExactFromCutsMatchesBdd) {
  const FaultTree ft = simple_tree();
  const auto q = ft.event_probs(-1.0);
  const auto cuts = ft.manager().minimal_solutions(ft.top_ref());
  EXPECT_NEAR(exact_from_cuts(cuts, q), ft.top_probability_limit(), 1e-14);
}

TEST(Bounds, ExactFromCutsRejectsHugeLists) {
  std::vector<CutSet> cuts(26, CutSet{0});
  EXPECT_THROW(exact_from_cuts(cuts, {0.5}), InvalidArgument);
}

TEST(Bounds, CutProbabilityRangeChecked) {
  EXPECT_THROW(cut_probability({5}, {0.5}), InvalidArgument);
}

// Property: on random wide trees, every bound family brackets the exact
// value and Bonferroni depth-2 is tighter than union.
class BoundsSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BoundsSweep, AllFamiliesBracketExact) {
  const std::uint32_t clusters = GetParam();
  const GeneratedTree g = generate_wide_tree(clusters, 2, 3, 0.03);
  const FaultTree ft(g.top, g.events);
  const auto q = ft.event_probs(-1.0);
  const auto cuts = ft.manager().minimal_solutions(ft.top_ref());
  const double exact = ft.top_probability_limit();

  const Interval u = union_bound(cuts, q);
  EXPECT_LE(u.lo, exact + 1e-12);
  EXPECT_GE(u.hi, exact - 1e-12);

  const Interval b2 = bonferroni_bound(cuts, q, 2);
  EXPECT_LE(b2.lo, exact + 1e-12);
  EXPECT_GE(b2.hi, exact - 1e-12);
  EXPECT_LE(b2.width(), u.width() + 1e-12);

  const Interval ep = esary_proschan_bound(cuts, {}, q);
  EXPECT_GE(ep.hi, exact - 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Widths, BoundsSweep,
                         ::testing::Values(2u, 4u, 8u, 16u, 32u));

// Property: on RANDOM coherent trees (random gates over a small event set,
// with repeated events), the BDD and MOCUS cut sets agree exactly, the
// dual RBD of each tree agrees with it on cut sets, availability and
// Birnbaum importance, and the BDD top probability matches brute-force
// enumeration over all 2^n event outcomes.
TEST(FtreeProperty, RandomCoherentTreesCrossValidate) {
  relkit::Rng rng(8080);
  for (int trial = 0; trial < 25; ++trial) {
    const std::uint32_t n_events = 5 + rng.below(3);  // 5..7
    std::vector<std::string> names;
    std::map<std::string, EventModel> events;
    std::vector<double> q(n_events);
    for (std::uint32_t i = 0; i < n_events; ++i) {
      names.push_back("e" + std::to_string(i));
      q[i] = 0.05 + 0.9 * rng.uniform();
      events.emplace(names.back(), EventModel::fixed(1.0 - q[i]));
    }
    // Random tree: build 3-5 random gates bottom-up over events + earlier
    // gates. `blocks` mirrors `pool` as the dual RBD over the same leaves:
    // AND -> parallel, OR -> series, k-of-n failing -> (n-k+1)-of-n working.
    std::vector<NodePtr> pool;
    std::vector<rbd::BlockPtr> blocks;
    for (const auto& nm : names) {
      pool.push_back(Node::basic(nm));
      blocks.push_back(rbd::Block::component(nm));
    }
    const int n_gates = 3 + static_cast<int>(rng.below(3));
    for (int g = 0; g < n_gates; ++g) {
      const std::size_t width = 2 + rng.below(3);
      std::vector<NodePtr> children;
      std::vector<rbd::BlockPtr> block_children;
      for (std::size_t c = 0; c < width; ++c) {
        const std::size_t pick = rng.below(pool.size());
        children.push_back(pool[pick]);
        block_children.push_back(blocks[pick]);
      }
      NodePtr gate;
      rbd::BlockPtr block;
      switch (rng.below(3)) {
        case 0:
          gate = Node::and_gate(children);
          block = rbd::Block::parallel(block_children);
          break;
        case 1:
          gate = Node::or_gate(children);
          block = rbd::Block::series(block_children);
          break;
        default: {
          const auto k = 1 + static_cast<std::uint32_t>(rng.below(width));
          gate = Node::k_of_n_gate(k, children);
          block = rbd::Block::k_of_n(
              static_cast<std::uint32_t>(width) - k + 1, block_children);
        }
      }
      pool.push_back(gate);
      blocks.push_back(block);
    }
    const FaultTree ft(pool.back(), events);
    const rbd::Rbd dual_rbd(blocks.back(), events);

    // (c) The dual RBD finds the tree's cut sets from its own success BDD,
    // and its availability and Birnbaum values mirror the tree's
    // (dR/dp_i = dQ/dq_i).
    EXPECT_EQ(dual_rbd.minimal_cut_sets(), ft.minimal_cut_sets())
        << "trial " << trial;
    EXPECT_NEAR(dual_rbd.availability(), 1.0 - ft.top_probability_limit(),
                1e-12)
        << "trial " << trial;
    ASSERT_EQ(dual_rbd.component_names(), ft.event_names())
        << "trial " << trial;
    const auto rbd_rows = dual_rbd.importance(-1.0);
    const auto ft_rows = ft.importance(-1.0);
    for (std::size_t i = 0; i < ft_rows.size(); ++i) {
      EXPECT_NEAR(rbd_rows[i].birnbaum, ft_rows[i].birnbaum, 1e-12)
          << "trial " << trial << " event " << ft_rows[i].event;
    }

    // (a) MOCUS == BDD cut sets (when the tree references >= 1 event).
    if (ft.event_count() > 0) {
      EXPECT_EQ(ft.minimal_cut_sets(), ft.minimal_cut_sets_mocus())
          << "trial " << trial;
    }

    // (b) BDD probability == brute force over event outcomes.
    const std::size_t ne = ft.event_count();
    std::map<std::string, double> assignment;
    double expect = 0.0;
    for (std::uint32_t mask = 0; mask < (1u << ne); ++mask) {
      double w = 1.0;
      for (std::size_t i = 0; i < ne; ++i) {
        const std::string& nm = ft.event_names()[i];
        const double qi = 1.0 - events.at(nm).prob_up;
        const bool failed = (mask >> i) & 1u;
        assignment[nm] = failed ? 1.0 : 0.0;
        w *= failed ? qi : (1.0 - qi);
      }
      // Evaluate the tree under this binary assignment.
      const double val = ft.top_probability(assignment);
      expect += w * val;  // val is 0 or 1 here
    }
    const double direct = ft.top_probability_limit();
    EXPECT_NEAR(direct, expect, 1e-10) << "trial " << trial;
  }
}

TEST(GeneratedTreeTest, ShapeAndProbability) {
  const GeneratedTree g = generate_wide_tree(3, 2, 4, 0.1);
  const FaultTree ft(g.top, g.events);
  EXPECT_EQ(ft.event_count(), 12u);
  // Per-cluster failure prob: P(Bin(4, .1) >= 2).
  double cluster_q = 0.0;
  for (int j = 2; j <= 4; ++j) {
    double binom = 1.0;
    for (int i = 0; i < j; ++i) binom *= (4.0 - i) / (i + 1.0);
    cluster_q += binom * std::pow(0.1, j) * std::pow(0.9, 4 - j);
  }
  const double expect = 1.0 - std::pow(1.0 - cluster_q, 3);
  EXPECT_NEAR(ft.top_probability_limit(), expect, 1e-12);
}

}  // namespace
}  // namespace relkit::ftree
