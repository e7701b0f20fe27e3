// Golden regression tests: pinned numbers for the case-study models of
// EXPERIMENTS.md and the docs. These are change detectors — if a refactor
// moves any of these values, either the refactor is wrong or the golden
// value must be bumped consciously in the same commit, never silently.
//
// Two kinds of pin:
//   * case-study values (webservice/cluster/raid/bridge/georedundant) are
//     pinned to 1e-12 relative, loose enough to survive benign
//     last-bit noise in the BDD/GTH paths, tight enough to catch any real
//     numerical change; each shipped model's minimal cut sets are pinned
//     exactly (names and order), and its steady-state importance rows
//     (RBD and fault-tree models) to 1e-12 relative;
//   * the jobs = 1 stationary solve is pinned EXACTLY (EXPECT_EQ on every
//     component) — the determinism contract says jobs = 1 is the
//     historical sequential path bit for bit, so any drift here is a
//     broken contract, not noise. So is the rejuvenation example's MRGP
//     under a deterministic and a Weibull timer, which runs the
//     uniformization series at one and at 192 quadrature nodes.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/distributions.hpp"
#include "io/model_parser.hpp"
#include "markov/ctmc.hpp"
#include "markov/solution_cache.hpp"
#include "semimarkov/mrgp.hpp"

using namespace relkit;

namespace {

std::string model_path(const char* name) {
  return std::string(RELKIT_EXAMPLES_DIR) + "/" + name;
}

void expect_rel(double expected, double actual, const char* what) {
  const double scale = std::abs(expected) > 0.0 ? std::abs(expected) : 1.0;
  EXPECT_NEAR(expected, actual, 1e-12 * scale) << what;
}

using NameSets = std::vector<std::vector<std::string>>;

/// All 3-subsets of prefix1..prefix6, in lexicographic order.
NameSets three_of_six(const std::string& prefix) {
  NameSets out;
  for (int a = 1; a <= 6; ++a) {
    for (int b = a + 1; b <= 6; ++b) {
      for (int c = b + 1; c <= 6; ++c) {
        out.push_back({prefix + std::to_string(a), prefix + std::to_string(b),
                       prefix + std::to_string(c)});
      }
    }
  }
  return out;
}

/// One importance row: the component, then its measures in declaration
/// order.
struct Row {
  std::string name;
  std::vector<double> measures;
};

Row row_of(const rbd::ImportanceRow& r) {
  return {r.component, {r.birnbaum, r.criticality, r.fussell_vesely}};
}

Row row_of(const ftree::ImportanceRow& r) {
  return {r.event,
          {r.birnbaum, r.criticality, r.fussell_vesely, r.raw, r.rrw}};
}

template <class ImportanceRow>
void expect_importance(const std::vector<ImportanceRow>& rows,
                       const std::vector<Row>& pinned) {
  ASSERT_EQ(rows.size(), pinned.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row got = row_of(rows[i]);
    EXPECT_EQ(got.name, pinned[i].name);
    ASSERT_EQ(got.measures.size(), pinned[i].measures.size());
    for (std::size_t j = 0; j < got.measures.size(); ++j) {
      expect_rel(pinned[i].measures[j], got.measures[j],
                 (got.name + " importance measure " + std::to_string(j))
                     .c_str());
    }
  }
}

}  // namespace

TEST(Golden, WebserviceFaultTree) {
  const auto m = io::parse_model_file(model_path("webservice.ftree"));
  ASSERT_NE(m.fault_tree, nullptr);
  expect_rel(0.0020118490657928495, m.fault_tree->top_probability_limit(),
             "steady-state top probability");
  expect_rel(0.0020118490657664266, m.fault_tree->top_probability(100.0),
             "top probability at t=100");
  EXPECT_EQ(m.fault_tree->minimal_cut_sets(),
            (NameSets{{"db"}, {"web1", "web2"}}));
  expect_importance(
      m.fault_tree->importance(-1.0),
      {{"web1",
        {0.0039761115219759651, 0.0078738917497360034, 0.0078738917497361074,
         2.9684729374340026, 1.0079363819621909}},
       {"web2",
        {0.0039761115219759651, 0.0078738917497360034, 0.0078738917497361074,
         2.9684729374340026, 1.0079363819621909}},
       {"db",
        {0.99998412723607566, 0.99211036046676448, 0.99211036046676448,
         497.05518023336907, 126.74850299401552}}});
}

TEST(Golden, ClusterHierarchicalAvailability) {
  // Three `event ... markov` pools solved through the robust chain feed a
  // series RBD — the tutorial's two-level composition.
  const auto m = io::parse_model_file(model_path("cluster.rbd"));
  ASSERT_NE(m.rbd, nullptr);
  expect_rel(0.9998765427117744, m.rbd->availability(),
             "cluster steady-state availability");
  EXPECT_EQ(m.rbd->minimal_cut_sets(),
            (NameSets{{"frontends"}, {"appservers"}, {"database"},
                      {"switch"}}));
  expect_importance(
      m.rbd->importance(-1.0),
      {{"frontends",
        {0.9998767335362676, 0.0015456721589389682, 0.0015458627119688884}},
       {"appservers",
        {0.99989185190431229, 0.12400395924746727, 0.1240173714900261}},
       {"database",
        {0.999884509855541, 0.064533604140695713, 0.064541057996807302}},
       {"switch",
        {0.99997653036604561, 0.80989673196513512, 0.80991574039109593}}});
}

TEST(Golden, GeoredundantRepeatedSubchain) {
  // Two identical markov pools: the second solve is a SolutionCache hit
  // and must not change the answer.
  auto& cache = markov::SolutionCache::instance();
  cache.clear();
  const std::uint64_t hits_before = cache.hits();
  const auto m = io::parse_model_file(model_path("georedundant.rbd"));
  ASSERT_NE(m.rbd, nullptr);
  expect_rel(0.99999998996380135, m.rbd->availability(),
             "georedundant steady-state availability");
  EXPECT_GT(cache.hits(), hits_before);
  EXPECT_EQ(m.rbd->minimal_cut_sets(),
            (NameSets{{"siteA_pool", "siteB_pool"},
                      {"siteA_pool", "siteB_switch"},
                      {"siteA_switch", "siteB_pool"},
                      {"siteA_switch", "siteB_switch"}}));
  expect_importance(
      m.rbd->importance(-1.0),
      {{"siteA_pool",
        {0.00010017081285418339, 0.001904844832237606,
         0.0019050356795994126}},
       {"siteA_switch",
        {0.00010018081081619723, 0.99809496833375022,
         0.99809534893889407}},
       {"siteB_pool",
        {0.00010017081285418339, 0.001904844832237606,
         0.0019050356795994126}},
       {"siteB_switch",
        {0.00010018081081619723, 0.99809496833375022,
         0.99809534893889407}}});
}

TEST(Golden, RaidRbd) {
  const auto m = io::parse_model_file(model_path("raid.rbd"));
  ASSERT_NE(m.rbd, nullptr);
  expect_rel(0.0, m.rbd->availability(), "raid availability");
  expect_rel(0.99949900149110316, m.rbd->reliability(100.0),
             "raid reliability at t=100");
  NameSets cuts{{"psu"}, {"ctrlA", "ctrlB"}};
  for (auto& triple : three_of_six("d")) cuts.push_back(std::move(triple));
  EXPECT_EQ(m.rbd->minimal_cut_sets(), cuts);
  // Lifetime components are all down in the limit: every Birnbaum value
  // vanishes and F-V is the cut-sum approximation capped at 1.
  expect_importance(m.rbd->importance(-1.0),
                    {{"d1", {0, 0, 1}},
                     {"d2", {0, 0, 1}},
                     {"d3", {0, 0, 1}},
                     {"d4", {0, 0, 1}},
                     {"d5", {0, 0, 1}},
                     {"d6", {0, 0, 1}},
                     {"ctrlA", {0, 0, 1}},
                     {"ctrlB", {0, 0, 1}},
                     {"psu", {0, 0, 0.00049999999999994493}}});
}

TEST(Golden, SipClusterRbd) {
  const auto m = io::parse_model_file(model_path("sip_cluster.rbd"));
  ASSERT_NE(m.rbd, nullptr);
  NameSets cuts{{"proxy1", "proxy2"}};
  for (auto& triple : three_of_six("app")) cuts.push_back(std::move(triple));
  EXPECT_EQ(m.rbd->minimal_cut_sets(), cuts);
  const std::vector<double> proxy{9.9990000999694573e-05,
                                  0.99975007742064192, 0.99975007742286193};
  const std::vector<double> app{2.4993750624702216e-08,
                                0.00012495626155139208,
                                0.00012497500749202297};
  std::vector<Row> rows{{"proxy1", proxy}, {"proxy2", proxy}};
  for (int i = 1; i <= 6; ++i) rows.push_back({"app" + std::to_string(i), app});
  expect_importance(m.rbd->importance(-1.0), rows);
}

TEST(Golden, BridgeRelgraph) {
  const auto m = io::parse_model_file(model_path("bridge.relgraph"));
  ASSERT_NE(m.graph, nullptr);
  expect_rel(0.97848000000000002, m.graph->reliability(-1.0),
             "bridge steady-state s-t reliability");
  expect_rel(0.97848000000000002, m.graph->reliability_factoring(-1.0),
             "bridge factoring cross-check");
  EXPECT_EQ(m.graph->minimal_cut_sets(),
            (NameSets{{"A", "C"}, {"B", "D"}, {"A", "D", "E"},
                      {"C", "B", "E"}}));
}

// The bit-identical pin for the sequential state-space path: a fixed
// 12-state birth-death chain solved by raw SOR at jobs = 1 must reproduce
// the pre-parallelism values exactly, component by component. If this test
// fails, the jobs = 1 path is no longer the historical sequential loop.
TEST(Golden, Jobs1SteadyStateBits) {
  markov::Ctmc c;
  c.add_states(12);
  for (std::size_t i = 0; i + 1 < 12; ++i) {
    c.add_transition(i, i + 1, 0.3 + 0.05 * static_cast<double>(i));
    c.add_transition(i + 1, i, 1.1 - 0.04 * static_cast<double>(i));
  }
  markov::SteadyStateOptions opts;
  opts.dense_threshold = 0;  // force SOR
  opts.solver = robust::SolverChoice::kSor;
  opts.sor.tol = 1e-13;
  opts.jobs = 1;
  opts.use_cache = false;
  const std::vector<double> pi = c.steady_state(opts);
  const std::vector<double> pinned = {
      0.69295476815643187,    0.18898766404264336,
      0.062401587183940746,   0.024471210660419854,
      0.011236780405349967,   0.0059770108539695145,
      0.0036526177441573711,  0.0025483379611097516,
      0.002020023993636948,   0.0018128420456503041,
      0.0018373399112148654,  0.0020998170414753851,
  };
  ASSERT_EQ(pi.size(), pinned.size());
  for (std::size_t i = 0; i < pi.size(); ++i) {
    EXPECT_EQ(pi[i], pinned[i]) << "state " << i;
  }
}

// The two-phase aging MRGP of examples/rejuvenation.cpp (robust -> fragile
// -> crashed, one non-resetting rejuvenation timer) solved under a
// deterministic(800) timer (one uniformization node) and a Weibull(3, 400)
// timer (192 quantile nodes). Pinned EXACTLY, component by component.
TEST(Golden, MrgpTimers) {
  const auto solve = [](DistPtr timer) {
    markov::Ctmc sub;
    const auto robust = sub.add_state("robust");
    const auto fragile = sub.add_state("fragile");
    const auto crashed = sub.add_state("crashed");
    const auto rejuving = sub.add_state("rejuving");
    const auto rejuv_ok = sub.add_state("rejuv_ok");
    const auto fixing = sub.add_state("fixing");
    const auto fixed = sub.add_state("fixed");
    sub.add_transition(robust, fragile, 1.0 / 500.0);
    sub.add_transition(fragile, crashed, 1.0 / 250.0);
    sub.add_transition(rejuving, rejuv_ok, 1.0 / erlang(4, 4.0 / 0.1)->mean());
    sub.add_transition(fixing, fixed, 1.0 / lognormal(0.7, 0.8)->mean());
    semimarkov::Mrgp mrgp(std::move(sub));
    semimarkov::RegenerationRule live;
    live.timer = std::move(timer);
    live.timer_branch.assign(7, 1);
    const auto reg_live = mrgp.add_regeneration(robust, live);
    mrgp.add_regeneration(rejuving, {});
    const auto reg_fix = mrgp.add_regeneration(fixing, {});
    mrgp.set_exit_branch(crashed, reg_fix);
    mrgp.set_exit_branch(rejuv_ok, reg_live);
    mrgp.set_exit_branch(fixed, reg_live);
    return mrgp.steady_state();
  };
  const std::vector<double> det = solve(deterministic(800.0));
  const std::vector<double> det_pinned = {
      0.71246927023178175, 0.28431210269685148,   0.0,
      6.4815733244229747e-05, 0.0, 0.0031538113381226326,
      0.0,
  };
  ASSERT_EQ(det.size(), det_pinned.size());
  for (std::size_t i = 0; i < det.size(); ++i) {
    EXPECT_EQ(det[i], det_pinned[i]) << "deterministic timer, state " << i;
  }
  const std::vector<double> weib = solve(weibull(3.0, 400.0));
  const std::vector<double> weib_pinned = {
      0.78910644101916827, 0.20834628910669753,   0.0,
      0.00023613052196572238, 0.0, 0.0023111393521684049,
      0.0,
  };
  ASSERT_EQ(weib.size(), weib_pinned.size());
  for (std::size_t i = 0; i < weib.size(); ++i) {
    EXPECT_EQ(weib[i], weib_pinned[i]) << "Weibull timer, state " << i;
  }
}
