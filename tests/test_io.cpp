// Tests for the model-file parser and its error reporting.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>

#include "common/error.hpp"
#include "io/graphviz.hpp"
#include "io/model_parser.hpp"

namespace relkit::io {
namespace {

TEST(ParseFtree, BasicModelSolves) {
  const auto model = parse_model_string(R"(
# comment line
model ftree demo
event a prob 0.9
event b prob 0.8
event c prob 0.95
gate ab and a b
gate top_gate or ab c
top top_gate
)");
  ASSERT_NE(model.fault_tree, nullptr);
  EXPECT_EQ(model.name, "demo");
  // q = 1 - (1 - qa qb)(1 - qc), qa=.1 qb=.2 qc=.05.
  const double expect = 1.0 - (1.0 - 0.1 * 0.2) * (1.0 - 0.05);
  EXPECT_NEAR(model.fault_tree->top_probability_limit(), expect, 1e-14);
}

TEST(ParseFtree, RatesAndRepair) {
  const auto model = parse_model_string(R"(
model ftree m
event x rate 0.01 repair 1.0
event y rate 0.02
gate g or x y
top g
)");
  ASSERT_NE(model.fault_tree, nullptr);
  // At steady state x has unavailability 0.01/1.01, y -> 1 (no repair).
  EXPECT_NEAR(model.fault_tree->top_probability_limit(), 1.0, 1e-12);
  const double q100 = model.fault_tree->top_probability(100.0);
  EXPECT_GT(q100, 0.8);  // y almost surely failed by t=100
}

TEST(ParseFtree, WeibullAndLognormalEvents) {
  const auto model = parse_model_string(R"(
model ftree m
event w weibull 2.0 100.0
event l lognormal 1.0 0.5
gate g and w l
top g
)");
  const double q50 = model.fault_tree->top_probability(50.0);
  const double expect = (1.0 - std::exp(-0.25)) * 1.0;  // l << 50 => ~1
  EXPECT_NEAR(q50, expect, 0.01);
}

TEST(ParseFtree, NotGateAccepted) {
  const auto model = parse_model_string(R"(
model ftree m
event a prob 0.7
event b prob 0.6
gate nb not b
gate g and a nb
top g
)");
  EXPECT_FALSE(model.fault_tree->coherent());
  // q = qa * (1 - qb) = 0.3 * 0.6.
  EXPECT_NEAR(model.fault_tree->top_probability_limit(), 0.3 * 0.6, 1e-14);
}

TEST(ParseRbd, SeriesParallelKofn) {
  const auto model = parse_model_string(R"(
model rbd array
event d1 prob 0.9
event d2 prob 0.9
event d3 prob 0.9
event c prob 0.99
gate disks kofn 2 d1 d2 d3
gate sys and disks c
top sys
)");
  ASSERT_NE(model.rbd, nullptr);
  const double r_disks = 3 * 0.81 * 0.1 + 0.729;
  EXPECT_NEAR(model.rbd->availability(), r_disks * 0.99, 1e-12);
  EXPECT_EQ(model.rbd->component_count(), 4u);
}

TEST(ParseRbd, NotGateRejected) {
  EXPECT_THROW(parse_model_string(R"(
model rbd m
event a prob 0.5
gate g not a
top g
)"),
               ModelError);
}

TEST(ParseErrors, ReportLineNumbers) {
  try {
    parse_model_string("model ftree m\nevent a prob 1.5\ntop a\n");
    FAIL() << "expected ModelError";
  } catch (const ModelError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(ParseErrors, ReportColumns) {
  try {
    parse_model_string("model ftree m\nevent a rate nope\ntop a\n");
    FAIL() << "expected ModelError";
  } catch (const ModelError& e) {
    // "rate nope" — the bad token starts at column 14.
    EXPECT_NE(std::string(e.what()).find("line 2, col 14"),
              std::string::npos)
        << e.what();
  }
}

TEST(ParseErrors, CollectsAllErrorsInOnePass) {
  try {
    parse_model_string(
        "model ftree m\n"
        "event a prob 1.5\n"   // line 2: probability out of range
        "event b rate nope\n"  // line 3: bad rate token
        "frobnicate\n"         // line 4: unknown directive
        "event c prob 0.5\n"
        "top c\n");
    FAIL() << "expected ModelError";
  } catch (const ModelError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("line 4"), std::string::npos) << what;
    EXPECT_NE(what.find("and 2 more"), std::string::npos) << what;
  }
}

TEST(ParseMarkovDirective, PoolAvailabilityMatchesBirthDeathClosedForm) {
  const auto model = parse_model_string(R"(
model rbd m
event pool markov 2 1 0.1 1.0
top pool
)");
  ASSERT_NE(model.rbd, nullptr);
  // Birth-death over failed units with one shared repairer:
  // pi1 = (2 lambda / mu) pi0, pi2 = (lambda / mu) pi1; up while <= 1 failed.
  const double lam = 0.1, mu = 1.0;
  const double p1 = 2 * lam / mu, p2 = p1 * lam / mu;
  const double expect = (1.0 + p1) / (1.0 + p1 + p2);
  EXPECT_NEAR(model.rbd->availability(), expect, 1e-12);
}

TEST(ParseMarkovDirective, KGreaterThanNReportsLineAndColumn) {
  try {
    parse_model_string(
        "model rbd m\n"
        "event pool markov 4 9 0.01 1.0\n"
        "top pool\n");
    FAIL() << "expected ModelError";
  } catch (const ModelError& e) {
    // "9" (k) starts at column 21 of line 2.
    EXPECT_NE(std::string(e.what()).find("line 2, col 21"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("k must be an integer in [1, n]"),
              std::string::npos)
        << e.what();
  }
}

TEST(ParseMarkovDirective, NonNumericRateReportsLineAndColumn) {
  try {
    parse_model_string(
        "model rbd m\n"
        "event pool markov 4 2 abc 1.0\n"
        "top pool\n");
    FAIL() << "expected ModelError";
  } catch (const ModelError& e) {
    // "abc" (lambda) starts at column 23 of line 2.
    EXPECT_NE(std::string(e.what()).find("line 2, col 23"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("bad rate 'abc'"), std::string::npos)
        << e.what();
  }
}

TEST(ParseMarkovDirective, RecoveryCollectsEveryBadDirective) {
  // Error recovery: one bad markov line must not hide the next one, and a
  // later well-formed event still parses (its name can be referenced).
  try {
    parse_model_string(
        "model rbd m\n"
        "event p1 markov 2.5 1 0.1 1.0\n"   // line 2: non-integer n
        "event p2 markov 3 1 0.1 -2.0\n"    // line 3: negative repair rate
        "event ok rate 0.5 repair 1.0\n"
        "top ok\n");
    FAIL() << "expected ModelError";
  } catch (const ModelError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 2, col 17"), std::string::npos) << what;
    EXPECT_NE(what.find("n must be an integer in [1, 100000]"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("rates must be > 0"), std::string::npos) << what;
  }
}

TEST(ParseMarkovDirective, MissingOperandPointsPastLineEnd) {
  try {
    parse_model_string(
        "model rbd m\n"
        "event pool markov 4 2 0.01\n"  // mu missing
        "top pool\n");
    FAIL() << "expected ModelError";
  } catch (const ModelError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "expected: markov <n> <k> <lambda> <mu>"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(ParseErrors, StructuralProblems) {
  // Missing model directive.
  EXPECT_THROW(parse_model_string("event a prob 0.5\ntop a\n"), ModelError);
  // Missing top.
  EXPECT_THROW(parse_model_string("model ftree m\nevent a prob 0.5\n"),
               ModelError);
  // Unknown reference.
  EXPECT_THROW(parse_model_string(
                   "model ftree m\nevent a prob 0.5\ngate g and a zz\ntop g\n"),
               ModelError);
  // Duplicate names.
  EXPECT_THROW(parse_model_string(
                   "model ftree m\nevent a prob 0.5\nevent a prob 0.4\ntop a\n"),
               ModelError);
  // Cyclic gates.
  EXPECT_THROW(parse_model_string("model ftree m\nevent e prob 0.5\n"
                                  "gate g1 and g2 e\ngate g2 or g1 e\ntop g1\n"),
               ModelError);
  // Bad numbers.
  EXPECT_THROW(parse_model_string("model ftree m\nevent a prob abc\ntop a\n"),
               ModelError);
  EXPECT_THROW(parse_model_string("model ftree m\nevent a rate -2\ntop a\n"),
               ModelError);
  // kofn with non-integer k.
  EXPECT_THROW(parse_model_string("model ftree m\nevent a prob .5\n"
                                  "event b prob .5\ngate g kofn 1.5 a b\ntop g\n"),
               ModelError);
  // Unknown directive.
  EXPECT_THROW(parse_model_string("model ftree m\nfrobnicate\n"), ModelError);
  // 'not' with two children.
  EXPECT_THROW(parse_model_string("model ftree m\nevent a prob .5\n"
                                  "event b prob .5\ngate g not a b\ntop g\n"),
               ModelError);
}

TEST(ParseErrors, MissingFile) {
  EXPECT_THROW(parse_model_file("/nonexistent/path.ftree"), InvalidArgument);
}

// Resolves a repo-relative path from common ctest working directories.
std::string find_model(const std::string& rel) {
  for (const char* prefix : {"", "../", "../../", "../../../"}) {
    const std::string candidate = prefix + rel;
    std::ifstream probe(candidate);
    if (probe.good()) return candidate;
  }
  return rel;  // let the parser report the failure
}

TEST(ParseFiles, ShippedExamplesParse) {
  const auto ft =
      parse_model_file(find_model("examples/models/webservice.ftree"));
  ASSERT_NE(ft.fault_tree, nullptr);
  EXPECT_GT(ft.fault_tree->top_probability_limit(), 0.0);
  const auto rb = parse_model_file(find_model("examples/models/raid.rbd"));
  ASSERT_NE(rb.rbd, nullptr);
  EXPECT_GT(rb.rbd->reliability(1000.0), 0.9);
}

TEST(ParseRelgraph, BridgeMatchesClosedForm) {
  const auto model = parse_model_string(R"(
model relgraph bridge
vertices 4
terminals 0 3
event A prob 0.9
event B prob 0.9
event C prob 0.9
event D prob 0.9
event E prob 0.9
edge A 0 1
edge C 0 2
edge B 1 3
edge D 2 3
edge E 1 2 undirected
)");
  ASSERT_NE(model.graph, nullptr);
  const double p = 0.9;
  const double up2 = 1.0 - (1.0 - p) * (1.0 - p);
  const double closed =
      p * up2 * up2 + (1.0 - p) * (1.0 - (1.0 - p * p) * (1.0 - p * p));
  EXPECT_NEAR(model.graph->reliability(-1.0), closed, 1e-13);
  EXPECT_NEAR(model.graph->reliability_factoring(-1.0), closed, 1e-13);
}

TEST(ParseRelgraph, Validation) {
  // Missing vertices.
  EXPECT_THROW(parse_model_string("model relgraph g\nterminals 0 1\n"
                                  "event a prob .5\nedge a 0 1\n"),
               ModelError);
  // Gates rejected.
  EXPECT_THROW(parse_model_string("model relgraph g\nvertices 2\n"
                                  "terminals 0 1\nevent a prob .5\n"
                                  "edge a 0 1\ngate x or a\n"),
               ModelError);
  // Unknown edge component.
  EXPECT_THROW(parse_model_string("model relgraph g\nvertices 2\n"
                                  "terminals 0 1\nedge nope 0 1\n"),
               ModelError);
  // Edge vertex out of range.
  EXPECT_THROW(parse_model_string("model relgraph g\nvertices 2\n"
                                  "terminals 0 1\nevent a prob .5\n"
                                  "edge a 0 5\n"),
               ModelError);
  // Bad terminals.
  EXPECT_THROW(parse_model_string("model relgraph g\nvertices 2\n"
                                  "terminals 0 0\nevent a prob .5\n"
                                  "edge a 0 1\n"),
               ModelError);
}

TEST(ParseRelgraph, ShippedBridgeFileParses) {
  const auto model =
      parse_model_file(find_model("examples/models/bridge.relgraph"));
  ASSERT_NE(model.graph, nullptr);
  EXPECT_EQ(model.graph->component_count(), 5u);
}

TEST(ParseRoundTrip, RepeatedEventSharedAcrossGates) {
  // A bridge expressed with shared events parses and matches the exact
  // factoring value.
  const auto model = parse_model_string(R"(
model rbd bridge
event A prob 0.9
event B prob 0.9
event C prob 0.9
event D prob 0.9
event E prob 0.9
gate p1 and A B
gate p2 and C D
gate p3 and A E D
gate p4 and C E B
gate sys or p1 p2 p3 p4
top sys
)");
  const double p = 0.9;
  const double up2 = 1.0 - (1.0 - p) * (1.0 - p);
  const double closed =
      p * up2 * up2 + (1.0 - p) * (1.0 - (1.0 - p * p) * (1.0 - p * p));
  EXPECT_NEAR(model.rbd->availability(), closed, 1e-14);
}

TEST(Graphviz, CtmcExportContainsStatesAndRates) {
  markov::Ctmc c;
  const auto up = c.add_state("up");
  const auto down = c.add_state("down");
  c.add_transition(up, down, 0.25);
  const std::string dot = to_graphviz(c);
  EXPECT_NE(dot.find("digraph ctmc"), std::string::npos);
  EXPECT_NE(dot.find("label=\"up\""), std::string::npos);
  EXPECT_NE(dot.find("label=\"down\""), std::string::npos);
  EXPECT_NE(dot.find("0.25"), std::string::npos);
  // Absorbing state rendered double-circled.
  EXPECT_NE(dot.find("peripheries=2"), std::string::npos);
}

TEST(Graphviz, AnonymousStatesExportUnchanged) {
  markov::Ctmc c;
  c.add_states(3);
  c.add_transition(0, 1, 0.5);
  c.add_transition(1, 2, 0.25);
  c.add_transition(2, 0, 2.0);
  c.add_transition(1, 0, 1.0 / 3.0);
  EXPECT_EQ(to_graphviz(c),
            "digraph ctmc {\n"
            "  rankdir=LR;\n"
            "  node [shape=ellipse];\n"
            "  s0 [label=\"s0\"];\n"
            "  s1 [label=\"s1\"];\n"
            "  s2 [label=\"s2\"];\n"
            "  s0 -> s1 [label=\"0.5\"];\n"
            "  s1 -> s0 [label=\"0.333333\"];\n"
            "  s1 -> s2 [label=\"0.25\"];\n"
            "  s2 -> s0 [label=\"2\"];\n"
            "}\n");
}

TEST(Graphviz, SrnReachabilityExport) {
  spn::Srn net;
  const auto a = net.add_place("a", 1);
  const auto b = net.add_place("b", 0);
  const auto t = net.add_timed("go", 2.0);
  net.add_input_arc(t, a);
  net.add_output_arc(t, b);
  const std::string dot = to_graphviz(net);
  EXPECT_NE(dot.find("a=1"), std::string::npos);
  EXPECT_NE(dot.find("b=1"), std::string::npos);
  EXPECT_NE(dot.find("\"2\""), std::string::npos);
  (void)a;
  (void)b;
}

}  // namespace
}  // namespace relkit::io
