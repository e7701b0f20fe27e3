// Unit + integration tests for stochastic reward nets: reachability graph
// generation, vanishing-marking elimination, guards/inhibitors, and
// agreement with closed-form CTMC results.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <typeinfo>

#include "common/error.hpp"
#include "markov/ctmc.hpp"
#include "spn/srn.hpp"

namespace relkit::spn {
namespace {

// Simple repairable component: place "up" with 1 token, fail/repair.
Srn two_state_net(double lambda, double mu) {
  Srn net;
  const PlaceId up = net.add_place("up", 1);
  const PlaceId down = net.add_place("down", 0);
  const TransId fail = net.add_timed("fail", lambda);
  net.add_input_arc(fail, up);
  net.add_output_arc(fail, down);
  const TransId repair = net.add_timed("repair", mu);
  net.add_input_arc(repair, down);
  net.add_output_arc(repair, up);
  return net;
}

TEST(SrnBasics, TwoStateAvailability) {
  const double lambda = 0.01, mu = 1.0;
  const Srn net = two_state_net(lambda, mu);
  const GeneratedChain g = net.generate();
  EXPECT_EQ(g.markings.size(), 2u);
  EXPECT_EQ(g.vanishing_count, 0u);
  const PlaceId up = net.place_index("up");
  const double avail = net.probability(
      [up](const Marking& m) { return m[up] == 1; });
  EXPECT_NEAR(avail, mu / (lambda + mu), 1e-13);
}

TEST(SrnBasics, EnabledAndFire) {
  Srn net;
  const PlaceId p = net.add_place("p", 2);
  const PlaceId q = net.add_place("q", 0);
  const TransId t = net.add_timed("t", 1.0);
  net.add_input_arc(t, p, 2);
  net.add_output_arc(t, q, 3);
  EXPECT_TRUE(net.enabled(t, {2, 0}));
  EXPECT_FALSE(net.enabled(t, {1, 0}));
  const Marking next = net.fire(t, {2, 0});
  EXPECT_EQ(next, (Marking{0, 3}));
}

TEST(SrnBasics, InhibitorArcDisables) {
  Srn net;
  const PlaceId p = net.add_place("p", 1);
  const PlaceId h = net.add_place("h", 1);
  const TransId t = net.add_timed("t", 1.0);
  net.add_input_arc(t, p);
  net.add_inhibitor_arc(t, h);
  EXPECT_FALSE(net.enabled(t, {1, 1}));
  EXPECT_TRUE(net.enabled(t, {1, 0}));
}

TEST(SrnBasics, GuardEvaluated) {
  Srn net;
  const PlaceId p = net.add_place("p", 1);
  const TransId t = net.add_timed("t", 1.0);
  net.add_input_arc(t, p);
  net.set_guard(t, [](const Marking& m) { return m[0] >= 1 && false; });
  EXPECT_FALSE(net.enabled(t, {1}));
}

TEST(SrnSharedRepair, MatchesHandBuiltCtmc) {
  // n identical units, one shared repair facility — the tutorial's canonical
  // dependency that combinatorial models cannot express.
  const int n = 3;
  const double lambda = 0.02, mu = 0.5;
  Srn net;
  const PlaceId up = net.add_place("up", n);
  const PlaceId down = net.add_place("down", 0);
  const TransId fail = net.add_timed(
      "fail", [up, lambda](const Marking& m) { return lambda * m[up]; });
  net.add_input_arc(fail, up);
  net.add_output_arc(fail, down);
  const TransId repair = net.add_timed("repair", mu);  // single repairman
  net.add_input_arc(repair, down);
  net.add_output_arc(repair, up);

  const GeneratedChain g = net.generate();
  EXPECT_EQ(g.markings.size(), static_cast<std::size_t>(n + 1));

  // Hand-built birth-death chain on #down.
  markov::Ctmc c;
  c.add_states(n + 1);
  for (int i = 0; i < n; ++i) {
    c.add_transition(i, i + 1, lambda * (n - i));
    c.add_transition(i + 1, i, mu);
  }
  const auto pi_hand = c.steady_state();
  const double all_up_srn = net.probability(
      [up, n](const Marking& m) { return m[up] == static_cast<unsigned>(n); });
  EXPECT_NEAR(all_up_srn, pi_hand[0], 1e-12);
  const double exp_down = net.expected_tokens(down);
  double expect = 0.0;
  for (int i = 0; i <= n; ++i) expect += i * pi_hand[i];
  EXPECT_NEAR(exp_down, expect, 1e-12);
}

TEST(SrnImmediate, VanishingMarkingsEliminated) {
  // Failure routes through an immediate coverage choice: with prob c the
  // spare takes over, else system down. Classic imperfect-coverage pattern.
  const double lambda = 1.0, c_cov = 0.9;
  Srn net;
  const PlaceId up = net.add_place("up", 1);
  const PlaceId choosing = net.add_place("choosing", 0);
  const PlaceId spare = net.add_place("spare_active", 0);
  const PlaceId down = net.add_place("down", 0);

  const TransId fail = net.add_timed("fail", lambda);
  net.add_input_arc(fail, up);
  net.add_output_arc(fail, choosing);

  const TransId covered = net.add_immediate("covered", c_cov);
  net.add_input_arc(covered, choosing);
  net.add_output_arc(covered, spare);

  const TransId uncovered = net.add_immediate("uncovered", 1.0 - c_cov);
  net.add_input_arc(uncovered, choosing);
  net.add_output_arc(uncovered, down);

  const GeneratedChain g = net.generate();
  // Tangible markings: up, spare_active, down. "choosing" never appears.
  EXPECT_EQ(g.markings.size(), 3u);
  EXPECT_GT(g.vanishing_count, 0u);
  for (const Marking& m : g.markings) {
    EXPECT_EQ(m[choosing], 0u);
  }
  // Branch probabilities from "up": 0.9 / 0.1 at rate lambda.
  const markov::StateId up_state = [&] {
    for (std::size_t i = 0; i < g.markings.size(); ++i) {
      if (g.markings[i][up] == 1) return markov::StateId(i);
    }
    return markov::StateId(0);
  }();
  const auto q = g.ctmc.sparse_generator();
  double rate_to_spare = 0.0, rate_to_down = 0.0;
  for (std::size_t k = q.row_begin(up_state); k < q.row_end(up_state); ++k) {
    const Marking& m = g.markings[q.col(k)];
    if (m[spare] == 1) rate_to_spare = q.value(k);
    if (m[down] == 1) rate_to_down = q.value(k);
  }
  EXPECT_NEAR(rate_to_spare, lambda * c_cov, 1e-12);
  EXPECT_NEAR(rate_to_down, lambda * (1.0 - c_cov), 1e-12);
}

TEST(SrnImmediate, PriorityOverridesWeight) {
  Srn net;
  const PlaceId p = net.add_place("p", 1);
  const PlaceId a = net.add_place("a", 0);
  const PlaceId b = net.add_place("b", 0);
  const TransId start = net.add_timed("start", 1.0);
  net.add_input_arc(start, p);
  net.add_output_arc(start, p);  // keep p marked: net stays live
  // Immediate conflict resolved by priority: hi wins regardless of weight.
  Srn net2;
  const PlaceId src = net2.add_place("src", 1);
  const PlaceId pa = net2.add_place("a", 0);
  const PlaceId pb = net2.add_place("b", 0);
  const TransId lo = net2.add_immediate("lo", 100.0, 1);
  net2.add_input_arc(lo, src);
  net2.add_output_arc(lo, pa);
  const TransId hi = net2.add_immediate("hi", 1.0, 2);
  net2.add_input_arc(hi, src);
  net2.add_output_arc(hi, pb);
  // Make the tangible part nontrivial: a slow timed transition from b.
  const TransId done = net2.add_timed("done", 1.0);
  net2.add_input_arc(done, pb);
  net2.add_output_arc(done, pb);
  const GeneratedChain g = net2.generate();
  ASSERT_EQ(g.markings.size(), 1u);
  EXPECT_EQ(g.markings[0][pb], 1u);
  EXPECT_EQ(g.markings[0][pa], 0u);
  (void)p;
  (void)a;
  (void)b;
}

TEST(SrnImmediate, VanishingLoopDetected) {
  Srn net;
  const PlaceId a = net.add_place("a", 1);
  const PlaceId b = net.add_place("b", 0);
  const TransId ab = net.add_immediate("ab");
  net.add_input_arc(ab, a);
  net.add_output_arc(ab, b);
  const TransId ba = net.add_immediate("ba");
  net.add_input_arc(ba, b);
  net.add_output_arc(ba, a);
  EXPECT_THROW(net.generate(), ModelError);
}

TEST(SrnTransient, MatchesTwoStateClosedForm) {
  const double lambda = 0.2, mu = 2.0;
  const Srn net = two_state_net(lambda, mu);
  const PlaceId up = net.place_index("up");
  const double t = 1.7;
  const double avail = net.transient_reward(
      [up](const Marking& m) { return m[up] == 1 ? 1.0 : 0.0; }, t);
  const double expect = mu / (lambda + mu) +
                        lambda / (lambda + mu) * std::exp(-(lambda + mu) * t);
  EXPECT_NEAR(avail, expect, 1e-10);
}

TEST(SrnMtta, DuplexSystemMttf) {
  // 2 units + single repair; absorbing when both down.
  const double lambda = 0.01, mu = 1.0;
  Srn net;
  const PlaceId up = net.add_place("up", 2);
  const PlaceId down = net.add_place("down", 0);
  const TransId fail = net.add_timed(
      "fail", [up, lambda](const Marking& m) { return lambda * m[up]; });
  net.add_input_arc(fail, up);
  net.add_output_arc(fail, down);
  const TransId repair = net.add_timed("repair", mu);
  net.add_input_arc(repair, down);
  net.add_output_arc(repair, up);
  // Repair only while not totally failed (failure is catastrophic).
  net.set_guard(repair, [up](const Marking& m) { return m[up] >= 1; });

  const double mttf = net.mean_time_to_absorption(
      [up](const Marking& m) { return m[up] == 0; });
  const double expect = (3 * lambda + mu) / (2 * lambda * lambda);
  EXPECT_NEAR(mttf, expect, expect * 1e-10);
}

TEST(SrnErrors, BadConstruction) {
  Srn net;
  EXPECT_THROW(net.add_timed("t", 0.0), InvalidArgument);
  EXPECT_THROW(net.add_immediate("i", -1.0), InvalidArgument);
  const PlaceId p = net.add_place("p", 1);
  EXPECT_THROW(net.add_place("p", 0), InvalidArgument);
  const TransId t = net.add_timed("t", 1.0);
  EXPECT_THROW(net.add_input_arc(t, 99), InvalidArgument);
  EXPECT_THROW(net.add_input_arc(99, p), InvalidArgument);
}

TEST(SrnErrors, RateMustBePositiveWhenEnabled) {
  Srn net;
  const PlaceId p = net.add_place("p", 1);
  const TransId t = net.add_timed("t", [](const Marking&) { return 0.0; });
  net.add_input_arc(t, p);
  EXPECT_THROW(net.generate(), ModelError);
}

TEST(SrnStateSpace, GrowthWithTokens) {
  // K tokens circulating through 3 places: C(K+2, 2) markings.
  for (std::uint32_t k : {1u, 3u, 6u}) {
    Srn net;
    const PlaceId p0 = net.add_place("p0", k);
    const PlaceId p1 = net.add_place("p1", 0);
    const PlaceId p2 = net.add_place("p2", 0);
    const TransId t01 = net.add_timed("t01", 1.0);
    net.add_input_arc(t01, p0);
    net.add_output_arc(t01, p1);
    const TransId t12 = net.add_timed("t12", 2.0);
    net.add_input_arc(t12, p1);
    net.add_output_arc(t12, p2);
    const TransId t20 = net.add_timed("t20", 3.0);
    net.add_input_arc(t20, p2);
    net.add_output_arc(t20, p0);
    const GeneratedChain g = net.generate();
    EXPECT_EQ(g.markings.size(), (k + 2) * (k + 1) / 2u) << "k=" << k;
  }
}

// ---- generation oracle ------------------------------------------------------
//
// The std::map-based reachability analysis that Srn::generate used before it
// interned markings by hash, kept as the reference: the same BFS, the same
// recursive vanishing elimination with std::set/std::map, states named
// "m<id>". It counts the tangible markings reached twice within one
// resolution, so the random nets below provably exercise merging branches.

struct ReferenceStats {
  std::size_t merges = 0;
  std::size_t vanishing_initial = 0;
};

std::vector<TransId> reference_immediates(const Srn& srn, const Marking& m) {
  std::vector<TransId> best;
  unsigned best_priority = 0;
  for (TransId t = 0; t < srn.transition_count(); ++t) {
    if (srn.is_timed(t) || !srn.enabled(t, m)) continue;
    if (srn.priority_of(t) > best_priority) {
      best_priority = srn.priority_of(t);
      best.clear();
    }
    if (srn.priority_of(t) == best_priority) best.push_back(t);
  }
  return best;
}

GeneratedChain reference_generate(const Srn& srn, std::size_t max_states,
                                  ReferenceStats& stats) {
  GeneratedChain out;
  std::map<Marking, std::size_t> tangible_index;

  std::function<void(const Marking&, double, std::set<Marking>&,
                     std::map<Marking, double>&)>
      resolve = [&](const Marking& m, double prob, std::set<Marking>& on_path,
                    std::map<Marking, double>& tangible_mass) {
        const auto imms = reference_immediates(srn, m);
        if (imms.empty()) {
          if (tangible_mass.count(m)) ++stats.merges;
          tangible_mass[m] += prob;
          return;
        }
        ++out.vanishing_count;
        detail::require_model(!on_path.count(m),
                              "Srn::generate: cycle of immediate transitions "
                              "(vanishing loop)");
        on_path.insert(m);
        double total_weight = 0.0;
        for (const TransId t : imms) total_weight += srn.weight_of(t);
        for (const TransId t : imms) {
          resolve(srn.fire(t, m), prob * srn.weight_of(t) / total_weight,
                  on_path, tangible_mass);
        }
        on_path.erase(m);
      };

  auto intern = [&](const Marking& m) {
    const auto it = tangible_index.find(m);
    if (it != tangible_index.end()) return it->second;
    const std::size_t id = out.markings.size();
    detail::require_model(id < max_states,
                          "Srn::generate: more than " +
                              std::to_string(max_states) +
                              " tangible markings");
    tangible_index.emplace(m, id);
    out.markings.push_back(m);
    out.ctmc.add_state("m" + std::to_string(id));
    return id;
  };

  {
    std::set<Marking> on_path;
    std::map<Marking, double> mass;
    resolve(srn.initial_marking(), 1.0, on_path, mass);
    if (out.vanishing_count > 0) ++stats.vanishing_initial;
    for (const auto& [m, p] : mass) {
      const std::size_t id = intern(m);
      if (out.initial.size() <= id) out.initial.resize(id + 1, 0.0);
      out.initial[id] += p;
    }
  }

  std::deque<std::size_t> frontier;
  for (std::size_t id = 0; id < out.markings.size(); ++id) {
    frontier.push_back(id);
  }
  while (!frontier.empty()) {
    const std::size_t id = frontier.front();
    frontier.pop_front();
    const Marking m = out.markings[id];
    for (TransId t = 0; t < srn.transition_count(); ++t) {
      if (!srn.is_timed(t) || !srn.enabled(t, m)) continue;
      const double rate = srn.rate_of(t, m);
      detail::require_model(rate > 0.0,
                            "Srn::generate: transition '" +
                                srn.transition_name(t) +
                                "' enabled with non-positive rate");
      std::set<Marking> on_path;
      std::map<Marking, double> mass;
      resolve(srn.fire(t, m), 1.0, on_path, mass);
      for (const auto& [next, p] : mass) {
        const bool fresh = !tangible_index.count(next);
        const std::size_t nid = intern(next);
        if (fresh) frontier.push_back(nid);
        if (nid != id) out.ctmc.add_transition(id, nid, rate * p);
      }
    }
  }
  out.initial.resize(out.markings.size(), 0.0);
  return out;
}

std::uint64_t bits(double x) {
  std::uint64_t u;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

/// generate() must reproduce the reference bit for bit, or throw the same
/// exception type with the same text. Returns true when a chain came out.
bool expect_matches_reference(const Srn& net, std::size_t max_states,
                              ReferenceStats& stats,
                              const std::string& label) {
  std::optional<GeneratedChain> want;
  std::string want_error;
  const std::type_info* want_type = nullptr;
  try {
    want = reference_generate(net, max_states, stats);
  } catch (const Error& e) {
    want_error = e.what();
    want_type = &typeid(e);
  }
  std::optional<GeneratedChain> got;
  try {
    got = net.generate(max_states);
  } catch (const Error& e) {
    EXPECT_TRUE(want_type != nullptr && typeid(e) == *want_type) << label;
    EXPECT_EQ(e.what(), want_error) << label;
    return false;
  }
  EXPECT_EQ(want_type, nullptr) << label << ": expected '" << want_error
                                << "'";
  if (!want) return false;
  EXPECT_EQ(got->markings, want->markings) << label;
  EXPECT_EQ(got->vanishing_count, want->vanishing_count) << label;
  EXPECT_EQ(got->ctmc.state_count(), want->ctmc.state_count()) << label;
  EXPECT_EQ(got->initial.size(), want->initial.size()) << label;
  for (std::size_t i = 0; i < std::min(got->initial.size(),
                                       want->initial.size());
       ++i) {
    EXPECT_EQ(bits(got->initial[i]), bits(want->initial[i]))
        << label << " initial[" << i << "]";
  }
  const SparseMatrix q = got->ctmc.sparse_generator();
  const SparseMatrix r = want->ctmc.sparse_generator();
  EXPECT_EQ(q.rows(), r.rows()) << label;
  EXPECT_EQ(q.nnz(), r.nnz()) << label;
  if (q.rows() != r.rows() || q.nnz() != r.nnz()) return true;
  for (std::size_t row = 0; row < q.rows(); ++row) {
    EXPECT_EQ(q.row_end(row), r.row_end(row)) << label << " row " << row;
  }
  for (std::size_t k = 0; k < q.nnz(); ++k) {
    EXPECT_EQ(q.col(k), r.col(k)) << label << " entry " << k;
    EXPECT_EQ(bits(q.value(k)), bits(r.value(k))) << label << " entry " << k;
  }
  return true;
}

/// A random token-conserving net: timed transitions move tokens between
/// any places (constant or marking-dependent rates, some inhibited);
/// immediates only move tokens to a higher-numbered place, so there is no
/// vanishing loop, with random weights and two priority levels.
Srn random_net(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  const auto uniform = [&](double lo, double hi) {
    return lo + (hi - lo) * std::uniform_real_distribution<double>(0, 1)(rng);
  };
  Srn net;
  const std::size_t places = 3 + pick(3);
  std::vector<std::uint32_t> tokens(places, 0);
  for (std::size_t k = 2 + pick(3); k > 0; --k) ++tokens[pick(places)];
  for (std::size_t p = 0; p < places; ++p) {
    net.add_place("p" + std::to_string(p), tokens[p]);
  }
  const std::size_t timed = 3 + pick(4);
  for (std::size_t i = 0; i < timed; ++i) {
    const PlaceId from = pick(places);
    const PlaceId to = (from + 1 + pick(places - 1)) % places;
    const std::uint32_t mult = pick(4) == 0 ? 2 : 1;
    const double base = uniform(0.5, 3.0);
    const std::string name = "t" + std::to_string(i);
    const TransId t =
        pick(2) == 0
            ? net.add_timed(name, base)
            : net.add_timed(name, [from, base](const Marking& m) {
                return base * (0.5 + m[from]);
              });
    net.add_input_arc(t, from, mult);
    net.add_output_arc(t, to, mult);
    if (pick(3) == 0) {
      net.add_inhibitor_arc(t, pick(places),
                            static_cast<std::uint32_t>(1 + pick(2)));
    }
  }
  const std::size_t immediates = 1 + pick(3);
  for (std::size_t i = 0; i < immediates; ++i) {
    const PlaceId from = pick(places - 1);
    const PlaceId to = from + 1 + pick(places - 1 - from);
    const TransId t = net.add_immediate(
        "i" + std::to_string(i), uniform(0.2, 5.0),
        static_cast<unsigned>(1 + pick(2)));
    net.add_input_arc(t, from);
    net.add_output_arc(t, to);
    if (pick(5) == 0) net.add_inhibitor_arc(t, pick(places));
  }
  return net;
}

TEST(SrnGenerateOracle, RandomNetsMatchReferenceBitForBit) {
  ReferenceStats stats;
  std::size_t chains = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const Srn net = random_net(seed);
    if (expect_matches_reference(net, 1u << 20, stats,
                                 "seed " + std::to_string(seed))) {
      ++chains;
    }
  }
  EXPECT_EQ(chains, 300u);
  // The sample must cover what the hashed generation changed: markings
  // reached twice within one firing, and a vanishing initial marking.
  EXPECT_GT(stats.merges, 0u);
  EXPECT_GT(stats.vanishing_initial, 0u);
}

TEST(SrnGenerateOracle, SharedRepairPoolsMatchReference) {
  // Three k-of-n pools with imperfect coverage and one repair crew served
  // in pool order: thousands of markings, every firing vanishing.
  Srn net;
  std::vector<PlaceId> queued;
  for (std::size_t i = 0; i < 3; ++i) {
    const std::string tag = std::to_string(i);
    const PlaceId up = net.add_place("up" + tag, 4 + i);
    const PlaceId failed = net.add_place("failed" + tag);
    const PlaceId down = net.add_place("down" + tag);
    const PlaceId boot = net.add_place("boot" + tag);
    const double lambda = 0.01 * (i + 1);
    const TransId fail = net.add_timed(
        "fail" + tag, [up, lambda](const Marking& m) { return lambda * m[up]; });
    net.add_input_arc(fail, up);
    net.add_output_arc(fail, failed);
    net.add_inhibitor_arc(fail, boot);
    const TransId covered = net.add_immediate("covered" + tag, 0.9 + 0.03 * i);
    net.add_input_arc(covered, failed);
    net.add_output_arc(covered, down);
    const TransId uncovered =
        net.add_immediate("uncovered" + tag, 0.1 - 0.03 * i);
    net.add_input_arc(uncovered, failed);
    net.add_output_arc(uncovered, down);
    net.add_output_arc(uncovered, boot);
    const TransId reboot = net.add_timed("reboot" + tag, 6.0 + i);
    net.add_input_arc(reboot, boot);
    const TransId repair = net.add_timed("repair" + tag, 1.0 + 0.5 * i);
    net.add_input_arc(repair, down);
    net.add_output_arc(repair, up);
    for (const PlaceId earlier : queued) net.add_inhibitor_arc(repair, earlier);
    queued.push_back(down);
  }
  ReferenceStats stats;
  EXPECT_TRUE(expect_matches_reference(net, 1u << 20, stats, "pools"));
  EXPECT_GT(net.generate().markings.size(), 1000u);
}

TEST(SrnGenerateOracle, DiamondMergesInArrivalOrder) {
  // Two tokens leave `src` through competing immediates; both firing orders
  // reach {a:1, b:1}, whose mass is the sum of two branches, and the
  // vanishing initial marking spreads over three tangible markings.
  Srn net;
  const PlaceId src = net.add_place("src", 2);
  const PlaceId a = net.add_place("a", 0);
  const PlaceId b = net.add_place("b", 0);
  const TransId to_a = net.add_immediate("to_a", 0.3);
  net.add_input_arc(to_a, src);
  net.add_output_arc(to_a, a);
  const TransId to_b = net.add_immediate("to_b", 0.7);
  net.add_input_arc(to_b, src);
  net.add_output_arc(to_b, b);
  const TransId back_a = net.add_timed("back_a", 1.0);
  net.add_input_arc(back_a, a);
  net.add_output_arc(back_a, src);
  const TransId back_b = net.add_timed(
      "back_b", [b](const Marking& m) { return 0.5 * m[b]; });
  net.add_input_arc(back_b, b);
  net.add_output_arc(back_b, src);
  ReferenceStats stats;
  EXPECT_TRUE(expect_matches_reference(net, 1u << 20, stats, "diamond"));
  EXPECT_GT(stats.merges, 0u);
  EXPECT_EQ(stats.vanishing_initial, 1u);
  const GeneratedChain g = net.generate();
  EXPECT_EQ(g.markings.size(), 3u);
}

TEST(SrnGenerateOracle, ErrorsKeepTypesAndTexts) {
  ReferenceStats stats;
  {
    // Vanishing loop below a timed firing.
    Srn net;
    const PlaceId p = net.add_place("p", 1);
    const PlaceId a = net.add_place("a", 0);
    const PlaceId b = net.add_place("b", 0);
    const TransId go = net.add_timed("go", 1.0);
    net.add_input_arc(go, p);
    net.add_output_arc(go, a);
    const TransId ab = net.add_immediate("ab");
    net.add_input_arc(ab, a);
    net.add_output_arc(ab, b);
    const TransId ba = net.add_immediate("ba");
    net.add_input_arc(ba, b);
    net.add_output_arc(ba, a);
    EXPECT_FALSE(expect_matches_reference(net, 1u << 20, stats, "loop"));
    try {
      net.generate();
      ADD_FAILURE() << "vanishing loop not detected";
    } catch (const ModelError& e) {
      EXPECT_STREQ(e.what(),
                   "Srn::generate: cycle of immediate transitions "
                   "(vanishing loop)");
    }
  }
  {
    // A marking-dependent rate that reaches zero while enabled.
    Srn net;
    const PlaceId p = net.add_place("p", 2);
    const PlaceId q = net.add_place("q", 0);
    const TransId drain = net.add_timed(
        "drain", [p](const Marking& m) { return m[p] >= 2 ? 1.0 : 0.0; });
    net.add_input_arc(drain, p);
    net.add_output_arc(drain, q);
    EXPECT_FALSE(expect_matches_reference(net, 1u << 20, stats, "rate"));
    try {
      net.generate();
      ADD_FAILURE() << "non-positive rate not detected";
    } catch (const ModelError& e) {
      EXPECT_STREQ(e.what(),
                   "Srn::generate: transition 'drain' enabled with "
                   "non-positive rate");
    }
  }
  {
    // More tangible markings than allowed.
    const Srn net = random_net(7);
    const std::size_t n = net.generate().markings.size();
    ASSERT_GT(n, 2u);
    EXPECT_FALSE(expect_matches_reference(net, n - 1, stats, "max_states"));
    EXPECT_TRUE(expect_matches_reference(net, n, stats, "max_states exact"));
    try {
      net.generate(n - 1);
      ADD_FAILURE() << "max_states not enforced";
    } catch (const ModelError& e) {
      EXPECT_EQ(e.what(), "Srn::generate: more than " +
                              std::to_string(n - 1) + " tangible markings");
    }
  }
}

TEST(SrnGenerateOracle, StatesAreAnonymous) {
  const Srn net = two_state_net(0.5, 2.0);
  const GeneratedChain g = net.generate();
  ASSERT_EQ(g.ctmc.state_count(), 2u);
  EXPECT_EQ(g.ctmc.state_name(1), "s1");
  EXPECT_EQ(g.ctmc.state_index("s0"), 0u);
}

}  // namespace
}  // namespace relkit::spn
