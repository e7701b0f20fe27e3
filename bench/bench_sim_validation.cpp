// E9 — analytic vs simulation cross-validation.
//
// Every analytic solver is checked against the independent discrete-event
// simulator on a representative model: RBD reliability, fault-tree
// unavailability, CTMC transient availability, SRN accumulated reward.
// The table reports analytic value, simulation CI, and whether the CI
// covers the analytic value; the series sweeps replication counts to show
// the 1/sqrt(n) CI shrink.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>

#include "core/relkit.hpp"
#include "parallel/pool.hpp"
#include "sim/rare_event.hpp"

using namespace relkit;

namespace {

/// Threads column: wall time and speedup of the 20k-replication duplex
/// availability estimate for jobs = 1/2/4. Every row prints the same
/// estimate, the historical sequential loop's, by the determinism contract
/// (docs/parallelism.md). Restores `restore_jobs`
/// (the --jobs flag) afterwards so the microbenchmarks run as requested.
void print_threads_table(unsigned restore_jobs) {
  std::printf("Parallel scaling (duplex availability_at, 20000 reps):\n");
  std::printf("%-6s %-12s %-9s %s\n", "jobs", "wall (ms)", "speedup",
              "mean (17 digits)");
  sim::SystemSimulator simulator(
      {{exponential(0.1), exponential(1.0)},
       {exponential(0.1), exponential(1.0)}},
      [](const std::vector<bool>& s) { return s[0] || s[1]; });
  double base_ms = 0.0;
  for (const unsigned jobs : {1u, 2u, 4u}) {
    parallel::set_default_jobs(jobs);
    const auto start = std::chrono::steady_clock::now();
    const auto est = simulator.availability_at(10.0, 20000, 106);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    if (jobs == 1) base_ms = ms;
    std::printf("%-6u %-12.2f %-9.2f %.17g\n", jobs, ms, base_ms / ms,
                est.mean);
  }
  parallel::set_default_jobs(restore_jobs);
  std::printf("\n");
}

void print_table() {
  std::printf("== E9: analytic vs simulation ==============================\n");
  std::printf("%-34s %-12s %-22s %-8s\n", "measure", "analytic",
              "simulation (95% CI)", "covers");

  // (1) RBD: 2-of-3 Weibull units, reliability at t = 50.
  {
    std::vector<rbd::BlockPtr> blocks;
    std::map<std::string, ComponentModel> models;
    std::vector<sim::SimComponent> comps;
    for (int i = 0; i < 3; ++i) {
      const std::string name = "u" + std::to_string(i);
      blocks.push_back(rbd::Block::component(name));
      models.emplace(name,
                     ComponentModel::with_lifetime(weibull(1.5, 80.0)));
      comps.push_back({weibull(1.5, 80.0), nullptr});
    }
    const rbd::Rbd model(rbd::Block::k_of_n(2, blocks), models);
    const double analytic = model.reliability(50.0);
    sim::SystemSimulator simulator(
        comps, [](const std::vector<bool>& s) {
          int up = 0;
          for (bool b : s) up += b ? 1 : 0;
          return up >= 2;
        });
    const auto est = simulator.availability_at(50.0, 20000, 101);
    std::printf("%-34s %-12.6f %.6f +/- %.6f   %-8s\n",
                "RBD 2-of-3 Weibull R(50)", analytic, est.mean,
                est.half_width,
                std::abs(est.mean - analytic) <= 3 * est.half_width ? "yes"
                                                                    : "NO");
  }

  // (2) Fault tree: bridge-ish repeated-event tree, steady unavailability.
  {
    const auto a = ftree::Node::basic("A");
    const auto b = ftree::Node::basic("B");
    const auto c = ftree::Node::basic("C");
    const auto top = ftree::Node::or_gate(
        {ftree::Node::and_gate({a, b}), ftree::Node::and_gate({b, c})});
    const double lam = 0.05, mu = 0.5;
    const ftree::FaultTree tree(
        top, {{"A", ftree::EventModel::repairable(lam, mu)},
              {"B", ftree::EventModel::repairable(lam, mu)},
              {"C", ftree::EventModel::repairable(lam, mu)}});
    const double analytic = tree.top_probability_limit();
    sim::SystemSimulator simulator(
        {{exponential(lam), exponential(mu)},
         {exponential(lam), exponential(mu)},
         {exponential(lam), exponential(mu)}},
        [](const std::vector<bool>& s) {
          const bool fa = !s[0], fb = !s[1], fc = !s[2];
          return !((fa && fb) || (fb && fc));
        });
    const auto est = simulator.availability_at(200.0, 20000, 102);
    const double sim_unavail = 1.0 - est.mean;
    std::printf("%-34s %-12.6f %.6f +/- %.6f   %-8s\n",
                "FT repeated events, steady Q", analytic, sim_unavail,
                est.half_width,
                std::abs(sim_unavail - analytic) <= 3 * est.half_width
                    ? "yes"
                    : "NO");
  }

  // (3) CTMC transient availability of a duplex at t = 10.
  {
    const double lam = 0.1, mu = 1.0;
    markov::Ctmc chain;
    chain.add_states(3);
    chain.add_transition(0, 1, 2 * lam);
    chain.add_transition(1, 2, lam);
    chain.add_transition(1, 0, mu);
    chain.add_transition(2, 1, mu);
    const auto pi = chain.transient(chain.point_mass(0), 10.0);
    const double analytic = pi[0] + pi[1];
    // Equivalent SRN simulated by token game.
    spn::Srn net;
    const auto up = net.add_place("up", 2);
    const auto down = net.add_place("down", 0);
    const auto fail = net.add_timed(
        "fail", [up, lam](const spn::Marking& m) { return lam * m[up]; });
    net.add_input_arc(fail, up);
    net.add_output_arc(fail, down);
    const auto rep = net.add_timed("repair", mu);
    net.add_input_arc(rep, down);
    net.add_output_arc(rep, up);
    sim::SrnSimulator simulator(net);
    const auto est = simulator.transient_reward(
        [up](const spn::Marking& m) { return m[up] >= 1 ? 1.0 : 0.0; }, 10.0,
        20000, 103);
    std::printf("%-34s %-12.6f %.6f +/- %.6f   %-8s\n",
                "CTMC duplex A(10)", analytic, est.mean, est.half_width,
                std::abs(est.mean - analytic) <= 3 * est.half_width ? "yes"
                                                                    : "NO");
  }

  // (4) SRN accumulated up-time over [0, 20].
  {
    const double lam = 0.2, mu = 1.5;
    spn::Srn net;
    const auto up = net.add_place("up", 1);
    const auto down = net.add_place("down", 0);
    const auto fail = net.add_timed("fail", lam);
    net.add_input_arc(fail, up);
    net.add_output_arc(fail, down);
    const auto rep = net.add_timed("repair", mu);
    net.add_input_arc(rep, down);
    net.add_output_arc(rep, up);
    const auto reward = [up](const spn::Marking& m) {
      return m[up] == 1 ? 1.0 : 0.0;
    };
    const double analytic = net.accumulated_reward(reward, 20.0);
    sim::SrnSimulator simulator(net);
    const auto est = simulator.accumulated_reward(reward, 20.0, 20000, 104);
    std::printf("%-34s %-12.6f %.6f +/- %.6f   %-8s\n",
                "SRN accumulated up-time [0,20]", analytic, est.mean,
                est.half_width,
                std::abs(est.mean - analytic) <= 3 * est.half_width ? "yes"
                                                                    : "NO");
  }

  // CI shrink series.
  std::printf("\nCI half-width vs replications (duplex A(10)):\n");
  std::printf("%-10s %-14s\n", "reps", "half-width");
  {
    sim::SystemSimulator simulator(
        {{exponential(0.1), exponential(1.0)},
         {exponential(0.1), exponential(1.0)}},
        [](const std::vector<bool>& s) { return s[0] || s[1]; });
    for (std::size_t reps : {250u, 1000u, 4000u, 16000u}) {
      const auto est = simulator.availability_at(10.0, reps, 105);
      std::printf("%-10zu %-14.6f\n", reps, est.half_width);
    }
  }
  std::printf("\nShape check: every simulation CI covers its analytic\n"
              "value and half-widths shrink ~1/sqrt(reps).\n\n");
}

// ---- E9b: rare-event nine-nines validation ---------------------------------
//
// Three tutorial-grade high-availability models whose steady-state
// unavailability (or dual-failure probability) sits around nine nines —
// exactly where plain Monte Carlo goes blind. Each model gets three rows:
// naive time-horizon MC (10^6 replications of "is the system down at
// t = 24h?"; expected hits << 1, so the estimator reports the one-sided
// rule-of-three bound), RESTART splitting, and balanced-failure-biasing
// importance sampling. The variance-reduction methods must cover the
// analytic value at <= 10% relative error within 10^6 regenerative cycles
// (the acceptance gate asserted by tests/test_sim_rare.cpp under
// RELKIT_LARGE=1; EXPERIMENTS.md E13 records measured factors).

/// BladeCenter power domain: duplex PSU with one shared repair crew
/// (states 0: both up, 1: one up, 2: none up), lam = 1/150000h,
/// mu = 1/8h. U = pi[2] ~ 5.7e-9.
markov::Ctmc psu_duplex_chain(double lam, double mu) {
  markov::Ctmc c;
  c.add_states(3);
  c.add_transition(0, 1, 2 * lam);
  c.add_transition(1, 2, lam);
  c.add_transition(1, 0, mu);
  c.add_transition(2, 1, mu);
  return c;
}

/// GGSN active/standby pair (examples/ggsn_availability.cpp, default
/// parameters). The rare metric is the DUAL-failure probability pi[dual]
/// ~ 5.9e-8 — the uncovered-recovery state dominates total unavailability
/// and is not rare, so the rare-event cross-check targets the state both
/// gateways are lost in.
markov::Ctmc ggsn_chain() {
  const double lam_hw = 1.0 / 30000.0, lam_sw = 1.0 / 1500.0;
  const double mu_reboot = 6.0, mu_hw = 0.25, mu_switch = 120.0;
  const double mu_manual = 2.0, coverage = 0.95;
  const double lam = lam_hw + lam_sw;
  const double w_sw = lam_sw / lam;
  const double mu_node = 1.0 / (w_sw / mu_reboot + (1 - w_sw) / mu_hw);
  markov::Ctmc c;
  const auto both = c.add_state("both_up");
  const auto swo = c.add_state("switching");
  const auto solo = c.add_state("standby_carries");
  const auto manual = c.add_state("uncovered");
  const auto dual = c.add_state("dual_failure");
  c.add_transition(both, swo, lam * coverage);
  c.add_transition(both, manual, lam * (1.0 - coverage));
  c.add_transition(swo, solo, mu_switch);
  c.add_transition(solo, dual, lam);
  c.add_transition(solo, both, mu_node);
  c.add_transition(manual, solo, mu_manual);
  c.add_transition(dual, solo, mu_node);
  return c;
}

/// SIP cluster (examples/models/sip_cluster.rbd): 1-of-2 proxy pair in
/// series with a 4-of-6 application tier, all repairable. U ~ 1.0e-8 with
/// a closed-form product analytic.
struct SipModel {
  std::vector<sim::SimComponent> components;
  sim::StructureFn system_up;
  double analytic = 0.0;
};
SipModel sip_cluster() {
  const double lam_p = 1e-4, mu_p = 1.0, lam_a = 1e-4, mu_a = 2.0;
  SipModel m;
  for (int i = 0; i < 2; ++i) {
    m.components.push_back({exponential(lam_p), exponential(mu_p)});
  }
  for (int i = 0; i < 6; ++i) {
    m.components.push_back({exponential(lam_a), exponential(mu_a)});
  }
  m.system_up = [](const std::vector<bool>& s) {
    if (!s[0] && !s[1]) return false;
    int up = 0;
    for (std::size_t i = 2; i < 8; ++i) up += s[i] ? 1 : 0;
    return up >= 4;
  };
  const double p_p = lam_p / (lam_p + mu_p);
  const double p_a = lam_a / (lam_a + mu_a);
  // App tier up: at most 2 of 6 down.
  double a_app = 0.0;
  const double binom[3] = {1.0, 6.0, 15.0};
  for (int k = 0; k <= 2; ++k) {
    a_app += binom[k] * std::pow(p_a, k) * std::pow(1.0 - p_a, 6 - k);
  }
  m.analytic = 1.0 - (1.0 - p_p * p_p) * a_app;
  return m;
}

/// Naive time-horizon MC on an explicit CTMC: R independent Bernoulli
/// replications of "down at t = horizon?" — the estimator everyone writes
/// first, shown here to be blind at nine nines.
sim::Estimate naive_state_at(const sim::RareEventModel& model, double horizon,
                             std::size_t reps, std::uint64_t seed) {
  Rng master(seed);
  std::size_t down = 0;
  std::vector<sim::RareTransition> trans;
  for (std::size_t r = 0; r < reps; ++r) {
    Rng rng = master.split();
    std::uint64_t s = model.initial_state();
    double t = 0.0;
    while (true) {
      model.transitions(s, trans);
      double total = 0.0;
      for (const auto& tr : trans) total += tr.rate;
      t += -std::log(rng.uniform_pos()) / total;
      if (t >= horizon) break;
      double pick = rng.uniform() * total;
      std::size_t chosen = trans.size() - 1;
      for (std::size_t i = 0; i < trans.size(); ++i) {
        chosen = i;
        if (pick < trans[i].rate) break;
        pick -= trans[i].rate;
      }
      s = trans[chosen].target;
    }
    if (!model.up(s)) ++down;
  }
  sim::Estimate e;
  e.mean = static_cast<double>(down) / static_cast<double>(reps);
  e.replications = reps;
  if (down == 0) {
    e.one_sided = true;
    e.half_width = 3.0 / static_cast<double>(reps);
  } else {
    const double p = e.mean;
    e.half_width =
        1.959963985 * std::sqrt(p * (1.0 - p) / static_cast<double>(reps));
  }
  return e;
}

void print_rare_row(const char* label, double analytic,
                    const sim::Estimate& est) {
  char ci[64];
  char re[16];
  char covers[16];
  if (est.one_sided && est.mean == 0.0) {
    std::snprintf(ci, sizeof(ci), "0 hits; U <= %.1e", est.hi());
    std::snprintf(re, sizeof(re), "-");
    std::snprintf(covers, sizeof(covers), "blind");
  } else {
    std::snprintf(ci, sizeof(ci), "%.3e +/- %.1e", est.mean, est.half_width);
    std::snprintf(re, sizeof(re), "%.3f", est.relative_error());
    std::snprintf(covers, sizeof(covers), "%s",
                  analytic >= est.lo() && analytic <= est.hi() ? "yes" : "NO");
  }
  std::printf("  %-24s %-11.3e %-26s %-7s %-9zu %-8s\n", label, analytic, ci,
              re, est.replications, covers);
}

void print_rare_table() {
  std::printf(
      "== E9b: rare-event nine-nines validation ===================\n");
  std::printf("  %-24s %-11s %-26s %-7s %-9s %-8s\n", "model/method",
              "analytic", "estimate (95% CI)", "rel.err", "cycles", "covers");

  sim::RareEventOptions naive_opts;
  naive_opts.method = sim::RareMethod::kNaive;
  sim::RareEventOptions restart_opts;
  restart_opts.method = sim::RareMethod::kRestart;
  restart_opts.splits = 64;
  sim::RareEventOptions is_opts;
  is_opts.method = sim::RareMethod::kImportanceSampling;

  // (1) BladeCenter PSU duplex, shared repair.
  {
    const markov::Ctmc chain = psu_duplex_chain(1.0 / 150000.0, 1.0 / 8.0);
    const double analytic = chain.steady_state()[2];
    const sim::CtmcRareModel model(chain, [](markov::StateId s) {
      return s != 2;
    });
    std::printf("  bladecenter PSU duplex (U ~ %.1e):\n", analytic);
    print_rare_row("naive @24h", analytic,
                   naive_state_at(model, 24.0, 1'000'000, 201));
    print_rare_row("restart", analytic,
                   sim::rare_unavailability(model, 202, restart_opts));
    print_rare_row("importance sampling", analytic,
                   sim::rare_unavailability(model, 203, is_opts));
  }

  // (2) GGSN active/standby: dual-failure probability.
  {
    const markov::Ctmc chain = ggsn_chain();
    const double analytic = chain.steady_state()[4];
    const sim::CtmcRareModel model(chain, [](markov::StateId s) {
      return s != 4;
    });
    sim::RareEventOptions ggsn_restart = restart_opts;
    ggsn_restart.splits = 16;  // two auto levels: 16^2 branches reach solo
    std::printf("  GGSN dual failure (pi ~ %.1e):\n", analytic);
    print_rare_row("naive @24h", analytic,
                   naive_state_at(model, 24.0, 1'000'000, 204));
    print_rare_row("restart", analytic,
                   sim::rare_unavailability(model, 205, ggsn_restart));
    print_rare_row("importance sampling", analytic,
                   sim::rare_unavailability(model, 206, is_opts));
  }

  // (3) SIP cluster (component model through SystemSimulator).
  {
    const SipModel sip = sip_cluster();
    sim::SystemSimulator simulator(sip.components, sip.system_up);
    const auto at = simulator.availability_at(24.0, 1'000'000, 207);
    sim::Estimate naive;  // flip availability into unavailability terms
    naive.mean = 1.0 - at.mean;
    naive.half_width = at.half_width;
    naive.replications = at.replications;
    naive.one_sided = at.one_sided;
    std::printf("  SIP cluster (U ~ %.1e):\n", sip.analytic);
    print_rare_row("naive @24h", sip.analytic, naive);
    print_rare_row("restart", sip.analytic,
                   simulator.unavailability_rare(208, restart_opts));
    print_rare_row("importance sampling", sip.analytic,
                   simulator.unavailability_rare(209, is_opts));
  }

  std::printf("\nShape check: naive MC is blind (rule-of-three bound only);\n"
              "RESTART and IS cover every analytic value at rel.err <= 0.1\n"
              "within 10^6 regenerative cycles.\n\n");
}

void BM_SimAvailability(benchmark::State& state) {
  sim::SystemSimulator simulator(
      {{exponential(0.1), exponential(1.0)},
       {exponential(0.1), exponential(1.0)}},
      [](const std::vector<bool>& s) { return s[0] || s[1]; });
  const auto reps = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulator.availability_at(10.0, reps, 7));
  }
}
BENCHMARK(BM_SimAvailability)->RangeMultiplier(4)->Range(250, 16000);

void BM_SimAvailabilityJobs(benchmark::State& state) {
  sim::SystemSimulator simulator(
      {{exponential(0.1), exponential(1.0)},
       {exponential(0.1), exponential(1.0)}},
      [](const std::vector<bool>& s) { return s[0] || s[1]; });
  const auto reps = static_cast<std::size_t>(state.range(0));
  const auto jobs = static_cast<unsigned>(state.range(1));
  const unsigned before = parallel::default_jobs();
  parallel::set_default_jobs(jobs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulator.availability_at(10.0, reps, 7));
  }
  parallel::set_default_jobs(before);
}
BENCHMARK(BM_SimAvailabilityJobs)
    ->Args({16000, 1})
    ->Args({16000, 2})
    ->Args({16000, 4});

/// Rare-event engine throughput on the SIP cluster at a fixed 4096-cycle
/// budget: arg 0 = naive, 1 = RESTART (splits 8), 2 = importance sampling.
void BM_RareUnavailability(benchmark::State& state) {
  const SipModel sip = sip_cluster();
  sim::SystemSimulator simulator(sip.components, sip.system_up);
  sim::RareEventOptions opts;
  opts.method = state.range(0) == 0   ? sim::RareMethod::kNaive
                : state.range(0) == 1 ? sim::RareMethod::kRestart
                                      : sim::RareMethod::kImportanceSampling;
  opts.splits = 8;
  opts.max_cycles = 4096;
  opts.relative_error = 1e-6;  // never reached: always runs the full budget
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulator.unavailability_rare(7, opts));
  }
}
BENCHMARK(BM_RareUnavailability)->Arg(0)->Arg(1)->Arg(2);

void BM_AnalyticEquivalent(benchmark::State& state) {
  markov::Ctmc chain;
  chain.add_states(3);
  chain.add_transition(0, 1, 0.2);
  chain.add_transition(1, 2, 0.1);
  chain.add_transition(1, 0, 1.0);
  chain.add_transition(2, 1, 1.0);
  const auto pi0 = chain.point_mass(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(chain.transient(pi0, 10.0));
  }
}
BENCHMARK(BM_AnalyticEquivalent);

}  // namespace

int main(int argc, char** argv) {
  const benchjson::Options opts = benchjson::init(&argc, argv);
  print_table();
  print_rare_table();
  print_threads_table(opts.jobs);
  if (opts.table_only) return 0;
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
