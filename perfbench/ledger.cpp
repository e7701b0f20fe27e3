#include "ledger.hpp"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "common/distributions.hpp"
#include "common/krylov.hpp"
#include "common/reorder.hpp"
#include "io/model_parser.hpp"
#include "loadgen.hpp"
#include "markov/solution_cache.hpp"
#include "parallel/pool.hpp"
#include "robust/robust.hpp"
#include "serve/http.hpp"
#include "serve/json.hpp"
#include "serve/solve_json.hpp"
#include "sim/simulator.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

using Ledger = std::map<std::string, LayerValue>;

/// Keeps a computed value alive so a timed call cannot be optimized away.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

void check(WorkloadResult& r, bool ok, const std::string& what) {
  ++r.attempted;
  if (!ok) r.fail(what);
}

/// Alternates untraced and traced runs of `op(spans, i)` and returns the
/// relative difference of their medians.
template <typename Op>
double overhead(Spans& spans, int pairs, Op op) {
  std::vector<double> plain, traced;
  for (int i = 0; i < pairs; ++i) {
    double start = now_s();
    op(nullptr, 2 * i);
    plain.push_back(now_s() - start);
    start = now_s();
    op(&spans, 2 * i + 1);
    traced.push_back(now_s() - start);
  }
  return (median(traced) - median(plain)) / median(plain);
}

// markov + common, on ctmc_grid's representative input.
void grid_layers(const RunConfig& cfg, const std::vector<double>& scales,
                 bool with_overhead, Spans& spans, Ledger& m,
                 WorkloadResult& r) {
  const Scope root(&spans, "ctmc_grid");
  const std::vector<double> reference = grid_reference(kGridSide);
  check(r, grid_op(scales[1], cfg.jobs, reference, &spans).empty(),
        "traced ctmc_grid operation");
  const double op = spans.last("ctmc_grid.op");
  const double build = spans.last("markov.build");
  const double solve = spans.last("markov.steady_state");

  const markov::Ctmc chain = build_grid(scales[1], kGridSide);
  SparseMatrix q;
  const double sparse = spans.time("markov.sparse_generator",
                                   [&] { q = chain.sparse_generator(); });
  relkit::robust::SolveReport hit;
  const double cache_hit = spans.time("markov.cache_hit", [&] {
    keep(chain.steady_state(grid_options(cfg.jobs), &hit));
  });
  check(r, hit.cache_hit, "repeat grid solve missed the solution cache");

  const Transposed t = transposed_generator(chain);
  std::vector<std::size_t> perm;
  const double rcm =
      spans.time("common.rcm", [&] { perm = relkit::rcm_ordering(t.qt); });
  const SparseMatrix permuted = relkit::permute_symmetric(t.qt, perm);
  relkit::BicgstabOptions opts = grid_options(cfg.jobs).bicgstab;
  opts.jobs = cfg.jobs;
  relkit::BicgstabResult bi;
  const double bicgstab = spans.time("common.bicgstab", [&] {
    bi = relkit::bicgstab_steady_state(t.qt, t.diag, opts);
  });
  check(r, max_abs_diff(bi.pi, reference) <= kGridTolerance,
        "replayed BiCGSTAB is off the closed form");
  const relkit::parallel::PoolLease lease(cfg.jobs);
  const double verify = spans.time("robust.residual", [&] {
    keep(relkit::robust::steady_state_residual(t.qt, t.diag, bi.pi,
                                               lease.get()));
  });
  const std::vector<double> x = relkit::permute_vector(bi.pi, perm);
  const double matvec = spans.per_call("common.matvec", 9, 10, [&] {
    keep(permuted.multiply(x, lease.get()));
  });
  const double matvec1 = spans.per_call("common.matvec(jobs=1)", 9, 10, [&] {
    keep(permuted.multiply(x, nullptr));
  });
  const double n = static_cast<double>(permuted.rows());
  const double nnz = static_cast<double>(permuted.nnz());
  // CSR values + column indices, row pointers, x read and y written.
  const double bytes = nnz * (sizeof(double) + sizeof(std::size_t)) +
                       (n + 1) * sizeof(std::size_t) + 2 * n * sizeof(double);

  const std::string jobs = "jobs=" + std::to_string(cfg.jobs);
  m["markov.build_s"] = {build, "traced ctmc_grid operation"};
  m["markov.sparse_generator_s"] = {sparse, ""};
  m["markov.steady_state_s"] = {solve, "traced ctmc_grid operation, cache miss"};
  m["markov.steady_state_self_s"] = {
      solve - bicgstab - verify,
      "steady_state minus replayed bicgstab_steady_state and residual"};
  m["markov.cache_hit_s"] = {cache_hit, "repeat solve of the same chain"};
  m["common.rcm_s"] = {rcm, ""};
  m["common.bandwidth_before"] = {static_cast<double>(relkit::bandwidth(t.qt)), ""};
  m["common.bandwidth_after"] = {static_cast<double>(relkit::bandwidth(permuted)), ""};
  m["common.bicgstab_s"] = {bicgstab, "ILU0 + RCM, " + jobs};
  m["common.bicgstab_iters"] = {static_cast<double>(bi.iterations), ""};
  m["common.matvec_s"] = {matvec, "RCM-ordered generator, " + jobs};
  m["common.matvec_gbps"] = {bytes / matvec / 1e9,
                             "bytes computed from nnz and n, not measured"};
  m["parallel.matvec_speedup"] = {matvec1 / matvec, "jobs=1 over " + jobs};
  m["share.bicgstab_of_ctmc_solve"] = {bicgstab / op,
                                       "bicgstab over one ctmc_grid operation"};
  if (with_overhead) {
    m["trace.overhead_frac"] = {
        overhead(spans, 2,
                 [&](Spans* s, int i) {
                   check(r, grid_op(scales[2 + i], cfg.jobs, reference, s).empty(),
                         "ctmc_grid operation");
                 }),
        "ctmc_grid operation, 2 traced vs 2 untraced"};
  }
}

// spn + robust, on srn_pools' representative input.
void srn_layers(const RunConfig& cfg, const std::vector<double>& scales,
                const References& refs, bool with_overhead, Spans& spans,
                Ledger& m, WorkloadResult& r) {
  const Scope root(&spans, "srn_pools");
  check(r, pools_op(scales[1], cfg.jobs, refs, &spans).empty(),
        "traced srn_pools operation");
  const double op = spans.last("srn_pools.op");
  const double generate = spans.last("spn.generate");

  const spn::GeneratedChain g = build_pools(scales[1], false).generate();
  const Transposed t = transposed_generator(g.ctmc);
  relkit::robust::RobustSteadyOptions opts;
  opts.jobs = cfg.jobs;
  relkit::robust::RobustResult chain;
  const double chain_s = spans.time("robust.chain", [&] {
    chain = relkit::robust::robust_steady_state(t.qt, t.diag, opts);
  });
  check(r,
        std::abs(pools_availability(g, chain.pi) - refs.pools_availability) <=
            refs.pools_tolerance,
        "replayed fallback chain misses the pinned availability");
  const relkit::parallel::PoolLease lease(cfg.jobs);
  const double residual = spans.per_call("robust.residual", 5, 1, [&] {
    keep(relkit::robust::steady_state_residual(t.qt, t.diag, chain.pi,
                                               lease.get()));
  });
  std::size_t accepted = 0;
  std::size_t sweeps = 0;
  for (const auto& a : chain.report.attempt_details) {
    accepted += a.accepted ? 1 : 0;
    if (a.method.rfind("sor", 0) == 0) sweeps += a.iterations;
  }
  const double attempts =
      static_cast<double>(chain.report.attempt_details.size());

  m["spn.generate_s"] = {generate, "traced srn_pools operation"};
  m["spn.markings"] = {static_cast<double>(g.markings.size()), ""};
  m["spn.vanishing"] = {static_cast<double>(g.vanishing_count),
                        "vanishing markings eliminated during generation"};
  m["robust.chain_s"] = {chain_s, "robust_steady_state, auto chain, accepted " +
                                      chain.report.method};
  m["robust.attempts"] = {attempts, ""};
  m["robust.accept_ratio"] = {static_cast<double>(accepted) / attempts, ""};
  m["robust.sor_sweeps"] = {static_cast<double>(sweeps), ""};
  m["robust.residual_s"] = {residual, "steady_state_residual, srn_pools chain"};
  m["share.generate_of_srn_solve"] = {generate / op,
                                      "generate over one srn_pools operation"};
  if (with_overhead) {
    m["trace.overhead_frac"] = {
        overhead(spans, 2,
                 [&](Spans* s, int i) {
                   check(r, pools_op(scales[2 + i], cfg.jobs, refs, s).empty(),
                         "srn_pools operation");
                 }),
        "srn_pools operation, 2 traced vs 2 untraced"};
  }
}

// serve, io and the combinatorial evaluators, on the representative
// request: the shipped cluster.rbd (an rbd with `event ... markov` pools).
void serve_layers(const RunConfig& cfg, bool with_overhead, Spans& spans,
                  Ledger& m, WorkloadResult& r) {
  const Scope root(&spans, "serve_mixed");
  const std::string text = read_model(cfg, "cluster.rbd");
  const std::string body = solve_body(text);
  const std::string bytes = http_post_bytes("/solve", body);
  relkit::serve::SolveSpec spec;
  spec.inline_text = text;
  spec.times = kServeTimes;
  const std::string reference = relkit::serve::solve_model(spec).fields;

  Daemon daemon({cfg.tools_dir + "/relkit_serve", "--port", "0", "--jobs",
                 std::to_string(cfg.jobs)});
  const std::string line = daemon.wait_line("listening on ", 30.0);
  if (line.empty()) throw std::runtime_error("relkit_serve did not start");
  const int port = std::atoi(line.c_str() + 13);
  auto round_trip = [&](Spans* s) {
    const Scope span(s, "serve.request");
    const Exchange ex = http_exchange(port, bytes);
    check(r, ex.ok && ex.status == 200 && result_fields(ex.body) == reference,
          "served representative request differs from the local solve");
    return ex.connect_s;
  };
  std::vector<double> rtt, connect;
  for (int i = 0; i < 450; ++i) {
    const double start = now_s();
    const double c = round_trip(&spans);
    if (i < 50) continue;  // warm-up
    rtt.push_back(now_s() - start);
    connect.push_back(c);
  }
  if (with_overhead) {
    m["trace.overhead_frac"] = {
        overhead(spans, 5,
                 [&](Spans* s, int) {
                   for (int i = 0; i < 200; ++i) round_trip(s);
                 }),
        "200 sequential requests, 5 traced vs 5 untraced batches"};
  }
  // The workload's offered load, briefly, for the generator's lateness.
  const auto open = open_loop(kOpenRate, 1.0, cfg.jobs, [&](std::size_t) {
    return http_exchange(port, bytes).status == 200;
  });
  daemon.stop();
  std::vector<double> lag;
  for (const Timed& t : open) lag.push_back(1e3 * (t.sent - t.due));
  const Tail lag_tail = supported_tail(lag);

  // The daemon's stages, replayed in process on the same request.
  namespace sv = relkit::serve;
  const double http_parse = spans.per_call("serve.http_parse", 15, 200, [&] {
    sv::HttpRequestParser parser(16u << 10, 1u << 20);
    keep(parser.feed(bytes));
  });
  const double json_parse = spans.per_call("serve.json_parse", 15, 200, [&] {
    keep(sv::parse_json(body).ok);
  });
  const double solve = spans.per_call("serve.solve_model", 15, 50, [&] {
    keep(sv::solve_model(spec).exit_class);
  });
  const std::string zeros(32, '0');
  const std::string response_body =
      "{\"trace_id\":\"" + zeros + "\"," + reference + "}";
  const std::string headers = "X-Relkit-Trace-Id: " + zeros +
                              "\r\ntraceparent: 00-" + zeros + "-" +
                              zeros.substr(16) + "-01\r\n";
  const double response = spans.per_call("serve.response", 15, 200, [&] {
    keep(sv::http_response(200, response_body,
                           "application/json; charset=utf-8", headers));
  });

  // io and the combinatorial evaluators behind solve_model.
  const double parse = spans.per_call("io.parse", 15, 50, [&] {
    keep(relkit::io::parse_model_string(text));
  });
  const auto rbd = relkit::io::parse_model_string(text);
  const auto ftree =
      relkit::io::parse_model_string(read_model(cfg, "webservice.ftree"));
  const auto graph =
      relkit::io::parse_model_string(read_model(cfg, "bridge.relgraph"));
  const double rbd_eval = spans.per_call("rbd.eval", 15, 200, [&] {
    double v = rbd.rbd->availability();
    for (const double t : kServeTimes) v += rbd.rbd->reliability(t);
    keep(v);
  });
  const double ftree_eval = spans.per_call("ftree.eval", 15, 200, [&] {
    double v = ftree.fault_tree->top_probability_limit();
    for (const double t : kServeTimes) v += ftree.fault_tree->top_probability(t);
    keep(v);
  });
  const double graph_eval = spans.per_call("relgraph.eval", 15, 200, [&] {
    double v = graph.graph->reliability(-1.0);
    for (const double t : kServeTimes) v += graph.graph->reliability(t);
    keep(v);
  });

  const double rtt_s = median(rtt);
  const double connect_s = median(connect);
  m["serve.connect_s"] = {connect_s, "loopback connect"};
  m["serve.http_parse_s"] = {http_parse, "HttpRequestParser::feed"};
  m["serve.json_parse_s"] = {json_parse, "parse_json"};
  m["serve.solve_model_s"] = {solve, "solve_model, cluster.rbd"};
  m["serve.response_s"] = {response, "http_response"};
  m["serve.rtt_s"] = {rtt_s, "sequential POST /solve, cluster.rbd"};
  m["serve.unaccounted_s"] = {
      rtt_s - (connect_s + http_parse + json_parse + solve + response),
      "round trip minus replayed stages: queue, event loop, kernel"};
  m["loadgen.lag_p99_ms"] = {
      lag_tail.value, "p" + std::to_string(lag_tail.percentile).substr(0, 4) +
                          " of " + std::to_string(lag.size()) + " sends"};
  m["io.parse_s"] = {parse, "parse_model_string, cluster.rbd"};
  m["rbd.eval_s"] = {rbd_eval, "availability + reliability(t), cluster.rbd"};
  m["ftree.eval_s"] = {ftree_eval, "webservice.ftree"};
  m["relgraph.eval_s"] = {graph_eval, "bridge.relgraph"};
  m["share.solve_model_of_rtt"] = {solve / rtt_s,
                                   "solve core over the round trip"};
}

// sim + parallel, on rare_event's representative input.
void sim_layers(const RunConfig& cfg, const References& refs,
                bool with_overhead, Spans& spans, Ledger& m,
                WorkloadResult& r) {
  const Scope root(&spans, "rare_event");
  namespace sim = relkit::sim;
  const auto& pin = refs.is_pins[cfg.seed % refs.is_pins.size()];
  const auto model =
      relkit::io::parse_model_file(cfg.models_dir + "/sip_cluster.rbd");
  // The simulator relkit_cli builds for --rare-event: exponential
  // components and the model's structure function, memoized per state.
  std::vector<sim::SimComponent> components;
  for (const auto& spec : model.rbd->component_models()) {
    components.push_back({relkit::exponential(spec.failure_rate),
                          relkit::exponential(spec.repair_rate)});
  }
  const auto* rbd = model.rbd.get();
  auto mu = std::make_shared<std::mutex>();
  auto memo = std::make_shared<std::map<std::uint64_t, bool>>();
  sim::StructureFn up = [rbd, mu, memo](const std::vector<bool>& state) {
    std::uint64_t mask = 0;
    for (std::size_t i = 0; i < state.size(); ++i) {
      if (!state[i]) mask |= std::uint64_t{1} << i;
    }
    const std::lock_guard<std::mutex> lock(*mu);
    const auto it = memo->find(mask);
    if (it != memo->end()) return it->second;
    std::map<std::string, double> prob;
    for (std::size_t i = 0; i < state.size(); ++i) {
      prob[rbd->component_names()[i]] = state[i] ? 1.0 : 0.0;
    }
    return (*memo)[mask] = rbd->prob_up(prob) > 0.5;
  };
  const sim::SystemSimulator simulator(std::move(components), std::move(up));
  sim::RareEventOptions opts;
  opts.method = sim::RareMethod::kImportanceSampling;
  opts.relative_error = 1e-9;
  opts.max_cycles = refs.is_cycles;
  opts.jobs = cfg.jobs;
  sim::Estimate parallel_est, serial_est;
  const double parallel_s = spans.time("sim.estimate", [&] {
    parallel_est = simulator.unavailability_rare(pin.seed, opts);
  });
  opts.jobs = 1;
  const double serial_s = spans.time("sim.estimate(jobs=1)", [&] {
    serial_est = simulator.unavailability_rare(pin.seed, opts);
  });
  char printed[32];
  std::snprintf(printed, sizeof printed, "%.9e", parallel_est.mean);
  check(r, printed == pin.estimate && parallel_est.mean == serial_est.mean,
        "in-process estimate differs from the pin or across jobs");
  ChildRun cli;
  spans.time("relkit_cli --rare-event", [&] {
    cli = run_child(rare_argv(cfg, "is", pin.seed, refs.is_cycles), 120.0);
  });
  check(r, cli.exit_code == 0 && parse_rare_output(cli.out).estimate == pin.estimate,
        "relkit_cli estimate differs from the pin");

  const double cycles = static_cast<double>(parallel_est.replications);
  m["sim.estimate_s"] = {parallel_s, "IS, jobs=" + std::to_string(cfg.jobs)};
  m["sim.cycles"] = {cycles, ""};
  m["sim.cycles_per_s"] = {cycles / parallel_s, ""};
  m["parallel.rare_event_speedup"] = {
      serial_s / parallel_s, "jobs=1 over jobs=" + std::to_string(cfg.jobs)};
  m["share.estimate_of_rare_run"] = {parallel_s / cli.wall_s,
                                     "estimate over one relkit_cli IS run"};
  if (with_overhead) {
    m["trace.overhead_frac"] = {
        overhead(spans, 2,
                 [&](Spans* s, int i) {
                   check(r, rare_op(cfg, refs, 1 + i, s).failure.empty(),
                         "rare_event operation");
                 }),
        "rare_event operation, 2 traced vs 2 untraced"};
  }
}

}  // namespace

Ledger run_ledger(const std::string& workload, const RunConfig& cfg,
                  WorkloadResult& r, const std::string& trace_out) {
  Spans spans;
  Ledger m;
  const std::vector<double> scales = solve_scales(cfg.seed);
  const References refs = load_references(cfg.references);
  grid_layers(cfg, scales, workload == "ctmc_grid", spans, m, r);
  srn_layers(cfg, scales, refs, workload == "srn_pools", spans, m, r);
  serve_layers(cfg, workload == "serve_mixed", spans, m, r);
  sim_layers(cfg, refs, workload == "rare_event", spans, m, r);
  const auto& cache = markov::SolutionCache::instance();
  m["markov.cache_hits"] = {static_cast<double>(cache.hits()),
                            "SolutionCache::hits() in this traced run"};
  m["markov.cache_misses"] = {static_cast<double>(cache.misses()),
                              "SolutionCache::misses() in this traced run"};
  spans.write(trace_out);
  return m;
}

}  // namespace perfbench
