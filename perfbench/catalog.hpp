// Every metric the benchmark reports, with its unit. BENCHMARK.json lists
// the same names and units (the selftest compares them).
#pragma once

#include <string>

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Printed by every untraced run (--trace 0) and gated by BENCHMARK.json.
inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"solve_s", "s"},
    {"cpu_s", "s"},
    {"rss_peak_mb", "MB"},
};

/// Printed by every untraced run but left out of the result line. The
/// latency and throughput metrics are defined on serve_mixed only, which
/// is not gated (see README.md); the library workloads print them as
/// skipped. failed_frac is 0 on a correct run, so the result line carries
/// it as `attempted` and `failed`.
inline constexpr MetricDef kReportOnly[] = {
    {"lat_p50_ms", "ms"},
    {"lat_p99_ms", "ms"},
    {"throughput_rps", "1/s"},
    {"failed_frac", "ratio"},
};

/// Printed by every traced run (--trace 1): the per-layer ledger.
inline constexpr MetricDef kPerLayer[] = {
    {"markov.build_s", "s"},
    {"markov.sparse_generator_s", "s"},
    {"markov.steady_state_s", "s"},
    {"markov.steady_state_self_s", "s"},
    {"markov.cache_hit_s", "s"},
    {"markov.cache_hits", "count"},
    {"markov.cache_misses", "count"},
    {"common.rcm_s", "s"},
    {"common.bandwidth_before", "rows"},
    {"common.bandwidth_after", "rows"},
    {"common.bicgstab_s", "s"},
    {"common.bicgstab_iters", "count"},
    {"common.matvec_s", "s"},
    {"common.matvec_gbps", "GB/s"},
    {"robust.chain_s", "s"},
    {"robust.attempts", "count"},
    {"robust.accept_ratio", "ratio"},
    {"robust.sor_sweeps", "count"},
    {"robust.residual_s", "s"},
    {"spn.generate_s", "s"},
    {"spn.markings", "count"},
    {"spn.vanishing", "count"},
    {"io.parse_s", "s"},
    {"rbd.eval_s", "s"},
    {"ftree.eval_s", "s"},
    {"relgraph.eval_s", "s"},
    {"serve.connect_s", "s"},
    {"serve.http_parse_s", "s"},
    {"serve.json_parse_s", "s"},
    {"serve.solve_model_s", "s"},
    {"serve.response_s", "s"},
    {"serve.rtt_s", "s"},
    {"serve.unaccounted_s", "s"},
    {"loadgen.lag_p99_ms", "ms"},
    {"sim.estimate_s", "s"},
    {"sim.cycles", "count"},
    {"sim.cycles_per_s", "1/s"},
    {"parallel.matvec_speedup", "ratio"},
    {"parallel.rare_event_speedup", "ratio"},
    {"trace.overhead_frac", "ratio"},
    {"share.bicgstab_of_ctmc_solve", "ratio"},
    {"share.generate_of_srn_solve", "ratio"},
    {"share.solve_model_of_rtt", "ratio"},
    {"share.estimate_of_rare_run", "ratio"},
};

/// Every workload relkit_perfbench runs. BENCHMARK.json gates ctmc_grid and
/// srn_pools only: serve_mixed's loopback latency and rare_event's lock
/// contention vary between runs by about the largest allowed bound on a
/// shared virtual host (see README.md). Both still run and print every
/// metric, and every traced run measures their layers.
inline constexpr const char* kWorkloads[] = {"ctmc_grid", "srn_pools",
                                             "serve_mixed", "rare_event"};

}  // namespace perfbench
