// A1-A3 — ablations of the design choices called out in DESIGN.md.
//
//   A1: BDD variable ordering — first-appearance DFS order (RelKit's
//       default) vs reversed vs interleaved on a series-of-parallel RBD.
//       BDD size is ordering-sensitive; the DFS order keeps related
//       variables adjacent.
//   A2: SOR relaxation factor — fixed omega in {1.0, 1.3, 1.6, adaptive}
//       on a birth-death chain: sweep counts to convergence.
//   A3: uniformization truncation epsilon — accuracy vs Poisson window
//       size on a stiff transient.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"

#include <cstdio>

#include "core/relkit.hpp"

using namespace relkit;

namespace {

// A1: build the same 2-of-2-parallel x n-series structure function with
// three different variable orders, measure BDD nodes.
std::size_t bdd_nodes_for_order(int n_pairs, int order_kind) {
  bdd::Manager mgr;
  // order_kind 0: pair-adjacent (a0 b0 a1 b1 ...)  [RelKit's DFS order]
  // order_kind 1: grouped (a0 a1 ... b0 b1 ...)
  // order_kind 2: reversed pair-adjacent
  std::vector<std::uint32_t> a_level(n_pairs), b_level(n_pairs);
  for (int i = 0; i < n_pairs; ++i) {
    switch (order_kind) {
      case 0:
        a_level[i] = 2 * i;
        b_level[i] = 2 * i + 1;
        break;
      case 1:
        a_level[i] = i;
        b_level[i] = n_pairs + i;
        break;
      default:
        a_level[i] = 2 * (n_pairs - 1 - i);
        b_level[i] = 2 * (n_pairs - 1 - i) + 1;
        break;
    }
  }
  std::vector<bdd::NodeRef> stages;
  for (int i = 0; i < n_pairs; ++i) {
    stages.push_back(
        mgr.apply_or(mgr.var(a_level[i]), mgr.var(b_level[i])));
  }
  const bdd::NodeRef f = mgr.and_all(stages);
  return mgr.node_count(f);
}

void print_table() {
  std::printf("== A1: BDD variable ordering ===============================\n");
  std::printf("%-8s %-14s %-14s %-14s\n", "pairs", "pair-adjacent",
              "grouped", "reversed");
  for (int n : {4, 8, 12, 16}) {
    std::printf("%-8d %-14zu %-14zu %-14zu\n", n, bdd_nodes_for_order(n, 0),
                bdd_nodes_for_order(n, 1), bdd_nodes_for_order(n, 2));
  }
  std::printf("(the classic ordering lesson: pair-adjacent and reversed\n"
              "stay LINEAR, while separating each pair's halves makes the\n"
              "same function EXPONENTIAL (~2^n nodes) — why RelKit assigns\n"
              "levels in first-appearance DFS order.)\n");

  std::printf("\n== A2: SOR relaxation factor ===============================\n");
  std::printf("%-12s %-12s %-12s\n", "omega", "sweeps", "residual");
  const std::size_t n = 2000;
  SparseBuilder bt(n, n);
  std::vector<double> diag(n, 0.0);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    bt.add(i + 1, i, 1.0);
    diag[i] -= 1.0;
    bt.add(i, i + 1, 1.4);
    diag[i + 1] -= 1.4;
  }
  const SparseMatrix qt = bt.build();
  for (double omega : {1.0, 1.3, 1.6, -1.0 /* adaptive */}) {
    SorOptions opts;
    opts.tol = 1e-10;
    if (omega > 0) {
      opts.omega = omega;
      opts.adaptive_omega = false;
    } else {
      opts.adaptive_omega = true;
    }
    const robust::SteadyResult res = sor_steady_state(qt, diag, opts);
    std::printf("%-12s %-12zu %-12.1e\n",
                omega > 0 ? std::to_string(omega).substr(0, 4).c_str()
                          : "adaptive",
                res.iterations, res.residual);
  }

  std::printf("\n== A3: uniformization truncation epsilon ===================\n");
  std::printf("%-10s %-16s %-14s\n", "eps", "A(100) value", "err vs 1e-14");
  markov::Ctmc c;
  c.add_states(2);
  c.add_transition(0, 1, 1.0);
  c.add_transition(1, 0, 1e3);  // stiff
  const auto pi0 = c.point_mass(0);
  const double ref = c.transient(pi0, 100.0, 1e-14)[0];
  for (double eps : {1e-4, 1e-6, 1e-8, 1e-10, 1e-12}) {
    const double v = c.transient(pi0, 100.0, eps)[0];
    std::printf("%-10.0e %-16.12f %-14.2e\n", eps, v, std::abs(v - ref));
  }
  std::printf("\nShape check: a bad variable order turns a linear BDD\n"
              "exponential; adaptive omega roughly halves Gauss-Seidel's\n"
              "sweep count without tuning; uniformization accuracy is flat\n"
              "well past the default (the window is conservative).\n\n");
}

void BM_BddOrdering(benchmark::State& state) {
  const int kind = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bdd_nodes_for_order(14, kind));
  }
}
BENCHMARK(BM_BddOrdering)->Arg(0)->Arg(1)->Arg(2);

void BM_SorOmega(benchmark::State& state) {
  const std::size_t n = 2000;
  SparseBuilder bt(n, n);
  std::vector<double> diag(n, 0.0);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    bt.add(i + 1, i, 1.0);
    diag[i] -= 1.0;
    bt.add(i, i + 1, 1.4);
    diag[i + 1] -= 1.4;
  }
  const SparseMatrix qt = bt.build();
  SorOptions opts;
  opts.tol = 1e-10;
  if (state.range(0) > 0) {
    opts.omega = static_cast<double>(state.range(0)) / 10.0;
    opts.adaptive_omega = false;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sor_steady_state(qt, diag, opts));
  }
}
BENCHMARK(BM_SorOmega)->Arg(10)->Arg(13)->Arg(16)->Arg(0);

}  // namespace

int main(int argc, char** argv) {
  const benchjson::Options opts = benchjson::init(&argc, argv);
  print_table();
  if (opts.table_only) return 0;
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
