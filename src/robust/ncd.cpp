#include "robust/ncd.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>

#include "common/error.hpp"
#include "common/linsolve.hpp"
#include "common/matrix.hpp"
#include "obs/obs.hpp"
#include "parallel/pool.hpp"
#include "robust/fault_injection.hpp"

namespace relkit::robust {

namespace {

/// Union-find with path halving.
struct UnionFind {
  std::vector<std::size_t> parent;
  explicit UnionFind(std::size_t n) : parent(n) {
    std::iota(parent.begin(), parent.end(), 0);
  }
  std::size_t find(std::size_t v) {
    while (parent[v] != v) {
      parent[v] = parent[parent[v]];
      v = parent[v];
    }
    return v;
  }
  void unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a != b) parent[b] = a;
  }
};

}  // namespace

NcdPartition detect_ncd_blocks(const SparseMatrix& qt,
                               const std::vector<double>& diag,
                               double coupling_threshold) {
  const std::size_t n = qt.rows();
  relkit::detail::require(qt.cols() == n, "detect_ncd_blocks: Q^T must be square");
  relkit::detail::require(diag.size() == n, "detect_ncd_blocks: diag size mismatch");

  NcdPartition part;
  part.block_of.assign(n, 0);
  if (n == 0) return part;

  // Strong edges: embedded-jump probability rate / |diag[source]| at or
  // above the threshold. qt(i, j) = Q(j, i), a transition j -> i.
  UnionFind uf(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = qt.row_begin(i); k < qt.row_end(i); ++k) {
      const std::size_t j = qt.col(k);
      if (j == i) continue;
      const double out = std::abs(diag[j]);
      if (out <= 0.0) continue;
      if (qt.value(k) / out >= coupling_threshold) uf.unite(i, j);
    }
  }

  // Compact block labels and sizes.
  std::vector<std::size_t> label(n, std::numeric_limits<std::size_t>::max());
  std::vector<std::size_t> sizes;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t root = uf.find(i);
    if (label[root] == std::numeric_limits<std::size_t>::max()) {
      label[root] = sizes.size();
      sizes.push_back(0);
    }
    part.block_of[i] = label[root];
    ++sizes[label[root]];
  }
  part.blocks = sizes.size();
  part.max_block_size = *std::max_element(sizes.begin(), sizes.end());

  // Decomposability parameter: worst total embedded probability of leaving
  // the home block in one jump.
  std::vector<double> weak_out(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = qt.row_begin(i); k < qt.row_end(i); ++k) {
      const std::size_t j = qt.col(k);
      if (j == i || part.block_of[j] == part.block_of[i]) continue;
      const double out = std::abs(diag[j]);
      if (out > 0.0) weak_out[j] += qt.value(k) / out;
    }
  }
  part.coupling = *std::max_element(weak_out.begin(), weak_out.end());

  obs::gauge("markov.ncd.blocks").set(static_cast<double>(part.blocks));
  return part;
}

SteadyResult ad_steady_state(const SparseMatrix& qt,
                             const std::vector<double>& diag,
                             const NcdPartition& partition,
                             const AdOptions& opts) {
  const std::size_t n = qt.rows();
  relkit::detail::require(qt.cols() == n, "ad_steady_state: Q^T must be square");
  relkit::detail::require(diag.size() == n, "ad_steady_state: diag size mismatch");
  relkit::detail::require(partition.block_of.size() == n,
                  "ad_steady_state: partition size mismatch");
  relkit::detail::require(partition.blocks >= 2,
                  "ad_steady_state: need at least 2 blocks (use a direct "
                  "solver for a single block)");
  for (std::size_t i = 0; i < n; ++i) {
    relkit::detail::require(diag[i] < 0.0,
                    "ad_steady_state: diagonal must be negative");
  }

  auto& injector = testing::FaultInjector::instance();
  const std::size_t b_count = partition.blocks;

  const parallel::PoolLease lease(opts.jobs);
  SolveBooks books("ad", "ad_steady_state", "solver.ad", n, "ad.max_sweeps",
                   opts.max_sweeps);
  obs::Span& span = books.span();
  span.set("jobs", static_cast<std::uint64_t>(lease.jobs()));
  span.set("blocks", b_count);
  span.set("max_block", partition.max_block_size);
  span.set("coupling", partition.coupling);
  static obs::Counter& sweeps_counter = obs::counter("markov.ad.sweeps");

  // Block membership lists and within-block local indices.
  std::vector<std::vector<std::size_t>> members(b_count);
  std::vector<std::size_t> local(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    local[i] = members[partition.block_of[i]].size();
    members[partition.block_of[i]].push_back(i);
  }

  // Dense censored-block matrices M_I with M(li, lk) = Q(k, i) for states
  // i, k in block I — i.e. the transposed diagonal sub-generator. Built
  // once; lu_solve factors a copy each sweep.
  std::vector<Matrix> block_m(b_count);
  for (std::size_t bi = 0; bi < b_count; ++bi) {
    const auto& states = members[bi];
    Matrix m(states.size(), states.size(), 0.0);
    for (std::size_t li = 0; li < states.size(); ++li) {
      const std::size_t i = states[li];
      m(li, li) = diag[i];
      for (std::size_t k = qt.row_begin(i); k < qt.row_end(i); ++k) {
        const std::size_t j = qt.col(k);
        if (j == i) {
          m(li, li) += qt.value(k);
        } else if (partition.block_of[j] == bi) {
          m(li, local[j]) += qt.value(k);
        }
      }
    }
    block_m[bi] = std::move(m);
  }

  std::vector<double> pi(n, 1.0 / static_cast<double>(n));
  std::vector<double> xi(b_count, 0.0);
  for (std::size_t sweep = 1; sweep <= books.cap(); ++sweep) {
    sweeps_counter.add();
    if (books.expired()) throw books.deadline_stop(sweep - 1, "sweep");

    // Aggregate: block masses and the B x B coupling generator, weighting
    // inter-block rates by the current conditional distribution.
    std::fill(xi.begin(), xi.end(), 0.0);
    for (std::size_t i = 0; i < n; ++i) xi[partition.block_of[i]] += pi[i];
    for (double& m : xi) {
      if (!(m > 0.0)) m = 1e-300;  // empty mass: keep weights finite
    }
    Matrix coupling(b_count, b_count, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t bi = partition.block_of[i];
      for (std::size_t k = qt.row_begin(i); k < qt.row_end(i); ++k) {
        const std::size_t j = qt.col(k);
        if (j == i) continue;
        const std::size_t bj = partition.block_of[j];
        if (bj == bi) continue;
        const double w = (pi[j] / xi[bj]) * qt.value(k);
        coupling(bj, bi) += w;
        coupling(bj, bj) -= w;
      }
    }
    std::vector<double> agg;
    try {
      agg = gth_steady_state(std::move(coupling));
    } catch (const NumericalError& e) {
      throw books.fail(std::string("aggregate solve failed: ") + e.what(),
                       sweep);
    }

    // Disaggregate, block Gauss-Seidel: each block's censored system uses
    // the freshest neighbor values, then is scaled to its aggregate mass.
    for (std::size_t bi = 0; bi < b_count; ++bi) {
      const auto& states = members[bi];
      std::vector<double> rhs(states.size(), 0.0);
      for (std::size_t li = 0; li < states.size(); ++li) {
        const std::size_t i = states[li];
        double inflow = 0.0;
        for (std::size_t k = qt.row_begin(i); k < qt.row_end(i); ++k) {
          const std::size_t j = qt.col(k);
          if (j == i || partition.block_of[j] == bi) continue;
          inflow += qt.value(k) * pi[j];
        }
        rhs[li] = -inflow;
      }
      std::vector<double> x;
      try {
        x = lu_solve(block_m[bi], rhs);
      } catch (const NumericalError& e) {
        throw books.fail("block " + std::to_string(bi) +
                             " solve failed: " + e.what(),
                         sweep);
      }
      double total = 0.0;
      for (double& v : x) {
        if (!std::isfinite(v)) {
          throw books.fail("block iterate became non-finite", sweep);
        }
        if (v < 0.0) v = 0.0;
        total += v;
      }
      const double target = agg[bi];
      if (total > 0.0) {
        const double scale = target / total;
        for (std::size_t li = 0; li < states.size(); ++li) {
          pi[states[li]] = x[li] * scale;
        }
      } else {
        const double each = target / static_cast<double>(states.size());
        for (const std::size_t s : states) pi[s] = each;
      }
    }
    double mass = 0.0;
    for (const double v : pi) mass += v;
    if (!(mass > 0.0) || !std::isfinite(mass)) {
      throw books.fail("iterate lost probability mass", sweep);
    }
    for (double& v : pi) v /= mass;

    const double res = injector.tap(
        "ad.residual", steady_state_residual(qt, diag, pi, lease.get()));
    books.check(sweep, res, pi);
    if (res < opts.tol) return books.converged(std::move(pi), sweep, res);
  }
  throw books.cap_stop(books.cap(), "sweep");
}

}  // namespace relkit::robust
