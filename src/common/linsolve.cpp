#include "common/linsolve.hpp"

#include <cmath>

#include "common/error.hpp"
#include "obs/obs.hpp"
#include "parallel/pool.hpp"
#include "robust/fault_injection.hpp"

namespace relkit {

double steady_state_residual(const SparseMatrix& qt,
                             const std::vector<double>& diag,
                             const std::vector<double>& pi,
                             parallel::ThreadPool* pool) {
  const std::size_t n = qt.rows();
  detail::require(diag.size() == n && pi.size() == n,
                  "steady_state_residual: size mismatch");
  auto worst_in = [&](std::size_t begin, std::size_t end) {
    double worst = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      double acc = diag[i] * pi[i];
      for (std::size_t k = qt.row_begin(i); k < qt.row_end(i); ++k) {
        acc += qt.value(k) * pi[qt.col(k)];
      }
      worst = std::max(worst, std::abs(acc));
    }
    return worst;
  };
  if (pool == nullptr || pool->jobs() <= 1) return worst_in(0, n);
  return parallel::reduce_chunks<double>(
      *pool, n, parallel::default_chunk(n), 0.0, worst_in,
      [](double& acc, double part) { acc = std::max(acc, part); });
}

std::vector<double> gth_steady_state(Matrix q) {
  const std::size_t n = q.rows();
  detail::require(n == q.cols(), "gth_steady_state: Q must be square");
  detail::require(n >= 1, "gth_steady_state: empty generator");
  obs::Span span("solver.gth");
  span.set("n", n);
  static obs::Counter& solves = obs::counter("markov.gth_solves");
  solves.add();

  // Forward elimination: fold state k into states 0..k-1. GTH uses the row
  // sum of remaining off-diagonals as the pivot (never the possibly
  // cancellation-damaged diagonal) and performs no subtractions.
  for (std::size_t k = n; k-- > 1;) {
    double s = 0.0;
    for (std::size_t j = 0; j < k; ++j) s += q(k, j);
    if (s <= 0.0) {
      throw NumericalError(
          "gth_steady_state: chain is reducible (state " + std::to_string(k) +
          " cannot reach lower-numbered states)");
    }
    for (std::size_t i = 0; i < k; ++i) q(i, k) /= s;
    for (std::size_t i = 0; i < k; ++i) {
      const double qik = q(i, k);
      if (qik == 0.0) continue;
      for (std::size_t j = 0; j < k; ++j) {
        if (i == j) continue;
        q(i, j) += qik * q(k, j);
      }
    }
  }

  // Back substitution: pi_k = sum_{i<k} pi_i q(i,k) on the folded matrix.
  // It starts from pi_0 = 1, so where pi grows past the double range along
  // the order (state 0 the least probable) the entries so far are scaled by
  // 2^-512 whenever one exceeds 2^512; the scaling is exact, so a chain
  // that never gets there keeps its bits.
  std::vector<double> pi(n, 0.0);
  pi[0] = 1.0;
  for (std::size_t k = 1; k < n; ++k) {
    double acc = 0.0;
    for (std::size_t i = 0; i < k; ++i) acc += pi[i] * q(i, k);
    pi[k] = acc;
    if (acc > 0x1p512) {
      for (std::size_t i = 0; i <= k; ++i) pi[i] *= 0x1p-512;
    }
  }

  double total = 0.0;
  for (double x : pi) total += x;
  for (double& x : pi) x /= total;
  return pi;
}

std::vector<double> gth_steady_state_dtmc(const Matrix& p) {
  const std::size_t n = p.rows();
  detail::require(n == p.cols(), "gth_steady_state_dtmc: P must be square");
  Matrix q = p;
  for (std::size_t i = 0; i < n; ++i) q(i, i) -= 1.0;
  return gth_steady_state(std::move(q));
}

robust::SteadyResult sor_steady_state(const SparseMatrix& qt,
                                      const std::vector<double>& diag,
                                      const SorOptions& opts) {
  const std::size_t n = qt.rows();
  detail::require(qt.cols() == n, "sor_steady_state: Q^T must be square");
  detail::require(diag.size() == n, "sor_steady_state: diag size mismatch");
  for (std::size_t i = 0; i < n; ++i) {
    detail::require(diag[i] < 0.0,
                    "sor_steady_state: diagonal must be negative (no "
                    "absorbing states in an irreducible chain)");
  }

  auto& injector = testing::FaultInjector::instance();
  const parallel::PoolLease lease(opts.jobs);
  robust::SolveBooks books("sor", "sor_steady_state", "solver.sor", n,
                           "sor.max_iters", opts.max_iters);
  books.span().set("jobs", static_cast<std::uint64_t>(lease.jobs()));
  static obs::Counter& sweeps_counter = obs::counter("markov.sor_sweeps");
  static obs::Histogram& residual_hist =
      obs::histogram("markov.sor_residual");

  std::vector<double> pi(n, 1.0 / static_cast<double>(n));
  double omega = opts.omega;
  double omega_cap = 1.6;  // halves toward 1.0 whenever SOR diverges

  // Bytes the solve streams, for the span's `bytes` attribute
  // (docs/observability.md). A sweep is a pass over Q^T that reads diag and
  // reads and writes pi, and its normalization reads pi twice and writes it
  // once; a residual check is a pass over Q^T reading diag and pi.
  const std::size_t vec_bytes = n * sizeof(double);
  const std::size_t sweep_bytes = qt.pass_bytes() + 6 * vec_bytes;
  const std::size_t check_bytes = qt.pass_bytes() + 2 * vec_bytes;

  // The start vector is the first best iterate. The sweep mutates pi in
  // place (Gauss-Seidel), but the residual reads a fixed vector — a
  // Jacobi-style pass — so it chunks across the pool.
  double prev_res = steady_state_residual(qt, diag, pi, lease.get());
  books.add_bytes(check_bytes);
  books.keep_best(prev_res, pi);

  for (std::size_t it = 1; it <= books.cap(); ++it) {
    sweeps_counter.add();
    books.add_bytes(sweep_bytes);
    // One SOR sweep: pi_i <- (1-w) pi_i + w * (sum_{j != i} pi_j Q_ji)/(-Q_ii).
    // Alternate sweep direction so information propagates both ways along
    // chain-structured models (symmetric Gauss-Seidel), which otherwise
    // need O(n) sweeps on birth-death chains.
    const bool forward = (it % 2) == 1;
    for (std::size_t step = 0; step < n; ++step) {
      const std::size_t i = forward ? step : n - 1 - step;
      double acc = 0.0;
      for (std::size_t k = qt.row_begin(i); k < qt.row_end(i); ++k) {
        const std::size_t j = qt.col(k);
        if (j == i) continue;  // diagonal handled via diag[]
        acc += qt.value(k) * pi[j];
      }
      const double gs = acc / (-diag[i]);
      pi[i] = (1.0 - omega) * pi[i] + omega * gs;
      if (pi[i] < 0.0) pi[i] = 0.0;
    }
    // Normalize every sweep; the homogeneous system is defined up to scale.
    double total = 0.0;
    for (double x : pi) total += x;
    total = injector.tap("sor.sweep-total", total);
    if (!std::isfinite(total) || total <= 0.0) {
      books.report().warn("sweep " + std::to_string(it) +
                          " produced a non-finite or collapsed iterate");
      throw books.fail("iterate became non-finite or collapsed at sweep " +
                           std::to_string(it),
                       it);
    }
    for (double& x : pi) x /= total;

    if (it % 8 == 0 || it <= 4) {
      if (books.expired()) throw books.deadline_stop(it, "sweep");
      const double res = steady_state_residual(qt, diag, pi, lease.get());
      books.add_bytes(check_bytes);
      residual_hist.observe(res);
      books.check(it, res, pi);
      if (res < opts.tol) {
        books.span().set("omega", omega);
        return books.converged(std::move(pi), it, res);
      }
      // Crude adaptive relaxation: push omega up while the residual keeps
      // shrinking (over-relaxation usually pays on availability chains).
      // Divergence resets to plain Gauss-Seidel AND lowers the ceiling, so
      // chains that tolerate no over-relaxation settle at omega = 1.
      if (opts.adaptive_omega) {
        if (res <= prev_res) {
          omega = std::min(omega_cap, omega + 0.1);
        } else if (res > 3.0 * prev_res) {
          // Violent divergence: halve the over-relaxation headroom
          // permanently and restart from plain Gauss-Seidel. Chains that
          // tolerate no over-relaxation settle at omega = 1; tolerant
          // chains never get here and climb to the cap.
          omega_cap = 1.0 + 0.5 * (std::min(omega, omega_cap) - 1.0);
          omega = 1.0;
        } else {
          // Mild wobble: ease off without burning the ceiling.
          omega = std::max(1.0, omega - 0.1);
        }
      }
      prev_res = res;
    }
  }
  throw books.cap_stop(books.cap(), "sweep");
}

robust::SteadyResult power_steady_state(const SparseMatrix& p,
                                        const PowerOptions& opts) {
  const std::size_t n = p.rows();
  detail::require(p.cols() == n, "power_steady_state: P must be square");
  detail::require(opts.theta > 0.0 && opts.theta <= 1.0,
                  "power_steady_state: theta in (0,1]");

  auto& injector = testing::FaultInjector::instance();
  const parallel::PoolLease lease(opts.jobs);
  robust::SolveBooks books("power", "power_steady_state", "solver.power", n,
                           "power.max_iters", opts.max_iters);
  books.span().set("jobs", static_cast<std::uint64_t>(lease.jobs()));
  static obs::Counter& steps_counter = obs::counter("markov.power_steps");

  // pi P is a product on P^T, held once for the whole solve.
  const SparseMatrix pt = p.transposed();
  std::vector<double> pi(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n);

  // Bytes a step streams, for the span's `bytes` attribute
  // (docs/observability.md): a pass over P^T and 8 vector streams. The
  // product reads pi and writes next, the damping reads both and writes
  // next, the sum reads next, and the normalization reads and writes it.
  const std::size_t step_bytes = pt.pass_bytes() + 8 * n * sizeof(double);

  for (std::size_t it = 0; it < books.cap(); ++it) {
    steps_counter.add();
    books.add_bytes(step_bytes);
    pt.multiply(pi, next, lease.get());
    double delta = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      next[i] = (1.0 - opts.theta) * pi[i] + opts.theta * next[i];
      delta = std::max(delta, std::abs(next[i] - pi[i]));
    }
    delta = injector.tap("power.delta", delta);
    double total = 0.0;
    for (double x : next) total += x;
    if (!std::isfinite(total) || total <= 0.0 || !std::isfinite(delta)) {
      books.report().warn("iterate became non-finite at step " +
                          std::to_string(it));
      throw books.fail(
          "iterate became non-finite at step " + std::to_string(it), it);
    }
    for (double& x : next) x /= total;
    pi.swap(next);
    books.check(it + 1, delta, pi);
    if (delta < opts.tol) return books.converged(std::move(pi), it + 1, delta);
    if ((it & 63u) == 0 && books.expired()) {
      throw books.deadline_stop(it, "step");
    }
  }
  throw books.cap_stop(books.cap(), "step");
}

}  // namespace relkit
