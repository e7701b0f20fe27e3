#include "common/krylov.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.hpp"
#include "common/linsolve.hpp"
#include "common/reorder.hpp"
#include "obs/obs.hpp"
#include "parallel/pool.hpp"
#include "robust/fault_injection.hpp"

namespace relkit {

namespace {

/// ILU0 factors of a CSR matrix, stored in place on the matrix's own
/// pattern: strictly-lower entries are L (unit diagonal implied), the
/// diagonal and strictly-upper entries are U.
struct Ilu0 {
  SparseMatrix lu;
  std::vector<std::size_t> diag_idx;  ///< position of (i, i) in lu

  /// z = M^{-1} r via the two triangular solves (inherently sequential).
  void apply(const std::vector<double>& r, std::vector<double>& z) const {
    const std::size_t n = lu.rows();
    for (std::size_t i = 0; i < n; ++i) {
      double acc = r[i];
      for (std::size_t k = lu.row_begin(i); k < diag_idx[i]; ++k) {
        acc -= lu.value(k) * z[lu.col(k)];
      }
      z[i] = acc;
    }
    for (std::size_t i = n; i-- > 0;) {
      double acc = z[i];
      for (std::size_t k = diag_idx[i] + 1; k < lu.row_end(i); ++k) {
        acc -= lu.value(k) * z[lu.col(k)];
      }
      z[i] = acc / lu.value(diag_idx[i]);
    }
  }
};

/// Incomplete LU with zero fill-in (IKJ form restricted to the pattern of
/// `a`). Near-zero pivots are nudged to a tiny value instead of failing:
/// the factor is only a preconditioner, and BiCGSTAB verifies the true
/// residual anyway.
Ilu0 ilu0_factor(const SparseMatrix& a) {
  const std::size_t n = a.rows();
  Ilu0 f;
  f.lu = a;
  f.diag_idx.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    bool found = false;
    for (std::size_t k = a.row_begin(i); k < a.row_end(i); ++k) {
      if (a.col(k) == i) {
        f.diag_idx[i] = k;
        found = true;
        break;
      }
    }
    detail::require(found, "ilu0_factor: structurally zero diagonal");
  }
  std::vector<std::ptrdiff_t> pos(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = f.lu.row_begin(i); k < f.lu.row_end(i); ++k) {
      pos[f.lu.col(k)] = static_cast<std::ptrdiff_t>(k);
    }
    for (std::size_t kk = f.lu.row_begin(i); kk < f.diag_idx[i]; ++kk) {
      const std::size_t kcol = f.lu.col(kk);
      double pivot = f.lu.value(f.diag_idx[kcol]);
      if (std::abs(pivot) < 1e-300) pivot = pivot < 0.0 ? -1e-300 : 1e-300;
      const double lik = f.lu.value(kk) / pivot;
      f.lu.value(kk) = lik;
      for (std::size_t jj = f.diag_idx[kcol] + 1; jj < f.lu.row_end(kcol);
           ++jj) {
        const std::ptrdiff_t p = pos[f.lu.col(jj)];
        if (p >= 0) {
          f.lu.value(static_cast<std::size_t>(p)) -= lik * f.lu.value(jj);
        }
      }
    }
    for (std::size_t k = f.lu.row_begin(i); k < f.lu.row_end(i); ++k) {
      pos[f.lu.col(k)] = -1;
    }
  }
  return f;
}

}  // namespace

const char* preconditioner_name(Preconditioner p) {
  switch (p) {
    case Preconditioner::kJacobi: return "jacobi";
    case Preconditioner::kIlu0: return "ilu0";
  }
  return "?";
}

robust::SteadyResult bicgstab_steady_state(const SparseMatrix& qt,
                                           const std::vector<double>& diag,
                                           const BicgstabOptions& opts) {
  const std::size_t n = qt.rows();
  detail::require(qt.cols() == n, "bicgstab_steady_state: Q^T must be square");
  detail::require(diag.size() == n,
                  "bicgstab_steady_state: diag size mismatch");
  for (std::size_t i = 0; i < n; ++i) {
    detail::require(diag[i] < 0.0,
                    "bicgstab_steady_state: diagonal must be negative (no "
                    "absorbing states in an irreducible chain)");
  }

  auto& injector = testing::FaultInjector::instance();
  const parallel::PoolLease lease(opts.jobs);
  robust::SolveBooks books("bicgstab", "bicgstab_steady_state",
                           "solver.bicgstab", n, "bicgstab.max_iters",
                           opts.max_iters);
  obs::Span& span = books.span();
  span.set("jobs", static_cast<std::uint64_t>(lease.jobs()));
  span.set("precond", preconditioner_name(opts.precond));
  static obs::Counter& solves_counter = obs::counter("markov.bicgstab.solves");
  static obs::Counter& iters_counter =
      obs::counter("markov.bicgstab.iterations");
  solves_counter.add();

  if (n == 1) return books.converged({1.0}, 0, 0.0);

  // RCM permutation (perm[new] = old). The normalization row replaces the
  // equation of the state ordered LAST, so its dense row of ones sits at
  // the bottom of the factored pattern instead of wrecking the band.
  std::vector<std::size_t> perm;
  if (opts.use_rcm && n > 2) {
    perm = rcm_ordering(qt);
  } else {
    perm.resize(n);
    for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  }
  const std::vector<std::size_t> inv = invert_ordering(perm);

  // Bandwidth of the (permuted) generator pattern, for the span and the
  // markov.rcm.bandwidth gauge — the normalization row is excluded (it is
  // dense by construction).
  std::size_t band_before = 0;
  std::size_t band_after = 0;
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t k = qt.row_begin(r); k < qt.row_end(r); ++k) {
      const std::size_t c = qt.col(k);
      band_before = std::max(band_before, r > c ? r - c : c - r);
      const std::size_t pr = inv[r], pc = inv[c];
      band_after = std::max(band_after, pr > pc ? pr - pc : pc - pr);
    }
  }
  span.set("bandwidth_before", band_before);
  span.set("bandwidth", band_after);
  if (opts.use_rcm) {
    obs::gauge("markov.rcm.bandwidth").set(static_cast<double>(band_after));
  }

  // A x = b: rows 0..n-2 are the permuted equations (pi Q)_i = 0 (row i of
  // qt *is* equation i: A(i, j) = Q(j, i)); the last row is sum(pi) = 1.
  const std::size_t norm_row = n - 1;
  SparseBuilder builder(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i == norm_row) continue;
    const std::size_t old = perm[i];
    double d = diag[old];
    for (std::size_t k = qt.row_begin(old); k < qt.row_end(old); ++k) {
      const std::size_t c = qt.col(k);
      if (c == old) {
        d += qt.value(k);  // fold stray diagonal entries into diag
      } else {
        builder.add(i, inv[c], qt.value(k));
      }
    }
    builder.add(i, i, d);
  }
  for (std::size_t j = 0; j < n; ++j) builder.add(norm_row, j, 1.0);
  const SparseMatrix a = builder.build();

  std::vector<double> rhs(n, 0.0);
  rhs[norm_row] = 1.0;

  // Preconditioner setup.
  Ilu0 ilu;
  std::vector<double> jacobi_diag;
  if (opts.precond == Preconditioner::kIlu0) {
    ilu = ilu0_factor(a);
  } else if (opts.precond == Preconditioner::kJacobi) {
    jacobi_diag.assign(n, 1.0);
    for (std::size_t i = 0; i < n; ++i) {
      const double d = a.at(i, i);
      if (d != 0.0) jacobi_diag[i] = d;
    }
  }
  auto apply_precond = [&](const std::vector<double>& r,
                           std::vector<double>& z) {
    switch (opts.precond) {
      case Preconditioner::kIlu0:
        ilu.apply(r, z);
        break;
      case Preconditioner::kJacobi:
        for (std::size_t i = 0; i < n; ++i) z[i] = r[i] / jacobi_diag[i];
        break;
    }
  };

  // Bytes the solve streams, for the span's `bytes` attribute
  // (docs/observability.md). An iteration is two products with A, two
  // preconditioner applications (ILU0 adds a pass over its factors, which
  // share A's pattern; both read r and one more vector and write z) and 20
  // vector streams in the updates and dot products. A residual check is a
  // pass over Q^T reading diag and the candidate.
  const std::size_t vec_bytes = n * sizeof(double);
  const std::size_t precond_bytes =
      (opts.precond == Preconditioner::kIlu0 ? a.pass_bytes() : 0) +
      3 * vec_bytes;
  const std::size_t iteration_bytes =
      2 * (a.pass_bytes() + 2 * vec_bytes) + 2 * precond_bytes +
      20 * vec_bytes;
  const std::size_t check_bytes = qt.pass_bytes() + 2 * vec_bytes;
  auto residual = [&](const std::vector<double>& pi) {
    books.add_bytes(check_bytes);
    return steady_state_residual(qt, diag, pi, lease.get());
  };

  // Candidate in original state order, clamped and normalized exactly the
  // way the robust layer verifies (so an accepted kernel result is also an
  // accepted chain result).
  auto normalized_candidate = [&](const std::vector<double>& x,
                                  std::vector<double>& out) -> bool {
    out.resize(n);
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double v = x[inv[i]];
      if (!std::isfinite(v)) return false;
      if (v < 0.0) v = 0.0;
      out[i] = v;
      total += v;
    }
    if (!(total > 0.0)) return false;
    for (double& v : out) v /= total;
    return true;
  };

  std::vector<double> x(n, 1.0 / static_cast<double>(n));  // uniform start
  std::vector<double> r(n), candidate(n);
  {
    const std::vector<double> ax = a.multiply(x, lease.get());
    for (std::size_t i = 0; i < n; ++i) r[i] = rhs[i] - ax[i];
  }
  std::vector<double> r0 = r;
  std::vector<double> p(n, 0.0), v(n, 0.0), s(n), t(n);
  std::vector<double> phat(n), shat(n);
  double rho = 1.0, alpha = 1.0, omega = 1.0;

  if (normalized_candidate(x, candidate)) {
    books.keep_best(residual(candidate), candidate);
  }

  // One verified check of x at iteration `it`; true when it met tol. The
  // in-loop checks pass the residual through the fault probe.
  auto met_tol = [&](std::size_t it, bool probe) {
    if (!normalized_candidate(x, candidate)) return false;
    double res = residual(candidate);
    if (probe) res = injector.tap("bicgstab.residual", res);
    books.check(it, res, candidate);
    return res < opts.tol;
  };
  // The returned iterate is the best one, which can be an earlier candidate
  // than the one that met tol, so the reported residual is the best.
  auto finish = [&](std::size_t it) {
    return books.converged(books.best(), it, books.best_residual());
  };

  const double kBreakdown = 1e-300;
  double rnorm = 0.0;
  for (const double ri : r) rnorm = std::max(rnorm, std::abs(ri));

  std::size_t it = 1;
  for (; it <= books.cap(); ++it) {
    iters_counter.add();
    books.add_bytes(iteration_bytes);
    double rho_next = 0.0;
    for (std::size_t i = 0; i < n; ++i) rho_next += r0[i] * r[i];
    if (std::abs(rho_next) < kBreakdown) {
      // r0 became orthogonal to r: restart the recurrence from the current
      // residual (standard BiCGSTAB restart).
      r0 = r;
      rho_next = 0.0;
      for (const double ri : r) rho_next += ri * ri;
      if (rho_next < kBreakdown) {
        books.report().warn("residual collapsed to zero at iteration " +
                            std::to_string(it));
        break;  // exact solve of the linear system; fall to the final check
      }
      rho = alpha = omega = 1.0;
      std::fill(p.begin(), p.end(), 0.0);
      std::fill(v.begin(), v.end(), 0.0);
    }
    const double beta = (rho_next / rho) * (alpha / omega);
    for (std::size_t i = 0; i < n; ++i) {
      p[i] = r[i] + beta * (p[i] - omega * v[i]);
    }
    apply_precond(p, phat);
    v = a.multiply(phat, lease.get());
    double r0v = 0.0;
    for (std::size_t i = 0; i < n; ++i) r0v += r0[i] * v[i];
    if (std::abs(r0v) < kBreakdown) {
      throw books.fail("breakdown (r0·v = 0) at iteration " +
                           std::to_string(it),
                       it);
    }
    alpha = rho_next / r0v;
    for (std::size_t i = 0; i < n; ++i) s[i] = r[i] - alpha * v[i];
    apply_precond(s, shat);
    t = a.multiply(shat, lease.get());
    double ts = 0.0, tt = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      ts += t[i] * s[i];
      tt += t[i] * t[i];
    }
    omega = tt > kBreakdown ? ts / tt : 0.0;
    rnorm = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += alpha * phat[i] + omega * shat[i];
      r[i] = s[i] - omega * t[i];
      rnorm = std::max(rnorm, std::abs(r[i]));
    }
    rho = rho_next;
    if (!std::isfinite(rnorm)) {
      books.report().warn("iterate became non-finite at iteration " +
                          std::to_string(it));
      throw books.fail(
          "iterate became non-finite at iteration " + std::to_string(it), it);
    }
    if (std::abs(omega) < kBreakdown) {
      // t -> 0 almost always means the half-step x += alpha * phat already
      // solved the system (an exact or near-exact preconditioner — ILU0 on
      // a tridiagonal chain IS the full LU). Verify the candidate before
      // declaring breakdown, or an exact solve would be thrown away.
      if (met_tol(it, true)) return finish(it);
      books.report().warn("stabilizer omega collapsed at iteration " +
                          std::to_string(it));
      throw books.fail("omega breakdown at iteration " + std::to_string(it),
                       it);
    }

    // True-residual check at the SOR cadence (every 8 iterations plus the
    // first few), and whenever the Krylov residual looks converged. The
    // residual is recorded into the trace BEFORE the deadline check so a
    // deadline abort always carries a populated ConvergenceTrace.
    if (it % 8 == 0 || it <= 4 || rnorm <= opts.tol) {
      if (met_tol(it, true)) return finish(it);
      if (books.expired()) throw books.deadline_stop(it, "iteration");
    }
    if (rnorm < kBreakdown) break;  // linear system solved exactly
  }

  // Loop ended without meeting tol, at the cap or at an exact-solve break:
  // one final verified check of the iterations that ran, then give up with
  // the best iterate.
  const std::size_t ran = std::min(it, books.cap());
  if (met_tol(ran, false)) return finish(ran);
  throw books.cap_stop(ran, "iteration");
}

}  // namespace relkit
