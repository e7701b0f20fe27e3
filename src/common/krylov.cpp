#include "common/krylov.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/linsolve.hpp"
#include "common/reorder.hpp"
#include "obs/obs.hpp"
#include "parallel/pool.hpp"
#include "robust/fault_injection.hpp"

namespace relkit {

namespace {

/// ILU0 factors in split storage (Saad, *Iterative Methods for Sparse
/// Linear Systems*, 2nd ed., ch. 10), laid out in the order the triangular
/// solves walk them: L's strictly-lower rows first to last (unit diagonal
/// implied), U's strictly-upper rows last to first, U's diagonal (the
/// pivots) in an array of its own, and 32-bit column indices. Each solve
/// streams its arrays front to back.
struct Ilu0 {
  std::vector<std::size_t> l_ptr;  ///< row i of L: [l_ptr[i], l_ptr[i + 1])
  std::vector<std::uint32_t> l_col;
  std::vector<double> l_val;
  /// Row n - 1 - j of U, the j-th the backward solve visits, is
  /// [u_ptr[j], u_ptr[j + 1]).
  std::vector<std::size_t> u_ptr;
  std::vector<std::uint32_t> u_col;
  std::vector<double> u_val;
  std::vector<double> pivot;  ///< U(i, i) as factored, never nudged

  /// Bytes one application reads from the factor (docs/observability.md).
  std::size_t pass_bytes() const {
    return (l_val.size() + u_val.size()) *
               (sizeof(double) + sizeof(std::uint32_t)) +
           (l_ptr.size() + u_ptr.size()) * sizeof(std::size_t) +
           pivot.size() * sizeof(double);
  }

  /// z = M^{-1} b via the two triangular solves (inherently sequential).
  /// b[i] = in(i) is generated inside the forward solve, so an update that
  /// produces b rides along in the same pass.
  template <class In>
  void apply(const In& in, std::vector<double>& z) const {
    const std::size_t n = pivot.size();
    for (std::size_t i = 0; i < n; ++i) {
      double acc = in(i);
      for (std::size_t k = l_ptr[i]; k < l_ptr[i + 1]; ++k) {
        acc -= l_val[k] * z[l_col[k]];
      }
      z[i] = acc;
    }
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t i = n - 1 - j;
      double acc = z[i];
      for (std::size_t k = u_ptr[j]; k < u_ptr[j + 1]; ++k) {
        acc -= u_val[k] * z[u_col[k]];
      }
      z[i] = acc / pivot[i];
    }
  }
};

/// Incomplete LU with zero fill-in: the IKJ sweep restricted to the pattern
/// of `a`, written straight into split form. Row i is factored in `w`,
/// indexed through `pos` (column -> slot in the row), against the finished
/// U rows of earlier pivots. Near-zero pivots are nudged to a tiny value in
/// the multiplier instead of failing: the factor is only a preconditioner,
/// and BiCGSTAB verifies the true residual anyway.
Ilu0 ilu0_factor(const SparseMatrix& a) {
  const std::size_t n = a.rows();
  detail::require(n <= std::numeric_limits<std::uint32_t>::max(),
                  "ilu0_factor: too many states for 32-bit column indices");
  // ILU0 keeps A's pattern, so the diagonal's place in each (ascending) row
  // sizes the row's L and U parts before any value is computed.
  Ilu0 f;
  f.l_ptr.assign(n + 1, 0);
  f.u_ptr.assign(n + 1, 0);
  std::size_t widest = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t d = a.row_begin(i);
    while (d < a.row_end(i) && a.col(d) != i) ++d;
    detail::require(d < a.row_end(i),
                    "ilu0_factor: structurally zero diagonal");
    f.l_ptr[i + 1] = f.l_ptr[i] + (d - a.row_begin(i));
    f.u_ptr[n - i] = a.row_end(i) - d - 1;  // U's row i is visited as n-1-i
    widest = std::max(widest, a.row_end(i) - a.row_begin(i));
  }
  for (std::size_t j = 0; j < n; ++j) f.u_ptr[j + 1] += f.u_ptr[j];
  f.l_col.resize(f.l_ptr[n]);
  f.l_val.resize(f.l_ptr[n]);
  f.u_col.resize(f.u_ptr[n]);
  f.u_val.resize(f.u_ptr[n]);
  f.pivot.resize(n);

  std::vector<double> w(widest);
  std::vector<std::ptrdiff_t> pos(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t begin = a.row_begin(i);
    const std::size_t width = a.row_end(i) - begin;
    const std::size_t lower = f.l_ptr[i + 1] - f.l_ptr[i];  // the pivot's slot
    for (std::size_t s = 0; s < width; ++s) {
      pos[a.col(begin + s)] = static_cast<std::ptrdiff_t>(s);
      w[s] = a.value(begin + s);
    }
    for (std::size_t s = 0; s < lower; ++s) {
      const std::size_t kcol = a.col(begin + s);
      double pivot = f.pivot[kcol];
      if (std::abs(pivot) < 1e-300) pivot = pivot < 0.0 ? -1e-300 : 1e-300;
      const double lik = w[s] / pivot;
      w[s] = lik;
      const std::size_t j = n - 1 - kcol;
      for (std::size_t k = f.u_ptr[j]; k < f.u_ptr[j + 1]; ++k) {
        const std::ptrdiff_t p = pos[f.u_col[k]];
        if (p >= 0) w[static_cast<std::size_t>(p)] -= lik * f.u_val[k];
      }
    }
    std::size_t l = f.l_ptr[i];
    for (std::size_t s = 0; s < lower; ++s, ++l) {
      f.l_col[l] = static_cast<std::uint32_t>(a.col(begin + s));
      f.l_val[l] = w[s];
    }
    f.pivot[i] = w[lower];
    std::size_t u = f.u_ptr[n - 1 - i];
    for (std::size_t s = lower + 1; s < width; ++s, ++u) {
      f.u_col[u] = static_cast<std::uint32_t>(a.col(begin + s));
      f.u_val[u] = w[s];
    }
    for (std::size_t s = 0; s < width; ++s) pos[a.col(begin + s)] = -1;
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
  std::vector<std::size_t> inv = invert_ordering(perm);

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
  // The rows are written in order, straight into CSR: each sorts its few
  // permuted columns, and zeros stay out, as SparseBuilder would leave them.
  const std::size_t norm_row = n - 1;
  const auto assemble = [&] {
    std::vector<std::size_t> a_ptr(n + 1, 0);
    std::vector<std::size_t> a_col;
    std::vector<double> a_val;
    a_col.reserve(qt.nnz() + 2 * n);
    a_val.reserve(qt.nnz() + 2 * n);
    std::vector<std::pair<std::size_t, double>> row;
    for (std::size_t i = 0; i < norm_row; ++i) {
      const std::size_t old = perm[i];
      double d = diag[old];
      row.clear();
      for (std::size_t k = qt.row_begin(old); k < qt.row_end(old); ++k) {
        const std::size_t c = qt.col(k);
        if (c == old) {
          d += qt.value(k);  // fold stray diagonal entries into diag
        } else if (qt.value(k) != 0.0) {
          row.emplace_back(inv[c], qt.value(k));
        }
      }
      if (d != 0.0) row.emplace_back(i, d);
      std::sort(row.begin(), row.end(),
                [](const auto& x, const auto& y) { return x.first < y.first; });
      for (const auto& [c, value] : row) {
        a_col.push_back(c);
        a_val.push_back(value);
      }
      a_ptr[i + 1] = a_col.size();
    }
    for (std::size_t j = 0; j < n; ++j) {
      a_col.push_back(j);
      a_val.push_back(1.0);
    }
    a_ptr[n] = a_col.size();
    return SparseMatrix(n, n, std::move(a_ptr), std::move(a_col),
                        std::move(a_val));
  };
  SparseMatrix a = assemble();

  // Preconditioner setup.
  Ilu0 ilu;
  std::vector<double> jacobi_diag;
  if (opts.precond == Preconditioner::kIlu0) {
    ilu = ilu0_factor(a);
    // The normalization row's pivot grows like 1 / pi of the state ordered
    // last; the row of ones has scale 1, so a pivot that is non-finite or
    // above 1/eps means that state carries almost no mass and the factor
    // is garbage. The reversed order puts the normalization on the state
    // at the other end of the band instead, and keeps the bandwidth.
    const bool reverse = !(std::abs(ilu.pivot[norm_row]) <=
                           1.0 / std::numeric_limits<double>::epsilon());
    span.set("reversed", reverse);
    if (reverse) {
      std::reverse(perm.begin(), perm.end());
      inv = invert_ordering(perm);
      ilu = Ilu0();  // freed first, so the refactor does not raise the peak
      a = SparseMatrix();
      a = assemble();
      ilu = ilu0_factor(a);
    }
  } else if (opts.precond == Preconditioner::kJacobi) {
    jacobi_diag.assign(n, 1.0);
    for (std::size_t i = 0; i < n; ++i) {
      const double d = a.at(i, i);
      if (d != 0.0) jacobi_diag[i] = d;
    }
  }
  // z = M^{-1} b, where b[i] = in(i) is generated row by row: the p and s
  // updates run inside the preconditioner's first pass this way.
  const auto apply_precond = [&](const auto& in, std::vector<double>& z) {
    switch (opts.precond) {
      case Preconditioner::kIlu0:
        ilu.apply(in, z);
        break;
      case Preconditioner::kJacobi:
        for (std::size_t i = 0; i < n; ++i) z[i] = in(i) / jacobi_diag[i];
        break;
    }
  };

  // Bytes the solve streams, for the span's `bytes` attribute
  // (docs/observability.md). An iteration is two products with A, two
  // preconditioner applications and 19 vector streams in the fused updates
  // and dot products. An ILU0 application reads its split factor, writes z
  // and reads and rewrites it backward; a Jacobi one reads the diagonal and
  // writes z. A residual check is a pass over Q^T reading diag and the
  // candidate.
  const std::size_t vec_bytes = n * sizeof(double);
  const std::size_t precond_bytes =
      opts.precond == Preconditioner::kIlu0 ? ilu.pass_bytes() + 3 * vec_bytes
                                            : 2 * vec_bytes;
  const std::size_t iteration_bytes =
      2 * (a.pass_bytes() + 2 * vec_bytes) + 2 * precond_bytes +
      19 * vec_bytes;
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

  // Every vector is allocated here once: the products write into v and t.
  std::vector<double> x(n, 1.0 / static_cast<double>(n));  // uniform start
  std::vector<double> r(n), r0(n), candidate(n);
  std::vector<double> p(n, 0.0), v(n, 0.0), s(n), t(n);
  std::vector<double> phat(n), shat(n);
  // r = b - A x with r0 = r, and rho = r0 . r in the same pass; t holds A x
  // until the first product into it.
  a.multiply(x, t, lease.get());
  double rho_next = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    r[i] = (i == norm_row ? 1.0 : 0.0) - t[i];
    r0[i] = r[i];
    rho_next += r0[i] * r[i];
  }
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
  std::size_t it = 1;
  for (; it <= books.cap(); ++it) {
    iters_counter.add();
    books.add_bytes(iteration_bytes);
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
    apply_precond(
        [&](std::size_t i) {
          return p[i] = r[i] + beta * (p[i] - omega * v[i]);
        },
        phat);
    a.multiply(phat, v, lease.get());
    double r0v = 0.0;
    for (std::size_t i = 0; i < n; ++i) r0v += r0[i] * v[i];
    if (std::abs(r0v) < kBreakdown) {
      throw books.fail("breakdown (r0·v = 0) at iteration " +
                           std::to_string(it),
                       it);
    }
    alpha = rho_next / r0v;
    apply_precond([&](std::size_t i) { return s[i] = r[i] - alpha * v[i]; },
                  shat);
    a.multiply(shat, t, lease.get());
    double ts = 0.0, tt = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      ts += t[i] * s[i];
      tt += t[i] * t[i];
    }
    omega = tt > kBreakdown ? ts / tt : 0.0;
    // x and r step together; the next iteration's rho = r0 . r is summed
    // in the same pass, in the same ascending order as its own pass would.
    rho = rho_next;
    rho_next = 0.0;
    double rnorm = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += alpha * phat[i] + omega * shat[i];
      r[i] = s[i] - omega * t[i];
      rnorm = std::max(rnorm, std::abs(r[i]));
      rho_next += r0[i] * r[i];
    }
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
