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

/// A preconditioner M = L U of the normalized system A, with its remainder
/// R = A - L U. L and U are stored split (Saad, *Iterative Methods for
/// Sparse Linear Systems*, 2nd ed., ch. 10), in the order the triangular
/// solves walk them: L's strictly-lower rows first to last (unit diagonal
/// implied), U's strictly-upper rows last to first, U's diagonal (the
/// pivots) in an array of its own, and 32-bit column indices. R is stored
/// like L: rows first to last, columns ascending. Each pass streams its
/// arrays front to back.
///
/// Since A = M + R, the preconditioned product is A M^{-1} p = p + R M^{-1} p
/// (Eisenstat's trick in its general form, SIAM J. Sci. Stat. Comput. 2(1),
/// 1981), so the solver multiplies by R, which holds only what the factor
/// drops, and never by A.
struct Factor {
  std::vector<std::size_t> l_ptr;  ///< row i of L: [l_ptr[i], l_ptr[i + 1])
  std::vector<std::uint32_t> l_col;
  std::vector<double> l_val;
  /// Row n - 1 - j of U, the j-th the backward solve visits, is
  /// [u_ptr[j], u_ptr[j + 1]).
  std::vector<std::size_t> u_ptr;
  std::vector<std::uint32_t> u_col;
  std::vector<double> u_val;
  std::vector<double> pivot;       ///< U(i, i)
  std::vector<std::size_t> r_ptr;  ///< row i of R: [r_ptr[i], r_ptr[i + 1])
  std::vector<std::uint32_t> r_col;
  std::vector<double> r_val;

  /// Bytes one application reads from L, U and the pivots, and one product
  /// reads from R (docs/observability.md).
  std::size_t apply_bytes() const {
    return (l_val.size() + u_val.size()) *
               (sizeof(double) + sizeof(std::uint32_t)) +
           (l_ptr.size() + u_ptr.size()) * sizeof(std::size_t) +
           pivot.size() * sizeof(double);
  }
  std::size_t product_bytes() const {
    return r_val.size() * (sizeof(double) + sizeof(std::uint32_t)) +
           r_ptr.size() * sizeof(std::size_t);
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

  /// y = b + R z, which is A z when z = M^{-1} b. `use(i, y[i])` sees each
  /// entry as it is written, so a dot product that reads y sums in the same
  /// pass, in ascending order.
  template <class Use>
  void product(const std::vector<double>& b, const std::vector<double>& z,
               std::vector<double>& y, const Use& use) const {
    const std::size_t n = pivot.size();
    for (std::size_t i = 0; i < n; ++i) {
      double acc = 0.0;
      for (std::size_t k = r_ptr[i]; k < r_ptr[i + 1]; ++k) {
        acc += r_val[k] * z[r_col[k]];
      }
      y[i] = b[i] + acc;
      use(i, y[i]);
    }
  }
};

/// A pivot below this magnitude is nudged to it (keeping its sign, + for 0)
/// instead of failing: the factor is only a preconditioner, and BiCGSTAB
/// verifies the true residual anyway.
constexpr double kTinyPivot = 1e-300;

bool tiny(double pivot) { return std::abs(pivot) < kTinyPivot; }

double nudged(double pivot) {
  if (!tiny(pivot)) return pivot;
  return pivot < 0.0 ? -kTinyPivot : kTinyPivot;
}

/// Incomplete LU with zero fill-in and its remainder. The IKJ sweep,
/// restricted to the pattern of `a`, writes L, U and the pivots straight
/// into split form: row i is factored in `w`, indexed through `pos`
/// (column -> slot in the row), against the finished U rows of earlier
/// pivots. An update whose target lies outside the row's pattern is
/// dropped; the sweep counts each row's distinct targets, which sizes R.
/// A second pass then sums each dropped update into R from the finished L
/// and U, in the order the sweep dropped them. A multiplier divides by the
/// nudged pivot and U keeps that pivot, so where a pivot was nudged, R also
/// holds the difference on the diagonal: A = L U + R for every multiplier.
Factor ilu0_factor(const SparseMatrix& a) {
  const std::size_t n = a.rows();
  detail::require(n <= std::numeric_limits<std::uint32_t>::max(),
                  "ilu0_factor: too many states for 32-bit column indices");
  // ILU0 keeps A's pattern, so the diagonal's place in each (ascending) row
  // sizes the row's L and U parts before any value is computed.
  Factor f;
  f.l_ptr.assign(n + 1, 0);
  f.u_ptr.assign(n + 1, 0);
  f.r_ptr.assign(n + 1, 0);
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
  std::vector<std::size_t> dropped(n, n);  // the last row dropping onto j
  std::size_t widest_r = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t begin = a.row_begin(i);
    const std::size_t width = a.row_end(i) - begin;
    const std::size_t lower = f.l_ptr[i + 1] - f.l_ptr[i];  // the pivot's slot
    for (std::size_t s = 0; s < width; ++s) {
      pos[a.col(begin + s)] = static_cast<std::ptrdiff_t>(s);
      w[s] = a.value(begin + s);
    }
    std::size_t r_row = 0;
    for (std::size_t s = 0; s < lower; ++s) {
      const std::size_t kcol = a.col(begin + s);
      const double lik = w[s] / nudged(f.pivot[kcol]);
      w[s] = lik;
      const std::size_t j = n - 1 - kcol;
      for (std::size_t k = f.u_ptr[j]; k < f.u_ptr[j + 1]; ++k) {
        const std::ptrdiff_t p = pos[f.u_col[k]];
        if (p >= 0) {
          w[static_cast<std::size_t>(p)] -= lik * f.u_val[k];
        } else if (dropped[f.u_col[k]] != i) {
          dropped[f.u_col[k]] = i;
          ++r_row;
        }
      }
    }
    std::size_t l = f.l_ptr[i];
    for (std::size_t s = 0; s < lower; ++s, ++l) {
      f.l_col[l] = static_cast<std::uint32_t>(a.col(begin + s));
      f.l_val[l] = w[s];
    }
    f.pivot[i] = w[lower];  // as factored; the second pass nudges it
    if (tiny(w[lower])) ++r_row;
    std::size_t u = f.u_ptr[n - 1 - i];
    for (std::size_t s = lower + 1; s < width; ++s, ++u) {
      f.u_col[u] = static_cast<std::uint32_t>(a.col(begin + s));
      f.u_val[u] = w[s];
    }
    for (std::size_t s = 0; s < width; ++s) pos[a.col(begin + s)] = -1;
    f.r_ptr[i + 1] = f.r_ptr[i] + r_row;
    widest_r = std::max(widest_r, r_row);
  }

  // R, row by row: pos marks the row's pattern with -2 and maps each dropped
  // target to its slot in `sum`; the columns are then sorted into place.
  f.r_col.resize(f.r_ptr[n]);
  f.r_val.resize(f.r_ptr[n]);
  std::vector<double> sum(widest_r);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t first = f.r_ptr[i];
    const std::size_t last = f.r_ptr[i + 1];
    if (first == last) continue;
    for (std::size_t k = a.row_begin(i); k < a.row_end(i); ++k) {
      pos[a.col(k)] = -2;
    }
    std::size_t out = first;
    for (std::size_t l = f.l_ptr[i]; l < f.l_ptr[i + 1]; ++l) {
      const std::size_t j = n - 1 - f.l_col[l];
      for (std::size_t k = f.u_ptr[j]; k < f.u_ptr[j + 1]; ++k) {
        std::ptrdiff_t& p = pos[f.u_col[k]];
        if (p == -2) continue;
        if (p == -1) {
          p = static_cast<std::ptrdiff_t>(out - first);
          sum[out - first] = 0.0;
          f.r_col[out++] = f.u_col[k];
        }
        sum[static_cast<std::size_t>(p)] -= f.l_val[l] * f.u_val[k];
      }
    }
    const double gap = f.pivot[i] - nudged(f.pivot[i]);
    if (tiny(f.pivot[i])) f.r_col[out] = static_cast<std::uint32_t>(i);
    f.pivot[i] = nudged(f.pivot[i]);
    std::sort(f.r_col.begin() + static_cast<std::ptrdiff_t>(first),
              f.r_col.begin() + static_cast<std::ptrdiff_t>(last));
    for (std::size_t k = first; k < last; ++k) {
      const std::uint32_t c = f.r_col[k];
      f.r_val[k] = c == i ? gap : sum[static_cast<std::size_t>(pos[c])];
    }
    for (std::size_t k = first; k < last; ++k) pos[f.r_col[k]] = -1;
    for (std::size_t k = a.row_begin(i); k < a.row_end(i); ++k) {
      pos[a.col(k)] = -1;
    }
  }
  return f;
}

}  // namespace

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

  // The preconditioner is factored from A, and A is needed for nothing else
  // (the products run on R, the residuals on Q^T), so it is freed before
  // the iteration vectors are allocated.
  const auto factor = [&] { return ilu0_factor(assemble()); };
  Factor m = factor();
  // ILU0's normalization-row pivot grows like 1 / pi of the state ordered
  // last; the row of ones has scale 1, so a pivot that is non-finite or
  // above 1/eps means that state carries almost no mass and the factor is
  // garbage. The reversed order puts the normalization on the state at the
  // other end of the band instead, and keeps the bandwidth.
  const bool reverse = !(std::abs(m.pivot[norm_row]) <=
                         1.0 / std::numeric_limits<double>::epsilon());
  span.set("reversed", reverse);
  if (reverse) {
    std::reverse(perm.begin(), perm.end());
    inv = invert_ordering(perm);
    m = Factor();  // freed first, so the refactor does not raise the peak
    m = factor();
  }
  span.set("factor_nnz", m.l_val.size() + m.u_val.size());
  span.set("remainder_nnz", m.r_val.size());

  // Bytes the solve streams, for the span's `bytes` attribute
  // (docs/observability.md). An iteration is two preconditioner
  // applications, two products on R and 22 vector streams in the fused
  // updates and dot products. An application reads L, U and the pivots,
  // writes z and reads and rewrites it backward. A residual check is a pass
  // over Q^T reading diag and the candidate; a residual reset is a pass over
  // Q^T through the permutation.
  const std::size_t vec_bytes = n * sizeof(double);
  const std::size_t iteration_bytes =
      2 * (m.apply_bytes() + 3 * vec_bytes + m.product_bytes()) +
      22 * vec_bytes;
  const std::size_t check_bytes = qt.pass_bytes() + 2 * vec_bytes;
  const std::size_t reset_bytes = qt.pass_bytes() + 6 * vec_bytes;
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
  // r = b - A x from Q^T's rows through the permutation (A(i, j) =
  // Q(perm[j], perm[i]); the last row is sum(x) = 1), with shadow . r summed
  // in the same pass, in ascending order. It starts the recurrence, with
  // r0 = r, and resets it.
  const auto reset_residual = [&](const std::vector<double>& shadow) {
    books.add_bytes(reset_bytes);
    double total = 0.0, dot = 0.0;
    for (std::size_t i = 0; i < norm_row; ++i) {
      const std::size_t old = perm[i];
      double ax = diag[old] * x[i];
      for (std::size_t k = qt.row_begin(old); k < qt.row_end(old); ++k) {
        ax += qt.value(k) * x[inv[qt.col(k)]];
      }
      r[i] = -ax;
      total += x[i];
      dot += shadow[i] * r[i];
    }
    r[norm_row] = 1.0 - (total + x[norm_row]);
    return dot + shadow[norm_row] * r[norm_row];
  };
  double rho_next = reset_residual(r);
  r0 = r;
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
    m.apply(
        [&](std::size_t i) {
          return p[i] = r[i] + beta * (p[i] - omega * v[i]);
        },
        phat);
    // v = A phat = p + R phat, with r0 . v in the same pass.
    double r0v = 0.0;
    m.product(p, phat, v, [&](std::size_t i, double vi) { r0v += r0[i] * vi; });
    if (std::abs(r0v) < kBreakdown) {
      throw books.fail("breakdown (r0·v = 0) at iteration " +
                           std::to_string(it),
                       it);
    }
    alpha = rho_next / r0v;
    m.apply([&](std::size_t i) { return s[i] = r[i] - alpha * v[i]; }, shat);
    // t = A shat = s + R shat, with t . s and t . t in the same pass.
    double ts = 0.0, tt = 0.0;
    m.product(s, shat, t, [&](std::size_t i, double ti) {
      ts += ti * s[i];
      tt += ti * ti;
    });
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
      // Every 32 iterations, a check that missed tol replaces the
      // recurrence's residual, which drifts from the true one in floating
      // point, by b - A x (van der Vorst and Ye, SIAM J. Sci. Comput. 22(3),
      // 2000).
      if (it % 32 == 0) rho_next = reset_residual(r0);
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
