// Krylov-subspace stationary solver: ILU0-preconditioned BiCGSTAB on
// pi Q = 0.
//
// The tutorial's largeness problem in one sentence: availability models
// explode to 10^5..10^6 states, dense GTH is O(n^3), and stationary SOR
// needs a sweep count that grows with the chain diameter. BiCGSTAB is the
// standard Krylov answer for the unsymmetric singular system pi Q = 0: the
// singularity is removed by replacing one equation with the normalization
// sum(pi) = 1 (the replaced equation is redundant for an irreducible
// chain), giving a nonsingular sparse system solved with O(nnz) matvecs.
//
// The preconditioner is ILU0: incomplete LU on the matrix's own sparsity
// pattern, strong on banded/NCD chains and exact on a tridiagonal one,
// with O(nnz) setup. The factor M = L U is stored split, in the order the
// triangular solves walk it (L's rows first to last, U's rows last to
// first, the pivots apart, 32-bit columns), and factored straight into
// that form, with its remainder R = A - M (the fill ILU0 drops).
// Since A M^{-1} p = p + R M^{-1} p, each product with the preconditioned
// system is one pass over R (Eisenstat's trick in its general form), fused
// with the dot product that reads it, and A is kept only to factor: it is
// freed before the iterations start. Every 32 iterations the recurrence's
// residual, which drifts from the true one in floating point, is replaced
// by b - A x computed from Q^T (van der Vorst and Ye's residual
// replacement).
//
// The normalized system is written straight into CSR and every vector is
// allocated once per solve, so the iterations do not allocate
// (AllocGuard.BicgstabIterationsDoNotAllocate).
//
// A reverse Cuthill-McKee permutation (common/reorder.hpp) is applied
// before factoring/iterating and inverted on the result: bandwidth
// reduction improves both locality and the quality of the ILU0 pattern.
// The normalization row replaces the equation of the state ordered last;
// when its ILU0 pivot is non-finite or above 1/eps (that state carries
// almost no mass), the order is reversed and refactored, which keeps the
// bandwidth (docs/solvers.md). The contracts match the other iterative
// kernels, whose books (robust::SolveBooks) it shares: max_iters and the
// ambient deadline (robust::ScopedDeadline) are honored, progress is
// recorded into a ConvergenceTrace, and non-convergence throws
// robust::ConvergenceError carrying the best normalized iterate.
#pragma once

#include <cstddef>
#include <vector>

#include "common/sparse.hpp"
#include "robust/books.hpp"

namespace relkit {

/// Options for the BiCGSTAB stationary solver.
struct BicgstabOptions {
  /// Convergence target: max_i |(pi Q)_i| of the normalized iterate (the
  /// same verified residual the robust layer accepts on).
  double tol = 1e-10;
  std::size_t max_iters = 50000;
  /// Parallelism degree for the verified residual checks over Q^T. 0 = the
  /// process-wide parallel::default_jobs(); 1 = the calling thread only.
  /// The products, triangular solves and dot products run on the calling
  /// thread at any jobs (a product is one pass over the small remainder R,
  /// and a level-scheduled ILU0 would not pay, docs/parallelism.md), so
  /// results are identical across worker counts.
  unsigned jobs = 0;
};

/// Result of the BiCGSTAB stationary solve; `residual` is the verified
/// max|pi Q| of the returned iterate.
using BicgstabResult = robust::SteadyResult;

/// Stationary distribution of an irreducible CTMC given the *transposed*
/// generator in CSR form (row i of `qt` holds column i of Q, off-diagonal
/// entries; any accidental diagonal entries are folded into `diag`) and
/// the diagonal of Q (all entries < 0). Throws robust::ConvergenceError —
/// best normalized iterate + report with ConvergenceTrace — when the
/// iteration reaches max_iters, the ambient deadline expires, or the
/// iterate degenerates.
robust::SteadyResult bicgstab_steady_state(const SparseMatrix& qt,
                                           const std::vector<double>& diag,
                                           const BicgstabOptions& opts = {});

}  // namespace relkit
