// Linear solvers specialized for stationary analysis of Markov models.
//
// Two regimes, as in the tutorial's discussion of state-space methods:
//  * small/medium chains — GTH elimination (Grassmann-Taksar-Heyman), a
//    subtraction-free variant of Gaussian elimination that is numerically
//    exact for stochastic matrices;
//  * large sparse chains — successive over-relaxation (SOR) / Gauss-Seidel
//    sweeps on pi Q = 0 with periodic normalization.
//
// Iterative solvers stop at their own iteration cap (max_iters) and at the
// ambient deadline (robust::ScopedDeadline), keep their books through
// robust::SolveBooks, and on non-convergence throw robust::ConvergenceError
// carrying the best iterate and a SolveReport instead of discarding work.
// For automatic fallback between methods use robust::robust_steady_state.
#pragma once

#include <cstddef>
#include <vector>

#include "common/matrix.hpp"
#include "common/sparse.hpp"
#include "robust/books.hpp"

namespace relkit {

/// Stationary distribution of an irreducible CTMC from its dense generator Q
/// (rows sum to 0, off-diagonals >= 0), via GTH elimination. O(n^3), no
/// subtractions, stable for stiff chains.
std::vector<double> gth_steady_state(Matrix q);

/// Stationary distribution of an irreducible DTMC from its dense transition
/// probability matrix P (rows sum to 1), via GTH on Q = P - I.
std::vector<double> gth_steady_state_dtmc(const Matrix& p);

/// max_i |(pi Q)_i| for a candidate stationary vector, from the transposed
/// generator (row i of `qt` holds column i of Q, off-diagonal entries) and
/// the diagonal of Q: the residual the iterative kernels converge on and the
/// robust layer verifies with. Row-chunked on `pool` (nullptr = sequential);
/// each row accumulates in fixed order and the chunk maxima fold in
/// chunk-index order, so the value is independent of the worker count.
double steady_state_residual(const SparseMatrix& qt,
                             const std::vector<double>& diag,
                             const std::vector<double>& pi,
                             parallel::ThreadPool* pool = nullptr);

/// Options for the iterative stationary solver.
struct SorOptions {
  double omega = 1.0;        ///< Relaxation factor; 1.0 = Gauss-Seidel.
  double tol = 1e-12;        ///< Convergence: max |pi Q| componentwise.
  std::size_t max_iters = 200000;
  bool adaptive_omega = true;  ///< Probe omega in [1.0, 1.9] while iterating.
  /// Parallelism degree for the residual evaluation (the Gauss-Seidel
  /// sweep itself is inherently sequential; the residual is a Jacobi-style
  /// pass over fixed pi, so its rows chunk freely). 0 = the process-wide
  /// parallel::default_jobs(); 1 = force sequential.
  unsigned jobs = 0;
};

/// Stationary distribution of an irreducible CTMC given the *transposed*
/// generator in CSR form (row i of `qt` holds column i of Q, off-diagonal
/// entries only) and the diagonal of Q. Throws robust::ConvergenceError —
/// carrying the best iterate and a report — if the iteration does not reach
/// tol within max_iters sweeps or before the ambient deadline, or if the
/// iterate becomes non-finite.
robust::SteadyResult sor_steady_state(const SparseMatrix& qt,
                                      const std::vector<double>& diag,
                                      const SorOptions& opts = {});

/// Options for power iteration on a DTMC.
struct PowerOptions {
  double tol = 1e-13;
  std::size_t max_iters = 500000;
  /// Damping: pi <- (1-theta) pi + theta pi P breaks periodicity
  /// (theta in (0, 1]).
  double theta = 0.9;
  /// Parallelism degree for the per-step vector-matrix product (a
  /// row-parallel product on P^T, so every value gives the same bits).
  /// 0 = parallel::default_jobs(); 1 = force sequential.
  unsigned jobs = 0;
};

/// Power iteration for the stationary vector of a DTMC in CSR form. Its
/// `residual` is the max-norm change between the last two iterates.
/// Throws robust::ConvergenceError (best iterate + report) on failure.
robust::SteadyResult power_steady_state(const SparseMatrix& p,
                                        const PowerOptions& opts = {});

}  // namespace relkit
