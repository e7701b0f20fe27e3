// Courtois/Takahashi aggregation-disaggregation for NCD chains.
//
// Availability models are often *near-completely decomposable* (NCD): fast
// intra-subsystem dynamics (local failure/repair churn) coupled by rare
// inter-subsystem events. Courtois showed such chains split into blocks
// whose internal dynamics equilibrate almost independently, with a small
// aggregate chain moving probability between blocks; the error of treating
// them exactly so is O(epsilon), the maximum inter-block coupling
// probability. Takahashi's iterative aggregation-disaggregation (A/D)
// turns the approximation into an exact solver: alternate an aggregate
// B-state solve (B = number of blocks, dense GTH) with per-block censored
// solves (dense LU on each block), converging in a handful of sweeps when
// epsilon is small — regardless of the total state count.
//
// The detector partitions states by union-find over "strong" edges
// (embedded-jump probability >= threshold) and reports epsilon so the
// robust fallback chain can decide whether A/D is worth attempting.
#pragma once

#include <cstddef>
#include <vector>

#include "common/sparse.hpp"
#include "robust/books.hpp"

namespace relkit::robust {

/// Result of NCD block detection.
struct NcdPartition {
  std::vector<std::size_t> block_of;  ///< block index per state
  std::size_t blocks = 0;             ///< number of blocks
  std::size_t max_block_size = 0;     ///< largest block (dense solve size)
  /// Decomposability parameter: max over states of the total embedded-jump
  /// probability leaving the state's block. Small (<~0.1) means NCD and
  /// A/D converges in a few sweeps; near 1 means the partition is noise.
  double coupling = 0.0;
};

/// Options for NCD detection and the A/D solver.
struct AdOptions {
  /// Edges with embedded-jump probability rate/|diag| >= this are "strong"
  /// and keep their endpoints in one block.
  double coupling_threshold = 0.05;
  /// Convergence target: max_i |(pi Q)_i| of the normalized iterate.
  double tol = 1e-10;
  std::size_t max_sweeps = 200;
  unsigned jobs = 0;  ///< matvec parallelism; 0 = process default
};

/// Partition the chain into NCD blocks: union-find over edges whose
/// embedded-jump probability meets `coupling_threshold`. `qt` is the
/// transposed generator (row i = column i of Q, off-diagonal), `diag` the
/// diagonal of Q (all < 0). Also publishes the markov.ncd.blocks gauge.
NcdPartition detect_ncd_blocks(const SparseMatrix& qt,
                               const std::vector<double>& diag,
                               double coupling_threshold);

/// Stationary distribution by Takahashi iterative aggregation-
/// disaggregation using `partition` (from detect_ncd_blocks). Each sweep
/// solves the B-block coupling chain by dense GTH, then each block's
/// censored system by dense LU (block Gauss-Seidel order), so memory is
/// O(max_block_size^2 + B^2). Its `iterations` count sweeps. Honors
/// max_sweeps, the ambient deadline and the ConvergenceTrace contract;
/// throws ConvergenceError with the best normalized iterate on
/// non-convergence. Requires partition.blocks >= 2.
SteadyResult ad_steady_state(const SparseMatrix& qt,
                             const std::vector<double>& diag,
                             const NcdPartition& partition,
                             const AdOptions& opts = {});

}  // namespace relkit::robust
