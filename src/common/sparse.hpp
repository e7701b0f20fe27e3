// Sparse matrix support for large state-space models.
//
// State-space solvers (CTMC steady-state via SOR, transient via
// uniformization) need only row-oriented access and matrix-vector products,
// so RelKit uses a plain CSR representation assembled from triplets.
//
// The matvec products accept an optional parallel::ThreadPool and then run
// row-chunked on it. Determinism contract (docs/parallelism.md): a null
// pool (or a 1-job pool) is the verbatim historical sequential loop, and
// any worker count produces the same result because chunk boundaries
// depend only on the row count and per-chunk partials merge in chunk-index
// order.
#pragma once

#include <cstddef>
#include <vector>

namespace relkit::parallel {
class ThreadPool;
}  // namespace relkit::parallel

namespace relkit {

/// Compressed sparse row matrix of double.
///
/// Build with SparseBuilder; entries within a row are sorted by column and
/// duplicates are summed in insertion order.
class SparseMatrix {
 public:
  SparseMatrix() = default;

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return values_.size(); }

  /// Row r occupies [row_begin(r), row_end(r)) in col()/value().
  std::size_t row_begin(std::size_t r) const { return row_ptr_[r]; }
  std::size_t row_end(std::size_t r) const { return row_ptr_[r + 1]; }
  std::size_t col(std::size_t k) const { return cols_idx_[k]; }
  double value(std::size_t k) const { return values_[k]; }
  double& value(std::size_t k) { return values_[k]; }

  /// y = A x  (returns y).
  std::vector<double> multiply(const std::vector<double>& x) const;

  /// y = x A  (row vector times matrix; the natural product for probability
  /// vectors over a generator/transition matrix).
  std::vector<double> multiply_left(const std::vector<double>& x) const;

  /// y = A x, row-chunked on `pool` (each output entry is produced by
  /// exactly one chunk, so the result is bit-identical to the sequential
  /// product for every worker count). pool == nullptr runs sequentially.
  std::vector<double> multiply(const std::vector<double>& x,
                               parallel::ThreadPool* pool) const;

  /// y = x A on `pool`: each row chunk scatters into a private partial
  /// vector and the partials are summed in chunk-index order, which
  /// reproduces the sequential accumulation order per output entry.
  /// pool == nullptr runs sequentially (the historical loop, verbatim).
  std::vector<double> multiply_left(const std::vector<double>& x,
                                    parallel::ThreadPool* pool) const;

  /// Entry (r, c), or 0 if absent (binary search within the row).
  double at(std::size_t r, std::size_t c) const;

  /// Transposed copy (CSR of A^T).
  SparseMatrix transposed() const;

  /// True when every stored value is finite (no NaN/Inf). Used by the
  /// robustness layer to reject corrupted generators before solving.
  bool all_finite() const;

  /// Largest absolute stored value (0 for an empty matrix); the natural
  /// rate scale for residual acceptance thresholds.
  double max_abs() const;

  /// Dense copy (tests / small direct solves).
  std::vector<std::vector<double>> to_dense() const;

 private:
  friend class SparseBuilder;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_;
  std::vector<std::size_t> cols_idx_;
  std::vector<double> values_;
};

/// Triplet assembler for SparseMatrix.
class SparseBuilder {
 public:
  SparseBuilder(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols) {}

  /// Accumulates `value` at (r, c); duplicates are summed at build time.
  void add(std::size_t r, std::size_t c, double value);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  /// Builds the CSR matrix: triplets are bucketed by row (a counting sort,
  /// O(nnz + rows)), then each row's k entries are comparison-sorted by
  /// column (O(k log k) per row). Duplicates are summed in the order they
  /// were added, so the result is a function of the add() sequence alone; a
  /// matrix without duplicates does not depend on the order of add() calls
  /// at all. Entries with |value| == 0 after summing are dropped. The
  /// builder can be reused afterwards (it is left empty).
  SparseMatrix build();

 private:
  struct Triplet {
    std::size_t r, c;
    double v;
  };
  std::size_t rows_, cols_;
  std::vector<Triplet> triplets_;
};

}  // namespace relkit
