// Sparse matrix support for large state-space models.
//
// State-space solvers (CTMC steady-state via SOR, transient via
// uniformization) need only row-oriented access and matrix-vector products,
// so RelKit uses a plain CSR representation, assembled from triplets or,
// by a caller that writes its rows in order, adopted as checked CSR arrays.
//
// There is one product, y = A x, row-chunked on an optional
// parallel::ThreadPool: each y[r] sums its row in stored order in exactly
// one chunk, so every worker count gives the sequential bits
// (docs/parallelism.md). x A is that product on A^T, which callers build
// once per solve.
#pragma once

#include <cstddef>
#include <vector>

namespace relkit::parallel {
class ThreadPool;
}  // namespace relkit::parallel

namespace relkit {

/// Compressed sparse row matrix of double.
///
/// Build with SparseBuilder, or adopt CSR arrays through the checked
/// constructor; either way, entries within a row are sorted by column and
/// unique.
class SparseMatrix {
 public:
  SparseMatrix() = default;

  /// Adopts CSR arrays after one O(rows + nnz) check, with no triplet
  /// staging: `row_ptr` has rows + 1 entries, starts at 0, never decreases
  /// and ends at the entry count; `col_idx` and `values` hold one entry per
  /// stored entry; within a row the columns are below `cols` and strictly
  /// ascend (so no duplicates). Throws InvalidArgument otherwise. Stored
  /// zeros are kept as given.
  SparseMatrix(std::size_t rows, std::size_t cols,
               std::vector<std::size_t> row_ptr,
               std::vector<std::size_t> col_idx, std::vector<double> values);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return values_.size(); }

  /// Bytes one pass over the stored CSR reads: a value and a column index
  /// per entry plus the row pointers. The kernels add the vectors they
  /// stream to price their `bytes` span attribute (docs/observability.md).
  std::size_t pass_bytes() const {
    return nnz() * (sizeof(double) + sizeof(std::size_t)) +
           (rows_ + 1) * sizeof(std::size_t);
  }

  /// Row r occupies [row_begin(r), row_end(r)) in col()/value().
  std::size_t row_begin(std::size_t r) const { return row_ptr_[r]; }
  std::size_t row_end(std::size_t r) const { return row_ptr_[r + 1]; }
  std::size_t col(std::size_t k) const { return cols_idx_[k]; }
  double value(std::size_t k) const { return values_[k]; }
  double& value(std::size_t k) { return values_[k]; }

  /// y = A x (returns y), row-chunked on `pool` when it has more than one
  /// worker; pool == nullptr runs sequentially. Same bits either way.
  std::vector<double> multiply(const std::vector<double>& x,
                               parallel::ThreadPool* pool = nullptr) const;

  /// y = A x into `y`, resized to rows(); `y` must not be `x`. Loops that
  /// step a vector swap two such buffers instead of allocating per product.
  void multiply(const std::vector<double>& x, std::vector<double>& y,
                parallel::ThreadPool* pool = nullptr) const;

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
  /// Room for `entries` add() calls without reallocating: a caller that
  /// knows its entry count skips the growth copies and their fresh pages.
  void reserve(std::size_t entries) { triplets_.reserve(entries); }

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
