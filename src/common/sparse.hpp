// Sparse matrix support for large state-space models.
//
// State-space solvers (CTMC steady-state via SOR, transient via
// uniformization) need only row-oriented access and matrix-vector products,
// so RelKit uses a plain CSR representation. It is assembled by one
// counting sort, CsrAssembler: count each row's entries, scatter them
// straight into the CSR arrays, then sort each row by column and sum its
// duplicates in place. SparseBuilder stages its add() calls and hands them
// to it; Ctmc's generators, transposed() and robust::uniformize, which can
// walk their entries twice, feed it directly and stage nothing. A caller
// that writes its rows sorted and unique (BiCGSTAB's normalized system)
// adopts them as checked CSR arrays instead.
//
// There is one product, y = A x, row-chunked on an optional
// parallel::ThreadPool: each y[r] sums its row in stored order in exactly
// one chunk, so every worker count gives the sequential bits
// (docs/parallelism.md). x A is that product on A^T, which callers build
// once per solve.
#pragma once

#include <cstddef>
#include <vector>

#include "common/error.hpp"

namespace relkit::parallel {
class ThreadPool;
}  // namespace relkit::parallel

namespace relkit {

/// Compressed sparse row matrix of double.
///
/// Built by CsrAssembler, directly or through SparseBuilder, or adopted as
/// CSR arrays through the checked constructor; either way, entries within a
/// row are sorted by column and unique.
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
  friend class CsrAssembler;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_;
  std::vector<std::size_t> cols_idx_;
  std::vector<double> values_;
};

/// Counting-sort CSR assembly, the one place the assembly rules live.
///
/// Call count(r) once per entry of row r (or count(r, k) for k of them),
/// then start(), then put() exactly the counted entries in add order, then
/// finish(). put() scatters each (column, value) straight to its row's next
/// slot in the CSR arrays. finish() sorts every row stably by column
/// (insertion sort up to kInsertionWidth entries, std::stable_sort above,
/// so a row of k entries costs O(k log k) at worst), sums each column's
/// duplicates from 0.0 in the order they were put, drops every sum equal to
/// 0 and compacts the rows in place. A put of 0 changes no sum, so it is
/// the same as leaving the entry out. The assembly is O(rows + nnz) plus
/// the row sorts, and its result is a function of the put() sequence alone.
/// A call out of that order throws InvalidArgument.
class CsrAssembler {
 public:
  /// Rows up to this many entries are insertion-sorted.
  static constexpr std::size_t kInsertionWidth = 32;

  CsrAssembler(std::size_t rows, std::size_t cols);

  /// Reserves k slots in row r.
  void count(std::size_t r, std::size_t k = 1) {
    detail::require(phase_ == Phase::kCounting && r < m_.rows_,
                    "CsrAssembler::count: after start() or row out of range");
    m_.row_ptr_[r + 1] += k;
  }
  /// Allocates the counted slots; puts may follow.
  void start();
  /// Writes (c, v) to row r's next slot. next_ has a slot per row only
  /// between start() and finish().
  void put(std::size_t r, std::size_t c, double v) {
    detail::require(r < next_.size() && c < m_.cols_ &&
                        next_[r] < m_.row_ptr_[r + 1],
                    "CsrAssembler::put: out of range, past the row's count "
                    "or outside start() .. finish()");
    const std::size_t k = next_[r]++;
    m_.cols_idx_[k] = c;
    m_.values_[k] = v;
  }
  /// Sorts, sums and compacts the rows; every counted slot must have been
  /// put. The assembler is spent afterwards.
  SparseMatrix finish();

 private:
  enum class Phase { kCounting, kPutting, kSpent };
  Phase phase_ = Phase::kCounting;
  SparseMatrix m_;
  /// next_[r]: row r's next free slot.
  std::vector<std::size_t> next_;
};

/// Staging assembler for SparseMatrix: collects add() calls in any order
/// and assembles them with CsrAssembler.
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

  /// Builds the CSR matrix under CsrAssembler's rules: columns ascend in a
  /// row, duplicates are summed in the order they were added, so the result
  /// is a function of the add() sequence alone (a matrix without duplicates
  /// does not depend on the order of add() calls at all), and entries whose
  /// sum is 0 are dropped. The builder can be reused afterwards (it is left
  /// empty).
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
