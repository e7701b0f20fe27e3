#include "common/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "obs/obs.hpp"
#include "parallel/pool.hpp"

namespace relkit {

SparseMatrix::SparseMatrix(std::size_t rows, std::size_t cols,
                           std::vector<std::size_t> row_ptr,
                           std::vector<std::size_t> col_idx,
                           std::vector<double> values)
    : rows_(rows),
      cols_(cols),
      row_ptr_(std::move(row_ptr)),
      cols_idx_(std::move(col_idx)),
      values_(std::move(values)) {
  detail::require(row_ptr_.size() == rows_ + 1,
                  "SparseMatrix: row_ptr needs rows + 1 entries");
  detail::require(values_.size() == cols_idx_.size(),
                  "SparseMatrix: col_idx and values differ in length");
  detail::require(row_ptr_[0] == 0 && row_ptr_[rows_] == cols_idx_.size(),
                  "SparseMatrix: row_ptr must run from 0 to the entry count");
  for (std::size_t r = 0; r < rows_; ++r) {
    detail::require(row_ptr_[r] <= row_ptr_[r + 1],
                    "SparseMatrix: row_ptr decreases");
  }
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      detail::require(cols_idx_[k] < cols_,
                      "SparseMatrix: column index out of range");
      detail::require(k == row_ptr_[r] || cols_idx_[k - 1] < cols_idx_[k],
                      "SparseMatrix: columns must strictly ascend in a row");
    }
  }
}

std::vector<double> SparseMatrix::multiply(const std::vector<double>& x,
                                           parallel::ThreadPool* pool) const {
  std::vector<double> y(rows_, 0.0);
  multiply(x, y, pool);
  return y;
}

void SparseMatrix::multiply(const std::vector<double>& x,
                            std::vector<double>& y,
                            parallel::ThreadPool* pool) const {
  detail::require(x.size() == cols_, "SparseMatrix::multiply: size mismatch");
  detail::require(&x != &y, "SparseMatrix::multiply: y aliases x");
  y.resize(rows_);
  // y[r] is written by exactly one chunk and accumulates its row in stored
  // order, so the chunked product is the sequential one bit for bit.
  const auto rows = [&](std::size_t begin, std::size_t end) {
    for (std::size_t r = begin; r < end; ++r) {
      double acc = 0.0;
      for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
        acc += values_[k] * x[cols_idx_[k]];
      }
      y[r] = acc;
    }
  };
  if (pool == nullptr || pool->jobs() <= 1) {
    rows(0, rows_);
    return;
  }

  obs::Span span("markov.matvec");
  span.set("rows", rows_);
  span.set("nnz", nnz());
  span.set("bytes", pass_bytes() + (rows_ + cols_) * sizeof(double));
  span.set("jobs", static_cast<std::uint64_t>(pool->jobs()));
  pool->for_chunks(rows_, parallel::default_chunk(rows_), rows);
}

bool SparseMatrix::all_finite() const {
  for (const double v : values_) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

double SparseMatrix::max_abs() const {
  double worst = 0.0;
  for (const double v : values_) worst = std::max(worst, std::abs(v));
  return worst;
}

double SparseMatrix::at(std::size_t r, std::size_t c) const {
  detail::require(r < rows_ && c < cols_, "SparseMatrix::at: out of range");
  const auto first = cols_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[r]);
  const auto last = cols_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[r + 1]);
  const auto it = std::lower_bound(first, last, c);
  if (it == last || *it != c) return 0.0;
  return values_[static_cast<std::size_t>(it - cols_idx_.begin())];
}

SparseMatrix SparseMatrix::transposed() const {
  SparseBuilder b(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      b.add(cols_idx_[k], r, values_[k]);
    }
  }
  return b.build();
}

void SparseBuilder::add(std::size_t r, std::size_t c, double value) {
  detail::require(r < rows_ && c < cols_, "SparseBuilder::add: out of range");
  if (value == 0.0) return;
  triplets_.push_back({r, c, value});
}

SparseMatrix SparseBuilder::build() {
  // Bucket the triplets by row (counting sort): start[r] .. start[r + 1]
  // lists row r's triplet indices in insertion order.
  const std::size_t nnz = triplets_.size();
  std::vector<std::size_t> start(rows_ + 1, 0);
  for (const Triplet& t : triplets_) ++start[t.r + 1];
  for (std::size_t r = 0; r < rows_; ++r) start[r + 1] += start[r];
  std::vector<std::size_t> order(nnz);
  for (std::size_t i = 0; i < nnz; ++i) order[start[triplets_[i].r]++] = i;
  // The scatter advanced start[r] to the old start[r + 1]; shift it back.
  for (std::size_t r = rows_; r > 0; --r) start[r] = start[r - 1];
  start[0] = 0;

  SparseMatrix m;
  m.rows_ = rows_;
  m.cols_ = cols_;
  m.row_ptr_.assign(rows_ + 1, 0);
  m.cols_idx_.reserve(nnz);
  m.values_.reserve(nnz);
  // Columns ascend within a row; ties keep insertion order (indices are
  // unique), so duplicates are summed in the order they were added.
  const auto by_column = [this](std::size_t a, std::size_t b) {
    return triplets_[a].c != triplets_[b].c ? triplets_[a].c < triplets_[b].c
                                            : a < b;
  };
  for (std::size_t r = 0; r < rows_; ++r) {
    const auto first = order.begin() + static_cast<std::ptrdiff_t>(start[r]);
    const auto last = order.begin() + static_cast<std::ptrdiff_t>(start[r + 1]);
    std::sort(first, last, by_column);
    for (auto it = first; it != last;) {
      const std::size_t c = triplets_[*it].c;
      double v = 0.0;
      for (; it != last && triplets_[*it].c == c; ++it) v += triplets_[*it].v;
      if (v != 0.0) {
        m.cols_idx_.push_back(c);
        m.values_.push_back(v);
      }
    }
    m.row_ptr_[r + 1] = m.values_.size();
  }
  triplets_.clear();
  return m;
}

}  // namespace relkit
