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
  // Rows are visited in ascending order, so every row of the transpose
  // comes out sorted.
  CsrAssembler a(cols_, rows_);
  for (const std::size_t c : cols_idx_) a.count(c);
  a.start();
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      a.put(cols_idx_[k], r, values_[k]);
    }
  }
  return a.finish();
}

CsrAssembler::CsrAssembler(std::size_t rows, std::size_t cols) {
  m_.rows_ = rows;
  m_.cols_ = cols;
  m_.row_ptr_.assign(rows + 1, 0);
}

void CsrAssembler::start() {
  detail::require(phase_ == Phase::kCounting,
                  "CsrAssembler::start: called twice or after finish()");
  phase_ = Phase::kPutting;
  // row_ptr_[r + 1] holds row r's count; the prefix sums make it row r's
  // end, and row r's slots begin at row_ptr_[r].
  for (std::size_t r = 0; r < m_.rows_; ++r) {
    m_.row_ptr_[r + 1] += m_.row_ptr_[r];
  }
  next_.assign(m_.row_ptr_.begin(), m_.row_ptr_.end() - 1);
  m_.cols_idx_.resize(m_.row_ptr_[m_.rows_]);
  m_.values_.resize(m_.row_ptr_[m_.rows_]);
}

namespace {

/// Sorts the k entries at (col, val) stably by column.
void sort_row(std::size_t* col, double* val, std::size_t k,
              std::vector<std::pair<std::size_t, double>>& wide) {
  if (k <= CsrAssembler::kInsertionWidth) {
    for (std::size_t i = 1; i < k; ++i) {
      const std::size_t c = col[i];
      const double v = val[i];
      std::size_t j = i;
      for (; j > 0 && col[j - 1] > c; --j) {
        col[j] = col[j - 1];
        val[j] = val[j - 1];
      }
      col[j] = c;
      val[j] = v;
    }
    return;
  }
  wide.resize(k);
  for (std::size_t i = 0; i < k; ++i) wide[i] = {col[i], val[i]};
  std::stable_sort(wide.begin(), wide.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  for (std::size_t i = 0; i < k; ++i) {
    col[i] = wide[i].first;
    val[i] = wide[i].second;
  }
}

}  // namespace

SparseMatrix CsrAssembler::finish() {
  detail::require(phase_ == Phase::kPutting,
                  "CsrAssembler::finish: before start() or called twice");
  phase_ = Phase::kSpent;
  const std::size_t rows = m_.rows_;
  std::size_t widest = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    detail::require(next_[r] == m_.row_ptr_[r + 1],
                    "CsrAssembler::finish: a row has unput slots");
    widest = std::max(widest, m_.row_ptr_[r + 1] - m_.row_ptr_[r]);
  }
  next_ = {};
  std::vector<std::pair<std::size_t, double>> wide;
  if (widest > kInsertionWidth) wide.reserve(widest);

  // Row r is read from its slots [begin, end) and written, summed, from
  // `out` on; out never passes begin, so the rows compact in place.
  std::size_t* const col = m_.cols_idx_.data();
  double* const val = m_.values_.data();
  std::size_t begin = 0;
  std::size_t out = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t end = m_.row_ptr_[r + 1];
    sort_row(col + begin, val + begin, end - begin, wide);
    for (std::size_t k = begin; k < end;) {
      const std::size_t c = col[k];
      double v = 0.0;
      for (; k < end && col[k] == c; ++k) v += val[k];
      if (v != 0.0) {
        col[out] = c;
        val[out] = v;
        ++out;
      }
    }
    m_.row_ptr_[r + 1] = out;
    begin = end;
  }
  m_.cols_idx_.resize(out);
  m_.values_.resize(out);
  return std::move(m_);
}

void SparseBuilder::add(std::size_t r, std::size_t c, double value) {
  detail::require(r < rows_ && c < cols_, "SparseBuilder::add: out of range");
  if (value == 0.0) return;
  triplets_.push_back({r, c, value});
}

SparseMatrix SparseBuilder::build() {
  CsrAssembler a(rows_, cols_);
  for (const Triplet& t : triplets_) a.count(t.r);
  a.start();
  for (const Triplet& t : triplets_) a.put(t.r, t.c, t.v);
  triplets_.clear();
  return a.finish();
}

}  // namespace relkit
