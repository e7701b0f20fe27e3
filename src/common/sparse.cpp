#include "common/sparse.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "obs/hw_counters.hpp"
#include "obs/obs.hpp"
#include "parallel/pool.hpp"

namespace relkit {

std::vector<double> SparseMatrix::multiply(const std::vector<double>& x) const {
  detail::require(x.size() == cols_, "SparseMatrix::multiply: size mismatch");
  std::vector<double> y(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      acc += values_[k] * x[cols_idx_[k]];
    }
    y[r] = acc;
  }
  return y;
}

std::vector<double> SparseMatrix::multiply_left(
    const std::vector<double>& x) const {
  detail::require(x.size() == rows_,
                  "SparseMatrix::multiply_left: size mismatch");
  std::vector<double> y(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double xr = x[r];
    if (xr == 0.0) continue;
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      y[cols_idx_[k]] += xr * values_[k];
    }
  }
  return y;
}

std::vector<double> SparseMatrix::multiply(const std::vector<double>& x,
                                           parallel::ThreadPool* pool) const {
  if (pool == nullptr || pool->jobs() <= 1) return multiply(x);
  detail::require(x.size() == cols_, "SparseMatrix::multiply: size mismatch");

  obs::Span span("markov.matvec");
  obs::HwCounterGroup hw_counters(span);
  span.set("rows", rows_);
  span.set("nnz", nnz());
  span.set("jobs", static_cast<std::uint64_t>(pool->jobs()));
  span.set("kind", "right");

  // Row-parallel: y[r] is written by exactly one chunk and every in-row
  // accumulation keeps the sequential order, so the product is bit-identical
  // to the pool-free path for any worker count.
  std::vector<double> y(rows_, 0.0);
  pool->for_chunks(rows_, parallel::default_chunk(rows_),
                   [&](std::size_t begin, std::size_t end) {
                     for (std::size_t r = begin; r < end; ++r) {
                       double acc = 0.0;
                       for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1];
                            ++k) {
                         acc += values_[k] * x[cols_idx_[k]];
                       }
                       y[r] = acc;
                     }
                   });
  return y;
}

std::vector<double> SparseMatrix::multiply_left(
    const std::vector<double>& x, parallel::ThreadPool* pool) const {
  if (pool == nullptr || pool->jobs() <= 1) return multiply_left(x);
  detail::require(x.size() == rows_,
                  "SparseMatrix::multiply_left: size mismatch");

  obs::Span span("markov.matvec");
  obs::HwCounterGroup hw_counters(span);
  span.set("rows", rows_);
  span.set("nnz", nnz());
  span.set("jobs", static_cast<std::uint64_t>(pool->jobs()));
  span.set("kind", "left");

  // Scatter product: each chunk accumulates into a private vector; partials
  // merge in chunk-index order, which replays the sequential per-entry
  // accumulation order (rows ascend within a chunk and across chunks).
  return parallel::reduce_chunks<std::vector<double>>(
      *pool, rows_, parallel::default_chunk(rows_),
      std::vector<double>(cols_, 0.0),
      [&](std::size_t begin, std::size_t end) {
        std::vector<double> part(cols_, 0.0);
        for (std::size_t r = begin; r < end; ++r) {
          const double xr = x[r];
          if (xr == 0.0) continue;
          for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
            part[cols_idx_[k]] += xr * values_[k];
          }
        }
        return part;
      },
      [](std::vector<double>& acc, const std::vector<double>& part) {
        for (std::size_t c = 0; c < acc.size(); ++c) acc[c] += part[c];
      });
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

std::vector<std::vector<double>> SparseMatrix::to_dense() const {
  std::vector<std::vector<double>> d(rows_, std::vector<double>(cols_, 0.0));
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      d[r][cols_idx_[k]] += values_[k];
    }
  }
  return d;
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
