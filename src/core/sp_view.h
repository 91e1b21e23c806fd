// The one read path for the characterization pair S/P (Eqs. 2 & 3): an m×n
// thread × core view over compact storage. View row r reads source row
// rows[r] of a row-major block of `stride` cells per row, and view column c
// reads cell cells[c] of that row.
//  - The characterization stores one cell per column group (core type ×
//    OPP), so a whole-platform view maps core j to cell group_of[j].
//  - A dense Matrix pair (tests, benches) is the identity case: one cell per
//    core, cells[c] = c.
//  - A shard is a row list plus a cell list into either; nothing is copied.
// Every balancing stage (SA, ObjectiveState, the exchange phase) reads S/P
// through this type and nothing else.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/matrix.h"

namespace sb::core {

class SpView {
 public:
  /// Dense pair: identity rows and cells. Throws std::invalid_argument if
  /// the shapes differ. The matrices must outlive the view.
  SpView(const Matrix& s, const Matrix& p) : SpView(s, p, nullptr, s.cols()) {}

  /// Compact pair: column c reads cell cells[c] of each row. Throws
  /// std::invalid_argument on a shape mismatch or a cell out of range. The
  /// matrices and `cells` must outlive the view.
  SpView(const Matrix& s, const Matrix& p,
         const std::vector<std::uint32_t>& cells)
      : SpView(s, p, cells.data(), cells.size()) {}

  /// Sub-view of this whole (identity-row) view: row r is this view's row
  /// rows[r], column c reads source cell cells[c] (see cell()). Both lists
  /// must outlive the result.
  SpView sub(const std::vector<std::size_t>& rows,
             const std::vector<std::uint32_t>& cells) const {
    assert(rows_ == nullptr);
    SpView v = *this;
    v.rows_ = rows.data();
    v.cells_ = cells.data();
    v.m_ = rows.size();
    v.n_ = cells.size();
    return v;
  }

  std::size_t rows() const { return m_; }
  std::size_t cols() const { return n_; }

  /// Source cell that column c reads within a row.
  std::size_t cell(std::size_t c) const { return cells_ ? cells_[c] : c; }

  double s(std::size_t r, std::size_t c) const {
    return s_[offset(r) + cell(c)];
  }
  double p(std::size_t r, std::size_t c) const {
    return p_[offset(r) + cell(c)];
  }

 private:
  SpView(const Matrix& s, const Matrix& p, const std::uint32_t* cells,
         std::size_t n)
      : s_(s.data()),
        p_(p.data()),
        stride_(s.cols()),
        cells_(cells),
        m_(s.rows()),
        n_(n) {
    if (p.rows() != s.rows() || p.cols() != s.cols()) {
      throw std::invalid_argument("SpView: S/P shape mismatch");
    }
    for (std::size_t c = 0; cells != nullptr && c < n; ++c) {
      if (cells[c] >= stride_) {
        throw std::invalid_argument("SpView: cell index out of range");
      }
    }
  }

  std::size_t offset(std::size_t r) const {
    return (rows_ ? rows_[r] : r) * stride_;
  }

  const double* s_;
  const double* p_;
  std::size_t stride_;
  const std::size_t* rows_ = nullptr;
  const std::uint32_t* cells_;
  std::size_t m_;
  std::size_t n_;
};

}  // namespace sb::core
