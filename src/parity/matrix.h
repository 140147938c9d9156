#ifndef LHRS_PARITY_MATRIX_H_
#define LHRS_PARITY_MATRIX_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/result.h"
#include "common/status.h"
#include "gf/gf.h"

namespace lhrs {

/// Dense matrix over a Galois field. Used for the Reed-Solomon generator
/// matrix and the per-recovery decode matrices; these are tiny (m+k <= a few
/// dozen), so a straightforward row-major vector is the right representation.
template <GaloisField F>
class Matrix {
 public:
  using Symbol = typename F::Symbol;

  Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0) {}

  static Matrix Identity(size_t n) {
    Matrix m(n, n);
    for (size_t i = 0; i < n; ++i) m.Set(i, i, 1);
    return m;
  }

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  Symbol At(size_t r, size_t c) const {
    LHRS_CHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  void Set(size_t r, size_t c, Symbol v) {
    LHRS_CHECK(r < rows_ && c < cols_);
    data_[r * cols_ + c] = v;
  }

  /// Matrix product this * other.
  Matrix Mul(const Matrix& other) const {
    LHRS_CHECK_EQ(cols_, other.rows_);
    Matrix out(rows_, other.cols_);
    for (size_t i = 0; i < rows_; ++i) {
      for (size_t j = 0; j < other.cols_; ++j) {
        Symbol acc = 0;
        for (size_t t = 0; t < cols_; ++t) {
          acc = F::Add(acc, F::Mul(At(i, t), other.At(t, j)));
        }
        out.Set(i, j, acc);
      }
    }
    return out;
  }

  /// Gauss-Jordan inversion. Fails with InvalidArgument when singular —
  /// for an MDS generator matrix this never happens on decode submatrices,
  /// and the tests rely on that.
  Result<Matrix> Inverted() const {
    LHRS_CHECK_EQ(rows_, cols_);
    const size_t n = rows_;
    Matrix a = *this;
    Matrix inv = Identity(n);
    for (size_t col = 0; col < n; ++col) {
      // Find a pivot row.
      size_t pivot = col;
      while (pivot < n && a.At(pivot, col) == 0) ++pivot;
      if (pivot == n) {
        return Status::InvalidArgument("matrix is singular");
      }
      if (pivot != col) {
        a.SwapRows(pivot, col);
        inv.SwapRows(pivot, col);
      }
      // Scale the pivot row to make the pivot 1.
      const Symbol p = a.At(col, col);
      const Symbol pinv = F::Inv(p);
      a.ScaleRow(col, pinv);
      inv.ScaleRow(col, pinv);
      // Eliminate the column everywhere else.
      for (size_t r = 0; r < n; ++r) {
        if (r == col) continue;
        const Symbol f = a.At(r, col);
        if (f == 0) continue;
        a.AddScaledRow(r, col, f);
        inv.AddScaledRow(r, col, f);
      }
    }
    return inv;
  }

  /// Determinant via Gaussian elimination (used by MDS-property tests).
  Symbol Determinant() const {
    LHRS_CHECK_EQ(rows_, cols_);
    const size_t n = rows_;
    Matrix a = *this;
    Symbol det = 1;
    for (size_t col = 0; col < n; ++col) {
      size_t pivot = col;
      while (pivot < n && a.At(pivot, col) == 0) ++pivot;
      if (pivot == n) return 0;
      if (pivot != col) a.SwapRows(pivot, col);  // Swap negates; char 2: no-op.
      const Symbol p = a.At(col, col);
      det = F::Mul(det, p);
      const Symbol pinv = F::Inv(p);
      a.ScaleRow(col, pinv);
      for (size_t r = col + 1; r < n; ++r) {
        const Symbol f = a.At(r, col);
        if (f != 0) a.AddScaledRow(r, col, f);
      }
    }
    return det;
  }

  /// Returns the submatrix with the given rows and columns (for MDS checks).
  Matrix Submatrix(const std::vector<size_t>& rows,
                   const std::vector<size_t>& cols) const {
    Matrix out(rows.size(), cols.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      for (size_t j = 0; j < cols.size(); ++j) {
        out.Set(i, j, At(rows[i], cols[j]));
      }
    }
    return out;
  }

  bool operator==(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_ &&
           data_ == other.data_;
  }

  std::string ToString() const {
    std::string out;
    for (size_t i = 0; i < rows_; ++i) {
      for (size_t j = 0; j < cols_; ++j) {
        out += std::to_string(static_cast<uint64_t>(At(i, j)));
        out += (j + 1 == cols_) ? '\n' : ' ';
      }
    }
    return out;
  }

 private:
  void SwapRows(size_t r1, size_t r2) {
    for (size_t c = 0; c < cols_; ++c) {
      std::swap(data_[r1 * cols_ + c], data_[r2 * cols_ + c]);
    }
  }
  void ScaleRow(size_t r, Symbol f) {
    for (size_t c = 0; c < cols_; ++c) {
      data_[r * cols_ + c] = F::Mul(data_[r * cols_ + c], f);
    }
  }
  /// row[dst] += f * row[src] (in characteristic 2, += is XOR).
  void AddScaledRow(size_t dst, size_t src, Symbol f) {
    for (size_t c = 0; c < cols_; ++c) {
      data_[dst * cols_ + c] =
          F::Add(data_[dst * cols_ + c], F::Mul(f, data_[src * cols_ + c]));
    }
  }

  size_t rows_;
  size_t cols_;
  std::vector<Symbol> data_;
};

}  // namespace lhrs

#endif  // LHRS_PARITY_MATRIX_H_
