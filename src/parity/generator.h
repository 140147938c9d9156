#ifndef LHRS_PARITY_GENERATOR_H_
#define LHRS_PARITY_GENERATOR_H_

#include <cstddef>

#include "common/result.h"
#include "parity/matrix.h"

namespace lhrs {

/// Builds the m x k parity-coefficient matrix P of the systematic LH*RS
/// code. The full generator is G = [I_m | P]; the code is MDS (any m of the
/// m+k codeword symbols reconstruct the group) iff every square submatrix of
/// P is nonsingular.
///
/// Construction (the one the LH*RS line of work settled on): start from the
/// Cauchy matrix C[i][j] = 1 / (x_i + y_j) with all x_i, y_j distinct —
/// every square submatrix of a Cauchy matrix is nonsingular — then scale
/// each row so column 0 becomes all ones and each column so row 0 becomes
/// all ones. Row/column scaling by non-zero constants preserves submatrix
/// nonsingularity, and the all-ones first column turns the first parity
/// bucket into a plain XOR bucket: 1-availability at LH*g price, with the
/// Reed-Solomon machinery only paying for k > 1.
///
/// Requires m + k <= F::kOrder. Fails with InvalidArgument otherwise.
template <GaloisField F>
Result<Matrix<F>> BuildParityMatrix(size_t m, size_t k) {
  if (m == 0 || k == 0) {
    return Status::InvalidArgument("parity matrix needs m >= 1 and k >= 1");
  }
  if (m + k > F::kOrder) {
    return Status::InvalidArgument(
        "group size m + availability k exceeds field order");
  }
  using Symbol = typename F::Symbol;
  Matrix<F> p(m, k);
  // x_i = i for data rows, y_j = m + j for parity columns: all distinct, so
  // x_i ^ y_j != 0 always holds in a binary field.
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < k; ++j) {
      const Symbol x = static_cast<Symbol>(i);
      const Symbol y = static_cast<Symbol>(m + j);
      p.Set(i, j, F::Inv(F::Add(x, y)));
    }
  }
  // Normalise rows: divide row i by its column-0 entry.
  for (size_t i = 0; i < m; ++i) {
    const Symbol f = F::Inv(p.At(i, 0));
    for (size_t j = 0; j < k; ++j) p.Set(i, j, F::Mul(p.At(i, j), f));
  }
  // Normalise columns: divide column j by its row-0 entry.
  for (size_t j = 0; j < k; ++j) {
    const Symbol f = F::Inv(p.At(0, j));
    for (size_t i = 0; i < m; ++i) p.Set(i, j, F::Mul(p.At(i, j), f));
  }
  return p;
}

/// The naive textbook construction P[i][j] = alpha^(i*j): a Vandermonde-
/// style matrix appended to the identity. This does NOT yield an MDS code
/// for all (m, k) — kept as the ablation target showing why LH*RS needs the
/// Cauchy-derived matrix (see tests/rs_test.cc).
template <GaloisField F>
Matrix<F> BuildNaiveVandermondeParity(size_t m, size_t k) {
  Matrix<F> p(m, k);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < k; ++j) {
      p.Set(i, j, F::Exp(static_cast<uint32_t>(i * j)));
    }
  }
  return p;
}

/// Exhaustively verifies the MDS property of a parity matrix: every square
/// submatrix (all sizes, all row/column subsets) must be nonsingular.
/// Exponential in min(m, k); intended for tests with small k.
template <GaloisField F>
bool IsMdsParityMatrix(const Matrix<F>& p);

// Implementation details only below here.

namespace rs_internal {

/// Enumerates all size-`want` subsets of [0, n) into `out`, invoking `fn` on
/// each complete subset. Returns false early if `fn` returns false.
template <typename Fn>
bool ForEachSubset(size_t n, size_t want, std::vector<size_t>& out, Fn&& fn,
                   size_t start = 0) {
  if (out.size() == want) return fn(out);
  for (size_t v = start; v < n; ++v) {
    out.push_back(v);
    if (!ForEachSubset(n, want, out, fn, v + 1)) return false;
    out.pop_back();
  }
  return true;
}

}  // namespace rs_internal

template <GaloisField F>
bool IsMdsParityMatrix(const Matrix<F>& p) {
  const size_t max_size = std::min(p.rows(), p.cols());
  for (size_t s = 1; s <= max_size; ++s) {
    std::vector<size_t> rows;
    bool ok = rs_internal::ForEachSubset(
        p.rows(), s, rows, [&](const std::vector<size_t>& r) {
          std::vector<size_t> cols;
          return rs_internal::ForEachSubset(
              p.cols(), s, cols, [&](const std::vector<size_t>& c) {
                return p.Submatrix(r, c).Determinant() != 0;
              });
        });
    if (!ok) return false;
  }
  return true;
}

}  // namespace lhrs

#endif  // LHRS_PARITY_GENERATOR_H_
