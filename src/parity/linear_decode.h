#ifndef LHRS_PARITY_LINEAR_DECODE_H_
#define LHRS_PARITY_LINEAR_DECODE_H_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "common/buffer.h"
#include "common/bytes.h"
#include "common/logging.h"
#include "common/result.h"
#include "parity/matrix.h"
#include "parity/parity_code.h"

namespace lhrs::parity {

/// DecodePlan over a concrete field: one row of coefficients per wanted
/// column, row-major over the inputs.
template <GaloisField F>
class DecodePlanT final : public DecodePlan {
 public:
  using Symbol = typename F::Symbol;

  /// `coeffs` holds wanted.size() rows of inputs.size() coefficients.
  DecodePlanT(std::vector<uint32_t> inputs, std::vector<uint32_t> wanted,
              std::vector<Symbol> coeffs)
      : DecodePlan(std::move(inputs), std::move(wanted), F::kSymbolBytes),
        coeffs_(std::move(coeffs)) {
    LHRS_CHECK_EQ(coeffs_.size(),
                  this->inputs().size() * this->wanted().size());
  }

  void MulAddRow(size_t w, const uint8_t* const* srcs, size_t len,
                 uint8_t* dst) const override {
    LHRS_CHECK_LT(w, wanted().size());
    const size_t n = inputs().size();
    const Symbol* row = coeffs_.data() + w * n;
    if (std::find(srcs, srcs + n, nullptr) == srcs + n) {
      F::MulAddRow(dst, srcs, row, n, len);
      return;
    }
    // Zero columns: mask their coefficients so the kernel skips them.
    constexpr size_t kInline = 32;
    Symbol inline_row[kInline];
    std::vector<Symbol> heap_row;
    Symbol* masked = inline_row;
    if (n > kInline) {
      heap_row.resize(n);
      masked = heap_row.data();
    }
    for (size_t t = 0; t < n; ++t) masked[t] = srcs[t] == nullptr ? 0 : row[t];
    F::MulAddRow(dst, srcs, masked, n, len);
  }

 private:
  std::vector<Symbol> coeffs_;
};

/// Incremental Gauss-Jordan elimination over the m data unknowns of a
/// linear parity code, shared by the progressive decoder, the non-MDS
/// decode planner and the feasibility/plan checks. It works on column
/// identities only; payload bytes never enter it.
///
/// Every codeword column contributes one equation over the data unknowns
/// x_0..x_{m-1}: a data column i is the unit equation x_i = value(i)
/// (known-zero slots are unit equations with a zero value), and parity
/// column m+j is sum_i P[i][j] * x_i = value(m+j). Equations are kept in
/// reduced row-echelon form; each row also carries the combination of
/// absorbed columns that produced it, which is exactly a decode plan's
/// coefficient row once the row is solved.
template <GaloisField F>
class IncrementalSolver {
 public:
  using Symbol = typename F::Symbol;

  /// `pmat` is the m x k parity-coefficient matrix; it must outlive the
  /// solver.
  explicit IncrementalSolver(const Matrix<F>* pmat)
      : pmat_(pmat),
        m_(static_cast<uint32_t>(pmat->rows())),
        k_(static_cast<uint32_t>(pmat->cols())),
        pivot_row_(m_, kNoRow) {
    // The rank never exceeds m: size the row tables once.
    rows_.reserve(m_);
    combs_.reserve(m_);
    columns_.reserve(m_);
  }

  uint32_t m() const { return m_; }

  /// Absorbs one codeword column. Returns true when it raised the rank,
  /// false when it was redundant.
  bool AddColumn(uint32_t column) {
    LHRS_CHECK_LT(column, m_ + k_);
    std::vector<Symbol> row(m_, 0);
    if (column < m_) {
      row[column] = 1;
    } else {
      for (uint32_t i = 0; i < m_; ++i) {
        row[i] = pmat_->At(i, column - m_);
      }
    }
    // New equation's column combination: the unit vector on the slot the
    // column would occupy.
    std::vector<Symbol> comb(columns_.size() + 1, 0);
    comb.back() = 1;

    // Reduce against the existing pivot rows.
    for (uint32_t c = 0; c < m_; ++c) {
      if (row[c] == 0 || pivot_row_[c] == kNoRow) continue;
      const size_t r = pivot_row_[c];
      const Symbol f = row[c];
      AddScaled(&row, rows_[r], f);
      AddScaled(&comb, combs_[r], f);
    }
    uint32_t pivot = m_;
    for (uint32_t c = 0; c < m_; ++c) {
      if (row[c] != 0) {
        pivot = c;
        break;
      }
    }
    if (pivot == m_) return false;  // Dependent on absorbed columns.

    // Normalize and back-eliminate the new pivot from every older row so
    // the system stays fully reduced.
    const Symbol inv = F::Inv(row[pivot]);
    Scale(&row, inv);
    Scale(&comb, inv);
    for (size_t r = 0; r < rows_.size(); ++r) {
      const Symbol f = rows_[r][pivot];
      if (f == 0) continue;
      AddScaled(&rows_[r], row, f);
      AddScaled(&combs_[r], comb, f);
    }
    pivot_row_[pivot] = rows_.size();
    rows_.push_back(std::move(row));
    combs_.push_back(std::move(comb));
    columns_.push_back(column);
    return true;
  }

  size_t rank() const { return rows_.size(); }

  /// True when data column `col` is fully determined: its pivot row exists
  /// and involves no other unknown.
  bool Solved(uint32_t col) const {
    LHRS_CHECK_LT(col, m_);
    if (pivot_row_[col] == kNoRow) return false;
    const auto& row = rows_[pivot_row_[col]];
    for (uint32_t c = 0; c < m_; ++c) {
      if (c != col && row[c] != 0) return false;
    }
    return true;
  }

  /// The plan that rebuilds `wanted` from the absorbed columns. Its inputs
  /// are the absorbed columns some wanted row actually weighs, in
  /// absorption order. Requires Solved(w) for every wanted column.
  std::unique_ptr<const DecodePlan> Plan(
      const std::vector<uint32_t>& wanted) const {
    std::vector<bool> read(columns_.size(), false);
    for (uint32_t w : wanted) {
      LHRS_CHECK(Solved(w));
      const auto& comb = combs_[pivot_row_[w]];
      for (size_t i = 0; i < comb.size(); ++i) {
        read[i] = read[i] || comb[i] != 0;
      }
    }
    std::vector<uint32_t> inputs;
    std::vector<size_t> positions;
    for (size_t i = 0; i < columns_.size(); ++i) {
      if (!read[i]) continue;
      inputs.push_back(columns_[i]);
      positions.push_back(i);
    }
    std::vector<Symbol> coeffs;
    coeffs.reserve(wanted.size() * inputs.size());
    for (uint32_t w : wanted) {
      const auto& comb = combs_[pivot_row_[w]];
      for (size_t i : positions) {
        coeffs.push_back(i < comb.size() ? comb[i] : 0);
      }
    }
    return std::make_unique<DecodePlanT<F>>(std::move(inputs), wanted,
                                            std::move(coeffs));
  }

 private:
  static constexpr size_t kNoRow = ~size_t{0};

  static void Scale(std::vector<Symbol>* v, Symbol f) {
    for (Symbol& x : *v) x = F::Mul(x, f);
  }
  /// v += f * w (GF(2^x): subtraction is addition), padding v with zeros
  /// when w is longer (older rows have shorter combination vectors).
  static void AddScaled(std::vector<Symbol>* v, const std::vector<Symbol>& w,
                        Symbol f) {
    if (v->size() < w.size()) v->resize(w.size(), 0);
    for (size_t i = 0; i < w.size(); ++i) {
      (*v)[i] = F::Add((*v)[i], F::Mul(f, w[i]));
    }
  }

  const Matrix<F>* pmat_;
  uint32_t m_;
  uint32_t k_;
  std::vector<size_t> pivot_row_;           // data column -> row, or kNoRow.
  std::vector<std::vector<Symbol>> rows_;   // RREF coefficient rows.
  std::vector<std::vector<Symbol>> combs_;  // column combination per row.
  std::vector<uint32_t> columns_;           // absorbed columns, in order.
};

/// ProgressiveDecoder over a concrete field and parity matrix.
template <GaloisField F>
class ProgressiveDecoderT final : public ProgressiveDecoder {
 public:
  ProgressiveDecoderT(const Matrix<F>* pmat,
                      std::vector<uint32_t> wanted_data,
                      std::vector<uint32_t> known_zero_data)
      : solver_(pmat), wanted_(std::move(wanted_data)) {
    for (uint32_t col : wanted_) LHRS_CHECK_LT(col, solver_.m());
    for (uint32_t col : known_zero_data) solver_.AddColumn(col);
  }

  bool AddColumn(uint32_t column, BufferView payload) override {
    if (!solver_.AddColumn(column)) return false;
    payloads_.emplace_back(column, std::move(payload));
    return true;
  }

  bool Ready() const override {
    return std::all_of(wanted_.begin(), wanted_.end(),
                       [&](uint32_t col) { return solver_.Solved(col); });
  }

  size_t columns_used() const override { return payloads_.size(); }

  Result<std::unique_ptr<const DecodePlan>> Plan() const override {
    if (!Ready()) {
      return Status::DataLoss(
          "progressive decode: absorbed columns do not determine every "
          "wanted column");
    }
    return solver_.Plan(wanted_);
  }

  Result<std::vector<Bytes>> Decode() const override {
    auto plan = Plan();
    if (!plan.ok()) return plan.status();
    // Pre-seeded known-zero columns hold no payload: zero columns.
    std::vector<const BufferView*> inputs;
    for (uint32_t col : (*plan)->inputs()) {
      auto it = std::find_if(payloads_.begin(), payloads_.end(),
                             [&](const auto& p) { return p.first == col; });
      inputs.push_back(it == payloads_.end() ? nullptr : &it->second);
    }
    return (*plan)->Decode(inputs);
  }

 private:
  IncrementalSolver<F> solver_;
  std::vector<uint32_t> wanted_;
  /// Useful survivor columns with their shared payloads, in arrival order.
  std::vector<std::pair<uint32_t, BufferView>> payloads_;
};

}  // namespace lhrs::parity

#endif  // LHRS_PARITY_LINEAR_DECODE_H_
