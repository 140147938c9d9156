#ifndef LHRS_RS_CODER_H_
#define LHRS_RS_CODER_H_

#include <algorithm>
#include <cstddef>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/buffer.h"
#include "common/bytes.h"
#include "common/logging.h"
#include "common/result.h"
#include "rs/generator.h"
#include "rs/matrix.h"

namespace lhrs {

/// Reed-Solomon coder for one LH*RS record group: m data slots, k parity
/// slots. Codeword columns are numbered 0..m-1 (data) and m..m+k-1 (parity).
///
/// Payloads are variable-length byte strings; the code semantically operates
/// on buffers zero-padded to a common length, and an absent group member is
/// an all-zero buffer. Callers therefore never need to materialise padding:
/// `ApplyDelta` grows the parity buffer on demand, and `DecodeData` pads
/// survivors internally.
///
/// Thread-compatible: const methods are safe to call concurrently.
template <GaloisField F>
class GroupCoder {
 public:
  using Symbol = typename F::Symbol;

  /// Builds the coder for a group of `m` data buckets with availability
  /// level `k`. CHECK-fails on invalid (m, k); use BuildParityMatrix
  /// directly when graceful validation is needed.
  GroupCoder(size_t m, size_t k)
      : m_(m), k_(k), parity_matrix_(std::move([&] {
          auto p = BuildParityMatrix<F>(m, k);
          LHRS_CHECK(p.ok()) << p.status();
          return std::move(p).value();
        }())) {}

  /// Builds the coder around a caller-supplied m x k parity-coefficient
  /// matrix (e.g. an LRC layout). The encode/delta machinery works for any
  /// linear code; DecodeData's any-m-columns contract only holds when the
  /// matrix is MDS, so non-MDS callers must decode through a rank-aware
  /// solver instead.
  explicit GroupCoder(Matrix<F> parity_matrix)
      : m_(parity_matrix.rows()),
        k_(parity_matrix.cols()),
        parity_matrix_(std::move(parity_matrix)) {}

  size_t m() const { return m_; }
  size_t k() const { return k_; }
  const Matrix<F>& parity_matrix() const { return parity_matrix_; }

  /// Coefficient applied to data slot `i` when folding into parity `j`.
  /// Coefficient(i, 0) == 1 for all i: parity 0 is the XOR bucket.
  Symbol Coefficient(size_t data_slot, size_t parity_idx) const {
    return parity_matrix_.At(data_slot, parity_idx);
  }

  /// Full-group encode. `data[i]` may be nullptr (absent member == zero
  /// buffer). Returns k parity buffers, each of the padded common length.
  std::vector<Bytes> Encode(std::span<const Bytes* const> data) const {
    LHRS_CHECK_EQ(data.size(), m_);
    size_t len = 0;
    for (const Bytes* d : data) {
      if (d != nullptr) len = std::max(len, d->size());
    }
    len = PaddedLength(len);
    std::vector<Bytes> parity(k_, Bytes(len, 0));
    if (len == 0) return parity;
    // Pad each present member once (full-length members are fed to the
    // kernel in place), then fold every member into each parity column
    // with one fused row pass: one read-modify-write of the parity buffer
    // per column instead of one per member.
    std::vector<Bytes> padded_storage;
    std::vector<const uint8_t*> srcs;
    std::vector<size_t> slots;
    for (size_t i = 0; i < m_; ++i) {
      if (data[i] == nullptr || data[i]->empty()) continue;
      if (data[i]->size() == len) {
        srcs.push_back(data[i]->data());
      } else {
        padded_storage.push_back(PadTo(*data[i], len));
        srcs.push_back(padded_storage.back().data());
      }
      slots.push_back(i);
    }
    std::vector<Symbol> coeffs(srcs.size());
    for (size_t j = 0; j < k_; ++j) {
      for (size_t t = 0; t < slots.size(); ++t) {
        coeffs[t] = Coefficient(slots[t], j);
      }
      F::MulAddRow(parity[j].data(), srcs.data(), coeffs.data(),
                   srcs.size(), len);
    }
    return parity;
  }

  /// Incremental parity maintenance into a copy-on-write view: the parity
  /// bytes are updated in place when no snapshot (wire dump, recovery
  /// read) shares them, and detached onto a fresh buffer first when one
  /// does — snapshots never observe later deltas.
  void ApplyDelta(size_t data_slot, std::span<const uint8_t> delta,
                  size_t parity_idx, BufferView* parity) const {
    LHRS_CHECK_LT(data_slot, m_);
    LHRS_CHECK_LT(parity_idx, k_);
    // Zero coefficient (non-MDS layouts): the slot does not feed this
    // parity column, and the buffer must not grow for it — a local parity
    // stores only its own group's extent.
    if (Coefficient(data_slot, parity_idx) == 0) return;
    const size_t len = PaddedLength(delta.size());
    const size_t target = std::max(parity->size(), len);
    uint8_t* dst = parity->MutableResized(target);
    if (delta.size() == len) {
      F::MulAddBuffer(dst, delta.data(), len,
                      Coefficient(data_slot, parity_idx));
    } else {
      const Bytes padded = PadTo(delta, len);
      F::MulAddBuffer(dst, padded.data(), len,
                      Coefficient(data_slot, parity_idx));
    }
  }

  /// Incremental parity maintenance: folds `coeff(i, j) * delta` into
  /// `parity`, growing it (zero padding) as needed. `delta` is
  /// old_payload XOR new_payload (with the shorter one zero-padded), which
  /// equals new_payload on insert and old_payload on delete.
  void ApplyDelta(size_t data_slot, std::span<const uint8_t> delta,
                  size_t parity_idx, Bytes* parity) const {
    LHRS_CHECK_LT(data_slot, m_);
    LHRS_CHECK_LT(parity_idx, k_);
    if (Coefficient(data_slot, parity_idx) == 0) return;
    const size_t len = PaddedLength(delta.size());
    if (parity->size() < len) parity->resize(len, 0);
    if (delta.size() == len) {
      F::MulAddBuffer(parity->data(), delta.data(), len,
                      Coefficient(data_slot, parity_idx));
    } else {
      const Bytes padded = PadTo(delta, len);
      F::MulAddBuffer(parity->data(), padded.data(), len,
                      Coefficient(data_slot, parity_idx));
    }
  }

  /// Reconstructs the requested data columns from any >= m available
  /// codeword columns. `available` holds (column index, payload) pairs;
  /// column indices in [0, m) are data slots, in [m, m+k) parity slots.
  /// Absent-but-known-empty data slots should be passed as available columns
  /// with an empty payload.
  ///
  /// Returns the reconstructed payloads in the order of `missing_data`,
  /// each padded to the common group length (callers trim using the record
  /// length recorded in the parity metadata). Fails with DataLoss when
  /// fewer than m columns are available.
  Result<std::vector<Bytes>> DecodeData(
      const std::vector<std::pair<size_t, Bytes>>& available,
      const std::vector<size_t>& missing_data) const {
    std::vector<std::pair<size_t, BufferView>> views;
    views.reserve(available.size());
    for (const auto& [col, payload] : available) {
      views.emplace_back(col, BufferView(payload));
    }
    return DecodeData(views, missing_data);
  }

  /// Zero-copy overload: survivor columns come in as shared views (straight
  /// out of recovery dumps); only the decode work buffers are allocated.
  Result<std::vector<Bytes>> DecodeData(
      const std::vector<std::pair<size_t, BufferView>>& available,
      const std::vector<size_t>& missing_data) const {
    std::vector<uint32_t> columns;
    columns.reserve(available.size());
    for (const auto& [col, payload] : available) {
      columns.push_back(static_cast<uint32_t>(col));
    }
    auto system = DecodeMatrix(columns);
    if (!system.ok()) return system.status();
    for (size_t col : missing_data) {
      LHRS_CHECK_LT(col, m_) << "only data columns can be requested";
    }
    const auto& [use, inv] = *system;

    size_t len = 0;
    for (size_t pos : use) len = std::max(len, available[pos].second.size());
    len = PaddedLength(len);

    // Pad each survivor once (full-length survivors are shared views fed to
    // the kernel in place), then reconstruct each wanted column with one
    // fused row pass over all m survivors: d_want = sum_t values_t *
    // Ainv[t][want]. Empty survivors are known-zero buffers; zeroing their
    // coefficient lets the kernel skip them without a padded copy.
    std::vector<Bytes> padded_storage;
    std::vector<const uint8_t*> srcs(m_, nullptr);
    std::vector<bool> known_zero(m_, false);
    for (size_t t = 0; t < m_; ++t) {
      const BufferView& col = available[use[t]].second;
      if (col.empty() || len == 0) {
        known_zero[t] = true;
      } else if (col.size() == len) {
        srcs[t] = col.data();
      } else {
        padded_storage.push_back(PadTo(col, len));
        srcs[t] = padded_storage.back().data();
      }
    }
    std::vector<Symbol> coeffs(m_);
    std::vector<Bytes> out;
    out.reserve(missing_data.size());
    for (size_t want : missing_data) {
      Bytes rec(len, 0);
      for (size_t t = 0; t < m_; ++t) {
        coeffs[t] = known_zero[t] ? 0 : inv.At(t, want);
      }
      if (len != 0) {
        F::MulAddRow(rec.data(), srcs.data(), coeffs.data(), m_, len);
      }
      out.push_back(std::move(rec));
    }
    return out;
  }

  /// The decode system of an erasure pattern: picks exactly m of
  /// `columns` (data columns first — their identity rows keep the matrix
  /// mostly trivial) and inverts their generator submatrix. Returns the
  /// picked positions in `columns` and the inverse, whose entry (t, i)
  /// weighs picked column t in data column i. Fails with DataLoss when
  /// fewer than m columns are given.
  Result<std::pair<std::vector<size_t>, Matrix<F>>> DecodeMatrix(
      const std::vector<uint32_t>& columns) const {
    if (columns.size() < m_) {
      return Status::DataLoss(
          "unrecoverable record group: " + std::to_string(columns.size()) +
          " of " + std::to_string(m_) + " required columns available");
    }
    std::vector<size_t> use;
    use.reserve(m_);
    for (size_t pos = 0; pos < columns.size(); ++pos) {
      if (columns[pos] < m_ && use.size() < m_) use.push_back(pos);
    }
    for (size_t pos = 0; pos < columns.size(); ++pos) {
      if (columns[pos] >= m_ && use.size() < m_) use.push_back(pos);
    }
    LHRS_CHECK_EQ(use.size(), m_);

    // Codeword relation: value(col) = sum_i d_i * G[i][col] with
    // G = [I | P]. Stack the m used columns into A (m x m):
    // A[i][t] = G[i][use[t].col]; then d = values * A^{-1}.
    Matrix<F> a(m_, m_);
    for (size_t t = 0; t < m_; ++t) {
      const size_t col = columns[use[t]];
      for (size_t i = 0; i < m_; ++i) {
        if (col < m_) {
          a.Set(i, t, i == col ? 1 : 0);
        } else {
          a.Set(i, t, Coefficient(i, col - m_));
        }
      }
    }
    auto inv = a.Inverted();
    if (!inv.ok()) {
      return Status::Internal("decode matrix singular — MDS violation: " +
                              inv.status().message());
    }
    return std::make_pair(std::move(use), std::move(inv).value());
  }

  /// Rounds a payload length up to a whole number of field symbols.
  size_t PaddedLength(size_t n) const {
    const size_t s = F::kSymbolBytes;
    return (n + s - 1) / s * s;
  }

 private:
  size_t m_;
  size_t k_;
  Matrix<F> parity_matrix_;
};

}  // namespace lhrs

#endif  // LHRS_RS_CODER_H_
