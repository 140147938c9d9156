#ifndef LHRS_PARITY_LINEAR_CODE_H_
#define LHRS_PARITY_LINEAR_CODE_H_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/buffer.h"
#include "common/bytes.h"
#include "common/logging.h"
#include "parity/linear_decode.h"
#include "parity/matrix.h"
#include "parity/parity_code.h"

namespace lhrs::parity {

/// The scheme-independent half of a linear parity code over field F: the
/// m x k parity-coefficient matrix P, full-group encode, incremental delta
/// maintenance and progressive decoding. Parity column j holds
/// sum_i P[i][j] * d_i over the members zero-padded to a common length (an
/// absent member is all zeros), so callers never materialise padding.
/// Subclasses supply the decode and repair policy (PlanDecode,
/// CanDecodeFrom, ParityPreference, PlanRepair).
template <GaloisField F>
class LinearCodeT : public ParityCode {
 public:
  using Symbol = typename F::Symbol;

  uint32_t m() const final { return static_cast<uint32_t>(parity_.rows()); }
  uint32_t k() const final { return static_cast<uint32_t>(parity_.cols()); }
  const CodeSpec& spec() const final { return spec_; }
  const Matrix<F>& parity_matrix() const { return parity_; }

  void ApplyDelta(size_t slot, std::span<const uint8_t> delta,
                  size_t parity_index, Bytes* parity) const final {
    FoldDelta(slot, delta, parity_index, [parity](size_t len) {
      if (parity->size() < len) parity->resize(len, 0);
      return parity->data();
    });
  }

  void ApplyDelta(size_t slot, std::span<const uint8_t> delta,
                  size_t parity_index, BufferView* parity) const final {
    FoldDelta(slot, delta, parity_index, [parity](size_t len) {
      return parity->MutableResized(std::max(parity->size(), len));
    });
  }

  std::vector<Bytes> Encode(
      std::span<const Bytes* const> data) const final {
    LHRS_CHECK_EQ(data.size(), m());
    size_t len = 0;
    for (const Bytes* d : data) {
      if (d != nullptr) len = std::max(len, d->size());
    }
    len = PaddedLength(len);
    std::vector<Bytes> parity(k(), Bytes(len, 0));
    if (len == 0) return parity;
    // Pad each present member once (full-length members are fed to the
    // kernel in place), then fold every member into each parity column
    // with one fused row pass: one read-modify-write of the parity buffer
    // per column instead of one per member.
    std::vector<Bytes> padded_storage;
    std::vector<const uint8_t*> srcs;
    std::vector<size_t> slots;
    for (size_t i = 0; i < data.size(); ++i) {
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
    for (size_t j = 0; j < parity.size(); ++j) {
      for (size_t t = 0; t < slots.size(); ++t) {
        coeffs[t] = parity_.At(slots[t], j);
      }
      F::MulAddRow(parity[j].data(), srcs.data(), coeffs.data(),
                   srcs.size(), len);
    }
    return parity;
  }

  std::unique_ptr<ProgressiveDecoder> NewProgressiveDecoder(
      std::vector<uint32_t> wanted_data,
      std::vector<uint32_t> known_zero_data) const final {
    return std::make_unique<ProgressiveDecoderT<F>>(
        &parity_, std::move(wanted_data), std::move(known_zero_data));
  }

  size_t PaddedLength(size_t n) const final {
    constexpr size_t s = F::kSymbolBytes;
    return (n + s - 1) / s * s;
  }

 protected:
  LinearCodeT(Matrix<F> parity_matrix, CodeSpec spec)
      : parity_(std::move(parity_matrix)), spec_(spec) {}

 private:
  /// parity[0, len) += P[slot][parity_index] * delta, padded to whole
  /// symbols; `grow(len)` makes the parity buffer at least `len` bytes and
  /// returns its writable bytes. `delta` is old XOR new payload (the
  /// shorter one zero-padded): the new payload on insert, the old one on
  /// delete. Matrix::At bounds-checks the slot and the parity index.
  template <typename Grow>
  void FoldDelta(size_t slot, std::span<const uint8_t> delta,
                 size_t parity_index, Grow grow) const {
    const Symbol coeff = parity_.At(slot, parity_index);
    // Zero coefficient (non-MDS layouts): the slot does not feed this
    // parity column, and the buffer must not grow for it — a local parity
    // stores only its own group's extent.
    if (coeff == 0) return;
    const size_t len = PaddedLength(delta.size());
    uint8_t* dst = grow(len);
    if (delta.size() == len) {
      F::MulAddBuffer(dst, delta.data(), len, coeff);
    } else {
      const Bytes padded = PadTo(delta, len);
      F::MulAddBuffer(dst, padded.data(), len, coeff);
    }
  }

  Matrix<F> parity_;
  CodeSpec spec_;
};

}  // namespace lhrs::parity

#endif  // LHRS_PARITY_LINEAR_CODE_H_
