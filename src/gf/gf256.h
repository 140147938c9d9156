#ifndef LHRS_GF_GF256_H_
#define LHRS_GF_GF256_H_

#include <cstddef>
#include <cstdint>

namespace lhrs {

/// GF(2^8) with the primitive polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11D)
/// and generator alpha = 2. Multiplication goes through log/antilog tables,
/// the classical choice of the LH*RS parity subsystem: one byte of payload is
/// one code symbol, so records of any length encode without symbol packing.
///
/// All operations are static; the tables are built once on first use.
class GF256 {
 public:
  using Symbol = uint8_t;
  static constexpr uint32_t kOrder = 256;
  static constexpr size_t kSymbolBytes = 1;
  static constexpr uint32_t kPolynomial = 0x11D;

  static Symbol Add(Symbol a, Symbol b) { return a ^ b; }
  static Symbol Sub(Symbol a, Symbol b) { return a ^ b; }

  static Symbol Mul(Symbol a, Symbol b) {
    if (a == 0 || b == 0) return 0;
    const Tables& t = tables();
    return t.exp[t.log[a] + t.log[b]];
  }

  /// a / b. b must be non-zero.
  static Symbol Div(Symbol a, Symbol b);

  /// Multiplicative inverse. a must be non-zero.
  static Symbol Inv(Symbol a);

  /// alpha^e for e >= 0.
  static Symbol Exp(uint32_t e) { return tables().exp[e % 255]; }

  /// Discrete log base alpha. a must be non-zero.
  static uint32_t Log(Symbol a);

  /// dst[i] += coeff * src[i] over GF(2^8), for n bytes. The workhorse of
  /// parity encoding; falls back to plain XOR when coeff == 1 (the LH*RS
  /// "first parity column is XOR" fast path), otherwise rides the
  /// runtime-dispatched kernel layer (gf/kernels.h): split-table
  /// PSHUFB/VPSHUFB/TBL on SIMD-capable hosts, a word-wise product-row
  /// gather on the portable floor. Alignment-agnostic.
  static void MulAddBuffer(uint8_t* dst, const uint8_t* src, size_t n,
                           Symbol coeff);

  /// The original byte-at-a-time MulAdd loop, pinned against
  /// auto-vectorization; checked reference for every dispatched kernel.
  static void MulAddBufferByteReference(uint8_t* dst, const uint8_t* src,
                                        size_t n, Symbol coeff);

  /// Fused multi-source fold: dst[i] += sum_s coeffs[s] * srcs[s][i] in a
  /// single pass over dst (one read-modify-write per block instead of one
  /// per source). Every source must hold at least n bytes; zero
  /// coefficients are skipped. Matrix decodes and full-group encodes ride
  /// this so recovery folds all survivor columns per pass.
  static void MulAddRow(uint8_t* dst, const uint8_t* const* srcs,
                        const Symbol* coeffs, size_t num_srcs, size_t n);

 private:
  struct Tables {
    uint8_t exp[512];   // exp[i] = alpha^i, doubled to skip the mod-255.
    uint16_t log[256];  // log[0] unused.
    // No product rows here: the bulk kernels read the 8 KiB of prebuilt
    // 4-bit split tables in gf/kernels_internal.h instead.
  };
  static const Tables& tables();
};

}  // namespace lhrs

#endif  // LHRS_GF_GF256_H_
