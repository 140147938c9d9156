#include "gf/gf256.h"

#include "common/logging.h"
#include "gf/gf.h"
#include "gf/kernels.h"

namespace lhrs {

const GF256::Tables& GF256::tables() {
  static const Tables* kTables = [] {
    auto* t = new Tables();
    uint32_t x = 1;
    for (uint32_t i = 0; i < 255; ++i) {
      t->exp[i] = static_cast<uint8_t>(x);
      t->log[x] = static_cast<uint16_t>(i);
      x <<= 1;
      if (x & 0x100) x ^= kPolynomial;
    }
    for (uint32_t i = 255; i < 512; ++i) t->exp[i] = t->exp[i - 255];
    t->log[0] = 0;  // Sentinel; callers must not take log(0).
    return t;
  }();
  return *kTables;
}

GF256::Symbol GF256::Div(Symbol a, Symbol b) {
  LHRS_CHECK_NE(b, 0) << "GF256 division by zero";
  if (a == 0) return 0;
  const Tables& t = tables();
  return t.exp[t.log[a] + 255 - t.log[b]];
}

GF256::Symbol GF256::Inv(Symbol a) {
  LHRS_CHECK_NE(a, 0) << "GF256 inverse of zero";
  const Tables& t = tables();
  return t.exp[255 - t.log[a]];
}

uint32_t GF256::Log(Symbol a) {
  LHRS_CHECK_NE(a, 0) << "GF256 log of zero";
  return tables().log[a];
}

void GF256::MulAddBuffer(uint8_t* dst, const uint8_t* src, size_t n,
                         Symbol coeff) {
  if (coeff == 0 || n == 0) return;
  const GfKernels& k = ActiveKernels();
  if (coeff == 1) {  // XOR fast path (parity column 0).
    k.xor_buf(dst, src, n);
    return;
  }
  k.mul_add_8(dst, src, n, coeff);
}

void GF256::MulAddBufferByteReference(uint8_t* dst, const uint8_t* src,
                                      size_t n, Symbol coeff) {
  // Always the pinned "scalar" tier, independent of the active selection.
  KernelsByName("scalar")->mul_add_8(dst, src, n, coeff);
}

void GF256::MulAddRow(uint8_t* dst, const uint8_t* const* srcs,
                      const Symbol* coeffs, size_t num_srcs, size_t n) {
  if (num_srcs == 0 || n == 0) return;
  ActiveKernels().matrix_row_apply_8(dst, srcs, coeffs, num_srcs, n);
}

}  // namespace lhrs
