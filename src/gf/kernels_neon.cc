// NEON kernel tier (aarch64): 4-bit split-table TBL multiply.
//
// Same split-table math as the x86 tiers (see kernels_ssse3.cc) with
// vqtbl1q_u8 playing PSHUFB's role. The GF(2^16) plane separation comes
// for free from the vld2q/vst2q de-/re-interleaving loads. NEON is
// architecturally mandatory on aarch64, so this tier needs no runtime
// feature check — it is simply the best tier on ARM builds.

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>

#include "gf/kernels_internal.h"

#if defined(__aarch64__)

#include <arm_neon.h>

namespace lhrs::gfk {
namespace {

inline uint8x16_t Mul16Bytes(uint8x16_t v, uint8x16_t tlo, uint8x16_t thi) {
  const uint8x16_t nib_mask = vdupq_n_u8(0x0F);
  const uint8x16_t lo = vandq_u8(v, nib_mask);
  const uint8x16_t hi = vshrq_n_u8(v, 4);
  return veorq_u8(vqtbl1q_u8(tlo, lo), vqtbl1q_u8(thi, hi));
}

void NeonXor(uint8_t* dst, const uint8_t* src, size_t n) {
  size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    uint8x16x4_t d = vld1q_u8_x4(dst + i);
    const uint8x16x4_t s = vld1q_u8_x4(src + i);
    d.val[0] = veorq_u8(d.val[0], s.val[0]);
    d.val[1] = veorq_u8(d.val[1], s.val[1]);
    d.val[2] = veorq_u8(d.val[2], s.val[2]);
    d.val[3] = veorq_u8(d.val[3], s.val[3]);
    vst1q_u8_x4(dst + i, d);
  }
  for (; i + 16 <= n; i += 16) {
    vst1q_u8(dst + i, veorq_u8(vld1q_u8(dst + i), vld1q_u8(src + i)));
  }
  for (; i < n; ++i) dst[i] ^= src[i];
}

void NeonMulAdd8(uint8_t* dst, const uint8_t* src, size_t n, uint8_t coeff) {
  if (coeff == 0 || n == 0) return;
  if (coeff == 1) {
    NeonXor(dst, src, n);
    return;
  }
  const Nib8Tables& t = PrebuiltNib8()[coeff];
  const uint8x16_t tlo = vld1q_u8(t.lo);
  const uint8x16_t thi = vld1q_u8(t.hi);
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    uint8x16_t d0 = vld1q_u8(dst + i);
    uint8x16_t d1 = vld1q_u8(dst + i + 16);
    d0 = veorq_u8(d0, Mul16Bytes(vld1q_u8(src + i), tlo, thi));
    d1 = veorq_u8(d1, Mul16Bytes(vld1q_u8(src + i + 16), tlo, thi));
    vst1q_u8(dst + i, d0);
    vst1q_u8(dst + i + 16, d1);
  }
  for (; i + 16 <= n; i += 16) {
    vst1q_u8(dst + i, veorq_u8(vld1q_u8(dst + i),
                               Mul16Bytes(vld1q_u8(src + i), tlo, thi)));
  }
  MulAdd8TailNib(dst + i, src + i, n - i, t);
}

struct Nib16Regs {
  uint8x16_t lo[4];
  uint8x16_t hi[4];
};

inline void LoadNib16(const Nib16Tables& t, Nib16Regs* r) {
  for (int p = 0; p < 4; ++p) {
    r->lo[p] = vld1q_u8(t.prod_lo[p]);
    r->hi[p] = vld1q_u8(t.prod_hi[p]);
  }
}

/// Multiplies 16 symbols given as separated byte planes.
inline void Mul16Symbols(uint8x16_t lo_b, uint8x16_t hi_b,
                         const Nib16Regs& r, uint8x16_t* out_lo,
                         uint8x16_t* out_hi) {
  const uint8x16_t nib_mask = vdupq_n_u8(0x0F);
  const uint8x16_t n0 = vandq_u8(lo_b, nib_mask);
  const uint8x16_t n1 = vshrq_n_u8(lo_b, 4);
  const uint8x16_t n2 = vandq_u8(hi_b, nib_mask);
  const uint8x16_t n3 = vshrq_n_u8(hi_b, 4);
  *out_lo = veorq_u8(
      veorq_u8(vqtbl1q_u8(r.lo[0], n0), vqtbl1q_u8(r.lo[1], n1)),
      veorq_u8(vqtbl1q_u8(r.lo[2], n2), vqtbl1q_u8(r.lo[3], n3)));
  *out_hi = veorq_u8(
      veorq_u8(vqtbl1q_u8(r.hi[0], n0), vqtbl1q_u8(r.hi[1], n1)),
      veorq_u8(vqtbl1q_u8(r.hi[2], n2), vqtbl1q_u8(r.hi[3], n3)));
}

void NeonMulAdd16(uint8_t* dst, const uint8_t* src, size_t n,
                  uint16_t coeff) {
  assert(n % 2 == 0 && "GF(2^16) kernels operate on whole symbols");
  if (coeff == 0 || n == 0) return;
  if (coeff == 1) {
    NeonXor(dst, src, n);
    return;
  }
  Nib16Tables t;
  BuildNib16(coeff, &t);
  Nib16Regs r;
  LoadNib16(t, &r);
  size_t i = 0;
  // 16 symbols (32 bytes) per iteration: vld2q deinterleaves the symbol
  // stream straight into low-byte / high-byte planes.
  for (; i + 32 <= n; i += 32) {
    const uint8x16x2_t s = vld2q_u8(src + i);
    uint8x16_t prod_lo, prod_hi;
    Mul16Symbols(s.val[0], s.val[1], r, &prod_lo, &prod_hi);
    uint8x16x2_t d = vld2q_u8(dst + i);
    d.val[0] = veorq_u8(d.val[0], prod_lo);
    d.val[1] = veorq_u8(d.val[1], prod_hi);
    vst2q_u8(dst + i, d);
  }
  MulAdd16TailNib(dst + i, src + i, n - i, t);
}

constexpr size_t kFusedBatch = 16;

void NeonRowApply8(uint8_t* dst, const uint8_t* const* srcs,
                   const uint8_t* coeffs, size_t num_srcs, size_t n) {
  const Nib8Tables* nib8 = PrebuiltNib8();
  for (size_t base = 0; base < num_srcs; base += kFusedBatch) {
    const size_t batch = std::min(kFusedBatch, num_srcs - base);
    const Nib8Tables* tabs[kFusedBatch];
    uint8x16_t tlo[kFusedBatch], thi[kFusedBatch];
    const uint8_t* use[kFusedBatch];
    size_t used = 0;
    for (size_t s = 0; s < batch; ++s) {
      if (coeffs[base + s] == 0) continue;
      tabs[used] = &nib8[coeffs[base + s]];
      tlo[used] = vld1q_u8(tabs[used]->lo);
      thi[used] = vld1q_u8(tabs[used]->hi);
      use[used] = srcs[base + s];
      ++used;
    }
    if (used == 0) continue;
    size_t i = 0;
    for (; i + 32 <= n; i += 32) {
      uint8x16_t d0 = vld1q_u8(dst + i);
      uint8x16_t d1 = vld1q_u8(dst + i + 16);
      for (size_t s = 0; s < used; ++s) {
        d0 = veorq_u8(d0, Mul16Bytes(vld1q_u8(use[s] + i), tlo[s], thi[s]));
        d1 = veorq_u8(
            d1, Mul16Bytes(vld1q_u8(use[s] + i + 16), tlo[s], thi[s]));
      }
      vst1q_u8(dst + i, d0);
      vst1q_u8(dst + i + 16, d1);
    }
    for (size_t s = 0; s < used; ++s) {
      MulAdd8TailNib(dst + i, use[s] + i, n - i, *tabs[s]);
    }
  }
}

void NeonRowApply16(uint8_t* dst, const uint8_t* const* srcs,
                    const uint16_t* coeffs, size_t num_srcs, size_t n) {
  assert(n % 2 == 0 && "GF(2^16) kernels operate on whole symbols");
  for (size_t base = 0; base < num_srcs; base += kFusedBatch) {
    const size_t batch = std::min(kFusedBatch, num_srcs - base);
    Nib16Tables tabs[kFusedBatch];
    const uint8_t* use[kFusedBatch];
    size_t used = 0;
    for (size_t s = 0; s < batch; ++s) {
      if (coeffs[base + s] == 0) continue;
      BuildNib16(coeffs[base + s], &tabs[used]);
      use[used] = srcs[base + s];
      ++used;
    }
    if (used == 0) continue;
    size_t i = 0;
    for (; i + 32 <= n; i += 32) {
      uint8x16x2_t d = vld2q_u8(dst + i);
      for (size_t s = 0; s < used; ++s) {
        Nib16Regs r;
        LoadNib16(tabs[s], &r);
        const uint8x16x2_t sv = vld2q_u8(use[s] + i);
        uint8x16_t prod_lo, prod_hi;
        Mul16Symbols(sv.val[0], sv.val[1], r, &prod_lo, &prod_hi);
        d.val[0] = veorq_u8(d.val[0], prod_lo);
        d.val[1] = veorq_u8(d.val[1], prod_hi);
      }
      vst2q_u8(dst + i, d);
    }
    for (size_t s = 0; s < used; ++s) {
      MulAdd16TailNib(dst + i, use[s] + i, n - i, tabs[s]);
    }
  }
}

}  // namespace

const GfKernels kKernelsNeon = {
    "neon",        NeonXor,       NeonMulAdd8,
    NeonMulAdd16,  NeonRowApply8, NeonRowApply16,
};

}  // namespace lhrs::gfk

#endif  // defined(__aarch64__)
