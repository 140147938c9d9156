// SSSE3 kernel tier: 4-bit split-table PSHUFB multiply, 16-byte vectors.
//
// The GF(2^8) product of one byte b with a fixed coefficient c splits as
// c*b = lo[b & 15] ^ hi[b >> 4] (linearity of GF(2^w) multiplication over
// XOR), so two 16-entry tables per coefficient turn PSHUFB into sixteen
// simultaneous table lookups — the Jerasure/GF-complete/ISA-L technique
// this tier reproduces. GF(2^16) splits each symbol into four nibbles and
// keeps the product's low and high bytes in separate registers.
//
// This translation unit is compiled with -mssse3 and must only be entered
// after runtime CPU detection (kernels.cc); nothing here may be called on
// a CPU without SSSE3.

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>

#include "gf/kernels_internal.h"

#if defined(__SSSE3__)

#include <tmmintrin.h>

namespace lhrs::gfk {
namespace {

inline __m128i Mul16Bytes(__m128i v, __m128i tlo, __m128i thi,
                          __m128i nib_mask) {
  const __m128i lo = _mm_and_si128(v, nib_mask);
  const __m128i hi = _mm_and_si128(_mm_srli_epi16(v, 4), nib_mask);
  return _mm_xor_si128(_mm_shuffle_epi8(tlo, lo),
                       _mm_shuffle_epi8(thi, hi));
}

void Ssse3Xor(uint8_t* dst, const uint8_t* src, size_t n) {
  size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const uint8_t* s = src + i;
    uint8_t* d = dst + i;
    __m128i d0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(d));
    __m128i d1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(d + 16));
    __m128i d2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(d + 32));
    __m128i d3 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(d + 48));
    d0 = _mm_xor_si128(
        d0, _mm_loadu_si128(reinterpret_cast<const __m128i*>(s)));
    d1 = _mm_xor_si128(
        d1, _mm_loadu_si128(reinterpret_cast<const __m128i*>(s + 16)));
    d2 = _mm_xor_si128(
        d2, _mm_loadu_si128(reinterpret_cast<const __m128i*>(s + 32)));
    d3 = _mm_xor_si128(
        d3, _mm_loadu_si128(reinterpret_cast<const __m128i*>(s + 48)));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(d), d0);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(d + 16), d1);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(d + 32), d2);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(d + 48), d3);
  }
  for (; i + 16 <= n; i += 16) {
    const __m128i d = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(dst + i));
    const __m128i s = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(src + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_xor_si128(d, s));
  }
  for (; i < n; ++i) dst[i] ^= src[i];
}

void Ssse3MulAdd8(uint8_t* dst, const uint8_t* src, size_t n,
                  uint8_t coeff) {
  if (coeff == 0 || n == 0) return;
  if (coeff == 1) {
    Ssse3Xor(dst, src, n);
    return;
  }
  const Nib8Tables& t = PrebuiltNib8()[coeff];
  const __m128i tlo = _mm_loadu_si128(reinterpret_cast<const __m128i*>(t.lo));
  const __m128i thi = _mm_loadu_si128(reinterpret_cast<const __m128i*>(t.hi));
  const __m128i nib_mask = _mm_set1_epi8(0x0F);
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m128i s0 = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(src + i));
    const __m128i s1 = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(src + i + 16));
    __m128i d0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    __m128i d1 = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(dst + i + 16));
    d0 = _mm_xor_si128(d0, Mul16Bytes(s0, tlo, thi, nib_mask));
    d1 = _mm_xor_si128(d1, Mul16Bytes(s1, tlo, thi, nib_mask));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), d0);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i + 16), d1);
  }
  for (; i + 16 <= n; i += 16) {
    const __m128i s = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(src + i));
    __m128i d = _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    d = _mm_xor_si128(d, Mul16Bytes(s, tlo, thi, nib_mask));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), d);
  }
  MulAdd8TailNib(dst + i, src + i, n - i, t);
}

/// Registers for one coefficient's GF(2^16) nibble tables.
struct Nib16Regs {
  __m128i lo[4];  // Low product byte, per nibble position.
  __m128i hi[4];  // High product byte.
};

inline void LoadNib16(const Nib16Tables& t, Nib16Regs* r) {
  for (int p = 0; p < 4; ++p) {
    r->lo[p] = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(t.prod_lo[p]));
    r->hi[p] = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(t.prod_hi[p]));
  }
}

/// Multiplies 16 symbols held as separated byte planes (`lo_b` = the low
/// byte of each symbol, `hi_b` = the high byte) by the table coefficient,
/// returning the product planes through *out_lo / *out_hi.
inline void Mul16Symbols(__m128i lo_b, __m128i hi_b, const Nib16Regs& r,
                         __m128i nib_mask, __m128i* out_lo,
                         __m128i* out_hi) {
  const __m128i n0 = _mm_and_si128(lo_b, nib_mask);
  const __m128i n1 = _mm_and_si128(_mm_srli_epi16(lo_b, 4), nib_mask);
  const __m128i n2 = _mm_and_si128(hi_b, nib_mask);
  const __m128i n3 = _mm_and_si128(_mm_srli_epi16(hi_b, 4), nib_mask);
  *out_lo = _mm_xor_si128(
      _mm_xor_si128(_mm_shuffle_epi8(r.lo[0], n0),
                    _mm_shuffle_epi8(r.lo[1], n1)),
      _mm_xor_si128(_mm_shuffle_epi8(r.lo[2], n2),
                    _mm_shuffle_epi8(r.lo[3], n3)));
  *out_hi = _mm_xor_si128(
      _mm_xor_si128(_mm_shuffle_epi8(r.hi[0], n0),
                    _mm_shuffle_epi8(r.hi[1], n1)),
      _mm_xor_si128(_mm_shuffle_epi8(r.hi[2], n2),
                    _mm_shuffle_epi8(r.hi[3], n3)));
}

void Ssse3MulAdd16(uint8_t* dst, const uint8_t* src, size_t n,
                   uint16_t coeff) {
  assert(n % 2 == 0 && "GF(2^16) kernels operate on whole symbols");
  if (coeff == 0 || n == 0) return;
  if (coeff == 1) {
    Ssse3Xor(dst, src, n);
    return;
  }
  Nib16Tables t;
  BuildNib16(coeff, &t);
  Nib16Regs r;
  LoadNib16(t, &r);
  const __m128i nib_mask = _mm_set1_epi8(0x0F);
  const __m128i byte_mask = _mm_set1_epi16(0x00FF);
  size_t i = 0;
  // 16 symbols (32 bytes) per iteration: deinterleave the symbol stream
  // into a low-byte plane and a high-byte plane (pack of masked/shifted
  // halves), multiply plane-wise through the nibble tables, re-interleave
  // with unpack, and XOR into dst.
  for (; i + 32 <= n; i += 32) {
    const __m128i v0 = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(src + i));
    const __m128i v1 = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(src + i + 16));
    const __m128i lo_b = _mm_packus_epi16(_mm_and_si128(v0, byte_mask),
                                          _mm_and_si128(v1, byte_mask));
    const __m128i hi_b = _mm_packus_epi16(_mm_srli_epi16(v0, 8),
                                          _mm_srli_epi16(v1, 8));
    __m128i prod_lo, prod_hi;
    Mul16Symbols(lo_b, hi_b, r, nib_mask, &prod_lo, &prod_hi);
    __m128i d0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    __m128i d1 = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(dst + i + 16));
    d0 = _mm_xor_si128(d0, _mm_unpacklo_epi8(prod_lo, prod_hi));
    d1 = _mm_xor_si128(d1, _mm_unpackhi_epi8(prod_lo, prod_hi));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), d0);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i + 16), d1);
  }
  MulAdd16TailNib(dst + i, src + i, n - i, t);
}

// Sources are folded in batches of kFusedBatch so the per-source tables
// live in a fixed stack footprint; within a batch each 32-byte dst block
// is loaded and stored exactly once while every source streams through.
constexpr size_t kFusedBatch = 16;

void Ssse3RowApply8(uint8_t* dst, const uint8_t* const* srcs,
                    const uint8_t* coeffs, size_t num_srcs, size_t n) {
  const Nib8Tables* nib8 = PrebuiltNib8();
  for (size_t base = 0; base < num_srcs; base += kFusedBatch) {
    const size_t batch = std::min(kFusedBatch, num_srcs - base);
    const Nib8Tables* tabs[kFusedBatch];
    const uint8_t* use[kFusedBatch];
    size_t used = 0;
    for (size_t s = 0; s < batch; ++s) {
      if (coeffs[base + s] == 0) continue;
      tabs[used] = &nib8[coeffs[base + s]];
      use[used] = srcs[base + s];
      ++used;
    }
    if (used == 0) continue;
    const __m128i nib_mask = _mm_set1_epi8(0x0F);
    size_t i = 0;
    for (; i + 32 <= n; i += 32) {
      __m128i d0 = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(dst + i));
      __m128i d1 = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(dst + i + 16));
      for (size_t s = 0; s < used; ++s) {
        const __m128i tlo = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(tabs[s]->lo));
        const __m128i thi = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(tabs[s]->hi));
        const __m128i s0 = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(use[s] + i));
        const __m128i s1 = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(use[s] + i + 16));
        d0 = _mm_xor_si128(d0, Mul16Bytes(s0, tlo, thi, nib_mask));
        d1 = _mm_xor_si128(d1, Mul16Bytes(s1, tlo, thi, nib_mask));
      }
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), d0);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i + 16), d1);
    }
    for (size_t s = 0; s < used; ++s) {
      MulAdd8TailNib(dst + i, use[s] + i, n - i, *tabs[s]);
    }
  }
}

void Ssse3RowApply16(uint8_t* dst, const uint8_t* const* srcs,
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
    const __m128i nib_mask = _mm_set1_epi8(0x0F);
    const __m128i byte_mask = _mm_set1_epi16(0x00FF);
    size_t i = 0;
    for (; i + 32 <= n; i += 32) {
      __m128i d0 = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(dst + i));
      __m128i d1 = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(dst + i + 16));
      for (size_t s = 0; s < used; ++s) {
        Nib16Regs r;
        LoadNib16(tabs[s], &r);
        const __m128i v0 = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(use[s] + i));
        const __m128i v1 = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(use[s] + i + 16));
        const __m128i lo_b = _mm_packus_epi16(
            _mm_and_si128(v0, byte_mask), _mm_and_si128(v1, byte_mask));
        const __m128i hi_b = _mm_packus_epi16(_mm_srli_epi16(v0, 8),
                                              _mm_srli_epi16(v1, 8));
        __m128i prod_lo, prod_hi;
        Mul16Symbols(lo_b, hi_b, r, nib_mask, &prod_lo, &prod_hi);
        d0 = _mm_xor_si128(d0, _mm_unpacklo_epi8(prod_lo, prod_hi));
        d1 = _mm_xor_si128(d1, _mm_unpackhi_epi8(prod_lo, prod_hi));
      }
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), d0);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i + 16), d1);
    }
    for (size_t s = 0; s < used; ++s) {
      MulAdd16TailNib(dst + i, use[s] + i, n - i, tabs[s]);
    }
  }
}

}  // namespace

const GfKernels kKernelsSsse3 = {
    "ssse3",        Ssse3Xor,       Ssse3MulAdd8,
    Ssse3MulAdd16,  Ssse3RowApply8, Ssse3RowApply16,
};

}  // namespace lhrs::gfk

#endif  // defined(__SSSE3__)
