// AVX2 kernel tier: 4-bit split-table VPSHUFB multiply, 32-byte vectors.
//
// Same split-table math as the SSSE3 tier (see kernels_ssse3.cc), twice
// the width: VPSHUFB shuffles per 128-bit lane, so each 16-entry nibble
// table is broadcast into both lanes and the lane-local pack/unpack pairs
// used by the GF(2^16) plane separation cancel each other exactly.
//
// Compiled with -mavx2; only entered after runtime CPU detection.

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>

#include "gf/kernels_internal.h"

#if defined(__AVX2__)

#include <immintrin.h>

namespace lhrs::gfk {
namespace {

inline __m256i Broadcast128(const uint8_t* table16) {
  return _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(table16)));
}

inline __m256i Mul32Bytes(__m256i v, __m256i tlo, __m256i thi,
                          __m256i nib_mask) {
  const __m256i lo = _mm256_and_si256(v, nib_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), nib_mask);
  return _mm256_xor_si256(_mm256_shuffle_epi8(tlo, lo),
                          _mm256_shuffle_epi8(thi, hi));
}

void Avx2Xor(uint8_t* dst, const uint8_t* src, size_t n) {
  size_t i = 0;
  for (; i + 128 <= n; i += 128) {
    const uint8_t* s = src + i;
    uint8_t* d = dst + i;
    __m256i d0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d));
    __m256i d1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d + 32));
    __m256i d2 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d + 64));
    __m256i d3 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d + 96));
    d0 = _mm256_xor_si256(
        d0, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s)));
    d1 = _mm256_xor_si256(
        d1, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s + 32)));
    d2 = _mm256_xor_si256(
        d2, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s + 64)));
    d3 = _mm256_xor_si256(
        d3, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s + 96)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(d), d0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(d + 32), d1);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(d + 64), d2);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(d + 96), d3);
  }
  for (; i + 32 <= n; i += 32) {
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(d, s));
  }
  for (; i < n; ++i) dst[i] ^= src[i];
}

void Avx2MulAdd8(uint8_t* dst, const uint8_t* src, size_t n, uint8_t coeff) {
  if (coeff == 0 || n == 0) return;
  if (coeff == 1) {
    Avx2Xor(dst, src, n);
    return;
  }
  const Nib8Tables& t = PrebuiltNib8()[coeff];
  const __m256i tlo = Broadcast128(t.lo);
  const __m256i thi = Broadcast128(t.hi);
  const __m256i nib_mask = _mm256_set1_epi8(0x0F);
  size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m256i s0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i s1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i + 32));
    __m256i d0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    __m256i d1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i + 32));
    d0 = _mm256_xor_si256(d0, Mul32Bytes(s0, tlo, thi, nib_mask));
    d1 = _mm256_xor_si256(d1, Mul32Bytes(s1, tlo, thi, nib_mask));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), d0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + 32), d1);
  }
  for (; i + 32 <= n; i += 32) {
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    d = _mm256_xor_si256(d, Mul32Bytes(s, tlo, thi, nib_mask));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), d);
  }
  MulAdd8TailNib(dst + i, src + i, n - i, t);
}

struct Nib16Regs {
  __m256i lo[4];
  __m256i hi[4];
};

inline void LoadNib16(const Nib16Tables& t, Nib16Regs* r) {
  for (int p = 0; p < 4; ++p) {
    r->lo[p] = Broadcast128(t.prod_lo[p]);
    r->hi[p] = Broadcast128(t.prod_hi[p]);
  }
}

inline void Mul32Symbols(__m256i lo_b, __m256i hi_b, const Nib16Regs& r,
                         __m256i nib_mask, __m256i* out_lo,
                         __m256i* out_hi) {
  const __m256i n0 = _mm256_and_si256(lo_b, nib_mask);
  const __m256i n1 = _mm256_and_si256(_mm256_srli_epi16(lo_b, 4), nib_mask);
  const __m256i n2 = _mm256_and_si256(hi_b, nib_mask);
  const __m256i n3 = _mm256_and_si256(_mm256_srli_epi16(hi_b, 4), nib_mask);
  *out_lo = _mm256_xor_si256(
      _mm256_xor_si256(_mm256_shuffle_epi8(r.lo[0], n0),
                       _mm256_shuffle_epi8(r.lo[1], n1)),
      _mm256_xor_si256(_mm256_shuffle_epi8(r.lo[2], n2),
                       _mm256_shuffle_epi8(r.lo[3], n3)));
  *out_hi = _mm256_xor_si256(
      _mm256_xor_si256(_mm256_shuffle_epi8(r.hi[0], n0),
                       _mm256_shuffle_epi8(r.hi[1], n1)),
      _mm256_xor_si256(_mm256_shuffle_epi8(r.hi[2], n2),
                       _mm256_shuffle_epi8(r.hi[3], n3)));
}

void Avx2MulAdd16(uint8_t* dst, const uint8_t* src, size_t n,
                  uint16_t coeff) {
  assert(n % 2 == 0 && "GF(2^16) kernels operate on whole symbols");
  if (coeff == 0 || n == 0) return;
  if (coeff == 1) {
    Avx2Xor(dst, src, n);
    return;
  }
  Nib16Tables t;
  BuildNib16(coeff, &t);
  Nib16Regs r;
  LoadNib16(t, &r);
  const __m256i nib_mask = _mm256_set1_epi8(0x0F);
  const __m256i byte_mask = _mm256_set1_epi16(0x00FF);
  size_t i = 0;
  // 32 symbols (64 bytes) per iteration. _mm256_packus_epi16 and the
  // unpack pair both operate per lane, so the deinterleave/reinterleave
  // round-trips without any cross-lane fixup.
  for (; i + 64 <= n; i += 64) {
    const __m256i v0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i v1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i + 32));
    const __m256i lo_b = _mm256_packus_epi16(
        _mm256_and_si256(v0, byte_mask), _mm256_and_si256(v1, byte_mask));
    const __m256i hi_b = _mm256_packus_epi16(_mm256_srli_epi16(v0, 8),
                                             _mm256_srli_epi16(v1, 8));
    __m256i prod_lo, prod_hi;
    Mul32Symbols(lo_b, hi_b, r, nib_mask, &prod_lo, &prod_hi);
    __m256i d0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    __m256i d1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i + 32));
    d0 = _mm256_xor_si256(d0, _mm256_unpacklo_epi8(prod_lo, prod_hi));
    d1 = _mm256_xor_si256(d1, _mm256_unpackhi_epi8(prod_lo, prod_hi));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), d0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + 32), d1);
  }
  MulAdd16TailNib(dst + i, src + i, n - i, t);
}

constexpr size_t kFusedBatch = 16;

void Avx2RowApply8(uint8_t* dst, const uint8_t* const* srcs,
                   const uint8_t* coeffs, size_t num_srcs, size_t n) {
  const Nib8Tables* nib8 = PrebuiltNib8();
  for (size_t base = 0; base < num_srcs; base += kFusedBatch) {
    const size_t batch = std::min(kFusedBatch, num_srcs - base);
    const Nib8Tables* tabs[kFusedBatch];
    __m256i tlo[kFusedBatch], thi[kFusedBatch];
    const uint8_t* use[kFusedBatch];
    size_t used = 0;
    for (size_t s = 0; s < batch; ++s) {
      if (coeffs[base + s] == 0) continue;
      tabs[used] = &nib8[coeffs[base + s]];
      tlo[used] = Broadcast128(tabs[used]->lo);
      thi[used] = Broadcast128(tabs[used]->hi);
      use[used] = srcs[base + s];
      ++used;
    }
    if (used == 0) continue;
    const __m256i nib_mask = _mm256_set1_epi8(0x0F);
    size_t i = 0;
    for (; i + 64 <= n; i += 64) {
      __m256i d0 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
      __m256i d1 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(dst + i + 32));
      for (size_t s = 0; s < used; ++s) {
        const __m256i s0 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(use[s] + i));
        const __m256i s1 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(use[s] + i + 32));
        d0 = _mm256_xor_si256(d0, Mul32Bytes(s0, tlo[s], thi[s], nib_mask));
        d1 = _mm256_xor_si256(d1, Mul32Bytes(s1, tlo[s], thi[s], nib_mask));
      }
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), d0);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + 32), d1);
    }
    for (; i + 32 <= n; i += 32) {
      __m256i d =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
      for (size_t s = 0; s < used; ++s) {
        const __m256i sv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(use[s] + i));
        d = _mm256_xor_si256(d, Mul32Bytes(sv, tlo[s], thi[s], nib_mask));
      }
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), d);
    }
    for (size_t s = 0; s < used; ++s) {
      MulAdd8TailNib(dst + i, use[s] + i, n - i, *tabs[s]);
    }
  }
}

void Avx2RowApply16(uint8_t* dst, const uint8_t* const* srcs,
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
    const __m256i nib_mask = _mm256_set1_epi8(0x0F);
    const __m256i byte_mask = _mm256_set1_epi16(0x00FF);
    size_t i = 0;
    for (; i + 64 <= n; i += 64) {
      __m256i d0 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
      __m256i d1 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(dst + i + 32));
      for (size_t s = 0; s < used; ++s) {
        Nib16Regs r;
        LoadNib16(tabs[s], &r);
        const __m256i v0 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(use[s] + i));
        const __m256i v1 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(use[s] + i + 32));
        const __m256i lo_b =
            _mm256_packus_epi16(_mm256_and_si256(v0, byte_mask),
                                _mm256_and_si256(v1, byte_mask));
        const __m256i hi_b = _mm256_packus_epi16(
            _mm256_srli_epi16(v0, 8), _mm256_srli_epi16(v1, 8));
        __m256i prod_lo, prod_hi;
        Mul32Symbols(lo_b, hi_b, r, nib_mask, &prod_lo, &prod_hi);
        d0 = _mm256_xor_si256(d0, _mm256_unpacklo_epi8(prod_lo, prod_hi));
        d1 = _mm256_xor_si256(d1, _mm256_unpackhi_epi8(prod_lo, prod_hi));
      }
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), d0);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + 32), d1);
    }
    for (size_t s = 0; s < used; ++s) {
      MulAdd16TailNib(dst + i, use[s] + i, n - i, tabs[s]);
    }
  }
}

}  // namespace

const GfKernels kKernelsAvx2 = {
    "avx2",        Avx2Xor,       Avx2MulAdd8,
    Avx2MulAdd16,  Avx2RowApply8, Avx2RowApply16,
};

}  // namespace lhrs::gfk

#endif  // defined(__AVX2__)
