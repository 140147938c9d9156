#ifndef LHRS_GF_KERNELS_INTERNAL_H_
#define LHRS_GF_KERNELS_INTERNAL_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "gf/kernels.h"

// Shared machinery for the per-ISA kernel translation units. Everything
// here is self-contained (no dependency on GF256/GF65536 or lhrs_common):
// the kernels library sits below every other target, so lhrs_common's
// XorBuffer can forward into it without a dependency cycle.

namespace lhrs::gfk {

inline constexpr uint32_t kPoly8 = 0x11D;    // x^8+x^4+x^3+x^2+1.
inline constexpr uint32_t kPoly16 = 0x1100B;  // x^16+x^12+x^3+x+1.

/// Carry-less shift-and-add multiply, used only to build lookup tables:
/// the prebuilt GF(2^8) split tables once per process, the scalar tier's
/// product row and the GF(2^16) tables once per bulk call. Matches
/// GF256::Mul / GF65536::Mul by construction: same polynomials, same bit
/// order.
inline uint8_t GfMul8(uint8_t a, uint8_t b) {
  uint32_t acc = 0;
  uint32_t aa = a;
  for (uint32_t bb = b; bb != 0; bb >>= 1) {
    if (bb & 1) acc ^= aa;
    aa <<= 1;
    if (aa & 0x100) aa ^= kPoly8;
  }
  return static_cast<uint8_t>(acc);
}

inline uint16_t GfMul16(uint16_t a, uint16_t b) {
  uint32_t acc = 0;
  uint32_t aa = a;
  for (uint32_t bb = b; bb != 0; bb >>= 1) {
    if (bb & 1) acc ^= aa;
    aa <<= 1;
    if (aa & 0x10000) aa ^= kPoly16;
  }
  return static_cast<uint16_t>(acc);
}

/// row[b] = coeff * b for all 256 bytes, one GfMul8 per entry — the
/// scalar tier's product row. That tier is the oracle every other tier is
/// checked against, so it builds its row bitwise instead of reading the
/// prebuilt split tables the other tiers share.
inline void BuildRow8(uint8_t coeff, uint8_t row[256]) {
  row[0] = 0;
  for (uint32_t b = 1; b < 256; ++b) {
    row[b] = GfMul8(coeff, static_cast<uint8_t>(b));
  }
}

/// 4-bit split tables for GF(2^8): product(b) = lo[b & 15] ^ hi[b >> 4].
/// 32 bytes per coefficient — one PSHUFB register pair.
struct Nib8Tables {
  uint8_t lo[16];
  uint8_t hi[16];
};

/// The split tables of every GF(2^8) coefficient, indexed by coefficient:
/// 256 x 32 B = 8 KiB, filled with GfMul8 on first use (thread-safe static
/// initialization) and read-only afterwards. The SIMD tiers and the
/// word-wise tier read their tables from here, so a kernel call costs no
/// table set-up however short its buffer. Defined in kernels_portable.cc,
/// which is compiled without ISA flags, so the one-time fill runs on any
/// CPU.
const Nib8Tables* PrebuiltNib8();

/// 4-bit split tables for GF(2^16). A symbol s = hi_byte:lo_byte splits
/// into four nibbles; the product accumulates one 16-bit contribution per
/// nibble, stored as separate low-byte/high-byte shuffle tables so the
/// SIMD kernels can keep the two product halves in separate registers:
///   prod_lo(s) = ll[n0]^lh[n1]^hl[n2]^hh[n3] (low byte), prod_hi likewise.
/// 128 bytes per coefficient.
struct Nib16Tables {
  // [nibble position 0..3][nibble value 0..15]; position 0 is bits 0-3.
  uint8_t prod_lo[4][16];
  uint8_t prod_hi[4][16];
};

inline void BuildNib16(uint16_t coeff, Nib16Tables* t) {
  for (uint32_t pos = 0; pos < 4; ++pos) {
    for (uint32_t i = 0; i < 16; ++i) {
      const uint16_t p =
          GfMul16(coeff, static_cast<uint16_t>(i << (4 * pos)));
      t->prod_lo[pos][i] = static_cast<uint8_t>(p);
      t->prod_hi[pos][i] = static_cast<uint8_t>(p >> 8);
    }
  }
}

/// 8-bit split tables for GF(2^16) — the word-wise tier's variant:
/// product(s) = lo[s & 0xFF] ^ hi[s >> 8]. 1 KiB per coefficient, still
/// L1-resident; 512 table builds amortize over the buffer.
struct Split16Tables {
  uint16_t lo[256];
  uint16_t hi[256];
};

inline void BuildSplit16(uint16_t coeff, Split16Tables* t) {
  t->lo[0] = 0;
  t->hi[0] = 0;
  for (uint32_t b = 1; b < 256; ++b) {
    t->lo[b] = GfMul16(coeff, static_cast<uint16_t>(b));
    t->hi[b] = GfMul16(coeff, static_cast<uint16_t>(b << 8));
  }
}

/// Scalar tail loops shared by the SIMD translation units (plain C++, no
/// intrinsics, so they compile identically in every TU). The SIMD kernels
/// delegate their sub-vector tails here with the tables already built.
inline void MulAdd8TailNib(uint8_t* dst, const uint8_t* src, size_t n,
                           const Nib8Tables& t) {
  for (size_t i = 0; i < n; ++i) {
    const uint8_t s = src[i];
    dst[i] ^= static_cast<uint8_t>(t.lo[s & 15] ^ t.hi[s >> 4]);
  }
}

inline void MulAdd16TailNib(uint8_t* dst, const uint8_t* src, size_t n,
                            const Nib16Tables& t) {
  assert(n % 2 == 0 && "GF(2^16) kernels operate on whole symbols");
  for (size_t i = 0; i + 2 <= n; i += 2) {
    const uint8_t sl = src[i];
    const uint8_t sh = src[i + 1];
    dst[i] ^= static_cast<uint8_t>(t.prod_lo[0][sl & 15] ^
                                   t.prod_lo[1][sl >> 4] ^
                                   t.prod_lo[2][sh & 15] ^
                                   t.prod_lo[3][sh >> 4]);
    dst[i + 1] ^= static_cast<uint8_t>(t.prod_hi[0][sl & 15] ^
                                       t.prod_hi[1][sl >> 4] ^
                                       t.prod_hi[2][sh & 15] ^
                                       t.prod_hi[3][sh >> 4]);
  }
}

// Tier tables defined by the per-ISA translation units. The SIMD tiers
// exist only when their TU is compiled in (CMake feature checks set
// LHRS_HAVE_KERNELS_*); kernels.cc additionally gates them on runtime CPU
// support before they become selectable.
extern const GfKernels kKernelsScalar;    // kernels_portable.cc
extern const GfKernels kKernelsWordwise;  // kernels_portable.cc
#if defined(LHRS_HAVE_KERNELS_SSSE3)
extern const GfKernels kKernelsSsse3;  // kernels_ssse3.cc (-mssse3)
#endif
#if defined(LHRS_HAVE_KERNELS_AVX2)
extern const GfKernels kKernelsAvx2;  // kernels_avx2.cc (-mavx2)
#endif
#if defined(LHRS_HAVE_KERNELS_NEON)
extern const GfKernels kKernelsNeon;  // kernels_neon.cc (aarch64)
#endif

}  // namespace lhrs::gfk

#endif  // LHRS_GF_KERNELS_INTERNAL_H_
