// The two portable kernel tiers.
//
// "scalar": the pinned byte-/symbol-wise loops. These are the correctness
// oracle for every other tier (kernel property tests assert byte-identical
// output) and the denominator of bench_t3's speedup columns, so they are
// pinned against auto-vectorization — without that, -O3 silently turns the
// "reference" into another SIMD kernel.
//
// "wordwise": PR 3's uint64-at-a-time kernels (XOR and the GF(2^8) product
// row gather), plus an 8-bit split-table GF(2^16) gather. The portable
// floor: selected when no SIMD tier is compiled in or supported.
//
// This file also holds the prebuilt GF(2^8) split tables every tier but
// "scalar" reads.

#include <array>
#include <cassert>
#include <cstdint>
#include <cstring>

#include "gf/kernels_internal.h"

namespace lhrs::gfk {

const Nib8Tables* PrebuiltNib8() {
  static const std::array<Nib8Tables, 256> kTables = [] {
    std::array<Nib8Tables, 256> tables{};
    for (uint32_t c = 0; c < 256; ++c) {
      for (uint32_t i = 0; i < 16; ++i) {
        tables[c].lo[i] = GfMul8(static_cast<uint8_t>(c),
                                 static_cast<uint8_t>(i));
        tables[c].hi[i] = GfMul8(static_cast<uint8_t>(c),
                                 static_cast<uint8_t>(i << 4));
      }
    }
    return tables;
  }();
  return kTables.data();
}

namespace {

// --- scalar tier -----------------------------------------------------------

#if defined(__GNUC__) && !defined(__clang__)
#define LHRS_NO_VECTORIZE \
  __attribute__((optimize("no-tree-vectorize", "no-tree-slp-vectorize")))
#else
#define LHRS_NO_VECTORIZE
#endif

LHRS_NO_VECTORIZE
void ScalarXor(uint8_t* dst, const uint8_t* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] ^= src[i];
}

LHRS_NO_VECTORIZE
void ScalarMulAdd8(uint8_t* dst, const uint8_t* src, size_t n,
                   uint8_t coeff) {
  if (coeff == 0 || n == 0) return;
  if (coeff == 1) {
    ScalarXor(dst, src, n);
    return;
  }
  uint8_t row[256];
  BuildRow8(coeff, row);
  for (size_t i = 0; i < n; ++i) dst[i] ^= row[src[i]];
}

LHRS_NO_VECTORIZE
void ScalarMulAdd16(uint8_t* dst, const uint8_t* src, size_t n,
                    uint16_t coeff) {
  assert(n % 2 == 0 && "GF(2^16) kernels operate on whole symbols");
  if (coeff == 0 || n == 0) return;
  if (coeff == 1) {
    ScalarXor(dst, src, n);
    return;
  }
  Split16Tables t;
  BuildSplit16(coeff, &t);
  for (size_t i = 0; i + 2 <= n; i += 2) {
    uint16_t s;
    std::memcpy(&s, src + i, 2);
    const uint16_t prod =
        static_cast<uint16_t>(t.lo[s & 0xFF] ^ t.hi[s >> 8]);
    uint16_t d;
    std::memcpy(&d, dst + i, 2);
    d ^= prod;
    std::memcpy(dst + i, &d, 2);
  }
}

void ScalarRowApply8(uint8_t* dst, const uint8_t* const* srcs,
                     const uint8_t* coeffs, size_t num_srcs, size_t n) {
  for (size_t s = 0; s < num_srcs; ++s) {
    if (coeffs[s] == 0) continue;
    ScalarMulAdd8(dst, srcs[s], n, coeffs[s]);
  }
}

void ScalarRowApply16(uint8_t* dst, const uint8_t* const* srcs,
                      const uint16_t* coeffs, size_t num_srcs, size_t n) {
  for (size_t s = 0; s < num_srcs; ++s) {
    if (coeffs[s] == 0) continue;
    ScalarMulAdd16(dst, srcs[s], n, coeffs[s]);
  }
}

// --- wordwise tier ---------------------------------------------------------

// 4-way unrolled word loop: 32 bytes per iteration. memcpy compiles to
// plain (possibly unaligned) word loads/stores on every target we care
// about, so this is alignment-agnostic; the 64-byte-aligned buffers from
// the storage layer take the fast path end to end.
void WordXor(uint8_t* dst, const uint8_t* src, size_t n) {
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    uint64_t d0, d1, d2, d3, s0, s1, s2, s3;
    std::memcpy(&d0, dst + i, 8);
    std::memcpy(&d1, dst + i + 8, 8);
    std::memcpy(&d2, dst + i + 16, 8);
    std::memcpy(&d3, dst + i + 24, 8);
    std::memcpy(&s0, src + i, 8);
    std::memcpy(&s1, src + i + 8, 8);
    std::memcpy(&s2, src + i + 16, 8);
    std::memcpy(&s3, src + i + 24, 8);
    d0 ^= s0;
    d1 ^= s1;
    d2 ^= s2;
    d3 ^= s3;
    std::memcpy(dst + i, &d0, 8);
    std::memcpy(dst + i + 8, &d1, 8);
    std::memcpy(dst + i + 16, &d2, 8);
    std::memcpy(dst + i + 24, &d3, 8);
  }
  for (; i + 8 <= n; i += 8) {
    uint64_t d, s;
    std::memcpy(&d, dst + i, 8);
    std::memcpy(&s, src + i, 8);
    d ^= s;
    std::memcpy(dst + i, &d, 8);
  }
  for (; i < n; ++i) dst[i] ^= src[i];
}

/// Eight product-row lookups packed into one little-endian word.
inline uint64_t GatherRow8(const uint8_t* src, const uint8_t* row) {
  return uint64_t{row[src[0]]} | uint64_t{row[src[1]]} << 8 |
         uint64_t{row[src[2]]} << 16 | uint64_t{row[src[3]]} << 24 |
         uint64_t{row[src[4]]} << 32 | uint64_t{row[src[5]]} << 40 |
         uint64_t{row[src[6]]} << 48 | uint64_t{row[src[7]]} << 56;
}

// The gathers are inherently byte lookups, but accumulating them into a
// word halves the loads/stores on dst: one read-xor-write of 8 bytes
// instead of eight. The 256-byte product row stays L1-resident; it is
// expanded from the coefficient's prebuilt split tables (256 XORs, no
// field multiplies).
void WordMulAdd8(uint8_t* dst, const uint8_t* src, size_t n, uint8_t coeff) {
  if (coeff == 0 || n == 0) return;
  if (coeff == 1) {
    WordXor(dst, src, n);
    return;
  }
  const Nib8Tables& t = PrebuiltNib8()[coeff];
  uint8_t row[256];
  for (uint32_t b = 0; b < 256; ++b) {
    row[b] = static_cast<uint8_t>(t.lo[b & 15] ^ t.hi[b >> 4]);
  }
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    uint64_t d0, d1;
    std::memcpy(&d0, dst + i, 8);
    std::memcpy(&d1, dst + i + 8, 8);
    d0 ^= GatherRow8(src + i, row);
    d1 ^= GatherRow8(src + i + 8, row);
    std::memcpy(dst + i, &d0, 8);
    std::memcpy(dst + i + 8, &d1, 8);
  }
  for (; i + 8 <= n; i += 8) {
    uint64_t d;
    std::memcpy(&d, dst + i, 8);
    d ^= GatherRow8(src + i, row);
    std::memcpy(dst + i, &d, 8);
  }
  for (; i < n; ++i) dst[i] ^= row[src[i]];
}

/// Four split-table products (two 16-bit lookups each) packed into a word.
inline uint64_t GatherSplit16(const uint8_t* src, const Split16Tables& t) {
  uint16_t s0, s1, s2, s3;
  std::memcpy(&s0, src, 2);
  std::memcpy(&s1, src + 2, 2);
  std::memcpy(&s2, src + 4, 2);
  std::memcpy(&s3, src + 6, 2);
  return uint64_t{static_cast<uint16_t>(t.lo[s0 & 0xFF] ^ t.hi[s0 >> 8])} |
         uint64_t{static_cast<uint16_t>(t.lo[s1 & 0xFF] ^ t.hi[s1 >> 8])}
             << 16 |
         uint64_t{static_cast<uint16_t>(t.lo[s2 & 0xFF] ^ t.hi[s2 >> 8])}
             << 32 |
         uint64_t{static_cast<uint16_t>(t.lo[s3 & 0xFF] ^ t.hi[s3 >> 8])}
             << 48;
}

// 8-bit split tables (1 KiB, L1-resident) replace the log/exp walk of the
// archival GF(2^16) path: two lookups and one XOR per symbol with no
// zero-test branch, gathered four symbols per dst word.
void WordMulAdd16(uint8_t* dst, const uint8_t* src, size_t n,
                  uint16_t coeff) {
  assert(n % 2 == 0 && "GF(2^16) kernels operate on whole symbols");
  if (coeff == 0 || n == 0) return;
  if (coeff == 1) {
    WordXor(dst, src, n);
    return;
  }
  Split16Tables t;
  BuildSplit16(coeff, &t);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t d;
    std::memcpy(&d, dst + i, 8);
    d ^= GatherSplit16(src + i, t);
    std::memcpy(dst + i, &d, 8);
  }
  for (; i + 2 <= n; i += 2) {
    uint16_t s;
    std::memcpy(&s, src + i, 2);
    const uint16_t prod =
        static_cast<uint16_t>(t.lo[s & 0xFF] ^ t.hi[s >> 8]);
    uint16_t d;
    std::memcpy(&d, dst + i, 2);
    d ^= prod;
    std::memcpy(dst + i, &d, 2);
  }
}

void WordRowApply8(uint8_t* dst, const uint8_t* const* srcs,
                   const uint8_t* coeffs, size_t num_srcs, size_t n) {
  for (size_t s = 0; s < num_srcs; ++s) {
    if (coeffs[s] == 0) continue;
    WordMulAdd8(dst, srcs[s], n, coeffs[s]);
  }
}

void WordRowApply16(uint8_t* dst, const uint8_t* const* srcs,
                    const uint16_t* coeffs, size_t num_srcs, size_t n) {
  for (size_t s = 0; s < num_srcs; ++s) {
    if (coeffs[s] == 0) continue;
    WordMulAdd16(dst, srcs[s], n, coeffs[s]);
  }
}

}  // namespace

const GfKernels kKernelsScalar = {
    "scalar",        ScalarXor,         ScalarMulAdd8,
    ScalarMulAdd16,  ScalarRowApply8,   ScalarRowApply16,
};

const GfKernels kKernelsWordwise = {
    "wordwise",      WordXor,           WordMulAdd8,
    WordMulAdd16,    WordRowApply8,     WordRowApply16,
};

}  // namespace lhrs::gfk
