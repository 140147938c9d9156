// Property tests for the runtime-dispatched GF kernel layer (gf/kernels.h).
//
// Every kernel tier available on this machine is exercised directly via
// AvailableKernels() and compared byte-for-byte against the pinned "scalar"
// reference tier, across random lengths (including odd tails and sub-word
// sizes), unaligned source/destination offsets, and the full coefficient
// space (exhaustive for GF(2^8), edge cases plus random samples for
// GF(2^16)). CI additionally runs this binary with LHRS_KERNEL_ISA forced
// to "scalar", "wordwise" and "native" to cover the env-override path end
// to end.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/rng.h"
#include "gf/gf256.h"
#include "gf/gf65536.h"
#include "gf/kernels.h"
#include "gf/kernels_internal.h"

namespace lhrs {
namespace {

// Lengths chosen to straddle every kernel boundary: empty, sub-word, word,
// one vector, vector +/- 1, the 32/64/128-byte main-loop strides, and a
// large size with a ragged tail.
constexpr size_t kLengths[] = {0,  1,  2,  3,   7,   8,   9,   15,  16, 17, 31,
                               32, 33, 63, 64,  65,  127, 128, 129, 255, 256,
                               257, 1000, 4096, 4101};

// Offsets into an over-allocated buffer, so kernels see misaligned
// pointers relative to the 16/32-byte vector widths.
constexpr size_t kOffsets[] = {0, 1, 3, 8, 13};

const GfKernels& Scalar() {
  const GfKernels* s = KernelsByName("scalar");
  EXPECT_NE(s, nullptr);
  return *s;
}

class GfKernelsTest : public ::testing::Test {
 protected:
  // Runs `op(kernels, dst, src, n)` for one tier and for the scalar
  // reference on identical inputs and expects identical output buffers.
  template <typename Op>
  void ExpectMatchesScalar(const GfKernels& k, size_t n, size_t dst_off,
                           size_t src_off, Rng& rng, Op op) {
    const Bytes src_store = rng.RandomBytes(src_off + n);
    const Bytes dst_init = rng.RandomBytes(dst_off + n);
    Bytes got = dst_init;
    Bytes want = dst_init;
    op(k, got.data() + dst_off, src_store.data() + src_off, n);
    op(Scalar(), want.data() + dst_off, src_store.data() + src_off, n);
    ASSERT_EQ(got, want) << "tier=" << k.name << " n=" << n
                         << " dst_off=" << dst_off << " src_off=" << src_off;
  }
};

TEST_F(GfKernelsTest, AvailableAlwaysIncludesPortableTiers) {
  const auto tiers = AvailableKernels();
  ASSERT_GE(tiers.size(), 2u);
  EXPECT_STREQ(tiers[0]->name, "scalar");
  EXPECT_STREQ(tiers[1]->name, "wordwise");
  for (const GfKernels* k : tiers) {
    EXPECT_EQ(KernelsByName(k->name), k);
  }
}

TEST_F(GfKernelsTest, KernelsByNameUnknownIsNull) {
  EXPECT_EQ(KernelsByName("avx9"), nullptr);
  EXPECT_EQ(KernelsByName(""), nullptr);
  // "native" is an env-override keyword, not a tier name.
  EXPECT_EQ(KernelsByName("native"), nullptr);
}

TEST_F(GfKernelsTest, ActiveKernelsIsAnAvailableTier) {
  const GfKernels& active = ActiveKernels();
  bool found = false;
  for (const GfKernels* k : AvailableKernels()) {
    if (k == &active) found = true;
  }
  EXPECT_TRUE(found) << active.name;
}

TEST_F(GfKernelsTest, ForceActiveKernelsOverridesAndRestores) {
  const GfKernels& startup = ActiveKernels();
  ForceActiveKernelsForTesting(KernelsByName("scalar"));
  EXPECT_STREQ(ActiveKernels().name, "scalar");
  ForceActiveKernelsForTesting(nullptr);
  EXPECT_EQ(&ActiveKernels(), &startup);
}

TEST_F(GfKernelsTest, XorMatchesScalarEverywhere) {
  Rng rng(0x9e3779b9);
  for (const GfKernels* k : AvailableKernels()) {
    for (size_t n : kLengths) {
      for (size_t dst_off : kOffsets) {
        for (size_t src_off : kOffsets) {
          ExpectMatchesScalar(*k, n, dst_off, src_off, rng,
                              [](const GfKernels& kk, uint8_t* d,
                                 const uint8_t* s,
                                 size_t len) { kk.xor_buf(d, s, len); });
        }
      }
    }
  }
}

TEST_F(GfKernelsTest, MulAdd8AllCoefficientsMatchScalar) {
  Rng rng(0xdecafbad);
  // Exhaustive over GF(2^8) coefficients at one boundary-straddling,
  // misaligned length.
  for (const GfKernels* k : AvailableKernels()) {
    for (uint32_t c = 0; c < 256; ++c) {
      ExpectMatchesScalar(
          *k, 257, 1, 3, rng,
          [c](const GfKernels& kk, uint8_t* d, const uint8_t* s, size_t len) {
            kk.mul_add_8(d, s, len, static_cast<uint8_t>(c));
          });
    }
  }
}

TEST_F(GfKernelsTest, MulAdd8RandomLengthsAndOffsetsMatchScalar) {
  Rng rng(0x5ca1ab1e);
  for (const GfKernels* k : AvailableKernels()) {
    for (size_t n : kLengths) {
      for (size_t dst_off : kOffsets) {
        const auto c = static_cast<uint8_t>(rng.Next64());
        ExpectMatchesScalar(
            *k, n, dst_off, (dst_off * 7 + 1) % 16, rng,
            [c](const GfKernels& kk, uint8_t* d, const uint8_t* s,
                size_t len) { kk.mul_add_8(d, s, len, c); });
      }
    }
  }
}

TEST_F(GfKernelsTest, MulAdd16EdgeAndRandomCoefficientsMatchScalar) {
  Rng rng(0xfeedface);
  const uint16_t edge[] = {0, 1, 2, 3, 0x00FF, 0x0100, 0x8000, 0xFFFF};
  for (const GfKernels* k : AvailableKernels()) {
    for (uint16_t c : edge) {
      ExpectMatchesScalar(
          *k, 4102, 1, 3, rng,
          [c](const GfKernels& kk, uint8_t* d, const uint8_t* s, size_t len) {
            kk.mul_add_16(d, s, len, c);
          });
    }
    for (int i = 0; i < 64; ++i) {
      const auto c = static_cast<uint16_t>(rng.Next64());
      // Even lengths only: GF(2^16) buffers hold whole symbols.
      const size_t n = 2 * (rng.Next64() % 300);
      ExpectMatchesScalar(
          *k, n, i % 4, (i * 5 + 2) % 8, rng,
          [c](const GfKernels& kk, uint8_t* d, const uint8_t* s, size_t len) {
            kk.mul_add_16(d, s, len, c);
          });
    }
  }
}

// Fused row apply must equal a sequence of independent MulAdds through the
// scalar tier. num_srcs sweeps past the fused batching width (16) and the
// coefficient vectors mix in zeros (skipped sources) and ones (pure XOR).
TEST_F(GfKernelsTest, MatrixRowApply8MatchesSequentialScalar) {
  Rng rng(0xab5eed);
  for (const GfKernels* k : AvailableKernels()) {
    for (size_t num_srcs : {size_t{1}, size_t{2}, size_t{4}, size_t{7},
                            size_t{16}, size_t{17}, size_t{33}}) {
      for (size_t n : {size_t{0}, size_t{5}, size_t{64}, size_t{257},
                       size_t{4101}}) {
        std::vector<Bytes> store;
        std::vector<const uint8_t*> srcs;
        std::vector<uint8_t> coeffs;
        for (size_t s = 0; s < num_srcs; ++s) {
          store.push_back(rng.RandomBytes(n));
          srcs.push_back(store.back().data());
          coeffs.push_back(s % 5 == 0 ? 0
                                      : static_cast<uint8_t>(rng.Next64()));
        }
        const Bytes dst_init = rng.RandomBytes(n);
        Bytes got = dst_init;
        Bytes want = dst_init;
        k->matrix_row_apply_8(got.data(), srcs.data(), coeffs.data(),
                              num_srcs, n);
        for (size_t s = 0; s < num_srcs; ++s) {
          Scalar().mul_add_8(want.data(), srcs[s], n, coeffs[s]);
        }
        ASSERT_EQ(got, want)
            << "tier=" << k->name << " num_srcs=" << num_srcs << " n=" << n;
      }
    }
  }
}

TEST_F(GfKernelsTest, MatrixRowApply16MatchesSequentialScalar) {
  Rng rng(0xc0ffee);
  for (const GfKernels* k : AvailableKernels()) {
    for (size_t num_srcs : {size_t{1}, size_t{3}, size_t{16}, size_t{17},
                            size_t{33}}) {
      for (size_t n : {size_t{0}, size_t{6}, size_t{64}, size_t{258},
                       size_t{4102}}) {
        std::vector<Bytes> store;
        std::vector<const uint8_t*> srcs;
        std::vector<uint16_t> coeffs;
        for (size_t s = 0; s < num_srcs; ++s) {
          store.push_back(rng.RandomBytes(n));
          srcs.push_back(store.back().data());
          coeffs.push_back(s % 4 == 0 ? 0
                                      : static_cast<uint16_t>(rng.Next64()));
        }
        const Bytes dst_init = rng.RandomBytes(n);
        Bytes got = dst_init;
        Bytes want = dst_init;
        k->matrix_row_apply_16(got.data(), srcs.data(), coeffs.data(),
                               num_srcs, n);
        for (size_t s = 0; s < num_srcs; ++s) {
          Scalar().mul_add_16(want.data(), srcs[s], n, coeffs[s]);
        }
        ASSERT_EQ(got, want)
            << "tier=" << k->name << " num_srcs=" << num_srcs << " n=" << n;
      }
    }
  }
}

// The process-wide split tables every tier but "scalar" reads: each
// coefficient's 16 low-nibble and 16 high-nibble products, against the
// bitwise multiply that fills them and the log/antilog field.
TEST_F(GfKernelsTest, PrebuiltSplitTablesMatchGfMul8) {
  const gfk::Nib8Tables* tables = gfk::PrebuiltNib8();
  EXPECT_EQ(gfk::PrebuiltNib8(), tables) << "the tables are built once";
  for (uint32_t c = 0; c < 256; ++c) {
    const auto coeff = static_cast<uint8_t>(c);
    for (uint32_t i = 0; i < 16; ++i) {
      const auto lo = static_cast<uint8_t>(i);
      const auto hi = static_cast<uint8_t>(i << 4);
      ASSERT_EQ(tables[c].lo[i], gfk::GfMul8(coeff, lo)) << c << " " << i;
      ASSERT_EQ(tables[c].lo[i], GF256::Mul(coeff, lo)) << c << " " << i;
      ASSERT_EQ(tables[c].hi[i], gfk::GfMul8(coeff, hi)) << c << " " << i;
      ASSERT_EQ(tables[c].hi[i], GF256::Mul(coeff, hi)) << c << " " << i;
    }
  }
}

// The degraded-read shape: four 1 KiB sources (and a ragged 1 KiB + 17),
// with the coefficients changing on every call. Over 255 calls each source
// position steps through every non-zero coefficient.
TEST_F(GfKernelsTest, MatrixRowApply8AllCoefficientsMatchScalar) {
  Rng rng(0x0dd5eed);
  constexpr size_t kSrcs = 4;
  for (size_t n : {size_t{1024}, size_t{1024 + 17}}) {
    std::vector<Bytes> store;
    std::vector<const uint8_t*> srcs;
    for (size_t s = 0; s < kSrcs; ++s) {
      store.push_back(rng.RandomBytes(n));
      srcs.push_back(store.back().data());
    }
    const Bytes dst_init = rng.RandomBytes(n);
    for (const GfKernels* k : AvailableKernels()) {
      for (uint32_t step = 0; step < 255; ++step) {
        uint8_t coeffs[kSrcs];
        for (size_t s = 0; s < kSrcs; ++s) {
          coeffs[s] = static_cast<uint8_t>(1 + (step + 64 * s) % 255);
        }
        Bytes got = dst_init;
        Bytes want = dst_init;
        k->matrix_row_apply_8(got.data(), srcs.data(), coeffs, kSrcs, n);
        Scalar().matrix_row_apply_8(want.data(), srcs.data(), coeffs, kSrcs,
                                    n);
        ASSERT_EQ(got, want) << "tier=" << k->name << " n=" << n
                             << " step=" << step;
      }
    }
  }
}

// Zero coefficients must be skipped without touching the source pointer —
// DecodeData passes nullptr for known-zero survivor columns.
TEST_F(GfKernelsTest, RowApplySkipsZeroCoefficientSourcesWithoutReading) {
  Rng rng(0xbadf00d);
  for (const GfKernels* k : AvailableKernels()) {
    const size_t n = 128;
    const Bytes real = rng.RandomBytes(n);
    const uint8_t* srcs[] = {nullptr, real.data(), nullptr};
    const uint8_t coeffs8[] = {0, 7, 0};
    const uint16_t coeffs16[] = {0, 7, 0};
    const Bytes dst_init = rng.RandomBytes(n);
    Bytes got = dst_init;
    Bytes want = dst_init;
    k->matrix_row_apply_8(got.data(), srcs, coeffs8, 3, n);
    Scalar().mul_add_8(want.data(), real.data(), n, 7);
    EXPECT_EQ(got, want) << k->name;
    got = dst_init;
    want = dst_init;
    k->matrix_row_apply_16(got.data(), srcs, coeffs16, 3, n);
    Scalar().mul_add_16(want.data(), real.data(), n, 7);
    EXPECT_EQ(got, want) << k->name;
  }
}

// The public field wrappers must ride whatever tier is active: force the
// scalar tier, capture outputs, then diff against every other tier.
TEST_F(GfKernelsTest, FieldWrappersAreByteIdenticalAcrossTiers) {
  Rng rng(0x1234567);
  const size_t n = 4096;
  const Bytes src = rng.RandomBytes(n);
  const Bytes dst_init = rng.RandomBytes(n);
  struct Snapshot {
    Bytes xored, ma8, ma16;
  };
  auto run = [&] {
    Snapshot s{dst_init, dst_init, dst_init};
    XorBuffer(s.xored.data(), src.data(), n);
    GF256::MulAddBuffer(s.ma8.data(), src.data(), n, 0x1D);
    GF65536::MulAddBuffer(s.ma16.data(), src.data(), n, 0x1100);
    return s;
  };
  ForceActiveKernelsForTesting(KernelsByName("scalar"));
  const Snapshot ref = run();
  for (const GfKernels* k : AvailableKernels()) {
    ForceActiveKernelsForTesting(k);
    const Snapshot got = run();
    EXPECT_EQ(got.xored, ref.xored) << k->name;
    EXPECT_EQ(got.ma8, ref.ma8) << k->name;
    EXPECT_EQ(got.ma16, ref.ma16) << k->name;
  }
  ForceActiveKernelsForTesting(nullptr);
}

// GF(2^16) buffers must hold whole symbols. The public wrapper CHECKs in
// every build type; the raw kernels assert() in debug builds only.
using GfKernelsDeathTest = GfKernelsTest;

TEST_F(GfKernelsDeathTest, Gf65536WrapperRejectsOddByteCount) {
  uint8_t dst[4] = {0};
  const uint8_t src[4] = {1, 2, 3, 4};
  EXPECT_DEATH(GF65536::MulAddBuffer(dst, src, 3, 0x1234), "whole symbols");
  EXPECT_DEATH(GF65536::MulAddBufferByteReference(dst, src, 3, 0x1234),
               "whole symbols");
}

#ifndef NDEBUG
TEST_F(GfKernelsDeathTest, RawKernelsAssertEvenByteCountInDebug) {
  uint8_t dst[4] = {0};
  const uint8_t src[4] = {1, 2, 3, 4};
  for (const GfKernels* k : AvailableKernels()) {
    EXPECT_DEATH(k->mul_add_16(dst, src, 3, 0x1234), "n % 2")
        << k->name;
    const uint8_t* srcs[] = {src};
    const uint16_t coeffs[] = {0x1234};
    EXPECT_DEATH(k->matrix_row_apply_16(dst, srcs, coeffs, 1, 3), "n % 2")
        << k->name;
  }
}
#endif

}  // namespace
}  // namespace lhrs
