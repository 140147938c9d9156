// Unit and property tests for the Reed-Solomon layer: matrix algebra, the
// normalised-Cauchy generator matrix (MDS property), and the RS and LRC
// parity codes (encode, incremental delta updates, erasure decode,
// progressive decoding, repair planning).

#include <algorithm>
#include <bit>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "gf/gf256.h"
#include "gf/gf65536.h"
#include "parity/generator.h"
#include "parity/matrix.h"
#include "parity/parity_code.h"

namespace lhrs {
namespace {

TEST(MatrixTest, IdentityInversion) {
  auto id = Matrix<GF256>::Identity(5);
  auto inv = id.Inverted();
  ASSERT_TRUE(inv.ok());
  EXPECT_TRUE(*inv == id);
}

TEST(MatrixTest, RandomInversionRoundTrip) {
  Rng rng(101);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t n = 1 + rng.Uniform(8);
    Matrix<GF256> m(n, n);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        m.Set(i, j, static_cast<uint8_t>(rng.Next64()));
      }
    }
    auto inv = m.Inverted();
    if (!inv.ok()) continue;  // Singular draw; skip.
    auto prod = m.Mul(*inv);
    EXPECT_TRUE(prod == Matrix<GF256>::Identity(n));
  }
}

TEST(MatrixTest, SingularMatrixRejected) {
  Matrix<GF256> m(2, 2);
  m.Set(0, 0, 3);
  m.Set(0, 1, 5);
  m.Set(1, 0, 3);
  m.Set(1, 1, 5);  // Equal rows.
  auto inv = m.Inverted();
  EXPECT_FALSE(inv.ok());
  EXPECT_TRUE(inv.status().IsInvalidArgument());
  EXPECT_EQ(m.Determinant(), 0);
}

TEST(MatrixTest, DeterminantMatchesInvertibility) {
  Rng rng(103);
  for (int trial = 0; trial < 100; ++trial) {
    const size_t n = 1 + rng.Uniform(5);
    Matrix<GF256> m(n, n);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        m.Set(i, j, static_cast<uint8_t>(rng.Next64()));
      }
    }
    EXPECT_EQ(m.Determinant() != 0, m.Inverted().ok());
  }
}

TEST(GeneratorTest, FirstColumnAllOnes) {
  for (uint32_t m : {1u, 2u, 4u, 8u, 16u}) {
    for (uint32_t k : {1u, 2u, 3u, 4u}) {
      auto p = BuildParityMatrix<GF256>(m, k);
      ASSERT_TRUE(p.ok());
      for (uint32_t i = 0; i < m; ++i) {
        EXPECT_EQ(p->At(i, 0), 1) << "m=" << m << " k=" << k << " i=" << i;
      }
      for (uint32_t j = 0; j < k; ++j) {
        EXPECT_EQ(p->At(0, j), 1) << "first row must be all ones";
      }
    }
  }
}

TEST(GeneratorTest, RejectsInvalidParameters) {
  EXPECT_FALSE(BuildParityMatrix<GF256>(0, 1).ok());
  EXPECT_FALSE(BuildParityMatrix<GF256>(1, 0).ok());
  EXPECT_FALSE(BuildParityMatrix<GF256>(200, 100).ok());  // m + k > 256.
  EXPECT_TRUE(BuildParityMatrix<GF256>(128, 128).ok());
}

// The central correctness property: every square submatrix of the parity
// matrix must be nonsingular, which makes the systematic code MDS.
class MdsPropertyTest
    : public ::testing::TestWithParam<std::pair<uint32_t, uint32_t>> {};

TEST_P(MdsPropertyTest, CauchyDerivedMatrixIsMds) {
  const auto [m, k] = GetParam();
  auto p = BuildParityMatrix<GF256>(m, k);
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(IsMdsParityMatrix(*p)) << "m=" << m << " k=" << k;
}

INSTANTIATE_TEST_SUITE_P(
    AllGeometries, MdsPropertyTest,
    ::testing::Values(std::pair{2u, 1u}, std::pair{2u, 2u}, std::pair{3u, 2u},
                      std::pair{4u, 1u}, std::pair{4u, 2u}, std::pair{4u, 3u},
                      std::pair{4u, 4u}, std::pair{8u, 2u}, std::pair{8u, 3u},
                      std::pair{16u, 3u}, std::pair{16u, 4u},
                      std::pair{32u, 4u}));

TEST(MdsPropertyTest, CauchyMatrixIsMdsOverGf65536Too) {
  auto p = BuildParityMatrix<GF65536>(8, 3);
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(IsMdsParityMatrix(*p));
}

// Ablation: the naive Vandermonde-style construction alpha^(i*j) appended
// to an identity is NOT MDS in general — the reason LH*RS needs the
// Cauchy-derived generator. A 2x2 submatrix with rows {i1, i2} and columns
// {j1, j2} is singular iff (i1-i2)(j1-j2) = 0 mod 255; the smallest such
// geometry within field bounds is m = 86 (row gap 85), k = 4 (column gap
// 3), since 85 * 3 = 255.
TEST(GeneratorTest, NaiveVandermondeFailsMdsForLargeGroups) {
  auto p = BuildNaiveVandermondeParity<GF256>(86, 4);
  auto sub = p.Submatrix({0, 85}, {0, 3});
  EXPECT_EQ(sub.Determinant(), 0)
      << "expected singular submatrix in naive Vandermonde parity";
  // The Cauchy-derived matrix of the same geometry has no such defect.
  auto cauchy = BuildParityMatrix<GF256>(86, 4);
  ASSERT_TRUE(cauchy.ok());
  EXPECT_NE(cauchy->Submatrix({0, 85}, {0, 3}).Determinant(), 0);
}

// ---------------------------------------------------------------------------
// Parity-code tests over both fields, all through MakeParityCode: the group
// coder of one bucket group (encode, incremental delta updates, erasure
// decode). tests/parity_golden_test.cc pins the exact bytes.

template <typename F>
FieldChoice FieldChoiceOf();
template <>
FieldChoice FieldChoiceOf<GF256>() {
  return FieldChoice::kGf256;
}
template <>
FieldChoice FieldChoiceOf<GF65536>() {
  return FieldChoice::kGf65536;
}

std::unique_ptr<parity::ParityCode> MakeCode(const char* name, uint32_t m,
                                             uint32_t k, FieldChoice field) {
  auto spec = parity::CodeSpec::Parse(name);
  LHRS_CHECK(spec.ok());
  auto code = parity::MakeParityCode(*spec, m, k, field);
  LHRS_CHECK(code.ok());
  return std::move(code).value();
}

template <typename F>
class GroupCoderTest : public ::testing::Test {};

using CoderFields = ::testing::Types<GF256, GF65536>;
TYPED_TEST_SUITE(GroupCoderTest, CoderFields);

TYPED_TEST(GroupCoderTest, EncodeDecodeRoundTripAllErasurePatterns) {
  const uint32_t m = 4, k = 2;
  auto code = MakeCode("rs", m, k, FieldChoiceOf<TypeParam>());
  Rng rng(211);

  // Variable-length member payloads, one slot empty.
  std::vector<Bytes> data(m);
  data[0] = rng.RandomBytes(40);
  data[1] = rng.RandomBytes(17);
  data[2] = {};  // Absent member.
  data[3] = rng.RandomBytes(33);
  std::vector<const Bytes*> ptrs = {&data[0], &data[1], nullptr, &data[3]};
  std::vector<Bytes> parity = code->Encode(ptrs);
  ASSERT_EQ(parity.size(), k);

  // Every way of losing up to k of the m+k columns must decode.
  for (uint32_t lost1 = 0; lost1 < m; ++lost1) {
    for (uint32_t lost2 = lost1 + 1; lost2 <= m + k; ++lost2) {
      std::vector<std::pair<size_t, Bytes>> available;
      for (uint32_t col = 0; col < m + k; ++col) {
        if (col == lost1 || col == lost2) continue;
        if (col < m) {
          available.emplace_back(col, data[col]);
        } else {
          available.emplace_back(col, parity[col - m]);
        }
      }
      std::vector<size_t> wanted;
      if (lost1 < m) wanted.push_back(lost1);
      if (lost2 < m) wanted.push_back(lost2);
      if (wanted.empty()) continue;
      auto decoded = code->DecodeData(available, wanted);
      ASSERT_TRUE(decoded.ok()) << decoded.status();
      for (size_t i = 0; i < wanted.size(); ++i) {
        const Bytes& original = data[wanted[i]];
        const Bytes padded = PadTo(original, (*decoded)[i].size());
        EXPECT_EQ((*decoded)[i], padded)
            << "lost (" << lost1 << "," << lost2 << ") slot " << wanted[i];
      }
    }
  }
}

TYPED_TEST(GroupCoderTest, TooFewColumnsIsDataLoss) {
  auto code = MakeCode("rs", 4, 2, FieldChoiceOf<TypeParam>());
  std::vector<std::pair<size_t, Bytes>> available = {
      {0, Bytes{1, 2}}, {1, Bytes{3, 4}}, {2, Bytes{5, 6}}};
  auto decoded = code->DecodeData(available, {3});
  EXPECT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsDataLoss());
}

TYPED_TEST(GroupCoderTest, DeltaUpdatesMatchFullReencode) {
  const uint32_t m = 4, k = 3;
  auto code = MakeCode("rs", m, k, FieldChoiceOf<TypeParam>());
  Rng rng(223);

  std::vector<Bytes> data(m);
  std::vector<Bytes> parity(k);

  // Build the group incrementally: insert, update, delete, with varying
  // lengths; parity maintained only through ApplyDelta.
  for (int step = 0; step < 200; ++step) {
    const uint32_t slot = static_cast<uint32_t>(rng.Uniform(m));
    const int action = static_cast<int>(rng.Uniform(3));
    if (action == 0 || data[slot].empty()) {
      // Insert/overwrite with a fresh value: delta = old XOR new.
      Bytes next = rng.RandomBytes(1 + rng.Uniform(64));
      Bytes delta = data[slot];
      XorAssignPadded(delta, next);
      for (uint32_t j = 0; j < k; ++j) {
        code->ApplyDelta(slot, delta, j, &parity[j]);
      }
      data[slot] = std::move(next);
    } else if (action == 1) {
      // Delete: delta = old value.
      for (uint32_t j = 0; j < k; ++j) {
        code->ApplyDelta(slot, data[slot], j, &parity[j]);
      }
      data[slot].clear();
    } else {
      // In-place partial update.
      Bytes next = data[slot];
      next[rng.Uniform(next.size())] ^= static_cast<uint8_t>(rng.Next64());
      Bytes delta = data[slot];
      XorAssignPadded(delta, next);
      for (uint32_t j = 0; j < k; ++j) {
        code->ApplyDelta(slot, delta, j, &parity[j]);
      }
      data[slot] = std::move(next);
    }
  }

  // Full re-encode must agree (modulo trailing zeros from length churn).
  std::vector<const Bytes*> ptrs;
  for (auto& d : data) ptrs.push_back(d.empty() ? nullptr : &d);
  std::vector<Bytes> fresh = code->Encode(ptrs);
  for (uint32_t j = 0; j < k; ++j) {
    const size_t n = std::max(fresh[j].size(), parity[j].size());
    const Bytes a = PadTo(fresh[j], n);
    const Bytes b = PadTo(parity[j], n);
    EXPECT_EQ(a, b) << "parity column " << j;
  }
}

TYPED_TEST(GroupCoderTest, ParityColumnZeroIsPlainXor) {
  const uint32_t m = 4;
  auto code = MakeCode("rs", m, 2, FieldChoiceOf<TypeParam>());
  Rng rng(227);
  std::vector<Bytes> data(m);
  for (auto& d : data) d = rng.RandomBytes(32);
  std::vector<const Bytes*> ptrs;
  for (auto& d : data) ptrs.push_back(&d);
  std::vector<Bytes> parity = code->Encode(ptrs);

  Bytes expected(32, 0);
  for (const auto& d : data) {
    for (size_t i = 0; i < 32; ++i) expected[i] ^= d[i];
  }
  EXPECT_EQ(parity[0], expected);
}

TYPED_TEST(GroupCoderTest, SingleMemberGroupDecodesFromParityAlone) {
  // The paper's "a record sole in its group is recoverable even if all
  // other buckets fail" case: decode from k parity columns + m-1 known
  // zeros.
  const uint32_t m = 4, k = 1;
  auto code = MakeCode("rs", m, k, FieldChoiceOf<TypeParam>());
  Bytes value = BytesFromString("lonely record");
  std::vector<const Bytes*> ptrs = {nullptr, &value, nullptr, nullptr};
  std::vector<Bytes> parity = code->Encode(ptrs);

  std::vector<std::pair<size_t, Bytes>> available = {
      {0, {}}, {2, {}}, {3, {}}, {4, parity[0]}};
  auto decoded = code->DecodeData(available, {1});
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ((*decoded)[0], PadTo(value, (*decoded)[0].size()));
}

TEST(GroupCoderTest65536, PadsOddLengthsToWholeSymbols) {
  auto code = MakeCode("rs", 2, 1, FieldChoice::kGf65536);
  Bytes odd = {0xAB, 0xCD, 0xEF};  // 3 bytes -> padded to 4.
  std::vector<const Bytes*> ptrs = {&odd, nullptr};
  std::vector<Bytes> parity = code->Encode(ptrs);
  ASSERT_EQ(parity[0].size(), 4u);
  EXPECT_EQ(parity[0][0], 0xAB);
  EXPECT_EQ(parity[0][3], 0x00);
}

// ---------------------------------------------------------------------------
// The MDS any-m-subset property over random geometries, decode plans,
// progressive decoding, and the LRC code.

// The MDS property, end to end: for random (m, k) geometries and random
// variable-length payloads, EVERY m-subset of the m + k codeword columns
// reconstructs every data column byte for byte.
TYPED_TEST(GroupCoderTest, AnyMSubsetReconstructsRandomGeometry) {
  Rng rng(811);
  for (int trial = 0; trial < 6; ++trial) {
    const uint32_t m = 1 + static_cast<uint32_t>(rng.Uniform(7));
    const uint32_t k = 1 + static_cast<uint32_t>(rng.Uniform(3));
    const uint32_t n = m + k;  // <= 10, so subsets enumerate exhaustively.
    auto code = MakeCode("rs", m, k, FieldChoiceOf<TypeParam>());

    std::vector<Bytes> data(m);
    std::vector<const Bytes*> ptrs(m);
    for (uint32_t i = 0; i < m; ++i) {
      data[i] = rng.RandomBytes(rng.Uniform(25));  // May be empty.
      ptrs[i] = data[i].empty() ? nullptr : &data[i];
    }
    size_t longest = 0;
    for (const Bytes& d : data) longest = std::max(longest, d.size());
    std::vector<Bytes> parity = code->Encode(ptrs);
    ASSERT_EQ(parity.size(), k);
    for (const Bytes& p : parity) {
      ASSERT_EQ(p.size(), code->PaddedLength(longest))
          << "parity columns share the padded group length";
    }

    for (uint32_t mask = 0; mask < (1u << n); ++mask) {
      if (std::popcount(mask) != static_cast<int>(m)) continue;
      std::vector<std::pair<size_t, Bytes>> available;
      std::vector<uint32_t> have;
      std::vector<size_t> wanted;
      for (uint32_t col = 0; col < n; ++col) {
        if (mask & (1u << col)) {
          available.emplace_back(col,
                                 col < m ? data[col] : parity[col - m]);
          have.push_back(col);
        } else if (col < m) {
          wanted.push_back(col);
        }
      }
      if (wanted.empty()) continue;
      EXPECT_TRUE(code->CanDecodeFrom(
          have, std::vector<uint32_t>(wanted.begin(), wanted.end())));
      auto decoded = code->DecodeData(available, wanted);
      ASSERT_TRUE(decoded.ok())
          << "m=" << m << " k=" << k << " mask=" << mask << ": "
          << decoded.status();
      for (size_t i = 0; i < wanted.size(); ++i) {
        EXPECT_EQ((*decoded)[i], PadTo(data[wanted[i]], (*decoded)[i].size()))
            << "m=" << m << " k=" << k << " mask=" << mask << " slot "
            << wanted[i];
      }
    }
  }
}

TYPED_TEST(GroupCoderTest, PlanDecodeMatchesDecodeDataOnEveryColumnSet) {
  // Every subset of the m + k columns: decodable sets yield a plan whose
  // application equals DecodeData (and the original data); undecodable
  // sets fail with DataLoss on both paths. Odd lengths exercise the
  // GF(2^16) symbol padding.
  const uint32_t m = 4, k = 3;
  for (const char* name : {"rs", "lrc2"}) {
    auto code = MakeCode(name, m, k, FieldChoiceOf<TypeParam>());
    Rng rng(877);
    std::vector<Bytes> data(m);
    std::vector<const Bytes*> ptrs(m);
    for (uint32_t i = 0; i < m; ++i) {
      data[i] = rng.RandomBytes(1 + 2 * rng.Uniform(20));
      ptrs[i] = &data[i];
    }
    const std::vector<Bytes> parity = code->Encode(ptrs);
    size_t decodable = 0;
    for (uint32_t mask = 0; mask < (1u << (m + k)); ++mask) {
      std::vector<uint32_t> columns;
      std::vector<std::pair<size_t, Bytes>> available;
      std::vector<uint32_t> wanted;
      for (uint32_t col = 0; col < m + k; ++col) {
        if (mask & (1u << col)) {
          columns.push_back(col);
          available.emplace_back(col, col < m ? data[col] : parity[col - m]);
        } else if (col < m) {
          wanted.push_back(col);
        }
      }
      if (wanted.empty()) continue;
      const std::vector<size_t> wanted_sz(wanted.begin(), wanted.end());
      const bool can = code->CanDecodeFrom(columns, wanted);
      auto plan = code->PlanDecode(columns, wanted);
      auto decoded = code->DecodeData(available, wanted_sz);
      ASSERT_EQ(plan.ok(), can) << name << " mask " << mask;
      ASSERT_EQ(decoded.ok(), can) << name << " mask " << mask;
      if (!can) {
        EXPECT_TRUE(plan.status().IsDataLoss()) << name << " mask " << mask;
        EXPECT_TRUE(decoded.status().IsDataLoss()) << name << " mask " << mask;
        continue;
      }
      ++decodable;
      EXPECT_EQ((*plan)->wanted(), wanted);
      std::vector<BufferView> views;
      for (uint32_t col : (*plan)->inputs()) {
        ASSERT_TRUE(mask & (1u << col)) << "plan reads a column not given";
        views.emplace_back(col < m ? data[col] : parity[col - m]);
      }
      std::vector<const BufferView*> payloads;
      for (const BufferView& v : views) payloads.push_back(&v);
      const std::vector<Bytes> applied = (*plan)->Decode(payloads);
      EXPECT_EQ(applied, *decoded) << name << " mask " << mask;
      for (size_t i = 0; i < wanted.size(); ++i) {
        EXPECT_EQ(applied[i], PadTo(data[wanted[i]], applied[i].size()))
            << name << " mask " << mask << " slot " << wanted[i];
      }
    }
    EXPECT_GT(decodable, 0u) << name;
  }
}

TYPED_TEST(GroupCoderTest, ProgressiveDecoderFinishesEarly) {
  const uint32_t m = 4, k = 2;
  auto code = MakeCode("rs+prog", m, k, FieldChoiceOf<TypeParam>());
  Rng rng(821);
  std::vector<Bytes> data(m);
  data[0] = rng.RandomBytes(16);
  data[1] = rng.RandomBytes(16);
  std::vector<const Bytes*> ptrs = {&data[0], &data[1], nullptr, nullptr};
  std::vector<Bytes> parity = code->Encode(ptrs);

  // Slot 1 lost; slots 2 and 3 never existed (known zero). Rank m is
  // reached after only two survivor columns even though two parity
  // columns are also alive.
  auto dec = code->NewProgressiveDecoder({1}, {2, 3});
  EXPECT_FALSE(dec->Ready());
  EXPECT_TRUE(dec->AddColumn(0, BufferView(data[0])));
  EXPECT_FALSE(dec->Ready());
  EXPECT_TRUE(dec->AddColumn(m + 0, BufferView(parity[0])));
  EXPECT_TRUE(dec->Ready());
  EXPECT_EQ(dec->columns_used(), 2u);

  // Surplus survivors past full rank are redundant and must be rejected.
  EXPECT_FALSE(dec->AddColumn(m + 1, BufferView(parity[1])));
  EXPECT_EQ(dec->columns_used(), 2u);

  auto decoded = dec->Decode();
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->size(), 1u);
  EXPECT_EQ((*decoded)[0], PadTo(data[1], (*decoded)[0].size()));
}

TYPED_TEST(GroupCoderTest, ProgressiveDecoderAcceptsColumnsOutOfOrder) {
  const uint32_t m = 4, k = 3;
  auto code = MakeCode("rs+prog", m, k, FieldChoiceOf<TypeParam>());
  Rng rng(823);
  std::vector<Bytes> data(m);
  std::vector<const Bytes*> ptrs(m);
  for (uint32_t i = 0; i < m; ++i) {
    data[i] = rng.RandomBytes(12);
    ptrs[i] = &data[i];
  }
  std::vector<Bytes> parity = code->Encode(ptrs);

  // All parity first, then one data column: any arrival order works.
  auto dec = code->NewProgressiveDecoder({0, 2}, {});
  EXPECT_TRUE(dec->AddColumn(m + 2, BufferView(parity[2])));
  EXPECT_TRUE(dec->AddColumn(m + 0, BufferView(parity[0])));
  EXPECT_TRUE(dec->AddColumn(m + 1, BufferView(parity[1])));
  EXPECT_FALSE(dec->Ready()) << "rank 3 of 4 cannot solve yet";
  EXPECT_TRUE(dec->AddColumn(3, BufferView(data[3])));
  EXPECT_TRUE(dec->Ready());

  auto decoded = dec->Decode();
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->size(), 2u);
  EXPECT_EQ((*decoded)[0], PadTo(data[0], (*decoded)[0].size()));
  EXPECT_EQ((*decoded)[1], PadTo(data[2], (*decoded)[1].size()));
}

TYPED_TEST(GroupCoderTest, ProgressiveDecoderInsufficientRankIsDataLoss) {
  const uint32_t m = 4, k = 2;
  auto code = MakeCode("rs+prog", m, k, FieldChoiceOf<TypeParam>());
  Rng rng(827);
  std::vector<Bytes> data(m);
  std::vector<const Bytes*> ptrs(m);
  for (uint32_t i = 0; i < m; ++i) {
    data[i] = rng.RandomBytes(8);
    ptrs[i] = &data[i];
  }
  std::vector<Bytes> parity = code->Encode(ptrs);

  auto dec = code->NewProgressiveDecoder({0, 1}, {});
  EXPECT_TRUE(dec->AddColumn(2, BufferView(data[2])));
  EXPECT_TRUE(dec->AddColumn(3, BufferView(data[3])));
  EXPECT_TRUE(dec->AddColumn(m + 0, BufferView(parity[0])));
  EXPECT_FALSE(dec->Ready()) << "three columns cannot solve two unknowns + "
                                "two knowns over rank four";
  auto decoded = dec->Decode();
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsDataLoss());

  // The missing fourth column completes the rank.
  EXPECT_TRUE(dec->AddColumn(m + 1, BufferView(parity[1])));
  EXPECT_TRUE(dec->Ready());
  EXPECT_TRUE(dec->Decode().ok());
}

// ---------------------------------------------------------------------------
// LRC code tests (m = 4, locality 2, k = 3: two local XORs + one global).

TYPED_TEST(GroupCoderTest, LrcLocalColumnsAreGroupXors) {
  auto code = MakeCode("lrc2", 4, 3, FieldChoiceOf<TypeParam>());
  Rng rng(829);
  std::vector<Bytes> data(4);
  std::vector<const Bytes*> ptrs(4);
  for (uint32_t i = 0; i < 4; ++i) {
    data[i] = rng.RandomBytes(32);
    ptrs[i] = &data[i];
  }
  std::vector<Bytes> parity = code->Encode(ptrs);
  ASSERT_EQ(parity.size(), 3u);
  for (uint32_t l = 0; l < 2; ++l) {
    Bytes expected(32, 0);
    for (uint32_t s = 2 * l; s < 2 * l + 2; ++s) {
      for (size_t i = 0; i < 32; ++i) expected[i] ^= data[s][i];
    }
    EXPECT_EQ(parity[l], expected) << "local parity " << l;
  }
}

TYPED_TEST(GroupCoderTest, LrcSingleLossRepairsFromLocalGroupOnly) {
  auto code = MakeCode("lrc2", 4, 3, FieldChoiceOf<TypeParam>());
  parity::RepairContext ctx;
  ctx.existing_slots = 4;
  ctx.alive_data = {1, 2, 3};
  ctx.alive_parity = {0, 1, 2};
  ctx.missing = {0};
  auto plan = code->PlanRepair(ctx);
  ASSERT_TRUE(plan.ok()) << plan.status();
  // Slot 0's local group is {0, 1} with local parity column 4: the repair
  // touches r = 2 columns, not the RS code's m = 4.
  EXPECT_EQ(plan->read_columns, (std::vector<uint32_t>{1, 4}));

  // The slot's own local parity leads the preference order.
  EXPECT_EQ(code->ParityPreference(0)[0], 0u);
  EXPECT_EQ(code->ParityPreference(3)[0], 1u);
}

TYPED_TEST(GroupCoderTest, LrcRecoversDoubleLossViaGlobalParity) {
  auto code = MakeCode("lrc2", 4, 3, FieldChoiceOf<TypeParam>());
  Rng rng(839);
  std::vector<Bytes> data(4);
  std::vector<const Bytes*> ptrs(4);
  for (uint32_t i = 0; i < 4; ++i) {
    data[i] = rng.RandomBytes(20);
    ptrs[i] = &data[i];
  }
  std::vector<Bytes> parity = code->Encode(ptrs);

  // Both members of local group 0 lost: the local XOR alone cannot split
  // them, but together with the global column the pair is determined.
  std::vector<std::pair<size_t, Bytes>> available = {
      {2, data[2]}, {3, data[3]}, {4, parity[0]}, {5, parity[1]},
      {6, parity[2]}};
  auto decoded = code->DecodeData(available, {0, 1});
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ((*decoded)[0], PadTo(data[0], (*decoded)[0].size()));
  EXPECT_EQ((*decoded)[1], PadTo(data[1], (*decoded)[1].size()));
}

TYPED_TEST(GroupCoderTest, LrcNonMdsPatternIsDataLoss) {
  auto code = MakeCode("lrc2", 4, 3, FieldChoiceOf<TypeParam>());
  // Losing both members of a local group AND its local parity leaves one
  // equation (the global) for two unknowns. An MDS code with k = 3 would
  // survive any three losses; the LRC trades that away for locality.
  EXPECT_FALSE(code->CanDecodeFrom({2, 3, 5, 6}, {0, 1}));

  parity::RepairContext ctx;
  ctx.existing_slots = 4;
  ctx.alive_data = {2, 3};
  ctx.alive_parity = {1, 2};
  ctx.missing = {0, 1, 4};
  auto plan = code->PlanRepair(ctx);
  ASSERT_FALSE(plan.ok());
  EXPECT_TRUE(plan.status().IsDataLoss());

  Rng rng(853);
  std::vector<Bytes> data(4);
  std::vector<const Bytes*> ptrs(4);
  for (uint32_t i = 0; i < 4; ++i) {
    data[i] = rng.RandomBytes(16);
    ptrs[i] = &data[i];
  }
  std::vector<Bytes> parity = code->Encode(ptrs);
  std::vector<std::pair<size_t, Bytes>> available = {
      {2, data[2]}, {3, data[3]}, {5, parity[1]}, {6, parity[2]}};
  auto decoded = code->DecodeData(available, {0, 1});
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsDataLoss());
}

TYPED_TEST(GroupCoderTest, LrcProgressiveDecoderStopsAtLocalGroup) {
  auto code = MakeCode("lrc2+prog", 4, 3, FieldChoiceOf<TypeParam>());
  Rng rng(857);
  std::vector<Bytes> data(4);
  std::vector<const Bytes*> ptrs(4);
  for (uint32_t i = 0; i < 4; ++i) {
    data[i] = rng.RandomBytes(24);
    ptrs[i] = &data[i];
  }
  std::vector<Bytes> parity = code->Encode(ptrs);

  // Rebuilding slot 2 needs only its sibling and the group-1 local parity:
  // Ready() fires after two columns even though full rank would need four.
  auto dec = code->NewProgressiveDecoder({2}, {});
  EXPECT_TRUE(dec->AddColumn(3, BufferView(data[3])));
  EXPECT_FALSE(dec->Ready());
  EXPECT_TRUE(dec->AddColumn(4 + 1, BufferView(parity[1])));
  EXPECT_TRUE(dec->Ready());
  EXPECT_EQ(dec->columns_used(), 2u);

  auto decoded = dec->Decode();
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ((*decoded)[0], PadTo(data[2], (*decoded)[0].size()));
}

TEST(CodeSpecTest, NameParseRoundTrips) {
  for (const char* name : {"rs", "rs+prog", "lrc2", "lrc4+prog"}) {
    auto spec = parity::CodeSpec::Parse(name);
    ASSERT_TRUE(spec.ok()) << name;
    EXPECT_EQ(spec->Name(), name);
  }
  EXPECT_FALSE(parity::CodeSpec::Parse("raid5").ok());
  EXPECT_FALSE(parity::CodeSpec::Parse("lrc").ok());
  EXPECT_FALSE(parity::CodeSpec::Parse("lrcx").ok());
  // A locality past uint32_t is refused, not wrapped (2^32 + 2 -> 2).
  EXPECT_FALSE(parity::CodeSpec::Parse("lrc4294967298").ok());
  EXPECT_FALSE(parity::CodeSpec::Parse("lrc4294967296+prog").ok());
  auto widest = parity::CodeSpec::Parse("lrc4294967295");
  ASSERT_TRUE(widest.ok());
  EXPECT_EQ(widest->locality, 4294967295u);
}

TEST(CodeSpecTest, MakeParityCodeRejectsBadGeometry) {
  auto lrc = parity::CodeSpec::Parse("lrc2");
  ASSERT_TRUE(lrc.ok());
  // m = 4, locality 2 means two local groups; k = 1 cannot cover them.
  EXPECT_FALSE(
      parity::MakeParityCode(*lrc, 4, 1, FieldChoice::kGf256).ok());
  EXPECT_TRUE(
      parity::MakeParityCode(*lrc, 4, 2, FieldChoice::kGf256).ok());
  auto rs = parity::CodeSpec::Parse("rs");
  ASSERT_TRUE(rs.ok());
  EXPECT_FALSE(
      parity::MakeParityCode(*rs, 200, 100, FieldChoice::kGf256).ok());
}

}  // namespace
}  // namespace lhrs
