// Golden parity bytes: pins the exact output of every ParityCode byte path
// (Encode, ApplyDelta into Bytes and into copy-on-write BufferViews, and
// DecodeData on fixed erasure sets) for the RS and LRC codes over both
// fields, as FNV-1a digests. The digests are properties of the codes, not
// of the kernel tier: CI runs this suite under LHRS_KERNEL_ISA=scalar and
// =native as well as the default selection.

#include <cstdint>
#include <cstdio>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/buffer.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "parity/parity_code.h"

namespace lhrs {
namespace {

struct Digest {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis.

  void Byte(uint8_t b) { h = (h ^ b) * 1099511628211ULL; }
  void Word(uint64_t v) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<uint8_t>(v >> (8 * i)));
  }
  /// Length-prefixed, so bytes moved across a buffer boundary change the
  /// digest.
  void Buffer(std::span<const uint8_t> bytes) {
    Word(bytes.size());
    for (uint8_t b : bytes) Byte(b);
  }
};

struct GoldenCase {
  const char* code;
  FieldChoice field;
  uint32_t m;
  uint32_t k;
  uint64_t encode;
  uint64_t deltas;
  uint64_t decode;
};

struct Digests {
  uint64_t encode;
  uint64_t deltas;
  uint64_t decode;
};

/// Runs the fixed scenario of one case and digests its three byte paths.
Digests RunCase(const GoldenCase& c) {
  auto spec = parity::CodeSpec::Parse(c.code);
  EXPECT_TRUE(spec.ok());
  auto made = parity::MakeParityCode(*spec, c.m, c.k, c.field);
  EXPECT_TRUE(made.ok()) << made.status();
  const parity::ParityCode& code = **made;
  Rng rng(1000 + 97 * c.m + 13 * c.k);

  // Member payloads with odd, even and empty lengths; slot 1 (when there
  // is one) is an absent member.
  const size_t lengths[] = {0, 1, 7, 33, 64, 15, 2};
  std::vector<Bytes> data(c.m);
  std::vector<const Bytes*> ptrs(c.m, nullptr);
  for (uint32_t i = 0; i < c.m; ++i) {
    data[i] = rng.RandomBytes(lengths[(i + 2) % 7]);
    if (i != 1) ptrs[i] = &data[i];
  }
  if (c.m > 1) data[1].clear();

  Digests out{};
  Digest enc;
  const std::vector<Bytes> encoded = code.Encode(ptrs);
  for (const Bytes& p : encoded) enc.Buffer(p);
  out.encode = enc.h;

  // Delta maintenance: the same seeded op sequence folded into owned
  // buffers and into views, where every few steps a snapshot shares the
  // view's buffer so the copy-on-write detach path runs too. Both forms
  // must track the data, so the view digest is folded in alongside.
  std::vector<Bytes> owned = encoded;
  std::vector<BufferView> views;
  for (const Bytes& p : encoded) views.emplace_back(p);
  std::vector<BufferView> snapshots;
  for (int step = 0; step < 40; ++step) {
    const uint32_t slot = static_cast<uint32_t>(rng.Uniform(c.m));
    Bytes next = rng.Flip(0.2) ? Bytes{}
                               : rng.RandomBytes(rng.Uniform(70));
    Bytes delta = data[slot];
    XorAssignPadded(delta, next);
    if (step % 5 == 0) snapshots.assign(views.begin(), views.end());
    for (uint32_t j = 0; j < c.k; ++j) {
      code.ApplyDelta(slot, delta, j, &owned[j]);
      code.ApplyDelta(slot, delta, j, &views[j]);
    }
    data[slot] = std::move(next);
  }
  Digest del;
  for (uint32_t j = 0; j < c.k; ++j) {
    del.Buffer(owned[j]);
    del.Buffer(views[j].span());
  }
  for (const BufferView& s : snapshots) del.Buffer(s.span());
  out.deltas = del.h;

  // Decode every erasure set of up to k columns that loses a data column:
  // decodable sets digest the rebuilt bytes, the rest digest the refusal.
  Digest dec;
  const uint32_t n = c.m + c.k;
  for (uint32_t mask = 1; mask < (1u << n); ++mask) {
    if (static_cast<uint32_t>(__builtin_popcount(mask)) > c.k) continue;
    std::vector<std::pair<size_t, BufferView>> available;
    std::vector<size_t> missing;
    for (uint32_t col = 0; col < n; ++col) {
      if (mask & (1u << col)) {
        if (col < c.m) missing.push_back(col);
      } else {
        available.emplace_back(col, col < c.m ? BufferView(data[col])
                                              : views[col - c.m]);
      }
    }
    if (missing.empty()) continue;
    dec.Word(mask);
    auto decoded = code.DecodeData(available, missing);
    dec.Byte(decoded.ok() ? 1 : 0);
    if (!decoded.ok()) {
      EXPECT_TRUE(decoded.status().IsDataLoss()) << decoded.status();
      continue;
    }
    for (size_t i = 0; i < missing.size(); ++i) {
      const Bytes& rebuilt = (*decoded)[i];
      EXPECT_EQ(rebuilt, PadTo(data[missing[i]], rebuilt.size()))
          << c.code << " m=" << c.m << " k=" << c.k << " mask=" << mask;
      dec.Buffer(rebuilt);
    }
  }
  out.decode = dec.h;
  return out;
}

constexpr FieldChoice kGf8 = FieldChoice::kGf256;
constexpr FieldChoice kGf16 = FieldChoice::kGf65536;

// Coinciding rows are the same code: at m=2, k=1 both schemes are one XOR
// column, and lrc2 at m=3, k=2 has no global column, so its parity is
// field-free XOR. Decode digests cover the rebuilt data, which equals the
// original in every field; they differ across fields only where GF(2^16)
// pads odd lengths.
// clang-format off
constexpr GoldenCase kCases[] = {
    {"rs", kGf8, 2, 1, 0xe40dd986b4d74ed6ULL, 0x80f5754b4509d63bULL, 0x403a2c200c987cc1ULL},
    {"rs", kGf8, 3, 2, 0x231fd9ee2f062855ULL, 0x6b3e1150c5e98601ULL, 0x815748e20f272995ULL},
    {"rs", kGf8, 4, 3, 0xb803f240bbbf8880ULL, 0xd8b5000ddd0f1d16ULL, 0xc592f8c777d1c9dbULL},
    {"rs", kGf8, 5, 4, 0x5b028adbde22c443ULL, 0x5ca7a3b52054eb3dULL, 0x6fa6d1162b086b18ULL},
    {"rs", kGf16, 2, 1, 0x197bb18319b59951ULL, 0xe1552282186108a2ULL, 0x7f0436d3c6211b4bULL},
    {"rs", kGf16, 3, 2, 0xc5a0998928896b7bULL, 0xf679d0f953ae70dbULL, 0xaf759354bef145a2ULL},
    {"rs", kGf16, 4, 3, 0xf8f03c4940a5fcb1ULL, 0x2d9791251b57eec5ULL, 0xac7bfc8a051a59abULL},
    {"rs", kGf16, 5, 4, 0x358b4e148acdb32ULL, 0xf0bc1497f4433c56ULL, 0x6fa6d1162b086b18ULL},
    {"lrc2", kGf8, 2, 1, 0xe40dd986b4d74ed6ULL, 0x80f5754b4509d63bULL, 0x403a2c200c987cc1ULL},
    {"lrc2", kGf8, 3, 2, 0x8b42c8f068f0b0daULL, 0xd5b17cde6666dc62ULL, 0x8b1fde4261f6d1cULL},
    {"lrc2", kGf8, 4, 3, 0x6aa27b959cc957f4ULL, 0xee77f1bceeaa28dULL, 0x42831a5720638d7cULL},
    {"lrc2", kGf8, 5, 4, 0x6206f5f3835b81baULL, 0x8e13e1b80259dda0ULL, 0x40454d8fa28243deULL},
    {"lrc2", kGf16, 2, 1, 0x197bb18319b59951ULL, 0xe1552282186108a2ULL, 0x7f0436d3c6211b4bULL},
    {"lrc2", kGf16, 3, 2, 0x8b42c8f068f0b0daULL, 0x856c257cbb25bef3ULL, 0x56a31f9b3cad7bcULL},
    {"lrc2", kGf16, 4, 3, 0xb89ebd7fd6a765ccULL, 0xf91d2f051c5ad1bbULL, 0xb6976194f5fdc542ULL},
    {"lrc2", kGf16, 5, 4, 0x71fb9e6f5b43d9f2ULL, 0x6c37c7c4e07ca613ULL, 0x72c50ac0bd12ae2eULL},
};
// clang-format on

TEST(ParityGoldenTest, BytesMatchThePinnedDigests) {
  for (const GoldenCase& c : kCases) {
    const Digests got = RunCase(c);
    const bool match =
        got.encode == c.encode && got.deltas == c.deltas &&
        got.decode == c.decode;
    EXPECT_TRUE(match) << c.code << " " << FieldChoiceName(c.field)
                       << " m=" << c.m << " k=" << c.k;
    if (!match) {
      // The row as it would read in kCases, for review of a deliberate
      // change to the code's bytes.
      std::printf("    {\"%s\", %s, %u, %u, 0x%llxULL, 0x%llxULL, "
                  "0x%llxULL},\n",
                  c.code, c.field == kGf8 ? "kGf8" : "kGf16", c.m, c.k,
                  static_cast<unsigned long long>(got.encode),
                  static_cast<unsigned long long>(got.deltas),
                  static_cast<unsigned long long>(got.decode));
    }
  }
}

}  // namespace
}  // namespace lhrs
