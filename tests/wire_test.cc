// Wire-format tests. Every message's codec and ByteSize() derive from its
// one Fields() list (net/fields.h); these tests pin that derivation:
// committed golden frames decode and re-encode byte for byte, samples
// filled through Fields() from several seeds round-trip byte-identically
// with ByteSize() equal to their encoded length, truncated frames decode
// to null, and a seeded corruption fuzz (byte flips, garbage, valid frames
// re-tagged as other kinds) never crashes the decoder (run under
// ASan/UBSan in CI's sanitize job). CtrlFrameTest pins the cluster control
// frames the same way against a layout table written out in this file.

#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/lhg/lhg_messages.h"
#include "baselines/lhm/lhm_file.h"
#include "baselines/lhs/lhs_file.h"
#include "common/rng.h"
#include "lhrs/lhrs_file.h"
#include "lhrs/messages.h"
#include "lhstar/messages.h"
#include "net/fields.h"
#include "net/stats.h"
#include "transport/cluster_proto.h"
#include "transport/wire.h"

namespace lhrs::transport {
namespace {

/// How a FieldFiller chooses. kEmpty leaves every optional absent, every
/// vector, view and string empty and every enum at 0; kFull makes every
/// optional present, every vector, view and string non-empty and every
/// enum its maximum; kRandom draws each choice from the seed.
enum class FillMode { kEmpty, kFull, kRandom };

/// Fills a Fields() list from a seed: the fourth visitor over the same
/// description, so a new message gets test samples without new test code.
class FieldFiller {
 public:
  FieldFiller(uint64_t seed, FillMode mode) : rng_(seed), mode_(mode) {}

  template <class T>
  void operator()(T& x) {
    if constexpr (HasFields<T, FieldFiller>) {
      x.Fields(*this);
    } else if constexpr (std::is_same_v<T, bool>) {
      x = Choose();
    } else if constexpr (WireInt<T>) {
      x = static_cast<T>(rng_.Next64());
    } else if constexpr (std::is_same_v<T, BufferView>) {
      x = BufferView(SomeBytes());
    } else if constexpr (std::is_same_v<T, std::string>) {
      const Bytes b = SomeBytes();
      x.assign(b.begin(), b.end());
    } else if constexpr (std::is_same_v<T, Bytes>) {
      x = SomeBytes();
    } else if constexpr (IsOptional<T>::value) {
      x.reset();
      if (Choose()) (*this)(x.emplace());
    } else if constexpr (IsSharedConst<T>::value) {
      auto fresh = std::make_shared<typename IsSharedConst<T>::element>();
      (*this)(*fresh);
      x = std::move(fresh);
    } else {
      Fill(x);
    }
  }

  template <class E>
  void Enum(E& e, E max) {
    const auto top = static_cast<uint8_t>(max);
    switch (mode_) {
      case FillMode::kEmpty:
        e = static_cast<E>(0);
        break;
      case FillMode::kFull:
        e = max;
        break;
      case FillMode::kRandom:
        e = static_cast<E>(rng_.Uniform(top + 1u));
        break;
    }
  }
  void Pad(size_t) {}
  template <class T>
  void Flag(std::optional<T>& opt) {
    opt.reset();
    if (Choose()) opt.emplace();
  }
  template <class... Vs>
  void Count(Vs&... vectors) {
    const size_t n = mode_ == FillMode::kEmpty  ? 0
                     : mode_ == FillMode::kFull ? 1 + rng_.Uniform(3)
                                                : rng_.Uniform(4);
    (vectors.resize(n), ...);
  }

 private:
  // The scan predicate has a hand-written codec, so a hand-written fill.
  void Fill(ScanPredicate& p) {
    p.contains = SomeBytes();
    p.has_key_range = Choose();
    p.key_min = p.has_key_range ? rng_.Next64() : 0;
    p.key_max = p.has_key_range ? rng_.Next64() : 0;
  }

  bool Choose() {
    return mode_ == FillMode::kFull ||
           (mode_ == FillMode::kRandom && rng_.Uniform(2) == 1);
  }
  Bytes SomeBytes() {
    const size_t n = mode_ == FillMode::kEmpty  ? 0
                     : mode_ == FillMode::kFull ? 1 + rng_.Uniform(24)
                                                : rng_.Uniform(25);
    return rng_.RandomBytes(n);
  }

  Rng rng_;
  FillMode mode_;
};

template <class... Ms>
void AddCodecs(MessageList<Ms...>, std::map<int, WireCodec>& out) {
  (out.emplace(Ms::kKind, WireCodecFor<Ms>()), ...);
}

/// The codec of `kind`: registered, or a baseline's Fields()-derived one.
const WireCodec* CodecOf(int kind) {
  static const auto* baselines = [] {
    auto* codecs = new std::map<int, WireCodec>();
    AddCodecs(lhg::LhgMessages{}, *codecs);
    AddCodecs(lhm::LhmMessages{}, *codecs);
    AddCodecs(lhs::LhsMessages{}, *codecs);
    return codecs;
  }();
  if (const WireCodec* codec = FindWireCodec(kind)) return codec;
  auto it = baselines->find(kind);
  return it == baselines->end() ? nullptr : &it->second;
}

/// A message body with the codec of its kind: the transport's registry
/// for kinds that travel, and for the simulator-only baseline kinds the
/// same Fields()-derived codec called directly.
struct Sample {
  std::unique_ptr<MessageBody> body;
  WireCodec codec;
};

constexpr uint64_t kRandomSeeds = 4;

template <class... Ms>
void AddSamples(MessageList<Ms...>, std::vector<Sample>& out) {
  const auto add = [&out]<class M>(M*) {
    const auto fill = [&out](uint64_t seed, FillMode mode) {
      auto m = std::make_unique<M>();
      FieldFiller filler(seed * 1000 + M::kKind, mode);
      filler(*m);
      out.push_back(Sample{std::move(m), *CodecOf(M::kKind)});
    };
    fill(0, FillMode::kEmpty);
    fill(0, FillMode::kFull);
    for (uint64_t seed = 1; seed <= kRandomSeeds; ++seed) {
      fill(seed, FillMode::kRandom);
    }
  };
  (add(static_cast<Ms*>(nullptr)), ...);
}

/// A column read reply carrying a live parity bucket's dump: every row has
/// absent members (only data slot 0 holds records) and deletes left gaps
/// in the ranks, shapes the seeded samples do not produce.
Sample LiveParityColumnSample() {
  LhrsFile::Options opts;
  opts.file.bucket_capacity = 1000;
  opts.group_size = 4;
  opts.policy.base_k = 1;
  LhrsFile file(opts);
  for (Key key = 1; key <= 40; ++key) {
    EXPECT_TRUE(file.Insert(key, BytesFromString("v" + std::to_string(key)))
                    .ok());
  }
  for (Key key : {5, 6, 7, 8, 13}) EXPECT_TRUE(file.Delete(key).ok());
  auto dump = std::make_shared<ColumnDump>();
  dump->column = 4;
  dump->parity = file.parity_bucket(0, 0)->Column();
  const ParityColumn& column = dump->parity;
  EXPECT_EQ(column.size(), 35u);
  EXPECT_GT(column.ranks.back(), column.size()) << "no gap in the ranks";
  EXPECT_FALSE(column.keys[column.Cell(0, 1)].has_value());
  auto reply = std::make_unique<ColumnReadReplyMsg>();
  reply->task_id = 7;
  reply->dump = std::move(dump);
  return Sample{std::move(reply), *CodecOf(LhrsMsg::kColumnReadReply)};
}

/// Seeded samples of every message kind, baselines included, and the live
/// parity column dump.
std::vector<Sample> Samples() {
  std::vector<Sample> out;
  AddSamples(LhStarMessages{}, out);
  AddSamples(LhrsMessages{}, out);
  AddSamples(lhg::LhgMessages{}, out);
  AddSamples(lhm::LhmMessages{}, out);
  AddSamples(lhs::LhsMessages{}, out);
  out.push_back(LiveParityColumnSample());
  return out;
}

Bytes Encode(const Sample& sample) {
  WireWriter w;
  EXPECT_TRUE(sample.codec.serialize(*sample.body, w))
      << MessageKindName(sample.body->kind()) << " did not serialize";
  return w.Flatten();
}

std::string Describe(const Sample& sample) {
  return MessageKindName(sample.body->kind()) + " (kind " +
         std::to_string(sample.body->kind()) + ")";
}

template <class... Ms>
std::vector<int> KindsOf(MessageList<Ms...>) {
  return {Ms::kKind...};
}

template <class... Ms>
std::vector<std::string> NamesOf(MessageList<Ms...>) {
  return {Ms::kName...};
}

// Each layer lists its messages densely in kind order from the layer's
// base, and every kind's display name is the message's own kName.
TEST(WireMessageTest, KindsAreDenseAndNamesComeFromTheMessages) {
  const auto check = [](std::vector<int> kinds,
                        std::vector<std::string> names, int base,
                        const std::string& prefix) {
    for (size_t i = 0; i < kinds.size(); ++i) {
      EXPECT_EQ(kinds[i], base + static_cast<int>(i)) << names[i];
      EXPECT_EQ(MessageKindName(kinds[i]), names[i]);
      EXPECT_EQ(names[i].rfind(prefix, 0), 0u) << names[i];
    }
  };
  check(KindsOf(LhStarMessages{}), NamesOf(LhStarMessages{}),
        MessageKindRange::kLhStarBase, "lhstar.");
  check(KindsOf(LhrsMessages{}), NamesOf(LhrsMessages{}),
        MessageKindRange::kLhrsBase, "lhrs.");
  check(KindsOf(lhg::LhgMessages{}), NamesOf(lhg::LhgMessages{}),
        MessageKindRange::kLhgBase, "lhg.");
  check(KindsOf(lhm::LhmMessages{}), NamesOf(lhm::LhmMessages{}),
        MessageKindRange::kLhmBase, "lhm.");
  check(KindsOf(lhs::LhsMessages{}), NamesOf(lhs::LhsMessages{}),
        MessageKindRange::kLhsBase, "lhs.");
}

class WireTest : public ::testing::Test {};

// Exactly the LH* and LH*RS kinds travel, and each has samples, so the
// round-trip suite below covers the whole registry.
TEST_F(WireTest, EveryRegisteredKindHasASample) {
  std::set<int> sampled;
  for (const Sample& sample : Samples()) sampled.insert(sample.body->kind());
  std::vector<int> expected = KindsOf(LhStarMessages{});
  for (int kind : KindsOf(LhrsMessages{})) expected.push_back(kind);
  EXPECT_EQ(RegisteredWireKinds(), expected);
  for (int kind : RegisteredWireKinds()) {
    EXPECT_TRUE(sampled.contains(kind))
        << "no sample body for registered kind " << MessageKindName(kind);
  }
}

// serialize -> deserialize -> serialize must be byte-identical, proving
// the decoder reconstructs every field the encoder wrote.
TEST_F(WireTest, RoundTripIsByteIdentical) {
  for (const Sample& sample : Samples()) {
    const Bytes bytes1 = Encode(sample);
    std::unique_ptr<MessageBody> decoded =
        DeserializeWith(sample.codec, BufferView(bytes1));
    ASSERT_NE(decoded, nullptr)
        << Describe(sample) << " did not decode its own encoding";
    EXPECT_EQ(decoded->kind(), sample.body->kind());

    WireWriter w2;
    ASSERT_TRUE(sample.codec.serialize(*decoded, w2));
    EXPECT_EQ(bytes1, w2.Flatten())
        << Describe(sample) << " re-encoded differently after a round trip";
  }
}

// The simulator charges transmission time by ByteSize(); the transport
// sends the serialized form. Both walk the same Fields() list, through
// different visitors, and must agree or simulated and real costs diverge
// silently.
TEST_F(WireTest, ByteSizeMatchesSerializedLength) {
  for (const Sample& sample : Samples()) {
    EXPECT_EQ(Encode(sample).size(), sample.body->ByteSize())
        << Describe(sample)
        << " declares a ByteSize different from its serialized length";
  }
}

// A scan predicate carrying a native function cannot travel; the
// serializer must refuse rather than silently drop the closure. The
// simulator still charges the body the bytes of its traveling fields.
TEST_F(WireTest, CustomScanPredicateIsUnserializable) {
  ScanRequestMsg msg;
  msg.predicate.contains = BytesFromString("needle");
  const size_t plain_size = msg.ByteSize();
  msg.predicate.custom = [](Key, std::span<const uint8_t>) { return true; };
  WireWriter w;
  EXPECT_FALSE(SerializeBody(msg, w));
  EXPECT_EQ(msg.ByteSize(), plain_size);
}

// The structured key-range predicate survives the wire with both bounds
// and composes with `contains`.
TEST_F(WireTest, ScanRequestKeyRangeRoundTrips) {
  ScanRequestMsg msg;
  msg.op_id = 11;
  msg.client = 3;
  msg.predicate.contains = BytesFromString("needle");
  msg.predicate.has_key_range = true;
  msg.predicate.key_min = 42;
  msg.predicate.key_max = 1000;
  WireWriter w;
  ASSERT_TRUE(SerializeBody(msg, w));
  const Bytes bytes = w.Flatten();

  auto decoded = DeserializeBody(msg.kind(), BufferView(bytes));
  ASSERT_NE(decoded, nullptr);
  const auto& out = static_cast<const ScanRequestMsg&>(*decoded);
  EXPECT_TRUE(out.predicate.has_key_range);
  EXPECT_EQ(out.predicate.key_min, 42u);
  EXPECT_EQ(out.predicate.key_max, 1000u);
  EXPECT_EQ(out.predicate.contains, msg.predicate.contains);
  // And the predicate actually selects on the decoded range.
  const Bytes hit = BytesFromString("a needle here");
  EXPECT_TRUE(out.predicate.Matches(500, hit));
  EXPECT_FALSE(out.predicate.Matches(41, hit));
  EXPECT_FALSE(out.predicate.Matches(1001, hit));
}

// A contains-only request encodes byte-identically to the pre-range frame
// (the version byte occupies what used to be zero padding), so old
// decoders keep reading new frames and vice versa.
TEST_F(WireTest, LegacyScanRequestFrameDecodesWithoutRange) {
  ScanRequestMsg msg;
  msg.op_id = 12;
  msg.predicate.contains = BytesFromString("x");
  WireWriter w;
  ASSERT_TRUE(SerializeBody(msg, w));
  const Bytes bytes = w.Flatten();
  // Version byte (offset 17: op_id 8 + client 4 + level 4 + bool 1) is 0 —
  // indistinguishable from the legacy layout's padding.
  ASSERT_GT(bytes.size(), 17u);
  EXPECT_EQ(bytes[17], 0);

  auto decoded = DeserializeBody(msg.kind(), BufferView(bytes));
  ASSERT_NE(decoded, nullptr);
  const auto& out = static_cast<const ScanRequestMsg&>(*decoded);
  EXPECT_FALSE(out.predicate.has_key_range);
  EXPECT_EQ(out.predicate.contains, msg.predicate.contains);
}

// Forward compatibility: a frame from a hypothetical newer build (higher
// predicate version, extra trailing fields) decodes its known prefix
// instead of bouncing the scan.
TEST_F(WireTest, FutureScanPredicateVersionIsTolerated) {
  ScanRequestMsg msg;
  msg.op_id = 13;
  msg.predicate.has_key_range = true;
  msg.predicate.key_min = 7;
  msg.predicate.key_max = 9;
  WireWriter w;
  ASSERT_TRUE(SerializeBody(msg, w));
  Bytes bytes = w.Flatten();
  bytes[17] = 2;                              // Pretend version 2...
  bytes.insert(bytes.end(), {1, 2, 3, 4});    // ...with unknown fields.

  auto decoded = DeserializeBody(msg.kind(), BufferView(bytes));
  ASSERT_NE(decoded, nullptr);
  const auto& out = static_cast<const ScanRequestMsg&>(*decoded);
  EXPECT_TRUE(out.predicate.has_key_range);
  EXPECT_EQ(out.predicate.key_min, 7u);
  EXPECT_EQ(out.predicate.key_max, 9u);
}


struct GoldenFrame {
  int kind;
  const char* hex;
};

constexpr GoldenFrame kGoldenFrames[] = {
#include "wire_golden_frames.inc"
};

Bytes FromHex(std::string_view hex) {
  const auto nibble = [](char c) {
    return static_cast<uint8_t>(c <= '9' ? c - '0' : c - 'a' + 10);
  };
  Bytes out(hex.size() / 2);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<uint8_t>(nibble(hex[2 * i]) << 4 |
                                  nibble(hex[2 * i + 1]));
  }
  return out;
}

// The committed golden frames pin the wire format byte for byte: each one
// decodes, re-encodes to the identical bytes, and its decoded body declares
// the frame's length as ByteSize(). Baseline kinds use their Fields()-
// derived codec directly.
TEST_F(WireTest, GoldenFramesReencodeByteIdentically) {
  std::set<int> kinds;
  for (const GoldenFrame& golden : kGoldenFrames) {
    const Bytes frame = FromHex(golden.hex);
    kinds.insert(golden.kind);
    const WireCodec* codec = CodecOf(golden.kind);
    ASSERT_NE(codec, nullptr) << "no codec for golden kind " << golden.kind;
    std::unique_ptr<MessageBody> body =
        DeserializeWith(*codec, BufferView(frame));
    ASSERT_NE(body, nullptr) << "golden frame of kind " << golden.kind
                             << " no longer decodes";
    EXPECT_EQ(body->kind(), golden.kind);
    EXPECT_EQ(body->ByteSize(), frame.size()) << "kind " << golden.kind;
    WireWriter w;
    ASSERT_TRUE(codec->serialize(*body, w));
    EXPECT_EQ(w.Flatten(), frame)
        << "kind " << golden.kind << " re-encodes differently";
  }
  for (const Sample& sample : Samples()) {
    EXPECT_TRUE(kinds.contains(sample.body->kind()))
        << "no golden frame for " << Describe(sample);
  }
}

// Unknown kinds have no codec, and neither do the baseline schemes, which
// run only on the simulator.
TEST_F(WireTest, UnknownKindDeserializesToNull) {
  const Bytes bytes = {0, 1, 2, 3};
  EXPECT_EQ(DeserializeBody(9999, BufferView(bytes)), nullptr);
  EXPECT_EQ(FindWireCodec(9999), nullptr);
  EXPECT_EQ(FindWireCodec(lhg::LhgMsg::kParityUpdate), nullptr);
  EXPECT_EQ(FindWireCodec(lhm::LhmMsg::kMirrorRead), nullptr);
  EXPECT_EQ(FindWireCodec(lhs::LhsMsg::kStripeRead), nullptr);
}

// Every strict prefix of a valid frame must be rejected: a truncation
// cannot shrink embedded length/count fields, so the decoder always finds
// itself short of bytes (or with trailing garbage) and must say null —
// never crash, never over-read (ASan-checked in CI).
TEST_F(WireTest, TruncatedFramesAreRejected) {
  for (const Sample& sample : Samples()) {
    const Bytes bytes = Encode(sample);
    for (size_t len = 0; len < bytes.size(); ++len) {
      EXPECT_EQ(DeserializeWith(sample.codec, BufferView(bytes.data(), len)),
                nullptr)
          << Describe(sample) << " accepted a " << len << "-byte prefix of "
          << "its " << bytes.size() << "-byte encoding";
    }
  }
}

// Seeded corruption fuzz: flip random bytes in valid encodings, feed valid
// frames to the codec of another kind, and feed random garbage to every
// codec. The decoder may reject or (for benign inputs) accept; it must
// never crash, and whatever it accepts must re-serialize without crashing.
// Runs when LHRS_WIRE_FUZZ_SEED (or the shared LHRS_FUZZ_SEED) is set —
// randomized per CI run (see .github/workflows/ci.yml), reproducible
// locally with LHRS_WIRE_FUZZ_SEED=<seed>. The corpus includes the
// versioned scan predicates, so the v0/v1 fallback path is fuzzed too.
TEST_F(WireTest, SeededCorruptionNeverCrashesDecoder) {
  const char* env = std::getenv("LHRS_WIRE_FUZZ_SEED");
  if (env == nullptr) env = std::getenv("LHRS_FUZZ_SEED");
  if (env == nullptr) {
    GTEST_SKIP() << "set LHRS_WIRE_FUZZ_SEED to run the corruption fuzz";
  }
  const uint64_t seed = std::strtoull(env, nullptr, 10);
  std::printf("wire corruption fuzz seed: %llu\n",
              static_cast<unsigned long long>(seed));
  Rng rng(seed);

  const std::vector<Sample> samples = Samples();
  const auto try_decode = [](const WireCodec& codec, const Bytes& bytes) {
    std::unique_ptr<MessageBody> decoded =
        DeserializeWith(codec, BufferView(bytes));
    if (decoded != nullptr) {
      WireWriter w;
      (void)codec.serialize(*decoded, w);  // Must not crash.
    }
  };

  // Mutated valid frames: up to 4 byte flips each.
  for (int iter = 0; iter < 2000; ++iter) {
    const Sample& sample = samples[rng.Uniform(samples.size())];
    Bytes bytes = Encode(sample);
    if (bytes.empty()) continue;
    const uint32_t flips = 1 + static_cast<uint32_t>(rng.Uniform(4));
    for (uint32_t f = 0; f < flips; ++f) {
      bytes[rng.Uniform(bytes.size())] ^=
          static_cast<uint8_t>(1 + rng.Uniform(255));
    }
    try_decode(sample.codec, bytes);
  }

  // Valid frames re-tagged as another kind.
  for (int iter = 0; iter < 2000; ++iter) {
    const Bytes bytes = Encode(samples[rng.Uniform(samples.size())]);
    try_decode(samples[rng.Uniform(samples.size())].codec, bytes);
  }

  // Pure garbage against every codec.
  for (int iter = 0; iter < 2000; ++iter) {
    const Bytes garbage = rng.RandomBytes(rng.Uniform(512));
    try_decode(samples[rng.Uniform(samples.size())].codec, garbage);
  }
}

// ---------------------------------------------------------------------------
// Control frames (coordinator <-> member, transport/cluster_proto.h).

constexpr uint32_t kCtrlMagic = 0x4C43544C;  // "LCTL"

/// The wire layout of one control frame after its magic word and type, one
/// character per field: '2', '4', '8' a little-endian integer of that many
/// bytes, 'b' a bool byte, 's' a u32 length plus bytes, 'E' a u32 count
/// plus that many endpoints (u32 ip, u16 udp port, u16 tcp port), 'N' a
/// u32 count plus that many 4-byte node ids.
struct CtrlLayout {
  CtrlType type;
  std::string_view fields;
};

constexpr CtrlLayout kCtrlLayouts[] = {
    {CtrlType::kHello, "4422"},
    {CtrlType::kWelcome, "E4s"},
    {CtrlType::kReady, ""},
    {CtrlType::kActivateNode, "4bb444"},
    {CtrlType::kAllocUpdate, "8N"},
    {CtrlType::kSetAvailable, "4b"},
    {CtrlType::kRunPhase, "4"},
    {CtrlType::kPhaseDone, "4b888888"},
    {CtrlType::kStop, ""},
    {CtrlType::kGoodbye, ""},
    {CtrlType::kQuiesce, ""},
    {CtrlType::kQuiesced, "4"},
};

void PutLe(Bytes& out, uint64_t v, int width) {
  for (int i = 0; i < width; ++i) {
    out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

/// A control payload (no length prefix) of `layout` with seeded values:
/// every integer odd (so never its default of 0), every list and string
/// non-empty, every bool drawn from the seed.
Bytes CtrlPayload(const CtrlLayout& layout, uint64_t seed) {
  Rng rng(seed);
  const auto odd = [&] { return rng.Next64() | 1; };
  Bytes out;
  PutLe(out, kCtrlMagic, 4);
  PutLe(out, static_cast<uint32_t>(layout.type), 4);
  for (const char c : layout.fields) {
    switch (c) {
      case '2':
      case '4':
      case '8':
        PutLe(out, odd(), c - '0');
        break;
      case 'b':
        PutLe(out, rng.Uniform(2), 1);
        break;
      case 's': {
        const uint64_t n = 1 + rng.Uniform(12);
        PutLe(out, n, 4);
        for (uint64_t i = 0; i < n; ++i) PutLe(out, 'a' + rng.Uniform(26), 1);
        break;
      }
      case 'E': {
        const uint64_t n = 1 + rng.Uniform(6);
        PutLe(out, n, 4);
        for (uint64_t i = 0; i < n; ++i) {
          PutLe(out, odd(), 4);
          PutLe(out, odd(), 2);
          PutLe(out, odd(), 2);
        }
        break;
      }
      case 'N': {
        const uint64_t n = 1 + rng.Uniform(9);
        PutLe(out, n, 4);
        for (uint64_t i = 0; i < n; ++i) PutLe(out, odd(), 4);
        break;
      }
    }
  }
  return out;
}

std::optional<CtrlMsg> DecodePayload(const Bytes& payload) {
  return DecodeCtrl(payload.data(), payload.size());
}

Bytes WithLengthPrefix(const Bytes& payload) {
  Bytes frame;
  PutLe(frame, payload.size(), 4);
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

std::string CtrlName(const CtrlLayout& layout, uint64_t seed) {
  return "type " + std::to_string(static_cast<uint32_t>(layout.type)) +
         " seed " + std::to_string(seed);
}

// Every type decodes from its layout and re-encodes to the same frame, so
// each field it carries survives the round trip with a non-default value.
TEST(CtrlFrameTest, EveryTypeRoundTripsByteIdentically) {
  for (const CtrlLayout& layout : kCtrlLayouts) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      const Bytes payload = CtrlPayload(layout, seed);
      const std::optional<CtrlMsg> msg = DecodePayload(payload);
      ASSERT_TRUE(msg.has_value()) << CtrlName(layout, seed);
      EXPECT_EQ(msg->type, layout.type);
      EXPECT_EQ(EncodeCtrl(*msg), WithLengthPrefix(payload))
          << CtrlName(layout, seed);
    }
  }
}

TEST(CtrlFrameTest, TruncatedFramesAreRejected) {
  for (const CtrlLayout& layout : kCtrlLayouts) {
    const Bytes payload = CtrlPayload(layout, 7);
    for (size_t len = 0; len < payload.size(); ++len) {
      EXPECT_FALSE(DecodeCtrl(payload.data(), len).has_value())
          << CtrlName(layout, 7) << " accepted a " << len << "-byte prefix";
    }
  }
}

TEST(CtrlFrameTest, BadMagicIsRejected) {
  for (const CtrlLayout& layout : kCtrlLayouts) {
    Bytes payload = CtrlPayload(layout, 3);
    payload[0] ^= 0x01;
    EXPECT_FALSE(DecodePayload(payload).has_value()) << CtrlName(layout, 3);
  }
}

TEST(CtrlFrameTest, UnknownTypesAreRejected) {
  for (const uint32_t type : {0u, 13u, 0xFFFFFFFFu}) {
    Bytes payload;
    PutLe(payload, kCtrlMagic, 4);
    PutLe(payload, type, 4);
    EXPECT_FALSE(DecodePayload(payload).has_value()) << "type " << type;
    PutLe(payload, 1, 4);  // A field, as if the type carried one.
    EXPECT_FALSE(DecodePayload(payload).has_value()) << "type " << type;
  }
}

TEST(CtrlFrameTest, TrailingByteIsRejected) {
  for (const CtrlLayout& layout : kCtrlLayouts) {
    Bytes payload = CtrlPayload(layout, 5);
    payload.push_back(0);
    EXPECT_FALSE(DecodePayload(payload).has_value()) << CtrlName(layout, 5);
  }
}

// A Welcome or AllocUpdate whose list count promises more elements than
// the frame's remaining bytes can hold is refused before any element is
// read or any list is sized.
TEST(CtrlFrameTest, CountLargerThanTheFrameIsRejected) {
  for (const uint32_t count : {3u, 1000u, 1u << 20, 0xFFFFFFFFu}) {
    Bytes welcome;
    PutLe(welcome, kCtrlMagic, 4);
    PutLe(welcome, static_cast<uint32_t>(CtrlType::kWelcome), 4);
    PutLe(welcome, count, 4);
    PutLe(welcome, 0x7F000001, 4);  // One endpoint.
    PutLe(welcome, 4000, 2);
    PutLe(welcome, 4001, 2);
    PutLe(welcome, 0, 4);  // field_choice.
    PutLe(welcome, 2, 4);  // code "rs".
    welcome.push_back('r');
    welcome.push_back('s');
    EXPECT_FALSE(DecodePayload(welcome).has_value()) << "count " << count;

    Bytes alloc;
    PutLe(alloc, kCtrlMagic, 4);
    PutLe(alloc, static_cast<uint32_t>(CtrlType::kAllocUpdate), 4);
    PutLe(alloc, 9, 8);  // version.
    PutLe(alloc, count, 4);
    PutLe(alloc, 1, 4);  // Two entries.
    PutLe(alloc, 2, 4);
    EXPECT_FALSE(DecodePayload(alloc).has_value()) << "count " << count;
  }
}

// Seeded corruption fuzz of the control decoder: bit flips in valid
// frames, and garbage with and without a valid magic-and-type head. A
// rejected frame is fine; a crash or an out-of-bounds read is not (ASan
// and UBSan in CI), and an accepted frame must re-encode. Same seed
// variables as WireTest.SeededCorruptionNeverCrashesDecoder.
TEST(CtrlFrameTest, SeededCorruptionNeverCrashesDecoder) {
  const char* env = std::getenv("LHRS_WIRE_FUZZ_SEED");
  if (env == nullptr) env = std::getenv("LHRS_FUZZ_SEED");
  if (env == nullptr) {
    GTEST_SKIP() << "set LHRS_WIRE_FUZZ_SEED to run the corruption fuzz";
  }
  const uint64_t seed = std::strtoull(env, nullptr, 10);
  std::printf("control frame corruption fuzz seed: %llu\n",
              static_cast<unsigned long long>(seed));
  Rng rng(seed);
  const auto try_decode = [](const Bytes& payload) {
    if (std::optional<CtrlMsg> msg = DecodePayload(payload)) {
      (void)EncodeCtrl(*msg);  // Must not crash.
    }
  };
  const auto some_layout = [&]() -> const CtrlLayout& {
    return kCtrlLayouts[rng.Uniform(std::size(kCtrlLayouts))];
  };

  for (int iter = 0; iter < 2000; ++iter) {
    Bytes payload = CtrlPayload(some_layout(), rng.Next64());
    const uint32_t flips = 1 + static_cast<uint32_t>(rng.Uniform(4));
    for (uint32_t f = 0; f < flips; ++f) {
      payload[rng.Uniform(payload.size())] ^=
          static_cast<uint8_t>(1 << rng.Uniform(8));
    }
    try_decode(payload);
  }

  for (int iter = 0; iter < 2000; ++iter) {
    Bytes payload;
    if (rng.Uniform(2) == 0) {
      PutLe(payload, kCtrlMagic, 4);
      PutLe(payload, static_cast<uint32_t>(some_layout().type), 4);
    }
    const Bytes garbage = rng.RandomBytes(rng.Uniform(96));
    payload.insert(payload.end(), garbage.begin(), garbage.end());
    try_decode(payload);
  }
}

}  // namespace
}  // namespace lhrs::transport
