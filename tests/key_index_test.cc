// Seeded differential tests of the open-addressing key index (KeyIndex)
// and of its two owners: BucketStore's key -> slot index, checked against
// a std::map oracle under both slot policies, and the parity bucket's
// key -> rank lookup, checked through its FindRank protocol.
//
// Keys share their low 16 bits, as the keys of one LH* bucket share their
// low address bits, and half of them hash to the two last or two first
// entries of a 16-entry table, so probe chains wrap the table end and
// erases land in the middle of chains.
//
// The fixed seeds always run. LHRS_KEY_INDEX_SEED=<seed> adds one run of
// every differential under that seed (CI sets it at random and logs it).

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/buffer.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "lhrs/messages.h"
#include "lhrs/parity_bucket.h"
#include "lhrs/shared.h"
#include "net/network.h"
#include "net/node.h"
#include "store/bucket_store.h"
#include "store/key_index.h"

namespace lhrs {
namespace {

using store::BucketStore;
using store::KeyIndex;

constexpr uint64_t kLowBits = 0xBEEF;

/// Home of `key` in a 16-entry table.
uint64_t Home16(uint64_t key) { return KeyIndex::Mix(key) & 15; }

/// A key with the shared low bits whose home in a 16-entry table passes
/// `want`.
template <typename Pred>
uint64_t DrawKey(Rng& rng, Pred want) {
  while (true) {
    const uint64_t key = (rng.Uniform(1 << 20) << 16) | kLowBits;
    if (want(Home16(key))) return key;
  }
}

/// A pool of distinct keys, half of them hashing to entries 14, 15, 0, 1.
std::vector<uint64_t> KeyPool(Rng& rng, size_t n) {
  std::set<uint64_t> keys;
  while (keys.size() < n) {
    const bool wrap = keys.size() % 2 == 0;
    keys.insert(DrawKey(rng, [&](uint64_t home) {
      return ((home + 2) % 16 < 4) == wrap;
    }));
  }
  return {keys.begin(), keys.end()};
}

std::optional<uint64_t> EnvSeed() {
  const char* env = std::getenv("LHRS_KEY_INDEX_SEED");
  if (env == nullptr || *env == '\0') return std::nullopt;
  const uint64_t seed = std::strtoull(env, nullptr, 10);
  std::cout << "LHRS_KEY_INDEX_SEED=" << seed << std::endl;
  return seed;
}

// --- KeyIndex itself --------------------------------------------------------

struct VectorKeys {
  const std::vector<uint64_t>* keys;
  uint64_t operator()(uint32_t pos) const { return (*keys)[pos]; }
};

TEST(KeyIndexTest, ChainsWrapTheTableEndAndSurviveMiddleErases) {
  Rng rng(5);
  // Five keys whose home is entry 15 of a 16-entry table: the chain runs
  // 15, 0, 1, 2, 3.
  std::vector<uint64_t> keys;
  while (keys.size() < 5) {
    keys.push_back(DrawKey(rng, [](uint64_t home) { return home == 15; }));
  }
  const VectorKeys at{&keys};
  KeyIndex index;
  for (uint32_t i = 0; i < keys.size(); ++i) {
    EXPECT_TRUE(index.TryInsert(keys[i], i, at).second);
  }
  ASSERT_EQ(index.capacity(), 16u);
  EXPECT_EQ(index.TryInsert(keys[2], 99, at), std::make_pair(2u, false));
  // Erase from the middle of the chain, then its head: every other key is
  // still found, and erased ones are gone.
  EXPECT_EQ(index.Erase(keys[2], at), 2u);
  EXPECT_EQ(index.Erase(keys[2], at), KeyIndex::kNone);
  EXPECT_EQ(index.Erase(keys[0], at), 0u);
  for (uint32_t i = 0; i < keys.size(); ++i) {
    const bool gone = i == 0 || i == 2;
    EXPECT_EQ(index.Find(keys[i], at), gone ? KeyIndex::kNone : i) << i;
  }
  EXPECT_EQ(index.size(), 3u);
  keys[0] = keys[4];  // Re-point a live key to a cell holding it too.
  index.Put(keys[4], 0, at);
  EXPECT_EQ(index.Find(keys[4], at), 0u);
  index.Clear();
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.Find(keys[1], at), KeyIndex::kNone);
}

TEST(KeyIndexTest, EraseLeavesEntriesAtTheirHomeAcrossTheWrap) {
  Rng rng(6);
  // a (home 15) at entry 15, b (home 0) at entry 0, c (home 15) pushed on
  // to entry 1. Erasing a must pull c back across the table end to 15 but
  // leave b at its home.
  std::vector<uint64_t> keys = {
      DrawKey(rng, [](uint64_t home) { return home == 15; }),
      DrawKey(rng, [](uint64_t home) { return home == 0; }),
      DrawKey(rng, [](uint64_t home) { return home == 15; })};
  const VectorKeys at{&keys};
  KeyIndex index;
  for (uint32_t i = 0; i < keys.size(); ++i) index.TryInsert(keys[i], i, at);
  ASSERT_EQ(index.capacity(), 16u);
  EXPECT_EQ(index.Erase(keys[0], at), 0u);
  EXPECT_EQ(index.Find(keys[1], at), 1u);
  EXPECT_EQ(index.Find(keys[2], at), 2u);
  EXPECT_EQ(index.Erase(keys[1], at), 1u);
  EXPECT_EQ(index.Find(keys[2], at), 2u);
}

TEST(KeyIndexTest, GrowsAtHalfLoadAndReserves) {
  std::vector<uint64_t> keys;
  const VectorKeys at{&keys};
  KeyIndex index;
  EXPECT_EQ(index.Find(1, at), KeyIndex::kNone);
  EXPECT_EQ(index.Erase(1, at), KeyIndex::kNone);
  for (uint32_t i = 0; i < 1000; ++i) {
    keys.push_back((uint64_t{i} << 16) | kLowBits);
    ASSERT_TRUE(index.TryInsert(keys[i], i, at).second);
    ASSERT_LE(index.size() * 2, index.capacity());
  }
  EXPECT_EQ(index.capacity(), 2048u);
  for (uint32_t i = 0; i < 1000; ++i) ASSERT_EQ(index.Find(keys[i], at), i);
  KeyIndex reserved;
  reserved.Reserve(1000, at);
  EXPECT_EQ(reserved.capacity(), 2048u);
}

// --- BucketStore against a std::map oracle ----------------------------------

/// What the store must hold: key -> (slot, payload), plus the slot policy.
struct StoreOracle {
  bool reuse = true;
  std::map<uint64_t, std::pair<size_t, Bytes>> records;
  std::set<size_t> live;
  size_t slot_end = 0;  ///< One past the highest slot occupied since Clear.

  size_t NextSlot() const {
    if (!reuse) return slot_end;
    size_t slot = 0;
    while (live.contains(slot)) ++slot;
    return slot;
  }
  bool Add(uint64_t key, size_t slot, Bytes value) {
    if (records.contains(key) || live.contains(slot)) return false;
    records[key] = {slot, std::move(value)};
    live.insert(slot);
    slot_end = std::max(slot_end, slot + 1);
    return true;
  }
};

void ExpectSame(const BucketStore& store, const StoreOracle& oracle,
                const std::vector<uint64_t>& pool, int step) {
  ASSERT_EQ(store.size(), oracle.records.size()) << "step " << step;
  std::vector<uint64_t> keys;
  for (const auto& [key, record] : oracle.records) keys.push_back(key);
  ASSERT_EQ(store.SortedKeys(), keys) << "step " << step;
  for (uint64_t key : pool) {
    const auto it = oracle.records.find(key);
    const BufferView* found = store.Find(key);
    const std::optional<size_t> slot = store.SlotOf(key);
    if (it == oracle.records.end()) {
      ASSERT_EQ(found, nullptr) << "step " << step << " key " << key;
      ASSERT_FALSE(slot.has_value()) << "step " << step;
      continue;
    }
    ASSERT_NE(found, nullptr) << "step " << step << " key " << key;
    ASSERT_EQ(found->ToBytes(), it->second.second) << "step " << step;
    ASSERT_EQ(slot, it->second.first) << "step " << step;
  }
}

void RunStoreDifferential(uint64_t seed, bool reuse) {
  SCOPED_TRACE(testing::Message() << "seed " << seed << " reuse " << reuse);
  Rng rng(seed);
  const std::vector<uint64_t> pool = KeyPool(rng, 20);
  BucketStore store(/*segment_capacity=*/256);
  store.set_reuse_slots(reuse);
  StoreOracle oracle;
  oracle.reuse = reuse;
  const auto pick = [&] { return pool[rng.Uniform(pool.size())]; };
  const auto value = [&] {
    return Bytes(rng.Uniform(40), static_cast<uint8_t>(rng.Next64()));
  };

  for (int step = 0; step < 5000; ++step) {
    const uint64_t key = pick();
    const uint64_t op = rng.Uniform(100);
    if (op < 25) {
      Bytes v = value();
      const bool ok = oracle.Add(key, oracle.NextSlot(), v);
      ASSERT_EQ(store.Insert(key, v), ok) << "step " << step;
    } else if (op < 40) {
      Bytes v = value();
      const bool ok = oracle.Add(key, oracle.NextSlot(), v);
      ASSERT_EQ(store.InsertShared(key, BufferView(v)), ok) << "step " << step;
    } else if (op < 48) {
      const size_t slot = rng.Uniform(oracle.slot_end + 8);
      Bytes v = value();
      const bool ok = oracle.Add(key, slot, v);
      ASSERT_EQ(store.InsertAt(slot, key, BufferView(v)), ok)
          << "step " << step;
    } else if (op < 60) {
      Bytes v = value();
      auto it = oracle.records.find(key);
      if (it != oracle.records.end()) {
        it->second.second = v;
      } else {
        oracle.Add(key, oracle.NextSlot(), v);
      }
      store.Put(key, BufferView(v));
    } else if (op < 92) {
      auto it = oracle.records.find(key);
      const bool present = it != oracle.records.end();
      if (present) {
        oracle.live.erase(it->second.first);
        oracle.records.erase(it);
      }
      ASSERT_EQ(store.Erase(key), present) << "step " << step;
    } else if (op < 96) {
      store.Compact();
    } else if (op < 98) {
      store.Reserve(rng.Uniform(200));
    } else if (op < 99) {
      store.Clear();
      oracle.records.clear();
      oracle.live.clear();
      oracle.slot_end = 0;
    }
    ExpectSame(store, oracle, pool, step);
    if (testing::Test::HasFatalFailure()) return;
  }
}

TEST(KeyIndexDifferentialTest, BucketStoreMatchesMapOracle) {
  for (uint64_t seed : {1, 2, 3}) {
    for (bool reuse : {true, false}) RunStoreDifferential(seed, reuse);
  }
}

// --- Parity bucket key -> rank lookup ---------------------------------------

/// Sends deltas and rank lookups to one parity bucket and keeps the last
/// FindRank reply.
class ProbeNode : public Node {
 public:
  void HandleMessage(const Message& msg) override {
    ASSERT_EQ(msg.body->kind(), LhrsMsg::kFindRankReply);
    const auto& reply = static_cast<const FindRankReplyMsg&>(*msg.body);
    found = reply.found;
    rank = reply.record.rank;
  }
  void Post(NodeId to, std::unique_ptr<MessageBody> body) {
    Send(to, std::move(body));
  }

  bool found = false;
  Rank rank = 0;
};

void RunParityDifferential(uint64_t seed) {
  SCOPED_TRACE(testing::Message() << "seed " << seed);
  constexpr uint32_t kM = 4;
  constexpr Rank kRanks = 24;
  Rng rng(seed);
  const std::vector<uint64_t> pool = KeyPool(rng, 64);

  auto ctx = std::make_shared<LhrsContext>();
  ctx->m = kM;
  ctx->coders = std::make_shared<CoderCache>(kM);
  Network net;
  auto* probe = new ProbeNode();
  net.AddNode(std::unique_ptr<Node>(probe));
  const NodeId parity_id = net.AddNode(std::make_unique<ParityBucketNode>(
      ctx, /*group=*/0, /*parity_index=*/0, /*k=*/1,
      /*pre_initialized=*/true));
  const auto* parity = net.node_as<ParityBucketNode>(parity_id);

  // The bucket's contract: a key maps to the rank of its latest kSet, and
  // a kClear of the key (at any cell) unmaps it.
  std::map<uint64_t, Rank> oracle;
  std::map<std::pair<Rank, uint32_t>, uint64_t> cells;
  const auto delta = [&](Rank rank, uint32_t slot, ParityDelta::KeyOp op,
                         uint64_t key) {
    auto msg = std::make_unique<ParityDeltaMsg>();
    msg->group = 0;
    msg->delta.rank = rank;
    msg->delta.slot = slot;
    msg->delta.key_op = op;
    msg->delta.key = key;
    msg->delta.new_length = op == ParityDelta::KeyOp::kSet ? 8 : 0;
    probe->Post(parity_id, std::move(msg));
    net.RunUntilIdle();
  };

  for (int step = 0; step < 2000; ++step) {
    const Rank rank = 1 + static_cast<Rank>(rng.Uniform(kRanks));
    const uint32_t slot = static_cast<uint32_t>(rng.Uniform(kM));
    const auto cell = cells.find({rank, slot});
    if (cell == cells.end()) {
      // Mostly fresh keys; sometimes a key that already sits elsewhere
      // (a split mover's kSet overtaking its kClear).
      const uint64_t key = pool[rng.Uniform(pool.size())];
      delta(rank, slot, ParityDelta::KeyOp::kSet, key);
      cells[{rank, slot}] = key;
      oracle[key] = rank;
    } else if (rng.Uniform(3) != 0) {
      const uint64_t key = cell->second;
      delta(rank, slot, ParityDelta::KeyOp::kClear, key);
      cells.erase(cell);
      oracle.erase(key);
    }
    std::set<Rank> ranks;
    for (const auto& [at, key] : cells) ranks.insert(at.first);
    ASSERT_EQ(parity->parity_record_count(), ranks.size()) << "step " << step;
    // The touched cell's key every step; the whole pool now and then.
    std::vector<uint64_t> checked = {cells.contains({rank, slot})
                                         ? cells.at({rank, slot})
                                         : pool[rng.Uniform(pool.size())]};
    if (step % 25 == 0) checked = pool;
    for (uint64_t key : checked) {
      const auto it = oracle.find(key);
      for (uint32_t s = 0; s < kM; ++s) {
        auto req = std::make_unique<FindRankRequestMsg>();
        req->key = key;
        req->slot = s;
        probe->Post(parity_id, std::move(req));
        net.RunUntilIdle();
        const auto at = cells.find({it == oracle.end() ? 0 : it->second, s});
        const bool expect = it != oracle.end() && at != cells.end() &&
                            at->second == key;
        ASSERT_EQ(probe->found, expect)
            << "step " << step << " key " << key << " slot " << s;
        if (expect) {
          ASSERT_EQ(probe->rank, it->second) << "step " << step;
        }
      }
    }
  }
}

TEST(KeyIndexDifferentialTest, ParityKeyToRankMatchesMapOracle) {
  for (uint64_t seed : {1, 2, 3}) RunParityDifferential(seed);
}

TEST(KeyIndexDifferentialTest, EnvSeeded) {
  const std::optional<uint64_t> seed = EnvSeed();
  if (!seed.has_value()) GTEST_SKIP() << "LHRS_KEY_INDEX_SEED not set";
  for (bool reuse : {true, false}) RunStoreDifferential(*seed, reuse);
  RunParityDifferential(*seed);
}

}  // namespace
}  // namespace lhrs
