// Unit tests for the slotted-segment BucketStore: arena packing, records
// spanning segment boundaries, tombstone accounting, compaction under
// outstanding readers, deterministic iteration, and the slot policy (the
// LH*RS rank discipline).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/buffer.h"
#include "common/bytes.h"
#include "store/bucket_store.h"

namespace lhrs::store {
namespace {

Bytes Val(uint8_t fill, size_t n) { return Bytes(n, fill); }

TEST(BucketStoreTest, InsertFindEraseRoundTrip) {
  BucketStore store;
  EXPECT_TRUE(store.empty());
  EXPECT_TRUE(store.Insert(7, Val(0xAB, 10)));
  EXPECT_FALSE(store.Insert(7, Val(0xCD, 3)));  // Duplicate rejected.
  ASSERT_NE(store.Find(7), nullptr);
  EXPECT_EQ(store.Find(7)->ToBytes(), Val(0xAB, 10));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.payload_bytes(), 10u);
  EXPECT_TRUE(store.Erase(7));
  EXPECT_FALSE(store.Erase(7));
  EXPECT_EQ(store.Find(7), nullptr);
  EXPECT_TRUE(store.empty());
}

TEST(BucketStoreTest, PutOverwritesAndTombstonesOldPayload) {
  BucketStore store;
  store.Put(1, BufferView(Val(0x11, 8)));
  store.Put(1, BufferView(Val(0x22, 16)));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.Find(1)->ToBytes(), Val(0x22, 16));
  const auto stats = store.GetStats();
  EXPECT_EQ(stats.live_bytes, 16u);
  EXPECT_EQ(stats.dead_bytes, 8u);
}

TEST(BucketStoreTest, RecordsSpanSegmentBoundaries) {
  // 128-byte segments, 48-byte records: the third record does not fit the
  // first segment's remainder and must open a new one; nothing is lost.
  BucketStore store(/*segment_capacity=*/128);
  for (uint64_t k = 0; k < 12; ++k) {
    ASSERT_TRUE(store.Insert(k, Val(static_cast<uint8_t>(k), 48)));
  }
  EXPECT_GT(store.GetStats().segments, 1u);
  for (uint64_t k = 0; k < 12; ++k) {
    ASSERT_NE(store.Find(k), nullptr) << "key " << k;
    EXPECT_EQ(store.Find(k)->ToBytes(), Val(static_cast<uint8_t>(k), 48));
  }
}

TEST(BucketStoreTest, OversizedRecordGetsDedicatedSegment) {
  BucketStore store(/*segment_capacity=*/64);
  ASSERT_TRUE(store.Insert(1, Val(0x5A, 1000)));  // 15x the segment size.
  ASSERT_TRUE(store.Insert(2, Val(0x10, 8)));     // Small one right after.
  EXPECT_EQ(store.Find(1)->size(), 1000u);
  EXPECT_EQ(store.Find(1)->ToBytes(), Val(0x5A, 1000));
  EXPECT_EQ(store.Find(2)->ToBytes(), Val(0x10, 8));
}

TEST(BucketStoreTest, InsertSharedAdoptsWithoutCopy) {
  BucketStore store;
  BufferView v(Val(0x77, 32));
  const uint8_t* payload = v.data();
  ASSERT_TRUE(store.InsertShared(5, v));
  // Zero-copy adoption: the store serves the very same bytes.
  EXPECT_EQ(store.Find(5)->data(), payload);
}

TEST(BucketStoreTest, SortedKeysIsDeterministicAscending) {
  BucketStore store;
  for (uint64_t k : {9u, 3u, 27u, 1u, 14u}) {
    store.Insert(k, Val(1, 4));
  }
  EXPECT_EQ(store.SortedKeys(), (std::vector<uint64_t>{1, 3, 9, 14, 27}));
  std::vector<uint64_t> visited;
  store.ForEachOrdered(
      [&](uint64_t k, const BufferView&) { visited.push_back(k); });
  EXPECT_EQ(visited, store.SortedKeys());
}

TEST(BucketStoreTest, CompactionReclaimsDeadBytesAndKeepsLiveSet) {
  BucketStore store(/*segment_capacity=*/256);
  for (uint64_t k = 0; k < 64; ++k) {
    store.Insert(k, Val(static_cast<uint8_t>(k), 32));
  }
  for (uint64_t k = 0; k < 64; k += 2) store.Erase(k);
  store.Compact();
  const auto stats = store.GetStats();
  EXPECT_EQ(stats.dead_bytes, 0u);
  EXPECT_EQ(stats.live_records, 32u);
  EXPECT_GE(stats.compactions, 1u);
  for (uint64_t k = 1; k < 64; k += 2) {
    ASSERT_NE(store.Find(k), nullptr);
    EXPECT_EQ(store.Find(k)->ToBytes(), Val(static_cast<uint8_t>(k), 32));
  }
}

TEST(BucketStoreTest, OutstandingViewsSurviveCompaction) {
  // A reader that grabbed views before a compaction (a recovery dump, a
  // wire message in flight) must keep seeing the original bytes: the
  // ref-counted segment stays alive until the last view drops.
  BucketStore store(/*segment_capacity=*/128);
  for (uint64_t k = 0; k < 16; ++k) {
    store.Insert(k, Val(static_cast<uint8_t>(0xA0 + k), 24));
  }
  std::vector<BufferView> held;
  store.ForEachOrdered(
      [&](uint64_t, const BufferView& v) { held.push_back(v); });
  for (uint64_t k = 0; k < 8; ++k) store.Erase(k);
  store.Compact();
  for (size_t i = 0; i < held.size(); ++i) {
    EXPECT_EQ(held[i].ToBytes(), Val(static_cast<uint8_t>(0xA0 + i), 24))
        << "held view " << i << " corrupted by compaction";
  }
}

TEST(BucketStoreTest, AutoCompactionTriggersUnderDeadBytes) {
  // Dead bytes must both exceed the threshold and outweigh live bytes;
  // churn a store hard enough and compaction fires on its own.
  BucketStore store;
  for (int round = 0; round < 40; ++round) {
    for (uint64_t k = 0; k < 16; ++k) {
      store.Put(k, BufferView(Val(static_cast<uint8_t>(round), 256)));
    }
  }
  EXPECT_GE(store.GetStats().compactions, 1u);
  for (uint64_t k = 0; k < 16; ++k) {
    EXPECT_EQ(store.Find(k)->ToBytes(), Val(39, 256));
  }
}

TEST(BucketStoreTest, MutationDuringOrderedIterationSkipsErased) {
  BucketStore store;
  for (uint64_t k = 0; k < 10; ++k) store.Insert(k, Val(1, 4));
  std::vector<uint64_t> visited;
  store.ForEachOrdered([&](uint64_t k, const BufferView&) {
    visited.push_back(k);
    if (k == 3) store.Erase(7);  // Mid-split-style mutation.
  });
  // 7 was erased after the snapshot but before its visit: skipped.
  EXPECT_EQ(visited, (std::vector<uint64_t>{0, 1, 2, 3, 4, 5, 6, 8, 9}));
}

TEST(BucketStoreTest, ReaderDuringCompactionMidIteration) {
  // A reader holding views can trigger compaction midway (the recovery
  // path reads from a bucket whose auto-compaction fires): earlier views
  // stay valid, later reads see the repacked live set.
  BucketStore store(/*segment_capacity=*/256);
  for (uint64_t k = 0; k < 32; ++k) {
    store.Insert(k, Val(static_cast<uint8_t>(k), 16));
  }
  std::vector<std::pair<uint64_t, BufferView>> dump;
  store.ForEachOrdered([&](uint64_t k, const BufferView& v) {
    dump.emplace_back(k, v);
    if (k == 15) store.Compact();
  });
  ASSERT_EQ(dump.size(), 32u);
  for (const auto& [k, v] : dump) {
    EXPECT_EQ(v.ToBytes(), Val(static_cast<uint8_t>(k), 16)) << "key " << k;
  }
}

TEST(BucketStoreTest, ClearDropsEverything) {
  BucketStore store;
  for (uint64_t k = 0; k < 5; ++k) store.Insert(k, Val(2, 8));
  store.Clear();
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.payload_bytes(), 0u);
  EXPECT_EQ(store.GetStats().segments, 0u);
  // Reusable after Clear.
  EXPECT_TRUE(store.Insert(1, Val(3, 8)));
  EXPECT_EQ(store.Find(1)->ToBytes(), Val(3, 8));
}

/// The slot of `key`, or -1 when absent (readable EXPECT_EQs).
int64_t Slot(const BucketStore& store, uint64_t key) {
  const std::optional<size_t> slot = store.SlotOf(key);
  return slot.has_value() ? static_cast<int64_t>(*slot) : -1;
}

TEST(BucketStoreTest, NewRecordsTakeTheSmallestFreeSlot) {
  // 200 records span four bitmap words; frees land on both sides of the
  // word boundaries.
  BucketStore store;
  for (uint64_t k = 0; k < 200; ++k) {
    ASSERT_TRUE(store.Insert(1000 + k, Val(1, 4)));
    EXPECT_EQ(Slot(store, 1000 + k), static_cast<int64_t>(k));
  }
  for (uint64_t slot : {130u, 64u, 5u, 63u}) {
    ASSERT_TRUE(store.Erase(1000 + slot));
  }
  EXPECT_EQ(store.At(64), nullptr);
  for (int64_t want : {5, 63, 64, 130, 200, 201}) {
    const uint64_t key = 5000 + static_cast<uint64_t>(want);
    ASSERT_TRUE(store.Insert(key, Val(2, 4)));
    EXPECT_EQ(Slot(store, key), want);
  }
  // Put of a new key allocates like Insert; of a live key keeps its slot.
  ASSERT_TRUE(store.Erase(1000 + 7));
  store.Put(77, BufferView(Val(3, 4)));
  EXPECT_EQ(Slot(store, 77), 7);
  store.Put(77, BufferView(Val(4, 9)));
  EXPECT_EQ(Slot(store, 77), 7);
  EXPECT_EQ(store.size(), 202u);
  EXPECT_EQ(store.At(202), nullptr);
}

TEST(BucketStoreTest, InsertAtLeavesGapsThatAreReusedInOrder) {
  // A recovery install: fixed slots 0, 3 and 9; the gaps are free.
  BucketStore store;
  ASSERT_TRUE(store.InsertAt(3, 30, BufferView(Val(3, 4))));
  ASSERT_TRUE(store.InsertAt(0, 10, BufferView(Val(1, 4))));
  ASSERT_TRUE(store.InsertAt(9, 90, BufferView(Val(9, 4))));
  EXPECT_FALSE(store.InsertAt(3, 31, BufferView(Val(0, 4))));  // Taken.
  EXPECT_FALSE(store.InsertAt(5, 10, BufferView(Val(0, 4))));  // Dup key.
  EXPECT_EQ(store.size(), 3u);
  ASSERT_NE(store.At(9), nullptr);
  EXPECT_EQ(store.At(9)->key, 90u);
  EXPECT_EQ(store.At(9)->value.ToBytes(), Val(9, 4));
  EXPECT_EQ(store.At(4), nullptr);
  EXPECT_EQ(store.At(1000), nullptr);
  for (int64_t want : {1, 2, 4, 5, 6, 7, 8, 10}) {
    const uint64_t key = 100 + static_cast<uint64_t>(want);
    ASSERT_TRUE(store.Insert(key, Val(5, 4)));
    EXPECT_EQ(Slot(store, key), want);
  }
  std::vector<size_t> slots;
  store.ForEachSlot([&](size_t slot, uint64_t key, const BufferView&) {
    EXPECT_EQ(Slot(store, key), static_cast<int64_t>(slot));
    slots.push_back(slot);
  });
  EXPECT_EQ(slots, (std::vector<size_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));
}

TEST(BucketStoreTest, MonotonePolicyNeverReusesSlots) {
  BucketStore store;
  store.set_reuse_slots(false);
  for (uint64_t k = 0; k < 4; ++k) ASSERT_TRUE(store.Insert(k, Val(1, 4)));
  ASSERT_TRUE(store.Erase(1));
  ASSERT_TRUE(store.Erase(3));  // The highest slot: still not reused.
  ASSERT_TRUE(store.Insert(10, Val(1, 4)));
  EXPECT_EQ(Slot(store, 10), 4);
  // An install past the end moves the next slot past it.
  ASSERT_TRUE(store.InsertAt(20, 20, BufferView(Val(1, 4))));
  ASSERT_TRUE(store.Insert(11, Val(1, 4)));
  EXPECT_EQ(Slot(store, 11), 21);
  // Clear starts over at slot 0 and keeps the policy.
  store.Clear();
  ASSERT_TRUE(store.Insert(12, Val(1, 4)));
  ASSERT_TRUE(store.Erase(12));
  ASSERT_TRUE(store.Insert(13, Val(1, 4)));
  EXPECT_EQ(Slot(store, 13), 1);
}

TEST(BucketStoreTest, CompactKeepsSlotsAndOutstandingViews) {
  BucketStore store(/*segment_capacity=*/128);
  for (uint64_t k = 0; k < 40; ++k) {
    store.Insert(k * 7919, Val(static_cast<uint8_t>(k), 24));
  }
  for (uint64_t k = 0; k < 40; k += 3) store.Erase(k * 7919);
  std::vector<std::pair<size_t, BufferView>> held;
  store.ForEachSlot([&](size_t slot, uint64_t, const BufferView& v) {
    held.emplace_back(slot, v);
  });
  const uint64_t compactions = store.GetStats().compactions;
  store.Compact();
  EXPECT_EQ(store.GetStats().compactions, compactions + 1);
  EXPECT_EQ(store.GetStats().dead_bytes, 0u);
  for (uint64_t k = 0; k < 40; ++k) {
    if (k % 3 == 0) {
      EXPECT_EQ(Slot(store, k * 7919), -1);
      continue;
    }
    // Same slot as at insert time, fresh packing, same bytes.
    EXPECT_EQ(Slot(store, k * 7919), static_cast<int64_t>(k));
    const BucketStore::Entry* e = store.At(k);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->key, k * 7919);
    EXPECT_EQ(e->value.ToBytes(), Val(static_cast<uint8_t>(k), 24));
  }
  for (const auto& [slot, view] : held) {
    EXPECT_EQ(view.ToBytes(), Val(static_cast<uint8_t>(slot), 24))
        << "held view of slot " << slot << " corrupted by compaction";
    EXPECT_NE(store.At(slot)->value.data(), view.data());
  }
  // The freed slots are still the free set after compaction.
  ASSERT_TRUE(store.Insert(1, Val(0, 4)));
  EXPECT_EQ(Slot(store, 1), 0);
}

TEST(BucketStoreTest, OrderedIterationSurvivesInsertsPutsAndErases) {
  // ForEachOrdered's contract: fn may mutate other keys — here it grows
  // the slot vector (inserts), overwrites and erases — and still sees
  // every snapshot key that is live at its turn, with intact bytes.
  BucketStore store(/*segment_capacity=*/256);
  for (uint64_t k = 0; k < 20; ++k) {
    store.Insert(k * 10, Val(static_cast<uint8_t>(k), 16));
  }
  std::vector<uint64_t> visited;
  store.ForEachOrdered([&](uint64_t key, const BufferView& value) {
    visited.push_back(key);
    for (uint64_t i = 0; i < 50; ++i) {
      store.Insert(100000 + key * 100 + i, Val(0xEE, 64));
    }
    if (key == 50) store.Erase(120);
    if (key == 60) store.Put(70, BufferView(Val(0x77, 16)));
    // 70 was overwritten before its turn: it shows the new value.
    const uint8_t fill = key == 70 ? 0x77 : static_cast<uint8_t>(key / 10);
    EXPECT_EQ(value.ToBytes(), Val(fill, 16)) << "key " << key;
  });
  std::vector<uint64_t> want;
  for (uint64_t k = 0; k < 20; ++k) {
    if (k != 12) want.push_back(k * 10);
  }
  EXPECT_EQ(visited, want);
}

}  // namespace
}  // namespace lhrs::store
