#ifndef LHRS_STORE_BUCKET_STORE_H_
#define LHRS_STORE_BUCKET_STORE_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/buffer.h"
#include "store/key_index.h"

namespace lhrs::store {

/// A slotted-segment record store: payloads packed back-to-back into
/// ref-counted arena segments, with one record index on top — an
/// open-addressing KeyIndex from key to slot over a dense slot vector
/// holding (key, view). The index stores slot numbers only; the keys live
/// in the slots.
///
/// This replaces the per-bucket `std::map<Key, Bytes>`: a read hands out a
/// `BufferView` sharing the segment (no copy), a split or recovery dump
/// streams views of whole segments instead of copying records one by one,
/// and deletes/overwrites tombstone the old payload (dead-bytes
/// accounting) until compaction repacks the live set.
///
/// Slots: every live record occupies one slot, a small dense integer that
/// stays fixed for the record's lifetime (updates and compaction keep it).
/// A liveness bitmap doubles as the free set. A new record takes the
/// lowest free slot (reuse policy, the default) or always the slot after
/// the highest one ever used (monotone policy). LH*RS uses the slot as
/// the record's rank (rank = slot + 1), so the policy is the paper's
/// counter reuse of section 4.3; other buckets simply ignore slots.
///
/// Ownership rule: segments are ref-counted `Buffer`s, so any view handed
/// out — a wire message in flight, a recovery dump, a reader that started
/// before a compaction — keeps its segment alive after the store has
/// compacted it away. Readers are never invalidated; the store just stops
/// accounting for the retired segment.
///
/// Keys are `uint64_t`: the LH* record key or the packed LH*g group key,
/// depending on the bucket kind. Ordered iteration (ascending key) and
/// slot iteration are both deterministic, so split movement and recovery
/// dumps replay identically across runs.
class BucketStore {
 public:
  static constexpr size_t kDefaultSegmentCapacity = 64 * 1024;

  struct Stats {
    size_t live_records = 0;
    size_t live_bytes = 0;    ///< Sum of live payload sizes.
    size_t dead_bytes = 0;    ///< Tombstoned payload bytes awaiting compaction.
    size_t arena_bytes = 0;   ///< Total capacity of all open segments.
    size_t segments = 0;
    uint64_t compactions = 0;
  };

  /// A live slot's record.
  struct Entry {
    uint64_t key = 0;
    BufferView value;
  };

  explicit BucketStore(size_t segment_capacity = kDefaultSegmentCapacity)
      : segment_capacity_(std::max<size_t>(segment_capacity, 64)) {}

  BucketStore(BucketStore&&) = default;
  BucketStore& operator=(BucketStore&&) = default;
  BucketStore(const BucketStore&) = delete;
  BucketStore& operator=(const BucketStore&) = delete;

  /// Slot policy: true (default) takes the lowest free slot for a new
  /// record; false never reuses a slot until `Clear`.
  void set_reuse_slots(bool reuse) { reuse_slots_ = reuse; }

  /// Inserts a new record, copying the payload into the arena (the single
  /// ingestion copy). Returns false (and changes nothing) if the key
  /// already exists.
  bool Insert(uint64_t key, std::span<const uint8_t> value);

  /// Inserts a record by adopting an existing view — zero-copy: the store
  /// shares the caller's buffer (moved-in split records, recovered
  /// columns). Compaction localizes it into the arena later.
  bool InsertShared(uint64_t key, BufferView value);

  /// Like InsertShared, but at a given slot (recovery installs a column
  /// whose ranks are fixed). Slots skipped over become free. Returns false
  /// (and changes nothing) if the key exists or the slot is taken.
  bool InsertAt(size_t slot, uint64_t key, BufferView value);

  /// Pre-sizes the index for `records` keys (bulk installs).
  void Reserve(size_t records) {
    index_.Reserve(records, SlotKey{&slots_});
    slots_.reserve(records);
  }

  /// Upsert: like InsertShared but overwrites (tombstoning the old
  /// payload, keeping the slot) when the key exists.
  void Put(uint64_t key, BufferView value);

  /// O(1) handle lookup: one hash probe plus one indexed load. The
  /// returned pointer is valid until the next mutating call; copy the
  /// view (cheap) to hold it longer.
  const BufferView* Find(uint64_t key) const {
    const uint32_t slot = index_.Find(key, SlotKey{&slots_});
    return slot == KeyIndex::kNone ? nullptr : &slots_[slot].value;
  }

  bool Contains(uint64_t key) const {
    return index_.Find(key, SlotKey{&slots_}) != KeyIndex::kNone;
  }

  /// The slot of a live key.
  std::optional<size_t> SlotOf(uint64_t key) const {
    const uint32_t slot = index_.Find(key, SlotKey{&slots_});
    if (slot == KeyIndex::kNone) return std::nullopt;
    return slot;
  }

  /// The record in `slot`, or nullptr when the slot is free (or beyond
  /// the highest slot). Valid until the next mutating call.
  const Entry* At(size_t slot) const {
    return IsLive(slot) ? &slots_[slot] : nullptr;
  }

  /// Tombstones the record and frees its slot. Returns false if absent.
  bool Erase(uint64_t key);

  size_t size() const { return index_.size(); }
  bool empty() const { return index_.empty(); }
  size_t payload_bytes() const { return live_bytes_; }

  /// Visits live records in ascending slot order: fn(size_t slot,
  /// uint64_t key, const BufferView& value). fn must not insert or erase.
  template <typename Fn>
  void ForEachSlot(Fn&& fn) const {
    for (size_t w = 0; w < live_.size(); ++w) {
      for (uint64_t bits = live_[w]; bits != 0; bits &= bits - 1) {
        const size_t slot = w * 64 + std::countr_zero(bits);
        fn(slot, slots_[slot].key, slots_[slot].value);
      }
    }
  }

  /// All keys in ascending order (deterministic iteration).
  std::vector<uint64_t> SortedKeys() const;

  /// Visits records in ascending key order: fn(uint64_t key,
  /// const BufferView& value). Safe against mutation of *other* keys from
  /// inside fn (the key snapshot is taken up front and fn gets its own
  /// copy of the view); erased keys are skipped.
  template <typename Fn>
  void ForEachOrdered(Fn&& fn) const {
    for (uint64_t key : SortedKeys()) {
      const uint32_t slot = index_.Find(key, SlotKey{&slots_});
      if (slot == KeyIndex::kNone) continue;
      const BufferView value = slots_[slot].value;
      fn(key, value);
    }
  }

  /// Repacks all live payloads into fresh segments (ascending slot order)
  /// and drops the old ones. Slots and the index are untouched.
  /// Outstanding views keep retired segments alive; new reads come from
  /// the fresh packing.
  void Compact();

  /// Drops everything, slots included (recovery install starts from a
  /// clean slate). The slot policy is kept.
  void Clear();

  Stats GetStats() const;

 private:
  /// The index's view of the keys: a slot's key.
  struct SlotKey {
    const std::vector<Entry>* slots;
    uint64_t operator()(uint32_t slot) const { return (*slots)[slot].key; }
  };
  bool IsLive(size_t slot) const {
    return slot / 64 < live_.size() && ((live_[slot / 64] >> (slot % 64)) & 1);
  }
  /// The slot a new record takes under the slot policy (not yet taken:
  /// calling it again returns the same slot).
  size_t AllocSlot();
  /// Maps `key` to `slot` unless the key is present; returns the key's
  /// slot and whether it was inserted.
  std::pair<uint32_t, bool> IndexAt(uint64_t key, size_t slot);
  /// Fills `slot` (free, possibly beyond the last one) for a key the index
  /// already maps to it.
  void Occupy(size_t slot, uint64_t key, BufferView value);
  /// Copies `value` into the arena and returns a view of the copy.
  BufferView Intern(std::span<const uint8_t> value);
  void NoteDead(size_t bytes);
  void MaybeCompact();

  size_t segment_capacity_;
  bool reuse_slots_ = true;
  std::vector<std::shared_ptr<Buffer>> segments_;
  size_t head_used_ = 0;  ///< Bytes bump-allocated in segments_.back().
  KeyIndex index_;  ///< key -> slot.
  std::vector<Entry> slots_;  ///< Free slots hold an empty view.
  std::vector<uint64_t> live_;  ///< Liveness bitmap over slots_.
  /// Every bitmap word below this one is full: the lowest free slot is at
  /// or after word `free_hint_`.
  size_t free_hint_ = 0;
  size_t live_bytes_ = 0;
  size_t dead_bytes_ = 0;
  uint64_t compactions_ = 0;
};

}  // namespace lhrs::store

#endif  // LHRS_STORE_BUCKET_STORE_H_
