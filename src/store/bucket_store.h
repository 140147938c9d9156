#ifndef LHRS_STORE_BUCKET_STORE_H_
#define LHRS_STORE_BUCKET_STORE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/buffer.h"

namespace lhrs::store {

/// A slotted-segment record store: payloads packed back-to-back into
/// ref-counted arena segments, with an O(1) key -> handle index on top.
///
/// This replaces the per-bucket `std::map<Key, Bytes>`: a read hands out a
/// `BufferView` sharing the segment (no copy), a split or recovery dump
/// streams views of whole segments instead of copying records one by one,
/// and deletes/overwrites tombstone the old slot (dead-bytes accounting)
/// until compaction repacks the live set.
///
/// Ownership rule: segments are ref-counted `Buffer`s, so any view handed
/// out — a wire message in flight, a recovery dump, a reader that started
/// before a compaction — keeps its segment alive after the store has
/// compacted it away. Readers are never invalidated; the store just stops
/// accounting for the retired segment.
///
/// Keys are `uint64_t`: the LH* record key, the LH*RS rank, or the packed
/// LH*g group key, depending on the bucket kind. Iteration order is
/// deterministic (ascending key) so split movement and recovery dumps
/// replay identically across runs.
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

  explicit BucketStore(size_t segment_capacity = kDefaultSegmentCapacity)
      : segment_capacity_(std::max<size_t>(segment_capacity, 64)) {}

  BucketStore(BucketStore&&) = default;
  BucketStore& operator=(BucketStore&&) = default;
  BucketStore(const BucketStore&) = delete;
  BucketStore& operator=(const BucketStore&) = delete;

  /// Inserts a new record, copying the payload into the arena (the single
  /// ingestion copy). Returns false (and changes nothing) if the key
  /// already exists.
  bool Insert(uint64_t key, std::span<const uint8_t> value);

  /// Inserts a record by adopting an existing view — zero-copy: the store
  /// shares the caller's buffer (moved-in split records, recovered
  /// columns). Compaction localizes it into the arena later.
  bool InsertShared(uint64_t key, BufferView value);

  /// Pre-sizes the index for `records` keys (bulk installs).
  void Reserve(size_t records) { index_.reserve(records); }

  /// Upsert: like InsertShared but overwrites (tombstoning the old
  /// payload) when the key exists.
  void Put(uint64_t key, BufferView value);

  /// O(1) handle lookup. The returned pointer is valid until the next
  /// mutating call; copy the view (cheap) to hold it longer.
  const BufferView* Find(uint64_t key) const {
    auto it = index_.find(key);
    return it == index_.end() ? nullptr : &it->second;
  }

  bool Contains(uint64_t key) const { return index_.contains(key); }

  /// Tombstones the record. Returns false if absent.
  bool Erase(uint64_t key);

  size_t size() const { return index_.size(); }
  bool empty() const { return index_.empty(); }
  size_t payload_bytes() const { return live_bytes_; }

  /// All keys in ascending order (deterministic iteration).
  std::vector<uint64_t> SortedKeys() const;

  /// Visits records in ascending key order: fn(uint64_t key,
  /// const BufferView& value). Safe against mutation of *other* keys from
  /// inside fn (the key snapshot is taken up front); erased keys are
  /// skipped.
  template <typename Fn>
  void ForEachOrdered(Fn&& fn) const {
    for (uint64_t key : SortedKeys()) {
      auto it = index_.find(key);
      if (it != index_.end()) fn(key, it->second);
    }
  }

  /// Repacks all live payloads into fresh segments (ascending key order)
  /// and drops the old ones. Outstanding views keep retired segments
  /// alive; new reads come from the fresh packing.
  void Compact();

  /// Drops everything (recovery install starts from a clean slate).
  void Clear();

  Stats GetStats() const;

 private:
  /// Copies `value` into the arena and returns a view of the new slot.
  BufferView Intern(std::span<const uint8_t> value);
  void NoteDead(size_t bytes);
  void MaybeCompact();

  size_t segment_capacity_;
  std::vector<std::shared_ptr<Buffer>> segments_;
  size_t head_used_ = 0;  ///< Bytes bump-allocated in segments_.back().
  std::unordered_map<uint64_t, BufferView> index_;
  size_t live_bytes_ = 0;
  size_t dead_bytes_ = 0;
  uint64_t compactions_ = 0;
};

}  // namespace lhrs::store

#endif  // LHRS_STORE_BUCKET_STORE_H_
