#include "store/bucket_store.h"

#include <bit>
#include <cstring>
#include <utility>

namespace lhrs::store {

namespace {

/// Payloads are 8-byte aligned inside a segment so word-wise kernels
/// start on a word boundary.
constexpr size_t kPayloadAlign = 8;

size_t AlignPayload(size_t n) {
  return (n + kPayloadAlign - 1) & ~(kPayloadAlign - 1);
}

/// Compact once tombstones exceed this fraction of the touched bytes (and
/// a floor, so tiny stores don't churn).
constexpr size_t kCompactMinDeadBytes = 16 * 1024;

}  // namespace

BufferView BucketStore::Intern(std::span<const uint8_t> value) {
  if (value.empty()) return BufferView{};
  if (value.size() > segment_capacity_) {
    // Oversized record: dedicated segment, so the common segments stay
    // uniform and a huge record never strands half a segment of slack.
    auto seg = Buffer::Allocate(value.size());
    std::memcpy(seg->data(), value.data(), value.size());
    BufferView view(seg, 0, value.size());
    // Marking the head full steers the next small record into a fresh
    // uniform segment instead of bump-allocating over this one.
    head_used_ = seg->capacity();
    segments_.push_back(std::move(seg));
    return view;
  }
  const size_t need = AlignPayload(value.size());
  if (segments_.empty() || head_used_ + need > segments_.back()->capacity()) {
    segments_.push_back(Buffer::Allocate(segment_capacity_));
    head_used_ = 0;
  }
  auto& seg = segments_.back();
  std::memcpy(seg->data() + head_used_, value.data(), value.size());
  BufferView view(seg, head_used_, value.size());
  head_used_ += need;
  return view;
}

size_t BucketStore::AllocSlot() {
  if (!reuse_slots_) return slots_.size();
  // Lowest zero bit of the bitmap, read as if it extended with zeros past
  // the last slot: a full bitmap yields slots_.size(), i.e. append.
  while (free_hint_ < live_.size() && live_[free_hint_] == ~uint64_t{0}) {
    ++free_hint_;
  }
  if (free_hint_ == live_.size()) return slots_.size();
  return free_hint_ * 64 + std::countr_one(live_[free_hint_]);
}

std::pair<uint32_t, bool> BucketStore::IndexAt(uint64_t key, size_t slot) {
  return index_.TryInsert(key, static_cast<uint32_t>(slot), SlotKey{&slots_});
}

void BucketStore::Occupy(size_t slot, uint64_t key, BufferView value) {
  if (slot >= slots_.size()) {
    slots_.resize(slot + 1);
    live_.resize(slot / 64 + 1, 0);
  }
  live_[slot / 64] |= uint64_t{1} << (slot % 64);
  live_bytes_ += value.size();
  slots_[slot] = Entry{key, std::move(value)};
}

bool BucketStore::Insert(uint64_t key, std::span<const uint8_t> value) {
  const size_t slot = AllocSlot();
  if (!IndexAt(key, slot).second) return false;
  Occupy(slot, key, Intern(value));
  return true;
}

bool BucketStore::InsertShared(uint64_t key, BufferView value) {
  const size_t slot = AllocSlot();
  if (!IndexAt(key, slot).second) return false;
  Occupy(slot, key, std::move(value));
  return true;
}

bool BucketStore::InsertAt(size_t slot, uint64_t key, BufferView value) {
  if (IsLive(slot) || !IndexAt(key, slot).second) return false;
  Occupy(slot, key, std::move(value));
  return true;
}

void BucketStore::Put(uint64_t key, BufferView value) {
  const auto [slot, inserted] = IndexAt(key, AllocSlot());
  if (inserted) {
    Occupy(slot, key, std::move(value));
    return;
  }
  BufferView& stored = slots_[slot].value;
  NoteDead(stored.size());
  live_bytes_ += value.size();
  stored = std::move(value);
  MaybeCompact();
}

bool BucketStore::Erase(uint64_t key) {
  const uint32_t erased = index_.Erase(key, SlotKey{&slots_});
  if (erased == KeyIndex::kNone) return false;
  const size_t slot = erased;
  NoteDead(slots_[slot].value.size());
  slots_[slot].value = BufferView{};
  live_[slot / 64] &= ~(uint64_t{1} << (slot % 64));
  free_hint_ = std::min(free_hint_, slot / 64);
  MaybeCompact();
  return true;
}

void BucketStore::NoteDead(size_t bytes) {
  live_bytes_ -= bytes;
  dead_bytes_ += bytes;
}

void BucketStore::MaybeCompact() {
  // Tombstoned bytes dominate: repack. The threshold is byte-based (not
  // record-based) so a few huge deletes trigger as readily as many small
  // ones.
  if (dead_bytes_ >= kCompactMinDeadBytes && dead_bytes_ >= live_bytes_) {
    Compact();
  }
}

void BucketStore::Compact() {
  std::vector<std::shared_ptr<Buffer>> old_segments;
  old_segments.swap(segments_);
  head_used_ = 0;
  live_bytes_ = 0;
  // Ascending slot order: the packed layout is deterministic, and no key
  // is sorted or re-indexed.
  ForEachSlot([&](size_t slot, uint64_t, const BufferView&) {
    BufferView& value = slots_[slot].value;
    value = Intern(value.span());
    live_bytes_ += value.size();
  });
  // old_segments dies here unless outstanding views still pin entries.
  dead_bytes_ = 0;
  ++compactions_;
}

BucketStore::Stats BucketStore::GetStats() const {
  Stats s;
  s.live_records = index_.size();
  s.live_bytes = live_bytes_;
  s.dead_bytes = dead_bytes_;
  for (const auto& seg : segments_) s.arena_bytes += seg->capacity();
  s.segments = segments_.size();
  s.compactions = compactions_;
  return s;
}

void BucketStore::Clear() {
  index_.Clear();
  slots_.clear();
  live_.clear();
  free_hint_ = 0;
  segments_.clear();
  head_used_ = 0;
  live_bytes_ = 0;
  dead_bytes_ = 0;
}

std::vector<uint64_t> BucketStore::SortedKeys() const {
  std::vector<uint64_t> keys;
  keys.reserve(index_.size());
  ForEachSlot([&](size_t, uint64_t key, const BufferView&) {
    keys.push_back(key);
  });
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace lhrs::store
