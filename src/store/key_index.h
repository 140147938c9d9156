#ifndef LHRS_STORE_KEY_INDEX_H_
#define LHRS_STORE_KEY_INDEX_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace lhrs::store {

/// Open-addressing index from a 64-bit key to a position in an array its
/// owner keeps: a record slot of a BucketStore, or a cell of a parity
/// bucket's rank-indexed key column.
///
/// The table holds positions only (4 B each); the key of a position is
/// read back from the owner through a `key_at(position)` callable, which
/// every probing call takes. The owner must keep `key_at(p)` equal to the
/// key `p` was indexed under for as long as the entry exists — in practice
/// it erases a key from the index before it overwrites the key's cell.
///
/// Linear probing over a power-of-two table kept at most half full, with
/// backward-shift erase (no tombstones, so chains never degrade under
/// churn). Keys are mixed before probing: LH* puts keys that share their
/// low bits into one bucket, so identity hashing would pile them into a
/// few chains. The table is never iterated; owners walk their own arrays
/// for ordered or slot-order traversal.
class KeyIndex {
 public:
  static constexpr uint32_t kNone = ~uint32_t{0};

  /// The murmur3 64-bit finaliser: every key bit affects every hash bit.
  static uint64_t Mix(uint64_t key) {
    key ^= key >> 33;
    key *= 0xff51afd7ed558ccdULL;
    key ^= key >> 33;
    key *= 0xc4ceb9fe1a85ec53ULL;
    key ^= key >> 33;
    return key;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Table length (a power of two, or 0 before the first insert).
  size_t capacity() const { return table_.size(); }

  /// The position `key` maps to, or kNone.
  template <typename KeyAt>
  uint32_t Find(uint64_t key, const KeyAt& key_at) const {
    if (table_.empty()) return kNone;
    return table_[Probe(key, key_at)];
  }

  /// Maps `key` to `pos` unless the key is present. Returns the position
  /// the key maps to afterwards, and whether it was inserted.
  template <typename KeyAt>
  std::pair<uint32_t, bool> TryInsert(uint64_t key, uint32_t pos,
                                      const KeyAt& key_at) {
    if (!table_.empty()) {
      const size_t i = Probe(key, key_at);
      if (table_[i] != kNone) return {table_[i], false};
      if ((size_ + 1) * 2 <= table_.size()) {
        table_[i] = pos;
        ++size_;
        return {pos, true};
      }
    }
    Rehash(table_.empty() ? kMinCapacity : table_.size() * 2, key_at);
    table_[Probe(key, key_at)] = pos;
    ++size_;
    return {pos, true};
  }

  /// Maps `key` to `pos`, replacing the position of a present key.
  template <typename KeyAt>
  void Put(uint64_t key, uint32_t pos, const KeyAt& key_at) {
    const auto [old, inserted] = TryInsert(key, pos, key_at);
    if (!inserted && old != pos) table_[Probe(key, key_at)] = pos;
  }

  /// Removes `key`; returns the position it mapped to, or kNone.
  template <typename KeyAt>
  uint32_t Erase(uint64_t key, const KeyAt& key_at) {
    if (table_.empty()) return kNone;
    size_t hole = Probe(key, key_at);
    const uint32_t pos = table_[hole];
    if (pos == kNone) return kNone;
    // Backward shift: pull each later entry of the chain into the hole
    // unless its home lies cyclically after the hole (moving it would put
    // it before its home, where a probe never looks).
    const size_t mask = table_.size() - 1;
    for (size_t i = (hole + 1) & mask; table_[i] != kNone;
         i = (i + 1) & mask) {
      const size_t home = Home(key_at(table_[i]));
      if (((i - home) & mask) >= ((i - hole) & mask)) {
        table_[hole] = table_[i];
        hole = i;
      }
    }
    table_[hole] = kNone;
    --size_;
    return pos;
  }

  /// Sizes the table for `keys` entries without further rehashing.
  template <typename KeyAt>
  void Reserve(size_t keys, const KeyAt& key_at) {
    size_t capacity = kMinCapacity;
    while (capacity < keys * 2) capacity *= 2;
    if (capacity > table_.size()) Rehash(capacity, key_at);
  }

  /// Forgets every key; the table keeps its length.
  void Clear() {
    table_.assign(table_.size(), kNone);
    size_ = 0;
  }

 private:
  static constexpr size_t kMinCapacity = 16;

  size_t Home(uint64_t key) const {
    return static_cast<size_t>(Mix(key)) & (table_.size() - 1);
  }

  /// The table index holding `key`, or the empty entry that ends its
  /// chain. The table must be non-empty (and so has an empty entry).
  template <typename KeyAt>
  size_t Probe(uint64_t key, const KeyAt& key_at) const {
    const size_t mask = table_.size() - 1;
    size_t i = Home(key);
    while (table_[i] != kNone && key_at(table_[i]) != key) i = (i + 1) & mask;
    return i;
  }

  /// Moves every entry into a fresh table of `capacity` entries. The
  /// entries go in ascending position order, so the owner's key array is
  /// read front to back rather than at random (which would miss the cache
  /// once per key in a large bucket).
  template <typename KeyAt>
  void Rehash(size_t capacity, const KeyAt& key_at) {
    std::vector<uint64_t> positions;
    for (const uint32_t pos : table_) {
      if (pos == kNone) continue;
      if (pos / 64 >= positions.size()) positions.resize(pos / 64 + 1, 0);
      positions[pos / 64] |= uint64_t{1} << (pos % 64);
    }
    table_.assign(capacity, kNone);
    const size_t mask = capacity - 1;
    for (size_t w = 0; w < positions.size(); ++w) {
      for (uint64_t bits = positions[w]; bits != 0; bits &= bits - 1) {
        const auto pos = static_cast<uint32_t>(w * 64 + std::countr_zero(bits));
        size_t i = Home(key_at(pos));
        while (table_[i] != kNone) i = (i + 1) & mask;
        table_[i] = pos;
      }
    }
  }

  std::vector<uint32_t> table_;
  size_t size_ = 0;
};

}  // namespace lhrs::store

#endif  // LHRS_STORE_KEY_INDEX_H_
