#ifndef LHRS_COMMON_BUFFER_H_
#define LHRS_COMMON_BUFFER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>

#include "common/bytes.h"

namespace lhrs {

/// A ref-counted, 64-byte-aligned, fixed-capacity byte arena.
///
/// Buffers are the unit of payload ownership across the stack: bucket
/// stores pack record payloads into them, messages carry `BufferView`
/// slices of them, and the GF kernels run word-wise over them. Capacity is
/// rounded up to a whole number of 64-byte lines and the storage is
/// zero-initialized, so padded parity reads beyond a record's logical
/// length always see zeros.
class Buffer {
 public:
  static constexpr size_t kAlignment = 64;

  /// Allocates a zeroed buffer of at least `capacity` bytes.
  static std::shared_ptr<Buffer> Allocate(size_t capacity);

  /// Allocates a buffer of at least `capacity` bytes whose contents are
  /// unspecified: the caller must write every byte of capacity() (zeros
  /// where it has nothing else) before any view of the buffer exists, so
  /// the zero-initialized invariant above holds again. For a caller that
  /// fills a large buffer in parts on several threads.
  static std::shared_ptr<Buffer> AllocateUninitialized(size_t capacity);

  ~Buffer();
  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;

  uint8_t* data() { return data_; }
  const uint8_t* data() const { return data_; }
  size_t capacity() const { return capacity_; }

 private:
  Buffer(uint8_t* data, size_t capacity)
      : data_(data), capacity_(capacity) {}

  uint8_t* data_;
  size_t capacity_;
};

/// An immutable, cheaply copyable slice of a ref-counted `Buffer`.
///
/// Copying a view shares the underlying buffer (no byte copy); the bytes a
/// view exposes never change under it. Mutation goes through the
/// copy-on-write entry points (`MutableResized` / `MutableData`), which
/// write in place only when this view is the sole owner of its buffer and
/// otherwise detach onto a fresh buffer first — so snapshots taken earlier
/// (wire messages, recovery dumps, mid-compaction readers) stay intact.
///
/// Constructing a view from loose bytes performs the single ingestion copy
/// into an aligned buffer; from then on the payload flows through the
/// stack by reference.
class BufferView {
 public:
  BufferView() = default;

  /// Ingests a byte vector (one copy into a fresh aligned buffer).
  /// Implicit: `Bytes` literals flow into message payload fields directly.
  BufferView(const Bytes& bytes);  // NOLINT(google-explicit-constructor)

  /// Ingests `n` raw bytes (one copy into a fresh aligned buffer).
  BufferView(const uint8_t* data, size_t n);

  /// A view of `[offset, offset + size)` inside an existing buffer.
  /// Used by the storage layer; shares, never copies.
  BufferView(std::shared_ptr<Buffer> buffer, size_t offset, size_t size);

  static BufferView FromString(std::string_view s);

  const uint8_t* data() const {
    return buffer_ == nullptr ? nullptr : buffer_->data() + offset_;
  }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const uint8_t* begin() const { return data(); }
  const uint8_t* end() const { return data() + size_; }
  uint8_t operator[](size_t i) const { return data()[i]; }

  operator std::span<const uint8_t>() const {  // NOLINT
    return {data(), size_};
  }
  std::span<const uint8_t> span() const { return {data(), size_}; }

  /// Materializes the bytes (one copy; boundary of the zero-copy domain).
  Bytes ToBytes() const { return Bytes(begin(), end()); }

  /// Content equality (not buffer identity) — `WireRecord` and friends
  /// compare payloads by value in tests and invariant checks.
  bool operator==(const BufferView& other) const;

  /// A sub-view sharing this view's buffer.
  BufferView Slice(size_t offset, size_t n) const;

  /// Copy-on-write resize: afterwards this view is the unique owner of
  /// `n` writable bytes (old content retained up to `min(old, n)`, any
  /// extension zero-filled) and the returned pointer may be written until
  /// the next copy of this view is taken. Writes in place when this view
  /// exclusively owns its buffer and the capacity fits; otherwise detaches
  /// onto a fresh aligned buffer.
  uint8_t* MutableResized(size_t n);

  /// Copy-on-write without resizing.
  uint8_t* MutableData() { return MutableResized(size_); }

  /// The owning buffer (may be shared with other views); null when empty.
  const std::shared_ptr<Buffer>& buffer() const { return buffer_; }
  size_t offset() const { return offset_; }

 private:
  std::shared_ptr<Buffer> buffer_;
  size_t offset_ = 0;
  size_t size_ = 0;
};

/// Builds the padded XOR delta of two payloads in one pass: the result has
/// `max(a.size(), b.size())` bytes, equal to `a XOR b` with the shorter
/// operand zero-extended. This is the incremental parity delta (old XOR
/// new) every availability layer ships.
BufferView MakeXorDelta(std::span<const uint8_t> a,
                        std::span<const uint8_t> b);

}  // namespace lhrs

#endif  // LHRS_COMMON_BUFFER_H_
