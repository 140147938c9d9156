#ifndef LHRS_COMMON_BUFFER_H_
#define LHRS_COMMON_BUFFER_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <utility>

#include "common/bytes.h"

namespace lhrs {

class BufferRef;

/// A ref-counted, 64-byte-aligned, fixed-capacity byte arena.
///
/// Buffers are the unit of payload ownership across the stack: bucket
/// stores pack record payloads into them, messages carry `BufferView`
/// slices of them, and the GF kernels run word-wise over them. Capacity is
/// rounded up to a whole number of 64-byte lines and the storage is
/// zero-initialized, so padded parity reads beyond a record's logical
/// length always see zeros.
///
/// A buffer is one heap allocation: this 16-byte header sits right before
/// the aligned bytes, so `data()` is the header's address plus 16. The
/// count is a plain integer: a buffer and every handle or view of it stay
/// on the thread that allocated it. Debug builds stamp that thread into
/// the header and CHECK it on every count change.
class Buffer {
 public:
  static constexpr size_t kAlignment = 64;
  /// The largest capacity, offset or view size: they are 32-bit.
  static constexpr size_t kMaxBytes = UINT32_MAX;

  /// Allocates a zeroed buffer of at least `capacity` bytes.
  static BufferRef Allocate(size_t capacity);

  /// Allocates a buffer of at least `capacity` bytes whose contents are
  /// unspecified: the caller must write every byte of capacity() (zeros
  /// where it has nothing else, see `ZeroFrom`) before any view of the
  /// buffer exists, so the zero-initialized invariant above holds again.
  static BufferRef AllocateUninitialized(size_t capacity);

  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;

  uint8_t* data() { return reinterpret_cast<uint8_t*>(this) + sizeof(*this); }
  const uint8_t* data() const {
    return reinterpret_cast<const uint8_t*>(this) + sizeof(*this);
  }
  size_t capacity() const { return capacity_; }
  /// Handles and views sharing this buffer.
  uint32_t use_count() const { return count_; }

  /// Zeroes `[n, capacity())`: the tail an uninitialized buffer's writer
  /// left unwritten.
  void ZeroFrom(size_t n);

 private:
  friend class BufferRef;

  Buffer(uint32_t capacity, uint32_t shift);

  void Ref() {
    CheckOwner();
    ++count_;
  }
  void Unref() {
    CheckOwner();
    if (--count_ == 0) Free();
  }
#ifdef NDEBUG
  void CheckOwner() const {}
#else
  void CheckOwner() const;
#endif
  void Free();

  uint32_t count_ = 1;
  uint32_t capacity_;
  uint32_t shift_;  ///< Bytes from the allocation's start to this header.
  uint32_t owner_ = 0;  ///< The allocating thread's stamp (Debug builds).
};

/// An owning handle to a `Buffer`, like an intrusive `shared_ptr`: a copy
/// adds one to the buffer's count, a release takes one away, and the last
/// release frees the buffer.
class BufferRef {
 public:
  BufferRef() = default;
  BufferRef(const BufferRef& other) : buffer_(other.buffer_) {
    if (buffer_ != nullptr) buffer_->Ref();
  }
  BufferRef(BufferRef&& other) noexcept
      : buffer_(std::exchange(other.buffer_, nullptr)) {}
  BufferRef& operator=(BufferRef other) noexcept {
    std::swap(buffer_, other.buffer_);
    return *this;
  }
  ~BufferRef() {
    if (buffer_ != nullptr) buffer_->Unref();
  }

  Buffer* operator->() const { return buffer_; }
  bool operator==(const BufferRef& other) const = default;
  bool operator==(std::nullptr_t) const { return buffer_ == nullptr; }
  uint32_t use_count() const {
    return buffer_ == nullptr ? 0 : buffer_->use_count();
  }

 private:
  friend class Buffer;
  /// Adopts a fresh buffer's count of one.
  explicit BufferRef(Buffer* adopted) : buffer_(adopted) {}

  Buffer* buffer_ = nullptr;
};

/// An immutable, cheaply copyable slice of a ref-counted `Buffer`:
/// `(buffer, 32-bit offset, 32-bit size)`, 16 bytes.
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

  /// A view of `[offset, offset + size)` inside an existing buffer, which
  /// must hold that range. Used by the storage layer; shares, never copies.
  BufferView(BufferRef buffer, size_t offset, size_t size);

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
  const BufferRef& buffer() const { return buffer_; }
  size_t offset() const { return offset_; }

 private:
  BufferRef buffer_;
  uint32_t offset_ = 0;
  uint32_t size_ = 0;
};

static_assert(sizeof(Buffer) == 16);
static_assert(sizeof(BufferView) == 16);

/// Builds the padded XOR delta of two payloads in one pass: the result has
/// `max(a.size(), b.size())` bytes, equal to `a XOR b` with the shorter
/// operand zero-extended. This is the incremental parity delta (old XOR
/// new) every availability layer ships.
BufferView MakeXorDelta(std::span<const uint8_t> a,
                        std::span<const uint8_t> b);

}  // namespace lhrs

#endif  // LHRS_COMMON_BUFFER_H_
