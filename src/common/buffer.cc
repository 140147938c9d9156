#include "common/buffer.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <new>

#include "common/logging.h"

namespace lhrs {

namespace {

size_t RoundUpToLine(size_t n) {
  return (n + Buffer::kAlignment - 1) & ~(Buffer::kAlignment - 1);
}

/// Whether a buffer of `capacity` (whole lines) comes from plain `operator
/// new`, over-allocated by one line and aligned in place, rather than from
/// aligned new. Aligned new is glibc's memalign, which carves each request
/// out of a larger chunk and returns the remnants to the bins; plain new
/// skips that. Measured exceptions: one-line buffers (64-B records and
/// their deltas) as plain 144-B chunks came from a tcache bin of 7, so
/// every eighth one paid glibc's deferred bin work at once and ingest's
/// op_us_p99 rose 25%; and from 64 KiB up (segments, rebuilt arenas) plain
/// new cost some 4k more minor faults per repair pass.
bool PlainNew(size_t capacity) {
  return capacity > Buffer::kAlignment && capacity < 64 * 1024;
}

#ifndef NDEBUG
/// A small number for the calling thread, unique in the process.
uint32_t ThreadStamp() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t stamp = ++next;
  return stamp;
}
#endif

}  // namespace

Buffer::Buffer(uint32_t capacity, uint32_t shift)
    : capacity_(capacity), shift_(shift) {
#ifndef NDEBUG
  owner_ = ThreadStamp();
#endif
}

BufferRef Buffer::Allocate(size_t capacity) {
  BufferRef buffer = AllocateUninitialized(capacity);
  buffer->ZeroFrom(0);
  return buffer;
}

BufferRef Buffer::AllocateUninitialized(size_t capacity) {
  LHRS_CHECK_LE(capacity, kMaxBytes - kAlignment)
      << "buffer of " << capacity << " bytes";
  const size_t rounded = std::max(RoundUpToLine(capacity), kAlignment);
  // One line more than the capacity holds the header and, for plain new,
  // the alignment slack.
  uint8_t* raw;
  uint8_t* bytes;
  if (PlainNew(rounded)) {
    raw = static_cast<uint8_t*>(::operator new(rounded + kAlignment));
    bytes = reinterpret_cast<uint8_t*>(RoundUpToLine(
        reinterpret_cast<uintptr_t>(raw) + sizeof(Buffer)));
  } else {
    raw = static_cast<uint8_t*>(::operator new(
        rounded + kAlignment, std::align_val_t{kAlignment}));
    bytes = raw + kAlignment;
  }
  uint8_t* header = bytes - sizeof(Buffer);
  return BufferRef(new (header) Buffer(
      static_cast<uint32_t>(rounded), static_cast<uint32_t>(header - raw)));
}

void Buffer::ZeroFrom(size_t n) {
  if (n < capacity_) std::memset(data() + n, 0, capacity_ - n);
}

#ifndef NDEBUG
void Buffer::CheckOwner() const {
  LHRS_CHECK_EQ(owner_, ThreadStamp())
      << "buffer of thread " << owner_ << " shared or released by thread "
      << ThreadStamp() << ": views must stay on their thread";
}
#endif

void Buffer::Free() {
  uint8_t* raw = reinterpret_cast<uint8_t*>(this) - shift_;
  if (PlainNew(capacity_)) {
    ::operator delete(raw);
  } else {
    ::operator delete(raw, std::align_val_t{kAlignment});
  }
}

BufferView::BufferView(const Bytes& bytes)
    : BufferView(bytes.data(), bytes.size()) {}

BufferView::BufferView(const uint8_t* data, size_t n) {
  if (n == 0) return;
  buffer_ = Buffer::AllocateUninitialized(n);
  std::memcpy(buffer_->data(), data, n);
  buffer_->ZeroFrom(n);
  size_ = static_cast<uint32_t>(n);
}

BufferView::BufferView(BufferRef buffer, size_t offset, size_t size)
    : buffer_(std::move(buffer)),
      offset_(static_cast<uint32_t>(offset)),
      size_(static_cast<uint32_t>(size)) {
  LHRS_CHECK(buffer_ != nullptr && offset <= buffer_->capacity() &&
             size <= buffer_->capacity() - offset)
      << "view [" << offset << ", +" << size << ") outside its buffer";
}

BufferView BufferView::FromString(std::string_view s) {
  return BufferView(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

bool BufferView::operator==(const BufferView& other) const {
  if (size_ != other.size_) return false;
  if (size_ == 0) return true;
  return std::memcmp(data(), other.data(), size_) == 0;
}

BufferView BufferView::Slice(size_t offset, size_t n) const {
  if (offset >= size_) return BufferView{};
  return BufferView(buffer_, offset_ + offset, std::min(n, size_ - offset));
}

uint8_t* BufferView::MutableResized(size_t n) {
  // In place only when no other view (or store handle) can observe the
  // write: sole owner of the whole buffer, and the slice fits.
  if (buffer_.use_count() == 1 && offset_ + n <= buffer_->capacity()) {
    uint8_t* p = buffer_->data() + offset_;
    if (n > size_) std::memset(p + size_, 0, n - size_);
    size_ = static_cast<uint32_t>(n);
    return p;
  }
  BufferRef fresh = Buffer::AllocateUninitialized(n);
  const size_t keep = std::min<size_t>(size_, n);
  if (keep > 0) std::memcpy(fresh->data(), data(), keep);
  fresh->ZeroFrom(keep);
  buffer_ = std::move(fresh);
  offset_ = 0;
  size_ = static_cast<uint32_t>(n);
  return buffer_->data();
}

BufferView MakeXorDelta(std::span<const uint8_t> a,
                        std::span<const uint8_t> b) {
  const size_t n = std::max(a.size(), b.size());
  if (n == 0) return BufferView{};
  BufferRef buf = Buffer::AllocateUninitialized(n);
  uint8_t* out = buf->data();
  const size_t common = std::min(a.size(), b.size());
  for (size_t i = 0; i < common; ++i) out[i] = a[i] ^ b[i];
  const auto& tail = a.size() > b.size() ? a : b;
  if (tail.size() > common) {
    std::memcpy(out + common, tail.data() + common, tail.size() - common);
  }
  buf->ZeroFrom(n);
  return BufferView(std::move(buf), 0, n);
}

}  // namespace lhrs
