#include "common/buffer.h"

#include <algorithm>
#include <cstring>
#include <new>

namespace lhrs {

namespace {

size_t RoundUpToLine(size_t n) {
  return (n + Buffer::kAlignment - 1) & ~(Buffer::kAlignment - 1);
}

}  // namespace

std::shared_ptr<Buffer> Buffer::Allocate(size_t capacity) {
  std::shared_ptr<Buffer> buffer = AllocateUninitialized(capacity);
  std::memset(buffer->data(), 0, buffer->capacity());
  return buffer;
}

std::shared_ptr<Buffer> Buffer::AllocateUninitialized(size_t capacity) {
  const size_t rounded = std::max(RoundUpToLine(capacity), kAlignment);
  auto* raw = static_cast<uint8_t*>(
      ::operator new(rounded, std::align_val_t{kAlignment}));
  return std::shared_ptr<Buffer>(new Buffer(raw, rounded));
}

Buffer::~Buffer() {
  ::operator delete(data_, std::align_val_t{kAlignment});
}

BufferView::BufferView(const Bytes& bytes)
    : BufferView(bytes.data(), bytes.size()) {}

BufferView::BufferView(const uint8_t* data, size_t n) {
  if (n == 0) return;
  buffer_ = Buffer::Allocate(n);
  std::memcpy(buffer_->data(), data, n);
  size_ = n;
}

BufferView::BufferView(std::shared_ptr<Buffer> buffer, size_t offset,
                       size_t size)
    : buffer_(std::move(buffer)), offset_(offset), size_(size) {}

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
  const bool unique = buffer_ != nullptr && buffer_.use_count() == 1;
  if (unique && offset_ + n <= buffer_->capacity()) {
    uint8_t* p = buffer_->data() + offset_;
    if (n > size_) std::memset(p + size_, 0, n - size_);
    size_ = n;
    return p;
  }
  auto fresh = Buffer::Allocate(n);
  const size_t keep = std::min(size_, n);
  if (keep > 0) std::memcpy(fresh->data(), data(), keep);
  // Allocate() zero-fills, so bytes [keep, n) are already zero.
  buffer_ = std::move(fresh);
  offset_ = 0;
  size_ = n;
  return buffer_->data();
}

BufferView MakeXorDelta(std::span<const uint8_t> a,
                        std::span<const uint8_t> b) {
  const size_t n = std::max(a.size(), b.size());
  if (n == 0) return BufferView{};
  auto buf = Buffer::Allocate(n);
  uint8_t* out = buf->data();
  const size_t common = std::min(a.size(), b.size());
  for (size_t i = 0; i < common; ++i) out[i] = a[i] ^ b[i];
  const auto& tail = a.size() > b.size() ? a : b;
  if (tail.size() > common) {
    std::memcpy(out + common, tail.data() + common, tail.size() - common);
  }
  return BufferView(std::move(buf), 0, n);
}

}  // namespace lhrs
