#ifndef LHRS_TRANSPORT_WIRE_H_
#define LHRS_TRANSPORT_WIRE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/buffer.h"
#include "common/bytes.h"
#include "common/logging.h"
#include "net/fields.h"
#include "net/message.h"

namespace lhrs {
struct ScanPredicate;
}  // namespace lhrs

namespace lhrs::transport {

/// Serializer for one message body: a gather list of byte runs.
///
/// Primitive appends (little-endian fixed width) accumulate into owned
/// byte runs; `View` splices a `BufferView` in by reference, so a record
/// payload travels from the bucket store to `sendmsg` without ever being
/// copied (the view keeps its buffer alive while the writer exists). The
/// flattened form is only materialized for TCP framing and retransmit
/// buffers.
///
/// Messages are written by FieldEncoder from their Fields() list, the same
/// list WireSizer sums for `ByteSize()`, so `size()` after serialization
/// equals the body's `ByteSize()` — the simulator's latency model and
/// `MessageStats` count exactly the bytes a real socket would carry.
class WireWriter {
 public:
  void U8(uint8_t v) { Raw(&v, 1); }
  void U16(uint16_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  /// Explicit layout padding (zeros), so fixed-size messages serialize to
  /// exactly their declared ByteSize.
  void Pad(size_t n);
  /// u32 length prefix + bytes.
  void Str(const std::string& s);
  /// u32 length prefix + bytes.
  void BytesField(const Bytes& b);
  /// u32 length prefix + spliced payload bytes (zero-copy).
  void View(const BufferView& v);

  size_t size() const { return size_; }

  /// One gather-list entry; pointers are valid while the writer (and the
  /// views it references) are alive.
  struct Chunk {
    const uint8_t* data;
    size_t size;
  };
  std::vector<Chunk> Chunks() const;

  /// Materializes the full serialization (one copy).
  Bytes Flatten() const;

 private:
  void Raw(const void* data, size_t n);

  struct Piece {
    Bytes owned;      ///< Used when `view` is empty.
    BufferView view;  ///< Spliced payload (owned stays empty).
    bool is_view = false;
  };
  std::vector<Piece> pieces_;
  size_t size_ = 0;
};

/// Bounds-checked cursor over a received frame. Every accessor returns
/// false (and poisons the reader) instead of reading out of bounds, so a
/// decoder walks truncated or corrupted input safely — the fuzz loop in
/// wire_test.cc feeds it garbage under ASan/UBSan. `View` returns
/// zero-copy sub-views of the receive buffer.
class WireReader {
 public:
  explicit WireReader(BufferView data) : data_(std::move(data)) {}

  bool U8(uint8_t* v);
  bool U16(uint16_t* v);
  bool U32(uint32_t* v);
  bool U64(uint64_t* v);
  bool I32(int32_t* v);
  bool Bool(bool* v);
  bool Skip(size_t n);
  bool Str(std::string* s);
  bool BytesField(Bytes* b);
  bool View(BufferView* v);

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return ok_ && pos_ == data_.size(); }
  bool ok() const { return ok_; }
  /// Poisons the reader: a decoded value failed a semantic check.
  void Fail() { ok_ = false; }

  /// True when `count` elements of at least `min_elem_size` bytes each
  /// could still follow — the sanity check before sizing a vector, so a
  /// corrupted count cannot trigger a giant allocation.
  bool PlausibleCount(uint32_t count, size_t min_elem_size) const {
    return min_elem_size == 0 || count <= remaining() / min_elem_size;
  }

 private:
  bool Take(size_t n, const uint8_t** out);

  BufferView data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// The scan predicate's hand-written field codec: a version byte, so old
// and new builds read each other's frames, and a refusal to send a native
// `custom` function. Defined in wire.cc.
bool PutField(WireWriter& w, const ScanPredicate& p);
bool GetField(WireReader& r, ScanPredicate* p);

/// Writes a Fields() list (see net/fields.h) to a WireWriter.
class FieldEncoder {
 public:
  explicit FieldEncoder(WireWriter& w) : w_(w) {}

  /// False when a field refused to travel.
  bool ok() const { return ok_; }

  template <class T>
  void operator()(T& x) {
    if constexpr (HasFields<T, FieldEncoder>) {
      x.Fields(*this);
    } else if constexpr (std::is_same_v<T, bool>) {
      w_.Bool(x);
    } else if constexpr (WireInt<T> && sizeof(T) == 2) {
      w_.U16(static_cast<uint16_t>(x));
    } else if constexpr (WireInt<T> && sizeof(T) == 4) {
      w_.U32(static_cast<uint32_t>(x));
    } else if constexpr (WireInt<T>) {
      w_.U64(static_cast<uint64_t>(x));
    } else if constexpr (std::is_same_v<T, BufferView>) {
      w_.View(x);
    } else if constexpr (std::is_same_v<T, std::string>) {
      w_.Str(x);
    } else if constexpr (std::is_same_v<T, Bytes>) {
      w_.BytesField(x);
    } else if constexpr (IsOptional<T>::value) {
      w_.Bool(x.has_value());
      typename T::value_type value = x.value_or(typename T::value_type{});
      (*this)(value);
    } else if constexpr (IsSharedConst<T>::value) {
      using U = typename IsSharedConst<T>::element;
      U null{};
      (*this)(x != nullptr ? const_cast<U&>(*x) : null);
    } else {
      ok_ = PutField(w_, x) && ok_;
    }
  }

  template <class E>
  void Enum(E& e, E) {
    w_.U8(static_cast<uint8_t>(e));
  }
  void Pad(size_t n) { w_.Pad(n); }
  template <class T>
  void Flag(std::optional<T>& opt) {
    w_.Bool(opt.has_value());
  }
  template <class V, class... Vs>
  void Count(V& first, Vs&... parallel) {
    for (size_t n : {first.size(), parallel.size()...}) {
      LHRS_CHECK_EQ(n, first.size());
    }
    w_.U32(static_cast<uint32_t>(first.size()));
  }

 private:
  WireWriter& w_;
  bool ok_ = true;
};

/// Reads a Fields() list from a WireReader. Every read is bounds-checked;
/// booleans must be 0 or 1, enums at most their declared maximum, and a
/// vector count must be plausible for the bytes left before the vector is
/// sized. The first failure poisons the reader, after which every read is
/// a no-op, so the visit runs to its end without touching bad data.
class FieldDecoder {
 public:
  explicit FieldDecoder(WireReader& r) : r_(r) {}

  template <class T>
  void operator()(T& x) {
    if constexpr (HasFields<T, FieldDecoder>) {
      x.Fields(*this);
    } else if constexpr (std::is_same_v<T, bool>) {
      r_.Bool(&x);
    } else if constexpr (WireInt<T> && sizeof(T) == 2) {
      uint16_t u = 0;
      if (r_.U16(&u)) x = static_cast<T>(u);
    } else if constexpr (WireInt<T> && sizeof(T) == 4) {
      uint32_t u = 0;
      if (r_.U32(&u)) x = static_cast<T>(u);
    } else if constexpr (WireInt<T>) {
      uint64_t u = 0;
      if (r_.U64(&u)) x = static_cast<T>(u);
    } else if constexpr (std::is_same_v<T, BufferView>) {
      r_.View(&x);
    } else if constexpr (std::is_same_v<T, std::string>) {
      r_.Str(&x);
    } else if constexpr (std::is_same_v<T, Bytes>) {
      r_.BytesField(&x);
    } else if constexpr (IsOptional<T>::value) {
      bool present = false;
      r_.Bool(&present);
      typename T::value_type value{};
      (*this)(value);
      if (present) x = std::move(value);
    } else if constexpr (IsSharedConst<T>::value) {
      auto fresh = std::make_shared<typename IsSharedConst<T>::element>();
      (*this)(*fresh);
      x = std::move(fresh);
    } else {
      if (!GetField(r_, &x)) r_.Fail();
    }
  }

  template <class E>
  void Enum(E& e, E max) {
    uint8_t u = 0;
    if (!r_.U8(&u)) return;
    if (u > static_cast<uint8_t>(max)) {
      r_.Fail();
      return;
    }
    e = static_cast<E>(u);
  }
  void Pad(size_t n) { r_.Skip(n); }
  template <class T>
  void Flag(std::optional<T>& opt) {
    bool present = false;
    if (r_.Bool(&present) && present) opt.emplace();
  }
  // One element of each vector occupies at least the size of a default
  // element, which bounds the count the remaining bytes can carry. A
  // vector-like field may refuse a count it cannot take (net/fields.h).
  template <class... Vs>
  void Count(Vs&... vectors) {
    uint32_t n = 0;
    if (!r_.U32(&n)) return;
    if (!r_.PlausibleCount(n,
                           (WireSize(typename Vs::value_type{}) + ...))) {
      r_.Fail();
      return;
    }
    (vectors.resize(n), ...);
    if (((vectors.size() != n) || ...)) r_.Fail();
  }

 private:
  WireReader& r_;
};

/// Codec of one message kind. `serialize` returns false when the concrete
/// body cannot travel (a scan predicate carrying a native `custom`
/// function); `deserialize` returns null on malformed input — it must
/// never crash or over-read.
struct WireCodec {
  bool (*serialize)(const MessageBody& body, WireWriter& w) = nullptr;
  std::unique_ptr<MessageBody> (*deserialize)(WireReader& r) = nullptr;
};

/// The codec of message type `M`, derived from `M::Fields()`.
template <class M>
WireCodec WireCodecFor() {
  return WireCodec{
      [](const MessageBody& body, WireWriter& w) {
        FieldEncoder encoder(w);
        encoder(const_cast<M&>(static_cast<const M&>(body)));
        return encoder.ok();
      },
      [](WireReader& r) -> std::unique_ptr<MessageBody> {
        auto m = std::make_unique<M>();
        FieldDecoder decoder(r);
        decoder(*m);
        if (!r.ok()) return nullptr;
        return m;
      }};
}

/// The codec for `kind`, or nullptr when the kind does not travel. Every
/// LH* and LH*RS message has one; the baseline schemes run only on the
/// simulator.
const WireCodec* FindWireCodec(int kind);

/// All kinds with a codec, ascending (the round-trip tests iterate this).
std::vector<int> RegisteredWireKinds();

/// Serializes `body` into `w`; false when the kind has no codec or the
/// body is unserializable.
bool SerializeBody(const MessageBody& body, WireWriter& w);

/// Decodes one body with `codec` from `payload`. Null on malformed input
/// or trailing bytes (every frame must parse exactly).
std::unique_ptr<MessageBody> DeserializeWith(const WireCodec& codec,
                                             BufferView payload);

/// Decodes one body of `kind` from `payload`. Null on unknown kind,
/// malformed input, or trailing bytes.
std::unique_ptr<MessageBody> DeserializeBody(int kind, BufferView payload);

}  // namespace lhrs::transport

#endif  // LHRS_TRANSPORT_WIRE_H_
