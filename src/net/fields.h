#ifndef LHRS_NET_FIELDS_H_
#define LHRS_NET_FIELDS_H_

// One description per message. Every message and nested wire struct lists
// its wire fields once, in wire order:
//
//   template <class V> void Fields(V& v) { v(op_id); v.Pad(4); ... }
//
// Visitors derive everything else from that list: the simulated byte size
// (WireSizer, below), the wire encoder and the bounds-checked decoder
// (transport/wire.h), and the seeded samples of the wire tests. The
// vocabulary a Fields() body may use:
//
//   v(x)            one field: bool (1 byte, 0 or 1 on the wire), a 2-, 4-
//                   or 8-byte integer (little-endian), a BufferView,
//                   std::string or Bytes (u32 length + bytes), a
//                   std::optional<T> (presence byte + T, T{} when absent),
//                   a std::shared_ptr<const T> (T's fields, T{} when
//                   null; decoding makes a fresh T), or a nested struct
//                   with its own Fields().
//   v.Enum(e, max)  an enum sent as one byte; decoding rejects values > max.
//   v.Pad(n)        n zero bytes.
//   v.Flag(opt)     the presence byte of an optional whose payload follows
//                   separately and only when present: `if (opt) v(*opt);`.
//   v.Count(vs...)  the u32 element count of one or more parallel vectors;
//                   the elements follow separately: `for (auto& e : vs)`.
//                   Any type with size(), resize(n) and a value_type of
//                   the smallest element's wire form counts like a vector;
//                   one whose size() stays off n after resize(n) has
//                   refused the count, and the decode fails.
//
// A type without Fields() may carry a hand-written field codec instead: a
// `size_t ByteSize() const` here plus encode/decode overloads in the
// transport (the scan predicate is the one such field).
//
// Fields() is a non-const member; the size visitor and the encoder only
// read through it.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/buffer.h"
#include "common/bytes.h"
#include "net/message.h"
#include "net/stats.h"

namespace lhrs {

template <class T, class V>
concept HasFields = requires(T& t, V& v) { t.Fields(v); };

template <class T>
struct IsOptional : std::false_type {};
template <class T>
struct IsOptional<std::optional<T>> : std::true_type {};

/// A shared, immutable nested struct: `std::shared_ptr<const T>`.
template <class T>
struct IsSharedConst : std::false_type {};
template <class T>
struct IsSharedConst<std::shared_ptr<const T>> : std::true_type {
  using element = T;
};

/// A fixed-width integer field (bool is its own one-byte field).
template <class T>
concept WireInt = std::is_integral_v<T> && !std::is_same_v<T, bool> &&
                  (sizeof(T) == 2 || sizeof(T) == 4 || sizeof(T) == 8);

/// Sums the wire size of a Fields() list. Header-only and allocation-free,
/// with no virtual call per field: MessageBody::ByteSize() runs it on every
/// send, so it must cost about as much as a hand-counted constant.
class WireSizer {
 public:
  size_t size() const { return n_; }

  template <class T>
  void operator()(T& x) {
    if constexpr (HasFields<T, WireSizer>) {
      x.Fields(*this);
    } else if constexpr (std::is_same_v<T, bool>) {
      n_ += 1;
    } else if constexpr (WireInt<T>) {
      n_ += sizeof(T);
    } else if constexpr (std::is_same_v<T, BufferView> ||
                         std::is_same_v<T, std::string> ||
                         std::is_same_v<T, Bytes>) {
      n_ += 4 + x.size();
    } else if constexpr (IsOptional<T>::value) {
      n_ += 1;
      typename T::value_type absent{};
      (*this)(x.has_value() ? *x : absent);
    } else if constexpr (IsSharedConst<T>::value) {
      using U = typename IsSharedConst<T>::element;
      U null{};
      (*this)(x != nullptr ? const_cast<U&>(*x) : null);
    } else {
      n_ += x.ByteSize();  // Hand-written field codec.
    }
  }

  template <class E>
  void Enum(E&, E) {
    n_ += 1;
  }
  void Pad(size_t n) { n_ += n; }
  template <class T>
  void Flag(std::optional<T>&) {
    n_ += 1;
  }
  template <class... Vs>
  void Count(Vs&...) {
    n_ += 4;
  }

 private:
  size_t n_ = 0;
};

/// Wire size of `x` (a message or nested wire struct).
template <class T>
size_t WireSize(const T& x) {
  WireSizer sizer;
  sizer(const_cast<T&>(x));
  return sizer.size();
}

/// Base of every protocol message. `M` declares its kind and display name
/// once, next to its fields:
///
///   struct PingRequestMsg : WireMessage<PingRequestMsg> {
///     static constexpr int kKind = LhrsMsg::kPingRequest;
///     static constexpr char kName[] = "lhrs.PingRequest";
///     uint64_t probe_id = 0;
///     template <class V> void Fields(V& v) { v(probe_id); }
///   };
///
/// kind(), ByteSize() and Clone() follow from those, and kName becomes
/// the kind's MessageKindName() in stats and reports. The name is
/// registered during static initialization of any program that constructs
/// an `M`, so it is in place before the first message is counted and
/// before any thread starts.
template <class M>
class WireMessage : public MessageBody {
 public:
  WireMessage() { (void)name_registered_; }

  int kind() const final { return M::kKind; }
  size_t ByteSize() const final {
    return WireSize(static_cast<const M&>(*this));
  }
  std::unique_ptr<MessageBody> Clone() const final {
    return std::make_unique<M>(static_cast<const M&>(*this));
  }

 private:
  static inline const bool name_registered_ =
      (RegisterMessageKindName(M::kKind, M::kName), true);
};

/// A list of message types, e.g. every message of one protocol layer.
template <class... Ms>
struct MessageList {};

}  // namespace lhrs

#endif  // LHRS_NET_FIELDS_H_
