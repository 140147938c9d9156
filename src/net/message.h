#ifndef LHRS_NET_MESSAGE_H_
#define LHRS_NET_MESSAGE_H_

#include <cstdint>
#include <memory>
#include <string>

namespace lhrs {

/// Logical address of a node (server, client or coordinator) on the
/// simulated multicomputer. Dense indices assigned by the Network.
using NodeId = int32_t;
inline constexpr NodeId kInvalidNode = -1;

/// Simulated wall-clock time in microseconds.
using SimTime = uint64_t;

/// Base class of every message payload exchanged on the simulated network.
///
/// Each protocol layer defines its own message structs, tagged with a kind
/// from its reserved range (see MessageKindRange). They derive from
/// WireMessage (net/fields.h), which computes kind() and ByteSize() from
/// the message's one Fields() description. The simulator treats bodies as
/// opaque apart from kind (for statistics) and ByteSize (for the latency
/// model) — exactly the information a real wire format would expose.
class MessageBody {
 public:
  virtual ~MessageBody() = default;

  /// Globally unique message-kind tag (see MessageKindRange).
  virtual int kind() const = 0;

  /// Serialized size in bytes; drives per-byte latency and the
  /// bytes-on-the-wire statistics.
  virtual size_t ByteSize() const = 0;

  /// Short human-readable tag for logs, e.g. "InsertRequest".
  virtual std::string Describe() const;

  /// A copy of this body, for a node that keeps a message to serve later
  /// (net/held.h). WireMessage implements it for every protocol message;
  /// a body without a copy CHECK-fails here.
  virtual std::unique_ptr<MessageBody> Clone() const;
};

/// Reserved kind ranges per layer, so statistics can attribute traffic.
struct MessageKindRange {
  static constexpr int kNetBase = 0;        // network-internal
  static constexpr int kLhStarBase = 100;   // LH* substrate
  static constexpr int kLhrsBase = 200;     // LH*RS parity & recovery
  static constexpr int kLhgBase = 300;      // LH*g baseline
  static constexpr int kLhmBase = 400;      // LH*m baseline
  static constexpr int kLhsBase = 500;      // LH*s baseline
};

/// An in-flight message. Owned by the network's message pool between send
/// and delivery.
struct Message {
  uint64_t id = 0;       ///< Unique per network, in send order.
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  SimTime send_time = 0;
  bool multicast_member = false;  ///< Part of a 1-counted multicast batch.
  /// Crash epoch of the destination at send time. A crash increments the
  /// destination's epoch, so a message in flight across a crash bounces
  /// even when the node is back up by delivery time — the crash lost the
  /// in-flight state.
  uint64_t to_epoch = 0;
  /// body->ByteSize(), computed once when the network queues the message
  /// (0 on a message built outside a network).
  size_t bytes = 0;
  std::unique_ptr<MessageBody> body;
};

}  // namespace lhrs

#endif  // LHRS_NET_MESSAGE_H_
