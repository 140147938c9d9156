#ifndef LHRS_NET_NODE_H_
#define LHRS_NET_NODE_H_

#include <memory>

#include "net/message.h"

namespace lhrs {

class Network;

/// A process on the simulated multicomputer: a server carrying a bucket, a
/// client, the split coordinator, or an idle hot spare. Nodes communicate
/// exclusively by message passing; a node must never touch another node's
/// state directly (the tests enforce that discipline by running scenarios
/// where such shortcuts would produce wrong message counts).
class Node {
 public:
  Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;
  virtual ~Node() = default;

  NodeId id() const { return id_; }

  /// Delivers one message. May send further messages via Send().
  virtual void HandleMessage(const Message& msg) = 0;

  /// Invoked (after the simulated timeout) when a message this node sent
  /// could not be delivered because the destination is unavailable — the
  /// simulator's model of an RPC timeout. Default: ignore.
  virtual void HandleDeliveryFailure(const Message& msg);

  /// Invoked when a timer armed with ScheduleTimer fires (and this node is
  /// still available). Default: ignore.
  virtual void HandleTimer(uint64_t timer_id);

  /// Human-readable role tag for logs ("bucket", "client", ...).
  virtual const char* role() const { return "node"; }

 protected:
  /// Sends a message to `to`. Valid only after registration on a network.
  void Send(NodeId to, std::unique_ptr<MessageBody> body);

  /// Arms HandleTimer(timer_id) to fire after `delay` simulated us.
  void ScheduleTimer(SimTime delay, uint64_t timer_id);

  /// Sends of one message, the first included, that Resend allows.
  static constexpr uint32_t kMaxSendAttempts = 4;

  /// Bounded resend of a bounced message whose body `M` counts its sends
  /// in an off-wire `attempt` field (0 on the first send): sends a copy
  /// with the count bumped to the same destination, or returns false when
  /// the message has been sent kMaxSendAttempts times.
  template <class M>
  bool Resend(const Message& bounced) {
    const auto& body = static_cast<const M&>(*bounced.body);
    if (body.attempt + 1 >= kMaxSendAttempts) return false;
    auto copy = std::make_unique<M>(body);
    ++copy->attempt;
    Send(bounced.to, std::move(copy));
    return true;
  }

  Network* network() const { return network_; }

 private:
  friend class Network;

  Network* network_ = nullptr;
  NodeId id_ = kInvalidNode;
};

}  // namespace lhrs

#endif  // LHRS_NET_NODE_H_
