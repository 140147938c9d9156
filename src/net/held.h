#ifndef LHRS_NET_HELD_H_
#define LHRS_NET_HELD_H_

#include <utility>
#include <vector>

#include "net/message.h"

namespace lhrs {

/// Messages a node received before it could serve them: a split target
/// before its record move, a recovery spare before its install. The node
/// keeps a copy of each and replays them, in arrival order, once it can
/// answer (or once it learns it never will, and answers as a displaced
/// bucket). Replay enters the node's handlers after its duplicate filter:
/// a held message was already counted on arrival.
class HeldMessages {
 public:
  void Hold(const Message& msg) {
    Message& copy = held_.emplace_back();
    copy.id = msg.id;
    copy.from = msg.from;
    copy.to = msg.to;
    copy.send_time = msg.send_time;
    copy.body = msg.body->Clone();
  }

  /// Hands every held message to `serve`, in arrival order, and forgets
  /// them. The node must have left the state in which it holds: a message
  /// held again during the replay waits for the next one.
  template <class F>
  void Replay(F&& serve) {
    std::vector<Message> held = std::move(held_);
    held_.clear();
    for (const Message& msg : held) serve(msg);
  }

 private:
  std::vector<Message> held_;
};

}  // namespace lhrs

#endif  // LHRS_NET_HELD_H_
