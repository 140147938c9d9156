#ifndef LHRS_TRANSPORT_CLUSTER_PROTO_H_
#define LHRS_TRANSPORT_CLUSTER_PROTO_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "net/message.h"
#include "transport/socket_transport.h"

namespace lhrs::transport {

/// Control-plane message types exchanged between the coordinator process
/// (rank 0) and every worker/client process over a dedicated TCP
/// connection. Control traffic is rare and tiny; the node-to-node data
/// plane never touches these connections.
enum class CtrlType : uint32_t {
  kHello = 1,         ///< member -> coord: rank + data-plane ports.
  kWelcome = 2,       ///< coord -> member: endpoints of every rank.
  kReady = 3,         ///< member -> coord: network built, pumping.
  kActivateNode = 4,  ///< coord -> owner: turn a spare stub into a node.
  kAllocUpdate = 5,   ///< coord -> all: allocation-table snapshot.
  kSetAvailable = 6,  ///< coord -> all: liveness oracle update.
  kRunPhase = 7,      ///< coord -> client: run workload phase N.
  kPhaseDone = 8,     ///< client -> coord: phase N finished + stats.
  kStop = 9,          ///< coord -> member: drain and exit.
  kGoodbye = 10,      ///< member -> coord: drained, report written.
  kQuiesce = 11,      ///< coord -> member: drain the data plane, then ack.
  kQuiesced = 12,     ///< member -> coord: transport drained (rank).
};

/// Aggregated result of one workload phase on one client process.
struct PhaseResult {
  bool ok = true;
  uint64_t ops = 0;
  uint64_t failures = 0;
  uint64_t elapsed_us = 0;
  uint64_t p50_us = 0;
  uint64_t p95_us = 0;
  uint64_t p99_us = 0;

  template <class V>
  void Fields(V& v) {
    v(ok);
    v(ops);
    v(failures);
    v(elapsed_us);
    v(p50_us);
    v(p95_us);
    v(p99_us);
  }
};

/// One control message, all variants flattened (control frames are a few
/// dozen bytes). Fields() lists each type's wire fields once, after the
/// type itself (net/fields.h). Every member has an initializer, so a
/// message reads as one designated initializer:
/// `CtrlMsg{.type = CtrlType::kRunPhase, .phase = 2}`.
struct CtrlMsg {
  CtrlType type = CtrlType::kHello;

  // kHello, kQuiesced:
  uint32_t rank = 0;
  // kHello:
  Endpoint endpoint{};

  // kWelcome: data-plane endpoints indexed by rank, plus the coordinator's
  // authoritative erasure-code choice (decoded via parity::CodeSpec::Parse;
  // a member must not guess the scheme from its own CLI flags).
  std::vector<Endpoint> endpoints{};
  uint32_t field_choice = 0;  ///< static_cast<uint32_t>(FieldChoice).
  std::string code{};         ///< parity::CodeSpec::Name() spelling.

  // kActivateNode:
  NodeId node = kInvalidNode;
  bool is_parity = false;
  bool pre_initialized = false;
  uint32_t bucket = 0;       ///< Data: bucket number. Parity: group.
  uint32_t level = 0;        ///< Data: level. Parity: parity index.
  uint32_t k = 0;            ///< Parity only.

  // kAllocUpdate:
  uint64_t version = 0;
  std::vector<NodeId> entries{};

  // kSetAvailable (reuses `node`):
  bool up = false;

  // kRunPhase / kPhaseDone (the coordinator knows the reporting member's
  // rank from its control connection):
  uint32_t phase = 0;
  PhaseResult result{};

  template <class V>
  void Fields(V& v) {
    // The type travels as a u32. Only the decoder changes `wire_type`, so
    // the sizer and the encoder never write through Fields().
    auto wire_type = static_cast<uint32_t>(type);
    v(wire_type);
    if (wire_type != static_cast<uint32_t>(type)) {
      type = static_cast<CtrlType>(wire_type);
    }
    switch (type) {
      case CtrlType::kHello:
        v(rank);
        v(endpoint);
        break;
      case CtrlType::kWelcome:
        v.Count(endpoints);
        for (Endpoint& e : endpoints) v(e);
        v(field_choice);
        v(code);
        break;
      case CtrlType::kActivateNode:
        v(node);
        v(is_parity);
        v(pre_initialized);
        v(bucket);
        v(level);
        v(k);
        break;
      case CtrlType::kAllocUpdate:
        v(version);
        v.Count(entries);
        for (NodeId& id : entries) v(id);
        break;
      case CtrlType::kSetAvailable:
        v(node);
        v(up);
        break;
      case CtrlType::kRunPhase:
        v(phase);
        break;
      case CtrlType::kPhaseDone:
        v(phase);
        v(result);
        break;
      case CtrlType::kQuiesced:
        v(rank);
        break;
      case CtrlType::kReady:
      case CtrlType::kStop:
      case CtrlType::kGoodbye:
      case CtrlType::kQuiesce:
        break;
    }
  }
};

/// Serializes `msg` into a length-prefixed control frame.
Bytes EncodeCtrl(const CtrlMsg& msg);

/// Decodes one control frame payload (without the length prefix); nullopt
/// on malformed input, an unknown type or trailing bytes.
std::optional<CtrlMsg> DecodeCtrl(const uint8_t* data, size_t size);

/// One non-blocking, length-prefix-framed control connection.
///
/// Writes are queued and flushed opportunistically (control frames are far
/// smaller than socket buffers, so in practice a single write suffices);
/// reads accumulate until a full frame decodes. Single-threaded.
class ControlConn {
 public:
  ControlConn() = default;
  explicit ControlConn(int fd);
  ~ControlConn();

  ControlConn(ControlConn&& other) noexcept;
  ControlConn& operator=(ControlConn&& other) noexcept;
  ControlConn(const ControlConn&) = delete;
  ControlConn& operator=(const ControlConn&) = delete;

  /// Connects to a coordinator's control listener on the loopback.
  static Status Connect(uint16_t port, ControlConn* out);

  bool valid() const { return fd_ >= 0; }
  bool closed() const { return closed_; }

  /// Queues one message and flushes as much as the socket accepts.
  void SendMsg(const CtrlMsg& msg);

  /// Drains readable bytes and returns the next complete message, if any.
  std::optional<CtrlMsg> Poll();

  /// Pushes queued writes to the socket (call from the pump loop).
  void Flush();

  void Close();

 private:
  int fd_ = -1;
  bool closed_ = false;
  Bytes in_;
  std::deque<Bytes> out_;
  size_t out_offset_ = 0;
};

/// The coordinator's control listener: accepts member connections.
class ControlListener {
 public:
  ControlListener() = default;
  ~ControlListener();

  /// Binds and listens on `port` (0 = ephemeral).
  Status Open(uint16_t port);
  uint16_t port() const { return port_; }

  /// Accepts one pending connection, if any.
  std::optional<ControlConn> Accept();

  void Close();

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

}  // namespace lhrs::transport

#endif  // LHRS_TRANSPORT_CLUSTER_PROTO_H_
