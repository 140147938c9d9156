#ifndef LHRS_TRANSPORT_SOCKET_TRANSPORT_H_
#define LHRS_TRANSPORT_SOCKET_TRANSPORT_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "net/dedup.h"
#include "net/message.h"
#include "telemetry/telemetry.h"
#include "transport/wire.h"

namespace lhrs::transport {

/// Loopback/LAN address of one cluster process.
struct Endpoint {
  uint32_t ip = 0x7F000001;  ///< Host byte order; default 127.0.0.1.
  uint16_t udp_port = 0;
  uint16_t tcp_port = 0;

  template <class V>
  void Fields(V& v) {
    v(ip);
    v(udp_port);
    v(tcp_port);
  }
};

/// Tuning knobs of the socket backend.
struct SocketTransportOptions {
  /// Ports to bind (0 = ephemeral; the resolved ports appear in local()).
  Endpoint bind;
  /// UDP reliability: transport-level ack + bounded retransmit. After
  /// `max_attempts` unacked transmissions the send fails and the sender
  /// node sees HandleDeliveryFailure — the exact analogue of the
  /// simulator's RPC-timeout model.
  uint32_t max_attempts = 6;
  uint64_t initial_rto_us = 20'000;
  uint64_t max_rto_us = 320'000;
  /// Bodies whose frame exceeds this travel over TCP (recovery column
  /// dumps, bucket moves); smaller ones over UDP.
  size_t udp_payload_limit = 8192;
};

/// What the lossy test shim decides for one outgoing UDP datagram.
struct LossAction {
  bool drop = false;
  uint32_t duplicates = 0;
};

/// Counts of one transport instance's socket events: the only place the
/// transport counts them (reports take them through ExportTo).
struct SocketTransportStats {
  uint64_t udp_datagrams_sent = 0;
  uint64_t udp_bytes_sent = 0;
  uint64_t udp_datagrams_received = 0;
  uint64_t retransmits = 0;
  uint64_t send_failures = 0;     ///< Gave up after max_attempts.
  uint64_t dup_suppressed = 0;    ///< Receiver-side seq dedup hits.
  uint64_t acks_sent = 0;
  uint64_t tcp_frames_sent = 0;
  uint64_t tcp_bytes_sent = 0;
  uint64_t tcp_frames_received = 0;
  uint64_t decode_failures = 0;   ///< Malformed frames rejected.

  /// Adds every count to `registry` as a "transport.<field>" counter.
  void ExportTo(telemetry::MetricsRegistry* registry) const;
};

/// The cluster's data plane: one non-blocking UDP socket plus one TCP
/// listener per process. Protocol code never calls it directly: it sits
/// under a Network, driven by the ClusterRuntime's RemoteRouter hook.
///
/// UDP frames carry a fixed header (magic, version, frame type, sequence
/// number, from/to NodeIds, message kind, payload length) followed by the
/// WireWriter serialization of the body — sent scatter/gather, so record
/// payloads go from the bucket store's buffers to the kernel without an
/// intermediate copy. Every data frame is acked; unacked frames retransmit
/// with exponential backoff and fail over to the delivery-failure path
/// after a bounded number of attempts. The receiver dedups on (peer,
/// sequence) and re-acks duplicates, so a lost ack never surfaces a
/// duplicate message to protocol code — protocol-level dedup
/// (DuplicateFilter on Message::id) remains the second line of defense,
/// exercised by the lossy-shim tests.
///
/// Bulk frames (above `udp_payload_limit`) go over per-peer TCP
/// connections, length-prefixed with the same header, connected lazily.
///
/// Single-threaded: Send and Pump must be called from one thread (the
/// cluster runtime's pump loop).
class SocketTransport {
 public:
  /// Delivery callback: returns true to accept (and ack) the message,
  /// false to drop it without acking (destination crashed here — the
  /// sender's retransmits then time out, as they would against a dead
  /// process).
  using DeliverFn = std::function<bool(
      NodeId from, NodeId to, std::unique_ptr<MessageBody> body)>;

  /// Failure callback: a send exhausted its attempts (or had no route);
  /// the body is handed back so the runtime can surface
  /// HandleDeliveryFailure on the sender node.
  using FailFn = std::function<void(NodeId from, NodeId to,
                                    std::unique_ptr<MessageBody> body)>;

  /// Maps a NodeId to the rank of the process hosting it (-1 = unknown).
  using RankFn = std::function<int(NodeId)>;

  explicit SocketTransport(SocketTransportOptions options = {});
  ~SocketTransport();

  /// Binds the UDP socket and TCP listener; fills local().
  Status Open();
  void Close();

  const Endpoint& local() const { return local_; }

  void set_my_rank(int rank) { my_rank_ = rank; }
  int my_rank() const { return my_rank_; }

  /// Registers (or updates) a peer process address.
  void SetPeer(int rank, const Endpoint& endpoint);

  void SetNodeRank(RankFn fn) { node_rank_ = std::move(fn); }
  void SetDeliverFn(DeliverFn fn) { deliver_ = std::move(fn); }
  void SetFailFn(FailFn fn) { fail_ = std::move(fn); }

  /// Installs a deterministic loss shim applied to every outgoing UDP
  /// datagram (data and acks): the duplicate/drop test harness.
  void SetLossShim(std::function<LossAction(bool is_ack, uint64_t seq)> fn) {
    loss_shim_ = std::move(fn);
  }

  /// Records the ack round trip of first-attempt datagrams in the
  /// "transport.udp.ack_rtt_us" histogram of `telemetry`. Not owned.
  void AttachTelemetry(telemetry::Telemetry* telemetry);

  /// Queues one message for delivery. Ownership of the body transfers.
  void Send(NodeId from, NodeId to, std::unique_ptr<MessageBody> body);

  /// Services the sockets, waiting at most `timeout_ms`. Returns the
  /// number of messages delivered to local nodes during the call.
  size_t Pump(int timeout_ms);

  /// True when nothing is in flight (no pending acks, empty queues).
  bool Quiescent() const;

  const char* name() const { return "udp"; }

  const SocketTransportStats& stats() const { return stats_; }

  /// Monotonic wall-clock microseconds (shared by the cluster runtime so
  /// simulated-time timers run on the same clock).
  static uint64_t MonotonicMicros();

 private:
  struct PendingUdp {
    int peer = -1;
    NodeId from = kInvalidNode;
    NodeId to = kInvalidNode;
    Bytes header;       ///< Fixed frame header.
    WireWriter writer;  ///< Payload gather list (zero-copy; the views keep
                        ///< the payload buffers alive until acked).
    std::unique_ptr<MessageBody> body;  ///< For the failure path.
    uint32_t attempts = 0;
    uint64_t next_deadline_us = 0;
    uint64_t rto_us = 0;
    uint64_t first_sent_us = 0;
  };

  struct PendingTcp {
    int peer = -1;
    NodeId from = kInvalidNode;
    NodeId to = kInvalidNode;
    std::unique_ptr<MessageBody> body;  ///< For the failure (nack) path.
  };

  struct TcpConn {
    int fd = -1;
    int peer = -1;          ///< -1 until the first frame identifies it.
    Bytes in;               ///< Read buffer (partial frames).
    std::deque<Bytes> out;  ///< Write queue.
    size_t out_offset = 0;  ///< Bytes of out.front() already written.
    bool connected = false; ///< Outbound: connect() completed.
  };

  void TransmitUdp(const PendingUdp& pending, uint64_t seq);
  void SendAck(int peer, uint64_t seq);
  TcpConn* OutboundConn(int peer);
  size_t ReadUdp(size_t* delivered);
  void ReadTcpConn(TcpConn& conn, size_t* delivered);
  void FlushTcpConn(TcpConn& conn);
  void AcceptTcp();
  void RetransmitPass(uint64_t now_us);
  void HandleAck(uint64_t seq, uint64_t now_us);
  void HandleNack(uint64_t seq);

  SocketTransportOptions options_;
  Endpoint local_;
  int my_rank_ = -1;
  int udp_fd_ = -1;
  int tcp_listen_fd_ = -1;

  std::map<int, Endpoint> peers_;
  RankFn node_rank_;
  DeliverFn deliver_;
  FailFn fail_;
  std::function<LossAction(bool, uint64_t)> loss_shim_;

  uint64_t next_seq_ = 1;
  std::map<uint64_t, PendingUdp> pending_;  ///< seq -> in-flight frame.
  std::map<uint64_t, PendingTcp> pending_tcp_;
  std::map<int, DuplicateFilter> rx_dedup_; ///< peer -> seen seqs.

  std::vector<std::unique_ptr<TcpConn>> tcp_conns_;
  std::map<int, TcpConn*> tcp_by_peer_;  ///< Outbound connections.

  SocketTransportStats stats_;
  telemetry::Histogram* ack_rtt_us_ = nullptr;
};

}  // namespace lhrs::transport

#endif  // LHRS_TRANSPORT_SOCKET_TRANSPORT_H_
