#include "transport/socket_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <utility>

#include "common/logging.h"

namespace lhrs::transport {

namespace {

// Fixed 32-byte frame header shared by UDP datagrams and TCP frames.
constexpr uint32_t kMagic = 0x4C485253;  // "LHRS"
constexpr uint8_t kVersion = 1;
constexpr size_t kHeaderSize = 32;

enum FrameType : uint8_t {
  kFrameData = 1,  ///< UDP data (acked + retransmitted).
  kFrameAck = 2,   ///< Ack of a data frame (UDP or TCP).
  kFrameBulk = 3,  ///< TCP bulk data (acked, no retransmit needed).
  kFrameNack = 4,  ///< TCP bulk rejected by the receiver (crashed node).
};

struct FrameHeader {
  uint8_t type = 0;
  uint64_t seq = 0;
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  int kind = 0;
  uint32_t payload_len = 0;
};

void PutU32(uint8_t* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

void PutU64(uint8_t* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

uint32_t GetU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

uint64_t GetU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

Bytes BuildHeader(const FrameHeader& h) {
  Bytes out(kHeaderSize, 0);
  PutU32(out.data(), kMagic);
  out[4] = kVersion;
  out[5] = h.type;
  // Bytes 6-7 reserved (zero).
  PutU64(out.data() + 8, h.seq);
  PutU32(out.data() + 16, static_cast<uint32_t>(h.from));
  PutU32(out.data() + 20, static_cast<uint32_t>(h.to));
  PutU32(out.data() + 24, static_cast<uint32_t>(h.kind));
  PutU32(out.data() + 28, h.payload_len);
  return out;
}

bool ParseHeader(const uint8_t* p, size_t n, FrameHeader* h) {
  if (n < kHeaderSize) return false;
  if (GetU32(p) != kMagic || p[4] != kVersion) return false;
  h->type = p[5];
  h->seq = GetU64(p + 8);
  h->from = static_cast<NodeId>(GetU32(p + 16));
  h->to = static_cast<NodeId>(GetU32(p + 20));
  h->kind = static_cast<int>(GetU32(p + 24));
  h->payload_len = GetU32(p + 28);
  return true;
}

void SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  LHRS_CHECK(flags >= 0);
  LHRS_CHECK(fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0);
}

sockaddr_in ToSockaddr(const Endpoint& ep, bool udp) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(ep.ip);
  addr.sin_port = htons(udp ? ep.udp_port : ep.tcp_port);
  return addr;
}

}  // namespace

uint64_t SocketTransport::MonotonicMicros() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000 +
         static_cast<uint64_t>(ts.tv_nsec) / 1000;
}

SocketTransport::SocketTransport(SocketTransportOptions options)
    : options_(options) {}

SocketTransport::~SocketTransport() { Close(); }

Status SocketTransport::Open() {
  udp_fd_ = socket(AF_INET, SOCK_DGRAM, 0);
  if (udp_fd_ < 0) return Status::Internal("udp socket failed");
  SetNonBlocking(udp_fd_);
  const int buf = 4 << 20;
  setsockopt(udp_fd_, SOL_SOCKET, SO_RCVBUF, &buf, sizeof(buf));
  setsockopt(udp_fd_, SOL_SOCKET, SO_SNDBUF, &buf, sizeof(buf));

  sockaddr_in addr = ToSockaddr(options_.bind, /*udp=*/true);
  if (bind(udp_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Status::Internal("udp bind failed");
  }
  socklen_t len = sizeof(addr);
  getsockname(udp_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  local_.ip = options_.bind.ip;
  local_.udp_port = ntohs(addr.sin_port);

  tcp_listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (tcp_listen_fd_ < 0) return Status::Internal("tcp socket failed");
  SetNonBlocking(tcp_listen_fd_);
  const int one = 1;
  setsockopt(tcp_listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in taddr = ToSockaddr(options_.bind, /*udp=*/false);
  if (bind(tcp_listen_fd_, reinterpret_cast<sockaddr*>(&taddr),
           sizeof(taddr)) != 0) {
    return Status::Internal("tcp bind failed");
  }
  if (listen(tcp_listen_fd_, 64) != 0) {
    return Status::Internal("tcp listen failed");
  }
  len = sizeof(taddr);
  getsockname(tcp_listen_fd_, reinterpret_cast<sockaddr*>(&taddr), &len);
  local_.tcp_port = ntohs(taddr.sin_port);
  return Status::OK();
}

void SocketTransport::Close() {
  if (udp_fd_ >= 0) close(udp_fd_);
  if (tcp_listen_fd_ >= 0) close(tcp_listen_fd_);
  udp_fd_ = tcp_listen_fd_ = -1;
  for (auto& conn : tcp_conns_) {
    if (conn->fd >= 0) close(conn->fd);
  }
  tcp_conns_.clear();
  tcp_by_peer_.clear();
}

void SocketTransport::SetPeer(int rank, const Endpoint& endpoint) {
  peers_[rank] = endpoint;
}

void SocketTransportStats::ExportTo(
    telemetry::MetricsRegistry* registry) const {
  const std::pair<const char*, uint64_t> counts[] = {
      {"transport.udp_datagrams_sent", udp_datagrams_sent},
      {"transport.udp_bytes_sent", udp_bytes_sent},
      {"transport.udp_datagrams_received", udp_datagrams_received},
      {"transport.retransmits", retransmits},
      {"transport.send_failures", send_failures},
      {"transport.dup_suppressed", dup_suppressed},
      {"transport.acks_sent", acks_sent},
      {"transport.tcp_frames_sent", tcp_frames_sent},
      {"transport.tcp_bytes_sent", tcp_bytes_sent},
      {"transport.tcp_frames_received", tcp_frames_received},
      {"transport.decode_failures", decode_failures},
  };
  for (const auto& [name, count] : counts) {
    registry->GetCounter(name).Add(count);
  }
}

void SocketTransport::AttachTelemetry(telemetry::Telemetry* telemetry) {
  ack_rtt_us_ = telemetry == nullptr
                    ? nullptr
                    : &telemetry->metrics().GetHistogram(
                          "transport.udp.ack_rtt_us");
}

void SocketTransport::Send(NodeId from, NodeId to,
                           std::unique_ptr<MessageBody> body) {
  LHRS_CHECK(node_rank_ != nullptr && deliver_ != nullptr);
  const int peer = node_rank_(to);
  if (peer == my_rank_) {
    // Loopback shortcut: deliver synchronously (no wire, no loss).
    if (deliver_(from, to, std::move(body))) return;
    return;
  }
  auto fail_now = [&](std::unique_ptr<MessageBody> b) {
    ++stats_.send_failures;
    if (fail_ != nullptr) fail_(from, to, std::move(b));
  };
  if (peer < 0 || peers_.find(peer) == peers_.end()) {
    fail_now(std::move(body));
    return;
  }

  WireWriter writer;
  if (!SerializeBody(*body, writer)) {
    LHRS_LOG(Warning) << "unserializable message kind " << body->kind()
                      << " dropped";
    fail_now(std::move(body));
    return;
  }

  FrameHeader header;
  header.seq = next_seq_++;
  header.from = from;
  header.to = to;
  header.kind = body->kind();
  header.payload_len = static_cast<uint32_t>(writer.size());

  if (writer.size() > options_.udp_payload_limit) {
    // Bulk path: one length-prefixed TCP frame. The flatten copy is the
    // price of stream framing; bulk frames are rare (recovery, splits).
    header.type = kFrameBulk;
    Bytes frame = BuildHeader(header);
    const Bytes payload = writer.Flatten();
    frame.insert(frame.end(), payload.begin(), payload.end());
    PendingTcp pending;
    pending.peer = peer;
    pending.from = from;
    pending.to = to;
    pending.body = std::move(body);
    pending_tcp_.emplace(header.seq, std::move(pending));
    TcpConn* conn = OutboundConn(peer);
    if (conn == nullptr) {
      auto it = pending_tcp_.find(header.seq);
      std::unique_ptr<MessageBody> failed_body = std::move(it->second.body);
      pending_tcp_.erase(it);
      fail_now(std::move(failed_body));
      return;
    }
    conn->out.push_back(std::move(frame));
    ++stats_.tcp_frames_sent;
    FlushTcpConn(*conn);
    return;
  }

  header.type = kFrameData;
  PendingUdp pending;
  pending.peer = peer;
  pending.from = from;
  pending.to = to;
  pending.header = BuildHeader(header);
  pending.writer = std::move(writer);
  pending.body = std::move(body);
  pending.attempts = 1;
  pending.rto_us = options_.initial_rto_us;
  pending.first_sent_us = MonotonicMicros();
  pending.next_deadline_us = pending.first_sent_us + pending.rto_us;
  TransmitUdp(pending, header.seq);
  pending_.emplace(header.seq, std::move(pending));
}

void SocketTransport::TransmitUdp(const PendingUdp& pending, uint64_t seq) {
  uint32_t copies = 1;
  if (loss_shim_ != nullptr) {
    const LossAction action = loss_shim_(/*is_ack=*/false, seq);
    if (action.drop) return;  // Pending entry stays; retransmit recovers.
    copies += action.duplicates;
  }
  const sockaddr_in addr = ToSockaddr(peers_[pending.peer], /*udp=*/true);
  std::vector<iovec> iov;
  iov.push_back({const_cast<uint8_t*>(pending.header.data()),
                 pending.header.size()});
  size_t bytes = pending.header.size();
  for (const WireWriter::Chunk& c : pending.writer.Chunks()) {
    iov.push_back({const_cast<uint8_t*>(c.data), c.size});
    bytes += c.size;
  }
  msghdr msg{};
  msg.msg_name = const_cast<sockaddr_in*>(&addr);
  msg.msg_namelen = sizeof(addr);
  msg.msg_iov = iov.data();
  msg.msg_iovlen = iov.size();
  for (uint32_t i = 0; i < copies; ++i) {
    // EAGAIN/full buffer == a dropped datagram; retransmit recovers.
    (void)sendmsg(udp_fd_, &msg, 0);
    ++stats_.udp_datagrams_sent;
    stats_.udp_bytes_sent += bytes;
  }
}

void SocketTransport::SendAck(int peer, uint64_t seq) {
  if (loss_shim_ != nullptr && loss_shim_(/*is_ack=*/true, seq).drop) return;
  FrameHeader header;
  header.type = kFrameAck;
  header.seq = seq;
  const Bytes frame = BuildHeader(header);
  const sockaddr_in addr = ToSockaddr(peers_[peer], /*udp=*/true);
  (void)sendto(udp_fd_, frame.data(), frame.size(), 0,
               reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  ++stats_.acks_sent;
}

SocketTransport::TcpConn* SocketTransport::OutboundConn(int peer) {
  auto it = tcp_by_peer_.find(peer);
  if (it != tcp_by_peer_.end()) return it->second;
  auto peer_it = peers_.find(peer);
  if (peer_it == peers_.end()) return nullptr;
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return nullptr;
  SetNonBlocking(fd);
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr = ToSockaddr(peer_it->second, /*udp=*/false);
  const int rc = connect(fd, reinterpret_cast<sockaddr*>(&addr),
                         sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    close(fd);
    return nullptr;
  }
  auto conn = std::make_unique<TcpConn>();
  conn->fd = fd;
  conn->peer = peer;
  conn->connected = rc == 0;
  TcpConn* raw = conn.get();
  tcp_conns_.push_back(std::move(conn));
  tcp_by_peer_[peer] = raw;
  return raw;
}

void SocketTransport::FlushTcpConn(TcpConn& conn) {
  if (!conn.connected || conn.fd < 0) return;
  while (!conn.out.empty()) {
    Bytes& front = conn.out.front();
    const ssize_t n = write(conn.fd, front.data() + conn.out_offset,
                            front.size() - conn.out_offset);
    if (n <= 0) return;  // EAGAIN; POLLOUT will resume.
    stats_.tcp_bytes_sent += static_cast<size_t>(n);
    conn.out_offset += static_cast<size_t>(n);
    if (conn.out_offset == front.size()) {
      conn.out.pop_front();
      conn.out_offset = 0;
    }
  }
}

void SocketTransport::AcceptTcp() {
  for (;;) {
    const int fd = accept(tcp_listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    SetNonBlocking(fd);
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<TcpConn>();
    conn->fd = fd;
    conn->connected = true;
    tcp_conns_.push_back(std::move(conn));
  }
}

void SocketTransport::HandleAck(uint64_t seq, uint64_t now_us) {
  auto it = pending_.find(seq);
  if (it != pending_.end()) {
    if (it->second.attempts == 1 && ack_rtt_us_ != nullptr) {
      ack_rtt_us_->Record(now_us - it->second.first_sent_us);
    }
    pending_.erase(it);
    return;
  }
  pending_tcp_.erase(seq);
}

void SocketTransport::HandleNack(uint64_t seq) {
  auto it = pending_tcp_.find(seq);
  if (it == pending_tcp_.end()) return;
  PendingTcp pending = std::move(it->second);
  pending_tcp_.erase(it);
  ++stats_.send_failures;
  if (fail_ != nullptr) {
    fail_(pending.from, pending.to, std::move(pending.body));
  }
}

size_t SocketTransport::ReadUdp(size_t* delivered) {
  size_t datagrams = 0;
  uint8_t buf[65536];
  for (;;) {
    sockaddr_in src{};
    socklen_t src_len = sizeof(src);
    const ssize_t n = recvfrom(udp_fd_, buf, sizeof(buf), 0,
                               reinterpret_cast<sockaddr*>(&src), &src_len);
    if (n < 0) return datagrams;
    ++datagrams;
    ++stats_.udp_datagrams_received;
    FrameHeader header;
    if (!ParseHeader(buf, static_cast<size_t>(n), &header) ||
        static_cast<size_t>(n) != kHeaderSize + header.payload_len) {
      ++stats_.decode_failures;
      continue;
    }
    const uint64_t now_us = MonotonicMicros();
    if (header.type == kFrameAck) {
      HandleAck(header.seq, now_us);
      continue;
    }
    if (header.type != kFrameData) {
      ++stats_.decode_failures;
      continue;
    }
    const int peer = node_rank_ != nullptr ? node_rank_(header.from) : -1;
    if (peer < 0 || peers_.find(peer) == peers_.end()) {
      ++stats_.decode_failures;
      continue;
    }
    DuplicateFilter& dedup = rx_dedup_.try_emplace(peer, 1 << 16)
                                 .first->second;
    // A retransmit of an already-accepted frame means our ack was lost:
    // re-ack but do not re-deliver (at-most-once into the node layer; the
    // protocol-level DuplicateFilter guards the residual window overflow).
    if (dedup.Contains(header.seq)) {
      ++stats_.dup_suppressed;
      SendAck(peer, header.seq);
      continue;
    }
    BufferView payload(buf + kHeaderSize, header.payload_len);
    std::unique_ptr<MessageBody> body =
        DeserializeBody(header.kind, std::move(payload));
    if (body == nullptr) {
      ++stats_.decode_failures;
      continue;
    }
    if (deliver_(header.from, header.to, std::move(body))) {
      dedup.SeenBefore(header.seq);  // Record only accepted deliveries.
      SendAck(peer, header.seq);
      ++*delivered;
    }
    // Rejected (crashed local node): no ack and no dedup record, so a
    // retransmit is judged afresh — against a still-dead node the sender's
    // attempts run out and it sees a delivery failure, exactly as against
    // a dead process.
  }
}

void SocketTransport::ReadTcpConn(TcpConn& conn, size_t* delivered) {
  uint8_t buf[65536];
  for (;;) {
    const ssize_t n = read(conn.fd, buf, sizeof(buf));
    if (n == 0) {
      // Peer closed; drop the connection.
      close(conn.fd);
      conn.fd = -1;
      if (conn.peer >= 0) tcp_by_peer_.erase(conn.peer);
      return;
    }
    if (n < 0) break;
    conn.in.insert(conn.in.end(), buf, buf + n);
  }
  size_t pos = 0;
  while (conn.in.size() - pos >= kHeaderSize) {
    FrameHeader header;
    if (!ParseHeader(conn.in.data() + pos, conn.in.size() - pos, &header)) {
      // Corrupted stream: drop the connection (TCP should never do this).
      ++stats_.decode_failures;
      close(conn.fd);
      conn.fd = -1;
      if (conn.peer >= 0) tcp_by_peer_.erase(conn.peer);
      return;
    }
    if (conn.in.size() - pos < kHeaderSize + header.payload_len) break;
    const uint8_t* payload_ptr = conn.in.data() + pos + kHeaderSize;
    pos += kHeaderSize + header.payload_len;
    ++stats_.tcp_frames_received;
    switch (header.type) {
      case kFrameAck:
        HandleAck(header.seq, MonotonicMicros());
        break;
      case kFrameNack:
        HandleNack(header.seq);
        break;
      case kFrameBulk: {
        BufferView payload(payload_ptr, header.payload_len);
        std::unique_ptr<MessageBody> body =
            DeserializeBody(header.kind, std::move(payload));
        FrameHeader reply;
        reply.seq = header.seq;
        if (body != nullptr &&
            deliver_(header.from, header.to, std::move(body))) {
          reply.type = kFrameAck;
          ++*delivered;
        } else {
          if (body == nullptr) ++stats_.decode_failures;
          reply.type = kFrameNack;
        }
        conn.out.push_back(BuildHeader(reply));
        break;
      }
      default:
        ++stats_.decode_failures;
        break;
    }
  }
  if (pos > 0) conn.in.erase(conn.in.begin(), conn.in.begin() + pos);
  FlushTcpConn(conn);
}

void SocketTransport::RetransmitPass(uint64_t now_us) {
  std::vector<uint64_t> failed;
  for (auto& [seq, pending] : pending_) {
    if (pending.next_deadline_us > now_us) continue;
    if (pending.attempts >= options_.max_attempts) {
      failed.push_back(seq);
      continue;
    }
    ++pending.attempts;
    pending.rto_us = std::min(pending.rto_us * 2, options_.max_rto_us);
    pending.next_deadline_us = now_us + pending.rto_us;
    ++stats_.retransmits;
    TransmitUdp(pending, seq);
  }
  for (uint64_t seq : failed) {
    auto it = pending_.find(seq);
    PendingUdp pending = std::move(it->second);
    pending_.erase(it);
    ++stats_.send_failures;
    if (fail_ != nullptr) {
      fail_(pending.from, pending.to, std::move(pending.body));
    }
  }
}

size_t SocketTransport::Pump(int timeout_ms) {
  LHRS_CHECK(udp_fd_ >= 0) << "transport not open";
  // Cap the poll wait at the next retransmit deadline.
  if (!pending_.empty()) {
    const uint64_t now_us = MonotonicMicros();
    uint64_t next = UINT64_MAX;
    for (const auto& [seq, p] : pending_) {
      next = std::min(next, p.next_deadline_us);
    }
    const int until_ms =
        next <= now_us ? 0 : static_cast<int>((next - now_us) / 1000 + 1);
    timeout_ms = std::min(timeout_ms, until_ms);
  }

  std::vector<pollfd> fds;
  fds.push_back({udp_fd_, POLLIN, 0});
  fds.push_back({tcp_listen_fd_, POLLIN, 0});
  std::vector<TcpConn*> polled;
  for (auto& conn : tcp_conns_) {
    if (conn->fd < 0) continue;
    short events = POLLIN;
    if (!conn->connected || !conn->out.empty()) events |= POLLOUT;
    fds.push_back({conn->fd, events, 0});
    polled.push_back(conn.get());
  }
  poll(fds.data(), fds.size(), timeout_ms);

  size_t delivered = 0;
  if ((fds[0].revents & POLLIN) != 0) ReadUdp(&delivered);
  if ((fds[1].revents & POLLIN) != 0) AcceptTcp();
  for (size_t i = 0; i < polled.size(); ++i) {
    TcpConn& conn = *polled[i];
    const short revents = fds[i + 2].revents;
    if (conn.fd < 0) continue;
    if ((revents & POLLOUT) != 0) {
      if (!conn.connected) {
        int err = 0;
        socklen_t len = sizeof(err);
        getsockopt(conn.fd, SOL_SOCKET, SO_ERROR, &err, &len);
        if (err == 0) conn.connected = true;
      }
      FlushTcpConn(conn);
    }
    if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      ReadTcpConn(conn, &delivered);
    }
  }
  // Reap closed connections.
  tcp_conns_.erase(
      std::remove_if(tcp_conns_.begin(), tcp_conns_.end(),
                     [](const std::unique_ptr<TcpConn>& c) {
                       return c->fd < 0;
                     }),
      tcp_conns_.end());

  RetransmitPass(MonotonicMicros());
  return delivered;
}

bool SocketTransport::Quiescent() const {
  if (!pending_.empty() || !pending_tcp_.empty()) return false;
  for (const auto& conn : tcp_conns_) {
    if (!conn->out.empty()) return false;
  }
  return true;
}

}  // namespace lhrs::transport
