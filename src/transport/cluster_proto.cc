#include "transport/cluster_proto.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/logging.h"
#include "transport/wire.h"

namespace lhrs::transport {

namespace {

constexpr uint32_t kCtrlMagic = 0x4C43544C;  // "LCTL"

void SetNonBlockingFd(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  LHRS_CHECK(flags >= 0);
  LHRS_CHECK(fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0);
}

}  // namespace

Bytes EncodeCtrl(const CtrlMsg& msg) {
  WireWriter w;
  w.U32(static_cast<uint32_t>(4 + WireSize(msg)));
  w.U32(kCtrlMagic);
  FieldEncoder encoder(w);
  encoder(const_cast<CtrlMsg&>(msg));
  return w.Flatten();
}

std::optional<CtrlMsg> DecodeCtrl(const uint8_t* data, size_t size) {
  WireReader r(BufferView(data, size));
  uint32_t magic = 0;
  if (!r.U32(&magic) || magic != kCtrlMagic) return std::nullopt;
  CtrlMsg msg;
  FieldDecoder decoder(r);
  decoder(msg);
  if (!r.AtEnd() || msg.type < CtrlType::kHello ||
      msg.type > CtrlType::kQuiesced) {
    return std::nullopt;
  }
  return msg;
}

ControlConn::ControlConn(int fd) : fd_(fd) {
  if (fd_ >= 0) SetNonBlockingFd(fd_);
}

ControlConn::~ControlConn() { Close(); }

ControlConn::ControlConn(ControlConn&& other) noexcept
    : fd_(other.fd_),
      closed_(other.closed_),
      in_(std::move(other.in_)),
      out_(std::move(other.out_)),
      out_offset_(other.out_offset_) {
  other.fd_ = -1;
}

ControlConn& ControlConn::operator=(ControlConn&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    closed_ = other.closed_;
    in_ = std::move(other.in_);
    out_ = std::move(other.out_);
    out_offset_ = other.out_offset_;
    other.fd_ = -1;
  }
  return *this;
}

Status ControlConn::Connect(uint16_t port, ControlConn* out) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal("control socket failed");
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  // Blocking connect: the listener is opened before members launch, so a
  // refused connection means a genuinely missing coordinator.
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return Status::Unavailable("control connect failed: " +
                               std::string(strerror(errno)));
  }
  *out = ControlConn(fd);
  return Status::OK();
}

void ControlConn::SendMsg(const CtrlMsg& msg) {
  if (fd_ < 0) return;
  out_.push_back(EncodeCtrl(msg));
  Flush();
}

void ControlConn::Flush() {
  while (fd_ >= 0 && !out_.empty()) {
    Bytes& front = out_.front();
    const ssize_t n =
        write(fd_, front.data() + out_offset_, front.size() - out_offset_);
    if (n <= 0) {
      if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
          errno != EINTR) {
        closed_ = true;
      }
      return;
    }
    out_offset_ += static_cast<size_t>(n);
    if (out_offset_ == front.size()) {
      out_.pop_front();
      out_offset_ = 0;
    }
  }
}

std::optional<CtrlMsg> ControlConn::Poll() {
  if (fd_ < 0) return std::nullopt;
  Flush();
  uint8_t buf[16384];
  for (;;) {
    const ssize_t n = read(fd_, buf, sizeof(buf));
    if (n == 0) {
      closed_ = true;
      break;
    }
    if (n < 0) break;
    in_.insert(in_.end(), buf, buf + n);
  }
  if (in_.size() < 4) return std::nullopt;
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) len |= static_cast<uint32_t>(in_[i]) << (8 * i);
  if (len > (16u << 20)) {  // Corrupted stream.
    closed_ = true;
    return std::nullopt;
  }
  if (in_.size() < 4 + len) return std::nullopt;
  std::optional<CtrlMsg> msg = DecodeCtrl(in_.data() + 4, len);
  in_.erase(in_.begin(), in_.begin() + 4 + len);
  if (!msg.has_value()) closed_ = true;
  return msg;
}

void ControlConn::Close() {
  if (fd_ >= 0) close(fd_);
  fd_ = -1;
}

ControlListener::~ControlListener() { Close(); }

Status ControlListener::Open(uint16_t port) {
  fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return Status::Internal("control listener socket failed");
  SetNonBlockingFd(fd_);
  const int one = 1;
  setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Status::Internal("control listener bind failed");
  }
  if (listen(fd_, 64) != 0) {
    return Status::Internal("control listener listen failed");
  }
  socklen_t len = sizeof(addr);
  getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  return Status::OK();
}

std::optional<ControlConn> ControlListener::Accept() {
  if (fd_ < 0) return std::nullopt;
  const int fd = accept(fd_, nullptr, nullptr);
  if (fd < 0) return std::nullopt;
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return ControlConn(fd);
}

void ControlListener::Close() {
  if (fd_ >= 0) close(fd_);
  fd_ = -1;
}

}  // namespace lhrs::transport
