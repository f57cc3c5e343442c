#include "net/socket_link.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <sstream>
#include <thread>

#include "common/metrics_registry.h"
#include "common/serial.h"
#include "net/frame.h"

namespace sknn {
namespace net {

namespace {

MetricsRegistry::Counter* SocketCounter(const char* name) {
  return MetricsRegistry::Global().GetCounter(std::string("net.socket.") +
                                              name);
}

Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return InternalError(std::string("fcntl(O_NONBLOCK): ") + strerror(errno));
  }
  return Status::Ok();
}

void SetSocketOptions(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // Ciphertext bundles are MB-scale; default buffers stall the poll loop.
  int buf = 4 << 20;
  setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &buf, sizeof(buf));
  setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &buf, sizeof(buf));
}

StatusOr<sockaddr_in> ResolveAddr(const std::string& host, uint16_t port) {
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (host.empty() || host == "0.0.0.0") {
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
  } else if (host == "localhost") {
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  } else if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return InvalidArgumentError("cannot parse IPv4 address '" + host + "'");
  }
  return addr;
}

// Reads the little-endian u64 payload length at frame-header offset 16.
uint64_t HeaderPayloadLen(const uint8_t* header) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= uint64_t{header[16 + i]} << (8 * i);
  return v;
}

uint32_t HeaderMagic(const uint8_t* header) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= uint32_t{header[i]} << (8 * i);
  return v;
}

}  // namespace

SocketChannel::SocketChannel(int fd, std::string name)
    : fd_(fd), name_(std::move(name)) {
  SetNonBlocking(fd_);  // best-effort; a blocking fd only slows polls down
  SetSocketOptions(fd_);
}

SocketChannel::~SocketChannel() { Close(); }

void SocketChannel::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status SocketChannel::Send(std::vector<uint8_t> message) {
  if (fd_ < 0) return AbortedError("send on closed socket " + name_);
  SocketCounter("messages_sent")->Increment();
  size_t off = 0;
  int stalled_polls = 0;
  while (off < message.size()) {
    const ssize_t n = ::send(fd_, message.data() + off, message.size() - off,
                             MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      stalled_polls = 0;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Kernel send buffer full: wait for writability, bounded so a peer
      // that stopped reading cannot wedge us forever.
      if (++stalled_polls > 500) {
        return DeadlineExceededError(
            "send on " + name_ + " stalled (peer not reading) after " +
            std::to_string(off) + "/" + std::to_string(message.size()) +
            " bytes");
      }
      pollfd pfd{fd_, POLLOUT, 0};
      const int r = ::poll(&pfd, 1, io_poll_ms_);
      if (r < 0 && errno != EINTR) {
        return AbortedError("poll(POLLOUT) on " + name_ + ": " +
                            strerror(errno));
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    SocketCounter("send_errors")->Increment();
    return AbortedError("peer of " + name_ + " closed the connection (" +
                        strerror(errno) + ") after " + std::to_string(off) +
                        "/" + std::to_string(message.size()) + " bytes sent");
  }
  SocketCounter("bytes_sent")->Add(message.size());
  return Status::Ok();
}

StatusOr<bool> SocketChannel::ReadAvailable() {
  if (fd_ < 0) return AbortedError("receive on closed socket " + name_);
  uint8_t chunk[64 * 1024];
  bool read_any = false;
  while (!peer_eof_) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buf_.insert(buf_.end(), chunk, chunk + n);
      SocketCounter("bytes_received")->Add(static_cast<uint64_t>(n));
      read_any = true;
      continue;
    }
    if (n == 0 || errno == ECONNRESET) {
      peer_eof_ = true;
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    } else if (errno != EINTR) {
      return AbortedError("recv on " + name_ + ": " + strerror(errno));
    }
  }
  return read_any;
}

StatusOr<bool> SocketChannel::ExtractFrame(std::vector<uint8_t>* out) {
  if (buf_.size() < kFrameHeaderBytes) return false;
  if (HeaderMagic(buf_.data()) != kFrameMagic) {
    // The stream no longer starts at a frame boundary — a corrupted or
    // truncated frame upstream. There is no resync point inside a TCP
    // stream, so surface kDataLoss; the caller abandons the connection.
    SocketCounter("desync")->Increment();
    std::ostringstream os;
    os << "stream on " << name_ << " desynchronized: expected frame magic 0x"
       << std::hex << kFrameMagic << ", found 0x" << HeaderMagic(buf_.data())
       << std::dec << " with " << buf_.size() << " bytes buffered";
    buf_.clear();
    return DataLossError(os.str());
  }
  const uint64_t payload_len = HeaderPayloadLen(buf_.data());
  if (payload_len > kMaxSocketFramePayload) {
    SocketCounter("desync")->Increment();
    std::ostringstream os;
    os << "frame header on " << name_ << " announces " << payload_len
       << " payload bytes (cap " << kMaxSocketFramePayload
       << "); treating the stream as desynchronized";
    buf_.clear();
    return DataLossError(os.str());
  }
  const uint64_t total = kFrameHeaderBytes + payload_len;
  if (buf_.size() < total) return false;
  out->assign(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(total));
  buf_.erase(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(total));
  return true;
}

StatusOr<std::vector<uint8_t>> SocketChannel::Receive() {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point window_end =
      Clock::now() + std::chrono::milliseconds(io_poll_ms_);
  std::vector<uint8_t> frame;
  for (;;) {
    SKNN_ASSIGN_OR_RETURN(bool complete, ExtractFrame(&frame));
    if (complete) {
      SocketCounter("messages_received")->Increment();
      return frame;
    }
    SKNN_ASSIGN_OR_RETURN(bool read_any, ReadAvailable());
    if (read_any) continue;
    if (peer_eof_) {
      if (buf_.empty()) {
        return AbortedError("peer of " + name_ +
                            " disconnected (clean EOF at a frame boundary)");
      }
      const size_t leftover = buf_.size();
      buf_.clear();
      return DataLossError("connection " + name_ + " truncated mid-frame: " +
                           std::to_string(leftover) +
                           " bytes of an incomplete frame at EOF");
    }
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(
        window_end - Clock::now());
    if (left.count() <= 0) {
      return UnavailableError(
          "no complete frame on " + name_ + " within " +
          std::to_string(io_poll_ms_) + "ms poll window (" +
          std::to_string(buf_.size()) + " bytes buffered)");
    }
    // Sleep until more bytes (or EOF) arrive, never past the window.
    pollfd pfd{fd_, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left.count())) < 0 &&
        errno != EINTR) {
      return AbortedError("poll(POLLIN) on " + name_ + ": " +
                          strerror(errno));
    }
  }
}

StatusOr<bool> SocketChannel::WaitReadable(int timeout_ms) {
  if (!buf_.empty()) return true;
  if (fd_ < 0 || peer_eof_) {
    return AbortedError("peer of " + name_ + " disconnected");
  }
  pollfd pfd{fd_, POLLIN, 0};
  const int r = ::poll(&pfd, 1, timeout_ms);
  if (r < 0 && errno != EINTR) {
    return AbortedError("poll(POLLIN) on " + name_ + ": " + strerror(errno));
  }
  // A hangup also reports readable: Receive sorts EOF from data.
  return r > 0;
}

SocketListener::~SocketListener() { Close(); }

void SocketListener::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

StatusOr<std::unique_ptr<SocketListener>> SocketListener::Listen(
    const std::string& host, uint16_t port) {
  SKNN_ASSIGN_OR_RETURN(sockaddr_in addr, ResolveAddr(host, port));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return InternalError(std::string("socket: ") + strerror(errno));
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string err = strerror(errno);
    ::close(fd);
    return UnavailableError("bind " + host + ":" + std::to_string(port) +
                            ": " + err);
  }
  if (::listen(fd, 64) < 0) {
    const std::string err = strerror(errno);
    ::close(fd);
    return InternalError("listen: " + err);
  }
  Status nb = SetNonBlocking(fd);
  if (!nb.ok()) {
    ::close(fd);
    return nb;
  }
  sockaddr_in bound;
  socklen_t len = sizeof(bound);
  uint16_t actual_port = port;
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    actual_port = ntohs(bound.sin_port);
  }
  return std::unique_ptr<SocketListener>(
      new SocketListener(fd, actual_port));
}

StatusOr<std::unique_ptr<SocketChannel>> SocketListener::Accept(
    int timeout_ms, const std::string& name) {
  if (fd_ < 0) return FailedPreconditionError("accept on closed listener");
  pollfd pfd{fd_, POLLIN, 0};
  const int r = ::poll(&pfd, 1, timeout_ms);
  if (r < 0 && errno != EINTR) {
    return InternalError(std::string("poll(accept): ") + strerror(errno));
  }
  if (r <= 0) {
    return UnavailableError("no connection within " +
                            std::to_string(timeout_ms) + "ms accept window");
  }
  const int conn = ::accept(fd_, nullptr, nullptr);
  if (conn < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      return UnavailableError("connection vanished before accept");
    }
    return InternalError(std::string("accept: ") + strerror(errno));
  }
  SocketCounter("accepts")->Increment();
  return std::make_unique<SocketChannel>(conn, name);
}

StatusOr<std::unique_ptr<SocketChannel>> ConnectSocket(
    const std::string& host, uint16_t port, int timeout_ms,
    const std::string& name) {
  const std::string target = host.empty() ? "127.0.0.1" : host;
  SKNN_ASSIGN_OR_RETURN(sockaddr_in addr, ResolveAddr(target, port));
  if (addr.sin_addr.s_addr == htonl(INADDR_ANY)) {
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      return InternalError(std::string("socket: ") + strerror(errno));
    }
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      SocketCounter("connects")->Increment();
      return std::make_unique<SocketChannel>(fd, name);
    }
    const int saved = errno;
    ::close(fd);
    if (std::chrono::steady_clock::now() >= deadline) {
      return UnavailableError("connect " + target + ":" +
                              std::to_string(port) + " timed out after " +
                              std::to_string(timeout_ms) + "ms (" +
                              strerror(saved) + ")");
    }
    // The peer server may still be binding; retry until the deadline.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

SocketLink::~SocketLink() = default;

StatusOr<std::unique_ptr<SocketLink>> SocketLink::Create() {
  SKNN_ASSIGN_OR_RETURN(std::unique_ptr<SocketListener> listener,
                        SocketListener::Listen("127.0.0.1", 0));
  SKNN_ASSIGN_OR_RETURN(
      std::unique_ptr<SocketChannel> a,
      ConnectSocket("127.0.0.1", listener->port(), /*timeout_ms=*/2000,
                    "socket-link A"));
  SKNN_ASSIGN_OR_RETURN(
      std::unique_ptr<SocketChannel> b,
      listener->Accept(/*timeout_ms=*/2000, "socket-link B"));
  auto link = std::unique_ptr<SocketLink>(new SocketLink());
  link->a_ = std::move(a);
  link->b_ = std::move(b);
  link->a_counting_ = std::make_unique<CountingEndpoint>(
      link->a_.get(), &link->stats_, &link->last_direction_, /*is_a=*/true);
  link->b_counting_ = std::make_unique<CountingEndpoint>(
      link->b_.get(), &link->stats_, &link->last_direction_, /*is_a=*/false);
  return link;
}

}  // namespace net
}  // namespace sknn
