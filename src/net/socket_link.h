#ifndef SKNN_NET_SOCKET_LINK_H_
#define SKNN_NET_SOCKET_LINK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "net/channel.h"

// Socket-backed transport (PROTOCOL.md "Socket transport"). A
// `SocketChannel` carries the same framed envelopes as the in-memory link,
// written verbatim onto a TCP stream: the 32-byte frame header
// (net/frame.h) doubles as the stream delimiter, so the byte stream is a
// pure concatenation of SKNF frames and the receiver re-synchronizes by
// the header's `payload_len`. A corrupted header (bad magic, absurd
// length) is a typed kDataLoss — the caller abandons the poisoned stream
// and re-executes the query on a fresh connection.
//
// `Receive` waits for the frame at the head of the stream for at most one
// `io_poll_ms` window and returns the moment that frame is complete;
// kUnavailable means the window ended without one, and `ResilientChannel`
// polls again until its deadline, so a socket receive never sleeps past
// the arrival of its frame.
// Error taxonomy (everything transient per Status::IsTransient):
//   kUnavailable       no complete frame within the poll window
//   kAborted           peer disconnected at a frame boundary / send to a
//                      closed peer (ECONNRESET, EPIPE)
//   kDataLoss          peer closed mid-frame (truncated connection) or the
//                      stream desynchronized (bad magic / oversized length)
//
// Threading: one SocketChannel must be driven from one thread at a time
// (the servers give each connection and each worker its own channel).

namespace sknn {
namespace net {

// Largest payload a frame header may announce before the receiver calls
// the stream desynchronized. Generous: the biggest real message (an
// encrypted database unit) is a few MB.
inline constexpr uint64_t kMaxSocketFramePayload = uint64_t{1} << 30;

class SocketChannel : public Channel {
 public:
  // Takes ownership of `fd` (sets O_NONBLOCK and TCP_NODELAY). `name` tags
  // error messages ("A->B worker 3", "client 0", ...).
  SocketChannel(int fd, std::string name);
  ~SocketChannel() override;

  SocketChannel(const SocketChannel&) = delete;
  SocketChannel& operator=(const SocketChannel&) = delete;

  // Writes the message bytes onto the stream. The bytes are expected to be
  // one framed envelope (EncodeFrame) — the channel does not validate
  // this (fault injectors deliberately send corrupted frames) but the
  // receiving side can only delimit well-formed headers. Blocks only on a
  // full send buffer, poll-bounded; a peer reset is kAborted.
  Status Send(std::vector<uint8_t> message) override;

  // Returns the next complete frame (header + payload) from the stream as
  // soon as its last byte is in, waiting at most one poll window, or a
  // typed transient error (see file comment).
  StatusOr<std::vector<uint8_t>> Receive() override;

  // Waits up to `timeout_ms` for the stream to become readable (or for
  // buffered bytes). Lets servers idle on a connection between exchanges.
  // Returns false on timeout, kAborted when the peer disconnected.
  StatusOr<bool> WaitReadable(int timeout_ms);

  void Close();
  bool closed() const { return fd_ < 0; }
  const std::string& name() const { return name_; }

  // Per-receive poll window (milliseconds; 0 = never wait): the longest
  // one Receive waits.
  void set_io_poll_ms(int ms) { io_poll_ms_ = ms; }

 private:
  // Appends whatever the kernel holds to buf_ without waiting; true when
  // it read any bytes. Sets peer_eof_ when the peer is gone.
  StatusOr<bool> ReadAvailable();
  // Extracts one frame from buf_ if complete; nullopt-style via bool.
  StatusOr<bool> ExtractFrame(std::vector<uint8_t>* out);

  int fd_;
  std::string name_;
  int io_poll_ms_ = 20;
  bool peer_eof_ = false;
  std::vector<uint8_t> buf_;  // partial-frame reassembly
};

class SocketListener {
 public:
  // Binds and listens on host:port (port 0 = ephemeral; read the actual
  // one back with port()). SO_REUSEADDR is set; the accept socket is
  // non-blocking.
  static StatusOr<std::unique_ptr<SocketListener>> Listen(
      const std::string& host, uint16_t port);
  ~SocketListener();

  SocketListener(const SocketListener&) = delete;
  SocketListener& operator=(const SocketListener&) = delete;

  // Poll-bounded non-blocking accept: kUnavailable when no connection
  // arrived within `timeout_ms`. Increments `net.socket.accepts`.
  StatusOr<std::unique_ptr<SocketChannel>> Accept(int timeout_ms,
                                                  const std::string& name);

  uint16_t port() const { return port_; }
  void Close();

 private:
  SocketListener(int fd, uint16_t port) : fd_(fd), port_(port) {}
  int fd_;
  uint16_t port_;
};

// Poll-bounded TCP connect with retry until `timeout_ms` elapses (the
// peer server may still be binding). Returns a connected channel.
StatusOr<std::unique_ptr<SocketChannel>> ConnectSocket(
    const std::string& host, uint16_t port, int timeout_ms,
    const std::string& name);

// A loopback TCP pair with the same link interface as InMemoryLink: the
// two sockets wrapped in CountingEndpoints that share LinkStats. Used by
// SecureKnnSession's socket transport mode and by the chaos harness to
// run the full fault matrix over real sockets (a FaultyLink decorates the
// endpoints exactly as it decorates the in-memory ones).
//
// Threading contract: SINGLE-THREADED ONLY, like InMemoryLink — the
// stats/rounds accounting is unsynchronized and both endpoints must be
// driven from the session's thread.
class SocketLink {
 public:
  static StatusOr<std::unique_ptr<SocketLink>> Create();
  ~SocketLink();

  Channel* a_endpoint() { return a_counting_.get(); }
  Channel* b_endpoint() { return b_counting_.get(); }

  const LinkStats& stats() const { return stats_; }

 private:
  SocketLink() = default;

  std::unique_ptr<SocketChannel> a_;
  std::unique_ptr<SocketChannel> b_;
  std::unique_ptr<Channel> a_counting_;
  std::unique_ptr<Channel> b_counting_;
  LinkStats stats_;
  int last_direction_ = 0;
};

}  // namespace net
}  // namespace sknn

#endif  // SKNN_NET_SOCKET_LINK_H_
