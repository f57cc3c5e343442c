#ifndef SKNN_NET_CHANNEL_H_
#define SKNN_NET_CHANNEL_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"

// Simulated network layer between protocol parties. Messages are real byte
// buffers (serialized ciphertexts and keys); the link keeps per-direction
// byte and message counters plus a round counter (a round increments each
// time the direction of traffic flips), so benchmarks can report the
// communication columns of Table 1. Every Send/Receive also attributes the
// message size to the trace span active on the calling thread
// (common/trace.h), giving per-phase bandwidth in trace output.

namespace sknn {
namespace net {

// One endpoint's sending/receiving interface.
class Channel {
 public:
  virtual ~Channel() = default;

  virtual Status Send(std::vector<uint8_t> message) = 0;
  virtual StatusOr<std::vector<uint8_t>> Receive() = 0;
};

struct LinkStats {
  uint64_t messages_a_to_b = 0;
  uint64_t messages_b_to_a = 0;
  uint64_t bytes_a_to_b = 0;
  uint64_t bytes_b_to_a = 0;
  // Number of direction flips (the paper's "round communications").
  uint64_t rounds = 0;

  uint64_t total_bytes() const { return bytes_a_to_b + bytes_b_to_a; }
  LinkStats& operator+=(const LinkStats& other) {
    messages_a_to_b += other.messages_a_to_b;
    messages_b_to_a += other.messages_b_to_a;
    bytes_a_to_b += other.bytes_a_to_b;
    bytes_b_to_a += other.bytes_b_to_a;
    rounds += other.rounds;
    return *this;
  }
  std::string DebugString() const;
};

// One endpoint of a two-party link with Table 1 accounting: each Send
// counts its message and bytes in its direction, and a round whenever the
// direction of traffic flips, in the link's shared LinkStats; Send and
// Receive attribute the message size to the active trace span. The raw
// endpoint underneath (an in-memory queue or a socket) moves the bytes.
// Single-threaded, like the links that own it.
class CountingEndpoint : public Channel {
 public:
  // `last_direction` is shared by the link's two endpoints: +1 = last
  // traffic flowed A->B, -1 = B->A, 0 = none yet.
  CountingEndpoint(Channel* raw, LinkStats* stats, int* last_direction,
                   bool is_a)
      : raw_(raw),
        stats_(stats),
        last_direction_(last_direction),
        is_a_(is_a) {}

  Status Send(std::vector<uint8_t> message) override;
  StatusOr<std::vector<uint8_t>> Receive() override;

 private:
  Channel* raw_;
  LinkStats* stats_;
  int* last_direction_;
  bool is_a_;
};

// An in-process bidirectional link between two parties A and B.
//
// Threading contract: SINGLE-THREADED ONLY. The deques, stats, and
// direction flag are unsynchronized; both endpoints must be driven from
// one thread (the session runs both parties on the caller's thread, and
// the retry layer in net/resilient_channel.h polls on that same thread).
// Decorate with your own locking before sharing a link across threads —
// a mutex here would suggest a cross-thread rendezvous semantics
// (blocking receive) that this in-memory simulation deliberately does not
// provide.
//
// Receive on an empty queue returns kUnavailable (transient: with a
// fault-injecting decorator the message may be delayed or dropped, and
// the caller's poll/retry loop decides when to give up); the error text
// reports the direction, per-direction message counts, and the index of
// the message the receiver was expecting.
class InMemoryLink {
 public:
  InMemoryLink();

  Channel* a_endpoint() { return a_.get(); }
  Channel* b_endpoint() { return b_.get(); }

  const LinkStats& stats() const { return stats_; }

 private:
  std::deque<std::vector<uint8_t>> a_to_b_;
  std::deque<std::vector<uint8_t>> b_to_a_;
  LinkStats stats_;
  int last_direction_ = 0;

  std::unique_ptr<Channel> a_queue_;
  std::unique_ptr<Channel> b_queue_;
  std::unique_ptr<Channel> a_;
  std::unique_ptr<Channel> b_;
};

}  // namespace net
}  // namespace sknn

#endif  // SKNN_NET_CHANNEL_H_
