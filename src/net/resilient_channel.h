#ifndef SKNN_NET_RESILIENT_CHANNEL_H_
#define SKNN_NET_RESILIENT_CHANNEL_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "net/channel.h"
#include "net/frame.h"

// Reliability layer over any Channel (PROTOCOL.md "Frame envelope &
// recovery"). ResilientChannel frames every outgoing message
// (net/frame.h) and enforces strict in-order, exactly-once delivery on the
// receive side:
//
//   * empty queue    -> poll again until the channel's deadline passes,
//                       then kDeadlineExceeded; a channel with no deadline
//                       (the in-process session) gives up after
//                       `max_receive_polls` polls instead. There is no
//                       sleep between polls: the inner channel's Receive
//                       is the only wait (a socket blocks for up to its
//                       poll window and returns the moment a frame
//                       completes; the in-memory link never waits);
//   * corrupt frame  -> kDataLoss immediately (the caller re-executes the
//                       query on a fresh transport); any other inner
//                       error (a closed peer, a stream that lost framing)
//                       is likewise returned at once;
//   * duplicate      -> silently consumed (seq below the expected one);
//   * reordered      -> stashed until its sequence number comes up;
//   * desync         -> a valid frame of the wrong MessageType or a stash
//                       overflow is kDataLoss with a diagnostic.
//
// All failure codes are classified by Status::IsTransient(): everything a
// query re-execution can cure is transient; a frame-version mismatch is
// fatal.
// Counters: net.frames.sent/received, net.frames.overhead_bytes,
// net.frames.duplicates_dropped, net.frames.reordered_held,
// net.corrupt_frames, net.retries (empty receive polls).

namespace sknn {
namespace net {

struct RetryPolicy {
  // Receive polls per message before kDeadlineExceeded, on a channel with
  // no deadline only: in-memory links have no clock, so the in-process
  // session counts polls and its fault tests stay deterministic. Once a
  // deadline is set, only the clock ends a receive.
  int max_receive_polls = 16;
  // Whole-query re-executions after a transient failure: the session and
  // Party A's workers re-run a query from PartyA::StartQuery on a fresh
  // transport (fresh mask and permutation; DESIGN.md §8.3) at most this
  // many times before surfacing the typed error.
  int max_query_reexecutions = 1;
};

class ResilientChannel {
 public:
  // Does not take ownership of `inner`. `name` tags error messages and
  // trace spans (e.g. "A" / "B"). `id` is not used by the channel; it
  // stays in the signature so existing callers keep compiling.
  ResilientChannel(Channel* inner, const RetryPolicy& policy, uint64_t id,
                   std::string name);

  // The type tag is checked on receive, turning a desynchronized peer
  // into a typed error instead of a ciphertext misparse.
  Status SendMessage(MessageType type, const std::vector<uint8_t>& payload);
  StatusOr<std::vector<uint8_t>> ReceiveMessage(MessageType expected);

  // The next in-order frame with its type tag intact. For receivers that
  // legitimately accept more than one MessageType at a point in the
  // protocol (the head of a served exchange: control preambles, then a
  // query, a distance frame or a heartbeat probe); everything else should
  // use the typed ReceiveMessage.
  StatusOr<Frame> ReceiveFrame();

  // Resets both sequence spaces and drops the reorder stash. Only safe at
  // an exchange boundary, when no frame of the old epoch is in flight;
  // both ends of a server connection reset before each query.
  void ResetEpoch();

  // Absolute deadline for every subsequent receive: a receive polls until
  // its frame arrives or the deadline passes (kDeadlineExceeded), however
  // many polls that takes. This is how a query's deadline bounds each
  // protocol leg. ResetEpoch does NOT clear it (the deadline belongs to
  // the query, the epoch to the connection).
  void set_deadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_ = true;
  }

 private:
  Channel* inner_;
  RetryPolicy policy_;
  std::string name_;
  uint64_t send_seq_ = 0;
  uint64_t next_recv_seq_ = 0;
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
  // Frames that arrived ahead of their turn, keyed by sequence number.
  std::map<uint64_t, Frame> stash_;
};

}  // namespace net
}  // namespace sknn

#endif  // SKNN_NET_RESILIENT_CHANNEL_H_
