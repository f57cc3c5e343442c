#ifndef SKNN_NET_FAULTY_LINK_H_
#define SKNN_NET_FAULTY_LINK_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/statusor.h"
#include "net/channel.h"

// Deterministic fault injection for any Channel pair (the chaos harness of
// DESIGN.md §8). FaultyLink decorates both directions of a link with
// seeded, per-direction injection of the classic network failure modes:
//
//   drop     message vanishes (receiver eventually times out)
//   dup      message is delivered twice (same frame bytes, same seq)
//   flip     1-8 random bit flips in the wire bytes
//   trunc    wire bytes cut at a random point
//   reorder  message held back and released after the next send (or on a
//            receive poll, so the tail message of a leg cannot starve)
//   delay    message hidden for `delay_polls` receive polls, exercising the
//            receiver's poll budget
//
// Injection decisions come from a Chacha20Rng fork per direction, so a
// given (seed, traffic) pair replays bit-identically. Every injected fault
// increments a `net.faults.*` counter in MetricsRegistry::Global().
// Single-threaded, like the InMemoryLink it typically decorates.

namespace sknn {
namespace net {

struct FaultSpec {
  // Each probability is evaluated independently per message, in [0, 1].
  double drop = 0;
  double dup = 0;
  double flip = 0;
  double trunc = 0;
  double reorder = 0;
  double delay = 0;
  // How many receive polls a delayed message stays hidden.
  int delay_polls = 3;

  bool any() const {
    return drop > 0 || dup > 0 || flip > 0 || trunc > 0 || reorder > 0 ||
           delay > 0;
  }
  std::string DebugString() const;
};

// Parses "mode:prob[,mode:prob...]" with modes drop|dup|flip|trunc|reorder|
// delay; delay accepts an optional third field "delay:PROB:POLLS".
// Examples: "drop:0.05,flip:0.01", "delay:0.2:4". Empty string -> no
// faults. Probabilities outside [0,1] or unknown modes are
// InvalidArgument.
StatusOr<FaultSpec> ParseFaultSpec(const std::string& spec);

class FaultyLink {
 public:
  // `a_raw` / `b_raw` are the two endpoints of the undecorated link (e.g.
  // InMemoryLink::a_endpoint()/b_endpoint()). The decorated endpoints
  // returned by a_endpoint()/b_endpoint() must be used *instead of* the raw
  // ones; mixing raw and decorated calls skips injection and staging.
  FaultyLink(Channel* a_raw, Channel* b_raw, const FaultSpec& a_to_b,
             const FaultSpec& b_to_a, uint64_t seed);

  Channel* a_endpoint() { return a_.get(); }
  Channel* b_endpoint() { return b_.get(); }

  // Total number of injected faults so far (all modes, both directions).
  uint64_t faults_injected() const { return faults_injected_; }

 private:
  friend class FaultyEndpointImpl;

  struct Direction {
    FaultSpec spec;
    Channel* raw_sender = nullptr;  // raw endpoint whose Send feeds this dir
    Chacha20Rng rng{uint64_t{0}};
    // One-slot reorder hold and the delayed-message queue (message,
    // remaining polls).
    bool has_hold = false;
    std::vector<uint8_t> hold;
    std::deque<std::pair<std::vector<uint8_t>, int>> delayed;
  };

  Status InjectAndSend(Direction* dir, std::vector<uint8_t> message);
  // Called on every receive poll of `dir`'s receiving endpoint: ages the
  // delayed queue and flushes expired (and, when the raw queue ran dry,
  // held) messages into the raw link.
  void OnReceivePoll(Direction* dir, bool raw_queue_empty);

  bool Chance(Direction* dir, double p);

  Direction ab_;
  Direction ba_;
  uint64_t faults_injected_ = 0;
  std::unique_ptr<Channel> a_;
  std::unique_ptr<Channel> b_;
};

}  // namespace net
}  // namespace sknn

#endif  // SKNN_NET_FAULTY_LINK_H_
