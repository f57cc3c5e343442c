#include "net/channel.h"

#include <sstream>

#include "common/trace.h"

namespace sknn {
namespace net {

std::string LinkStats::DebugString() const {
  std::ostringstream os;
  os << "LinkStats{A->B " << messages_a_to_b << " msgs/" << bytes_a_to_b
     << " B, B->A " << messages_b_to_a << " msgs/" << bytes_b_to_a
     << " B, rounds=" << rounds << "}";
  return os.str();
}

Status CountingEndpoint::Send(std::vector<uint8_t> message) {
  trace::Tracer::Global().AddBytesSent(message.size());
  const int dir = is_a_ ? 1 : -1;
  if (*last_direction_ != dir) {
    ++stats_->rounds;
    *last_direction_ = dir;
  }
  if (is_a_) {
    ++stats_->messages_a_to_b;
    stats_->bytes_a_to_b += message.size();
  } else {
    ++stats_->messages_b_to_a;
    stats_->bytes_b_to_a += message.size();
  }
  return raw_->Send(std::move(message));
}

StatusOr<std::vector<uint8_t>> CountingEndpoint::Receive() {
  SKNN_ASSIGN_OR_RETURN(std::vector<uint8_t> msg, raw_->Receive());
  trace::Tracer::Global().AddBytesReceived(msg.size());
  return msg;
}

namespace {

// The raw in-memory endpoint: a pair of queues. `stats` (kept by the
// counting endpoint above it) only feeds the empty-queue diagnostic.
class QueueEndpoint : public Channel {
 public:
  QueueEndpoint(std::deque<std::vector<uint8_t>>* out,
                std::deque<std::vector<uint8_t>>* in, const LinkStats* stats,
                bool is_a)
      : out_(out), in_(in), stats_(stats), is_a_(is_a) {}

  Status Send(std::vector<uint8_t> message) override {
    out_->push_back(std::move(message));
    return Status::Ok();
  }

  StatusOr<std::vector<uint8_t>> Receive() override {
    if (in_->empty()) {
      // Report enough context to localize the desync: which direction ran
      // dry, how much traffic each direction has carried, and which
      // message index (the raw-link sequence number) the receiver expected
      // next.
      const uint64_t sent_to_us =
          is_a_ ? stats_->messages_b_to_a : stats_->messages_a_to_b;
      std::ostringstream os;
      os << "Receive on empty " << (is_a_ ? "B->A" : "A->B")
         << " queue at endpoint " << (is_a_ ? "A" : "B") << ": expected message #"
         << sent_to_us << " in this direction, but only " << sent_to_us
         << " were ever sent (A->B " << stats_->messages_a_to_b << " msgs, "
         << "B->A " << stats_->messages_b_to_a
         << " msgs so far); the message is still in flight, was dropped, or "
            "the protocol is desynchronized";
      return UnavailableError(os.str());
    }
    std::vector<uint8_t> msg = std::move(in_->front());
    in_->pop_front();
    return msg;
  }

 private:
  std::deque<std::vector<uint8_t>>* out_;
  std::deque<std::vector<uint8_t>>* in_;
  const LinkStats* stats_;
  bool is_a_;
};

}  // namespace

InMemoryLink::InMemoryLink()
    : a_queue_(std::make_unique<QueueEndpoint>(&a_to_b_, &b_to_a_, &stats_,
                                               /*is_a=*/true)),
      b_queue_(std::make_unique<QueueEndpoint>(&b_to_a_, &a_to_b_, &stats_,
                                               /*is_a=*/false)),
      a_(std::make_unique<CountingEndpoint>(a_queue_.get(), &stats_,
                                            &last_direction_, /*is_a=*/true)),
      b_(std::make_unique<CountingEndpoint>(b_queue_.get(), &stats_,
                                            &last_direction_,
                                            /*is_a=*/false)) {}

}  // namespace net
}  // namespace sknn
