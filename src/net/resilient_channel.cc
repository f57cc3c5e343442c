#include "net/resilient_channel.h"

#include <chrono>
#include <sstream>

#include "common/metrics_registry.h"

namespace sknn {
namespace net {
namespace {

// A reorder stash larger than this means the expected frame is not coming
// (e.g. it was dropped and everything behind it piled up).
constexpr size_t kMaxStashedFrames = 64;

MetricsRegistry::Counter* NetCounter(const char* name) {
  return MetricsRegistry::Global().GetCounter(name);
}

}  // namespace

ResilientChannel::ResilientChannel(Channel* inner, const RetryPolicy& policy,
                                   uint64_t /*id*/, std::string name)
    : inner_(inner), policy_(policy), name_(std::move(name)) {}

Status ResilientChannel::SendMessage(MessageType type,
                                     const std::vector<uint8_t>& payload) {
  static MetricsRegistry::Counter* sent = NetCounter("net.frames.sent");
  static MetricsRegistry::Counter* overhead =
      NetCounter("net.frames.overhead_bytes");
  sent->Increment();
  overhead->Add(kFrameHeaderBytes);
  return inner_->Send(EncodeFrame(type, send_seq_++, payload));
}

StatusOr<Frame> ResilientChannel::ReceiveFrame() {
  static MetricsRegistry::Counter* received =
      NetCounter("net.frames.received");
  static MetricsRegistry::Counter* corrupt = NetCounter("net.corrupt_frames");
  static MetricsRegistry::Counter* retries = NetCounter("net.retries");
  static MetricsRegistry::Counter* dup_dropped =
      NetCounter("net.frames.duplicates_dropped");
  static MetricsRegistry::Counter* held =
      NetCounter("net.frames.reordered_held");

  int polls = 0;
  for (;;) {
    auto it = stash_.find(next_recv_seq_);
    if (it != stash_.end()) {
      Frame frame = std::move(it->second);
      stash_.erase(it);
      next_recv_seq_ = frame.seq + 1;
      return frame;
    }
    if (has_deadline_ &&
        std::chrono::steady_clock::now() >= deadline_) {
      std::ostringstream os;
      os << "endpoint " << name_ << " deadline expired while waiting for "
         << "frame seq " << next_recv_seq_;
      return DeadlineExceededError(os.str());
    }
    auto raw = inner_->Receive();
    if (!raw.ok()) {
      // Only an empty poll is worth another poll. A closed peer (kAborted)
      // or a broken stream (kDataLoss) will not heal on this channel:
      // surface it right away instead of burning the poll budget (the
      // caller's reconnect/re-execution layer owns recovery).
      if (raw.status().code() != StatusCode::kUnavailable) {
        return std::move(raw).status();
      }
      if (!has_deadline_ && ++polls >= policy_.max_receive_polls) {
        std::ostringstream os;
        os << "endpoint " << name_ << " timed out waiting for "
           << "frame seq " << next_recv_seq_ << " after "
           << policy_.max_receive_polls
           << " polls (message lost or delayed); inner channel: "
           << raw.status().message();
        return DeadlineExceededError(os.str());
      }
      retries->Increment();
      continue;
    }
    auto frame = DecodeFrame(std::move(raw).value());
    if (!frame.ok()) {
      corrupt->Increment();
      return std::move(frame).status();
    }
    received->Increment();
    if (frame->seq < next_recv_seq_) {
      dup_dropped->Increment();
      continue;  // duplicate or stale copy: consume silently
    }
    if (frame->seq > next_recv_seq_) {
      held->Increment();
      stash_.emplace(frame->seq, std::move(frame).value());
      if (stash_.size() > kMaxStashedFrames) {
        std::ostringstream os;
        os << "endpoint " << name_ << " desynchronized: " << stash_.size()
           << " frames stashed ahead of expected seq " << next_recv_seq_
           << " (a frame was lost and traffic piled up behind it)";
        return DataLossError(os.str());
      }
      continue;
    }
    next_recv_seq_ = frame->seq + 1;
    return std::move(frame).value();
  }
}

StatusOr<std::vector<uint8_t>> ResilientChannel::ReceiveMessage(
    MessageType expected) {
  SKNN_ASSIGN_OR_RETURN(Frame frame, ReceiveFrame());
  if (frame.type != expected) {
    std::ostringstream os;
    os << "endpoint " << name_ << " desynchronized: expected a "
       << MessageTypeToString(expected) << " frame, got "
       << MessageTypeToString(frame.type) << " (seq " << frame.seq << ")";
    return DataLossError(os.str());
  }
  return std::move(frame.payload);
}

void ResilientChannel::ResetEpoch() {
  send_seq_ = 0;
  next_recv_seq_ = 0;
  stash_.clear();
}

}  // namespace net
}  // namespace sknn
