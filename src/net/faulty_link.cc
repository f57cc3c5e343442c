#include "net/faulty_link.h"

#include <cstdlib>
#include <sstream>

#include "common/metrics_registry.h"

namespace sknn {
namespace net {
namespace {

MetricsRegistry::Counter* FaultCounter(const char* mode) {
  return MetricsRegistry::Global().GetCounter(std::string("net.faults.") +
                                              mode);
}

}  // namespace

std::string FaultSpec::DebugString() const {
  std::ostringstream os;
  os << "FaultSpec{";
  const char* sep = "";
  auto emit = [&](const char* name, double p) {
    if (p > 0) {
      os << sep << name << ":" << p;
      sep = ",";
    }
  };
  emit("drop", drop);
  emit("dup", dup);
  emit("flip", flip);
  emit("trunc", trunc);
  emit("reorder", reorder);
  if (delay > 0) {
    os << sep << "delay:" << delay << ":" << delay_polls;
    sep = ",";
  }
  os << "}";
  return os.str();
}

StatusOr<FaultSpec> ParseFaultSpec(const std::string& spec) {
  FaultSpec out;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) continue;
    const size_t colon = entry.find(':');
    if (colon == std::string::npos) {
      return InvalidArgumentError("fault spec entry '" + entry +
                                  "' is not mode:prob");
    }
    const std::string mode = entry.substr(0, colon);
    std::string prob_str = entry.substr(colon + 1);
    std::string polls_str;
    const size_t colon2 = prob_str.find(':');
    if (colon2 != std::string::npos) {
      polls_str = prob_str.substr(colon2 + 1);
      prob_str = prob_str.substr(0, colon2);
    }
    char* end = nullptr;
    const double p = std::strtod(prob_str.c_str(), &end);
    if (end == prob_str.c_str() || *end != '\0' || p < 0 || p > 1) {
      return InvalidArgumentError("fault spec probability '" + prob_str +
                                  "' is not in [0,1]");
    }
    if (!polls_str.empty() && mode != "delay") {
      return InvalidArgumentError("only delay takes a poll count: '" + entry +
                                  "'");
    }
    if (mode == "drop") {
      out.drop = p;
    } else if (mode == "dup") {
      out.dup = p;
    } else if (mode == "flip") {
      out.flip = p;
    } else if (mode == "trunc") {
      out.trunc = p;
    } else if (mode == "reorder") {
      out.reorder = p;
    } else if (mode == "delay") {
      out.delay = p;
      if (!polls_str.empty()) {
        const long polls = std::strtol(polls_str.c_str(), &end, 10);
        if (end == polls_str.c_str() || *end != '\0' || polls < 1 ||
            polls > 1000) {
          return InvalidArgumentError("delay poll count '" + polls_str +
                                      "' is not in [1,1000]");
        }
        out.delay_polls = static_cast<int>(polls);
      }
    } else {
      return InvalidArgumentError(
          "unknown fault mode '" + mode +
          "' (expected drop|dup|flip|trunc|reorder|delay)");
    }
  }
  return out;
}

// Not in an anonymous namespace: it must match the friend declaration in
// faulty_link.h to reach the link's injection/staging internals.
class FaultyEndpointImpl : public Channel {
 public:
  FaultyEndpointImpl(FaultyLink* link, FaultyLink::Direction* out,
                     FaultyLink::Direction* in, Channel* raw_receiver)
      : link_(link), out_(out), in_(in), raw_receiver_(raw_receiver) {}

  Status Send(std::vector<uint8_t> message) override {
    return link_->InjectAndSend(out_, std::move(message));
  }

  StatusOr<std::vector<uint8_t>> Receive() override {
    // Age the incoming direction's staged messages, flushing any whose
    // time has come, then read the raw queue.
    link_->OnReceivePoll(in_, /*raw_queue_empty=*/false);
    auto msg = raw_receiver_->Receive();
    if (!msg.ok()) {
      // Raw queue dry: release a held reorder message (if any) so the
      // last message of a leg cannot starve, and let the caller poll
      // again.
      link_->OnReceivePoll(in_, /*raw_queue_empty=*/true);
      return msg;
    }
    return msg;
  }

 private:
  FaultyLink* link_;
  FaultyLink::Direction* out_;
  FaultyLink::Direction* in_;
  Channel* raw_receiver_;
};

FaultyLink::FaultyLink(Channel* a_raw, Channel* b_raw,
                       const FaultSpec& a_to_b, const FaultSpec& b_to_a,
                       uint64_t seed) {
  Chacha20Rng root(seed);
  ab_.spec = a_to_b;
  ab_.raw_sender = a_raw;
  ab_.rng = root.Fork(1);
  ba_.spec = b_to_a;
  ba_.raw_sender = b_raw;
  ba_.rng = root.Fork(2);
  a_ = std::make_unique<FaultyEndpointImpl>(this, &ab_, &ba_, a_raw);
  b_ = std::make_unique<FaultyEndpointImpl>(this, &ba_, &ab_, b_raw);
}

bool FaultyLink::Chance(Direction* dir, double p) {
  if (p <= 0) return false;
  if (p >= 1) return true;
  // 2^-32 resolution is plenty for test probabilities.
  return dir->rng.NextU32() <
         static_cast<uint32_t>(p * 4294967296.0);
}

Status FaultyLink::InjectAndSend(Direction* dir, std::vector<uint8_t> message) {
  static MetricsRegistry::Counter* drop_c = FaultCounter("drop");
  static MetricsRegistry::Counter* dup_c = FaultCounter("duplicate");
  static MetricsRegistry::Counter* flip_c = FaultCounter("bitflip");
  static MetricsRegistry::Counter* trunc_c = FaultCounter("truncate");
  static MetricsRegistry::Counter* reorder_c = FaultCounter("reorder");
  static MetricsRegistry::Counter* delay_c = FaultCounter("delay");

  if (Chance(dir, dir->spec.drop)) {
    drop_c->Increment();
    ++faults_injected_;
    return Status::Ok();  // vanishes; the receiver's poll loop times out
  }
  int copies = 1;
  if (Chance(dir, dir->spec.dup)) {
    dup_c->Increment();
    ++faults_injected_;
    copies = 2;
  }
  for (int c = 0; c < copies; ++c) {
    std::vector<uint8_t> wire = message;  // corrupt each copy independently
    if (!wire.empty() && Chance(dir, dir->spec.flip)) {
      flip_c->Increment();
      ++faults_injected_;
      const uint64_t flips = 1 + dir->rng.UniformBelow(8);
      for (uint64_t f = 0; f < flips; ++f) {
        const uint64_t bit = dir->rng.UniformBelow(wire.size() * 8);
        wire[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      }
    }
    if (!wire.empty() && Chance(dir, dir->spec.trunc)) {
      trunc_c->Increment();
      ++faults_injected_;
      wire.resize(dir->rng.UniformBelow(wire.size()));
    }
    if (Chance(dir, dir->spec.delay)) {
      delay_c->Increment();
      ++faults_injected_;
      dir->delayed.emplace_back(std::move(wire), dir->spec.delay_polls);
      continue;
    }
    if (dir->has_hold) {
      // A message was held for reordering: emit the new one first, then
      // the held one — the pair arrives swapped.
      SKNN_RETURN_IF_ERROR(dir->raw_sender->Send(std::move(wire)));
      dir->has_hold = false;
      SKNN_RETURN_IF_ERROR(dir->raw_sender->Send(std::move(dir->hold)));
      continue;
    }
    if (Chance(dir, dir->spec.reorder)) {
      reorder_c->Increment();
      ++faults_injected_;
      dir->hold = std::move(wire);
      dir->has_hold = true;
      continue;
    }
    SKNN_RETURN_IF_ERROR(dir->raw_sender->Send(std::move(wire)));
  }
  return Status::Ok();
}

void FaultyLink::OnReceivePoll(Direction* dir, bool raw_queue_empty) {
  if (raw_queue_empty) {
    if (dir->has_hold) {
      dir->has_hold = false;
      (void)dir->raw_sender->Send(std::move(dir->hold));
    }
    return;
  }
  for (auto& entry : dir->delayed) --entry.second;
  while (!dir->delayed.empty() && dir->delayed.front().second <= 0) {
    (void)dir->raw_sender->Send(std::move(dir->delayed.front().first));
    dir->delayed.pop_front();
  }
}

}  // namespace net
}  // namespace sknn
