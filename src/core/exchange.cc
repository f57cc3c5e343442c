#include "core/exchange.h"

#include <charconv>

#include "bgv/noise_model.h"
#include "bgv/serialization.h"
#include "bgv/symmetric.h"
#include "common/trace.h"
#include "common/trace_id.h"

namespace sknn {
namespace core {
namespace {

constexpr const char* kTracePrefix = "trace id=";
constexpr const char* kDeadlinePrefix = "deadline budget_ms=";
constexpr int kMaxPreambles = 4;

Status SendPreamble(const std::string& text, net::ResilientChannel* ch) {
  return ch->SendMessage(net::MessageType::kControl,
                         std::vector<uint8_t>(text.begin(), text.end()));
}

// "trace id=HEX"; false on a malformed or zero id.
bool ParseTracePreamble(const std::string& preamble, uint64_t* trace_id) {
  const size_t prefix_len = std::string(kTracePrefix).size();
  if (preamble.rfind(kTracePrefix, 0) != 0) return false;
  *trace_id = trace::ParseTraceIdHex(preamble.data() + prefix_len,
                                     preamble.data() + preamble.size());
  return *trace_id != 0;
}

// "deadline budget_ms=N", N <= kMaxDeadlineBudgetMs; false on malformed.
bool ParseDeadlinePreamble(const std::string& preamble, uint64_t* budget_ms) {
  const size_t prefix_len = std::string(kDeadlinePrefix).size();
  if (preamble.rfind(kDeadlinePrefix, 0) != 0) return false;
  const char* b = preamble.data() + prefix_len;
  const char* e = preamble.data() + preamble.size();
  auto [ptr, ec] = std::from_chars(b, e, *budget_ms);
  return ec == std::errc() && ptr == e && b != e &&
         *budget_ms <= kMaxDeadlineBudgetMs;
}

// Adds one driver call to phase `name` of `record` (if any) on every exit
// path: its wall time, received bytes and noise minimum (-1 = none).
struct PhaseScope {
  using Clock = std::chrono::steady_clock;
  FlightRecord* record;
  const char* name;
  uint64_t bytes_received = 0;
  double min_budget_bits = -1;
  Clock::time_point start = Clock::now();
  ~PhaseScope() {
    if (!record) return;
    const std::chrono::duration<double> seconds = Clock::now() - start;
    record->AddToPhase(name, seconds.count(), bytes_received, min_budget_bits);
  }
};

StatusOr<bgv::Ciphertext> DecodeIndicator(const bgv::BgvContext& ctx,
                                          std::vector<uint8_t> bytes) {
  // ExpandSeeded stamps the symmetric-encryption noise bound itself.
  ByteSource src(std::move(bytes));
  SKNN_ASSIGN_OR_RETURN(bgv::SeededCiphertext seeded,
                        bgv::ReadSeededCiphertext(&src));
  return bgv::ExpandSeeded(ctx, seeded);
}

}  // namespace

std::vector<uint8_t> CtToBytes(const bgv::Ciphertext& ct) {
  ByteSink sink;
  bgv::WriteCiphertext(ct, &sink);
  return sink.TakeBytes();
}

StatusOr<bgv::Ciphertext> CtFromBytes(std::vector<uint8_t> bytes) {
  ByteSource src(std::move(bytes));
  return bgv::ReadCiphertext(&src);
}

StatusOr<bgv::Ciphertext> FreshCtFromBytes(const bgv::BgvContext& ctx,
                                           std::vector<uint8_t> bytes) {
  SKNN_ASSIGN_OR_RETURN(bgv::Ciphertext ct, CtFromBytes(std::move(bytes)));
  ct.noise_bits = bgv::NoiseModel(ctx).FreshPkNoiseBits();
  return ct;
}

Status SendPreambles(uint64_t trace_id, uint64_t budget_ms,
                     net::ResilientChannel* ch) {
  if (trace_id != 0) {
    SKNN_RETURN_IF_ERROR(SendPreamble(
        std::string(kTracePrefix) + trace::TraceIdHex(trace_id), ch));
  }
  if (budget_ms > 0) {
    SKNN_RETURN_IF_ERROR(SendPreamble(
        std::string(kDeadlinePrefix) + std::to_string(budget_ms), ch));
  }
  return Status::Ok();
}

StatusOr<ExchangeHead> ReadExchangeHead(net::ResilientChannel* ch) {
  ExchangeHead head;
  SKNN_ASSIGN_OR_RETURN(head.frame, ch->ReceiveFrame());
  for (int preambles = 0; head.frame.type == net::MessageType::kControl;
       ++preambles) {
    const std::string preamble(head.frame.payload.begin(),
                               head.frame.payload.end());
    if (preambles >= kMaxPreambles) {
      return DataLossError("more than " + std::to_string(kMaxPreambles) +
                           " control preambles ahead of the payload frame");
    }
    uint64_t budget_ms = 0;
    if (ParseDeadlinePreamble(preamble, &budget_ms)) {
      head.deadline = std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(budget_ms);
    } else if (!ParseTracePreamble(preamble, &head.trace_id)) {
      return DataLossError("malformed or unknown control preamble: " +
                           preamble);
    }
    SKNN_ASSIGN_OR_RETURN(head.frame, ch->ReceiveFrame());
  }
  return head;
}

bool MayReexecute(const Status& status, int reexecutions,
                  const net::RetryPolicy& policy) {
  return status.IsTransient() && reexecutions < policy.max_query_reexecutions;
}

StatusOr<std::unique_ptr<PartyA::Query>> StartQuery(
    PartyA* party_a, const bgv::Ciphertext& query_ct,
    const PartyA::CancelCheck& cancel, FlightRecord* record) {
  PhaseScope phase{record, kComputeDistancesPhase};
  SKNN_ASSIGN_OR_RETURN(std::unique_ptr<PartyA::Query> query,
                        party_a->StartQuery(query_ct, cancel));
  phase.min_budget_bits = query->distance_budget();
  return query;
}

Status SendDistances(const PartyA::Query& query, uint64_t trace_id,
                     net::ResilientChannel* ch, FlightRecord* record) {
  PhaseScope phase{record, kFindNeighboursPhase};
  trace::TraceSpan span("transfer.distances");
  SKNN_RETURN_IF_ERROR(SendPreambles(trace_id, /*budget_ms=*/0, ch));
  for (const bgv::Ciphertext& ct : query.distances()) {
    SKNN_RETURN_IF_ERROR(
        ch->SendMessage(net::MessageType::kDistances, CtToBytes(ct)));
  }
  return Status::Ok();
}

Status BeginReturnPhase(size_t k, PartyA::Query* query,
                        FlightRecord* record) {
  PhaseScope phase{record, kReturnKnnPhase};
  return query->BeginReturnPhase(k);
}

Status AbsorbIndicatorRow(const bgv::BgvContext& ctx, size_t j,
                          PartyA::Query* query, net::ResilientChannel* ch,
                          FlightRecord* record) {
  PhaseScope phase{record, kReturnKnnPhase};
  const size_t units = query->distances().size();
  for (size_t pos = 0; pos < units; ++pos) {
    std::vector<uint8_t> bytes;
    {
      trace::TraceSpan span("transfer.indicators");
      SKNN_ASSIGN_OR_RETURN(
          bytes, ch->ReceiveMessage(net::MessageType::kIndicators));
    }
    phase.bytes_received += net::kFrameHeaderBytes + bytes.size();
    SKNN_ASSIGN_OR_RETURN(bgv::Ciphertext indicator,
                          DecodeIndicator(ctx, std::move(bytes)));
    SKNN_RETURN_IF_ERROR(query->AbsorbIndicator(j, pos, indicator));
  }
  phase.min_budget_bits = query->absorb_budget();
  return Status::Ok();
}

StatusOr<std::vector<std::vector<uint8_t>>> FinalizeResults(
    size_t k, PartyA::Query* query, FlightRecord* record) {
  PhaseScope phase{record, kReturnKnnPhase};
  SKNN_ASSIGN_OR_RETURN(std::vector<bgv::Ciphertext> results,
                        query->FinalizeResults(k));
  phase.min_budget_bits = query->retrieve_budget();
  std::vector<std::vector<uint8_t>> payloads;
  payloads.reserve(k);
  for (const bgv::Ciphertext& ct : results) payloads.push_back(CtToBytes(ct));
  return payloads;
}

StatusOr<size_t> ReceiveDistancesAndSelect(
    size_t units, size_t k, PartyB* party_b, net::ResilientChannel* ch,
    FlightRecord* record, std::optional<std::vector<uint8_t>> first_payload) {
  PhaseScope phase{record, kFindNeighboursPhase};
  std::vector<bgv::Ciphertext> received;
  received.reserve(units);
  {
    trace::TraceSpan span("transfer.distances");
    while (received.size() < units) {
      std::vector<uint8_t> bytes;
      if (first_payload) {
        bytes = std::move(*first_payload);
        first_payload.reset();
      } else {
        SKNN_ASSIGN_OR_RETURN(
            bytes, ch->ReceiveMessage(net::MessageType::kDistances));
      }
      phase.bytes_received += net::kFrameHeaderBytes + bytes.size();
      SKNN_ASSIGN_OR_RETURN(bgv::Ciphertext ct, CtFromBytes(std::move(bytes)));
      received.push_back(std::move(ct));
    }
  }
  SKNN_ASSIGN_OR_RETURN(size_t effective_k,
                        party_b->FindNeighbours(received, k));
  phase.min_budget_bits = party_b->exact_distance_budget();
  return effective_k;
}

Status SendIndicatorRow(size_t j, PartyB* party_b, net::ResilientChannel* ch,
                        FlightRecord* record) {
  PhaseScope phase{record, kFindNeighboursPhase};
  // B encrypts the whole row in one parallel batch (per-position RNG
  // forks keep the transcript deterministic), then streams it, one frame
  // per indicator.
  SKNN_ASSIGN_OR_RETURN(std::vector<bgv::SeededCiphertext> row,
                        party_b->EmitIndicatorsCompressedForResult(j));
  for (const bgv::SeededCiphertext& ct : row) {
    ByteSink sink;
    bgv::WriteSeededCiphertext(ct, &sink);
    trace::TraceSpan span("transfer.indicators");
    SKNN_RETURN_IF_ERROR(
        ch->SendMessage(net::MessageType::kIndicators, sink.bytes()));
  }
  return Status::Ok();
}

}  // namespace core
}  // namespace sknn
