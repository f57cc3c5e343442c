#ifndef SKNN_CORE_EXCHANGE_H_
#define SKNN_CORE_EXCHANGE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bgv/ciphertext.h"
#include "bgv/context.h"
#include "common/flight_recorder.h"
#include "common/status.h"
#include "common/statusor.h"
#include "core/party_a.h"
#include "core/party_b.h"
#include "net/frame.h"
#include "net/resilient_channel.h"

// The A<->B half of one query (Figure 2 labels 5-9; messages 2 and 3 of
// PROTOCOL.md), written once at phase granularity. Every caller drives
// the same phases in the same order:
//
//   A  SendDistances ──── u × kDistances ───▶ B  ReceiveDistancesAndSelect
//   A  AbsorbIndicatorRow(j) ◀─ u × kIndicators ─ B  SendIndicatorRow(j)
//                                                  (for j < effective k)
//   A  FinalizeResults (after the last row: the k results as one batch
//      on A's pool)
//
// SecureKnnSession sequences both sides on one thread (A sends, B
// selects, then per row B sends and A absorbs), so the in-memory links
// stay single-threaded and deterministic and at most one row is in
// flight. PartyAServer's worker runs the A side, PartyBServer the B side.
// Both sides derive u and the effective k from the shared deployment; no
// count travels on the wire.
//
// The drivers never retry. A failed phase returns its typed Status and
// the caller re-executes the whole query from PartyA::StartQuery on a
// fresh transport (DESIGN.md §8.2).

namespace sknn {
namespace core {

// Each driver, and the StartQuery and BeginReturnPhase calls around them,
// adds its wall time, received frame bytes and noise minimum to one phase
// of the caller's FlightRecord (if any), on every exit path and process:
// compute_distances is StartQuery; find_neighbours is SendDistances and
// B's two drivers; return_knn is A's other three.
inline constexpr char kComputeDistancesPhase[] = "compute_distances";
inline constexpr char kFindNeighboursPhase[] = "find_neighbours";
inline constexpr char kReturnKnnPhase[] = "return_knn";

// The ciphertext codec of messages 1, 2 and 4.
std::vector<uint8_t> CtToBytes(const bgv::Ciphertext& ct);
StatusOr<bgv::Ciphertext> CtFromBytes(std::vector<uint8_t> bytes);
// CtFromBytes for a fresh public-key encryption (a client query): the
// wire strips the noise estimate, so the receiver re-stamps the
// fresh-encryption bound.
StatusOr<bgv::Ciphertext> FreshCtFromBytes(const bgv::BgvContext& ctx,
                                           std::vector<uint8_t> bytes);

// --- Control preambles (PROTOCOL.md "Control preambles") ---------------
//
// An exchange may open with up to 4 kControl frames ahead of its first
// payload frame, each one key=value line: "trace id=HEX" (a nonzero
// distributed trace id) and "deadline budget_ms=N" (a relative
// end-to-end budget). Both are optional and order-free; an exchange that
// carries neither is byte-identical to the original protocol.

// The largest budget a deadline preamble may carry (one day); a larger
// one is malformed, as anchoring it to a clock could overflow.
inline constexpr uint64_t kMaxDeadlineBudgetMs = 24ull * 60 * 60 * 1000;

// Sends the trace-id preamble when `trace_id` != 0, then the deadline
// preamble when `budget_ms` > 0.
Status SendPreambles(uint64_t trace_id, uint64_t budget_ms,
                     net::ResilientChannel* ch);

// The head of one exchange as its serving side reads it.
struct ExchangeHead {
  net::Frame frame;       // the first payload (non-kControl) frame
  uint64_t trace_id = 0;  // 0 = untraced
  // A deadline preamble's budget, anchored to this process's steady clock
  // at receipt (the two processes' clocks are not comparable).
  std::optional<std::chrono::steady_clock::time_point> deadline;
};

// Reads the preambles and the first payload frame of one exchange. A
// malformed or unknown preamble, or a 5th one, is kDataLoss: the peer
// disagrees about the control grammar, so the caller drops the
// connection.
StatusOr<ExchangeHead> ReadExchangeHead(net::ResilientChannel* ch);

// The whole-query re-execution rule shared by the session and the
// servers: a failed attempt may run again only when its error is
// transient and fewer than `policy.max_query_reexecutions` re-executions
// have already run.
bool MayReexecute(const Status& status, int reexecutions,
                  const net::RetryPolicy& policy);

// --- Party A --------------------------------------------------------------

// Algorithm 1 (labels 5-6): PartyA::StartQuery.
StatusOr<std::unique_ptr<PartyA::Query>> StartQuery(
    PartyA* party_a, const bgv::Ciphertext& query_ct,
    const PartyA::CancelCheck& cancel, FlightRecord* record);

// Message 2: the trace-id preamble (only when `trace_id` != 0), then the
// u masked distance frames.
Status SendDistances(const PartyA::Query& query, uint64_t trace_id,
                     net::ResilientChannel* ch, FlightRecord* record = nullptr);

// PartyA::Query::BeginReturnPhase.
Status BeginReturnPhase(size_t k, PartyA::Query* query, FlightRecord* record);

// Message 3, row j: receives the u seed-compressed indicator frames,
// expands each and absorbs it into `query`. Call BeginReturnPhase first.
Status AbsorbIndicatorRow(const bgv::BgvContext& ctx, size_t j,
                          PartyA::Query* query, net::ResilientChannel* ch,
                          FlightRecord* record = nullptr);

// Message 4 payloads: the k finalized result ciphertexts
// (PartyA::Query::FinalizeResults, one batch on A's pool), serialized in
// j order.
StatusOr<std::vector<std::vector<uint8_t>>> FinalizeResults(
    size_t k, PartyA::Query* query, FlightRecord* record = nullptr);

// --- Party B --------------------------------------------------------------

// Receives the u distance frames and runs FindNeighbours (Algorithm 2).
// `first_payload` is a distance frame the caller already consumed (B's
// serve loop reads one frame to tell a query from a heartbeat). Returns
// the effective k.
StatusOr<size_t> ReceiveDistancesAndSelect(
    size_t units, size_t k, PartyB* party_b, net::ResilientChannel* ch,
    FlightRecord* record,
    std::optional<std::vector<uint8_t>> first_payload = std::nullopt);

// Message 3, row j: encrypts the u seed-compressed indicators of result j
// and sends them.
Status SendIndicatorRow(size_t j, PartyB* party_b, net::ResilientChannel* ch,
                        FlightRecord* record);

}  // namespace core
}  // namespace sknn

#endif  // SKNN_CORE_EXCHANGE_H_
