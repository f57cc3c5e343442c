#ifndef SKNN_CORE_EXCHANGE_H_
#define SKNN_CORE_EXCHANGE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bgv/ciphertext.h"
#include "bgv/context.h"
#include "common/status.h"
#include "common/statusor.h"
#include "core/party_a.h"
#include "core/party_b.h"
#include "net/resilient_channel.h"

// The A<->B half of one query (Figure 2 labels 5-9; messages 2 and 3 of
// PROTOCOL.md), written once at phase granularity. Every caller drives
// the same phases in the same order:
//
//   A  SendDistances ──── u × kDistances ───▶ B  ReceiveDistancesAndSelect
//   A  AbsorbIndicatorRow(j) ◀─ u × kIndicators ─ B  SendIndicatorRow(j)
//                                                  (for j < effective k)
//   A  FinalizeResults
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

// The ciphertext codec of messages 1, 2 and 4.
std::vector<uint8_t> CtToBytes(const bgv::Ciphertext& ct);
StatusOr<bgv::Ciphertext> CtFromBytes(std::vector<uint8_t> bytes);
// CtFromBytes for a fresh public-key encryption (a client query, a plain
// indicator): the wire strips the noise estimate, so the receiver
// re-stamps the fresh-encryption bound.
StatusOr<bgv::Ciphertext> FreshCtFromBytes(const bgv::BgvContext& ctx,
                                           std::vector<uint8_t> bytes);

// The kControl trace-id preamble "trace id=HEX" (PROTOCOL.md "Trace-id
// preamble"). Parse returns false on a malformed or zero id.
std::string TracePreamble(uint64_t trace_id);
bool ParseTracePreamble(const std::string& preamble, uint64_t* trace_id);

// The whole-query re-execution rule shared by the session and the
// servers: a failed attempt may run again only when its error is
// transient and fewer than `policy.max_query_reexecutions` re-executions
// have already run.
bool MayReexecute(const Status& status, int reexecutions,
                  const net::RetryPolicy& policy);

// --- Party A --------------------------------------------------------------

// Message 2: the trace-id preamble (only when `trace_id` != 0, so an
// untraced exchange stays byte-identical), then the u masked distance
// frames.
Status SendDistances(const PartyA::Query& query, uint64_t trace_id,
                     net::ResilientChannel* ch);

// Message 3, row j: receives the u indicator frames (seeded-compressed
// when `compressed`), decodes each and absorbs it into `query`. Call
// query->BeginReturnPhase first.
Status AbsorbIndicatorRow(const bgv::BgvContext& ctx, bool compressed,
                          size_t j, PartyA::Query* query,
                          net::ResilientChannel* ch);

// Message 4 payloads: the k finalized result ciphertexts, serialized.
StatusOr<std::vector<std::vector<uint8_t>>> FinalizeResults(
    size_t k, PartyA::Query* query);

// --- Party B --------------------------------------------------------------

// Receives the u distance frames and runs FindNeighbours (Algorithm 2).
// `first_payload` is a distance frame the caller already consumed (B's
// serve loop reads one frame to tell a query from a heartbeat). Returns
// the effective k.
StatusOr<size_t> ReceiveDistancesAndSelect(
    size_t units, size_t k, PartyB* party_b, net::ResilientChannel* ch,
    std::optional<std::vector<uint8_t>> first_payload = std::nullopt);

// Message 3, row j: encrypts the u indicators of result j and sends them.
Status SendIndicatorRow(bool compressed, size_t j, PartyB* party_b,
                        net::ResilientChannel* ch);

}  // namespace core
}  // namespace sknn

#endif  // SKNN_CORE_EXCHANGE_H_
