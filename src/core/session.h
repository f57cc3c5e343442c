#ifndef SKNN_CORE_SESSION_H_
#define SKNN_CORE_SESSION_H_

#include <memory>
#include <vector>

#include "common/flight_recorder.h"
#include "core/client.h"
#include "core/deployment.h"
#include "core/metrics.h"
#include "core/party_a.h"
#include "core/party_b.h"
#include "core/protocol_config.h"
#include "data/dataset.h"
#include "net/channel.h"
#include "net/faulty_link.h"
#include "net/resilient_channel.h"
#include "net/socket_link.h"

// End-to-end orchestration of the secure k-NN protocol: wires the data
// owner, Party A, Party B and the client together over byte-accounted
// in-memory links and runs queries. This is the primary public entry point
// of the library.
//
// Protocol coverage: Create performs the setup round (Figure 2 labels
// 1-3: keygen, database encryption, key distribution); each RunQuery is
// one complete query (labels 4-10, messages 1-4 of PROTOCOL.md) — one
// A<->B round trip. The A<->B link is a real byte-counted channel; the
// client<->A legs are in-process handoffs whose serialized sizes are
// still accounted (the query_encrypt and client_decrypt phases of
// QueryResult::record).
//
// When `trace::Tracer::Global()` is enabled, setup records under the
// `setup/...` span tree and each query under `query/...` (the exact
// hierarchy is tabulated in PROTOCOL.md and DESIGN.md §7); per-party op
// counts are exported to `MetricsRegistry::Global()` under
// `core.party_a.*` / `core.party_b.*` / `core.client.*` at the end of
// each query.
//
// End-to-end cost per query: O(u·(log d' + D + k)) HE ops at A, O(u)
// decryptions + O(u·k) encryptions at B, 2 encryptions + k decryptions
// at the client (u = ciphertext units, d' = padded dims, D = mask
// degree).

namespace sknn {
namespace core {

struct QueryResult {
  // The k neighbour points (coordinates), in the order Party B emitted
  // them (an implementation-defined order, not sorted by distance).
  std::vector<std::vector<uint64_t>> neighbours;
  // Effective k (clamped to the database size).
  size_t k = 0;

  OpCounts party_a_ops;
  OpCounts party_b_ops;
  OpCounts client_ops;
  // Bytes/messages/rounds on the A<->B link during this query.
  net::LinkStats ab_link;
  // Whole-query re-executions after a transient transport error (0 on a
  // clean run; see "Frame envelope & recovery" in PROTOCOL.md). `ab_link`
  // and the record's phases cover every attempt.
  int reexecutions = 0;
  // The query's flight record (ids unstamped) and its phases' sum.
  FlightRecord record;
  double seconds() const {
    double total = 0;
    for (const FlightRecord::Phase& p : record.phases) total += p.seconds;
    return total;
  }
};

struct SetupReport {
  double setup_seconds = 0;
  uint64_t encrypted_db_bytes = 0;
  uint64_t evaluation_key_bytes = 0;  // pk + relin + galois shipped to A
  OpCounts owner_ops;
  OpCounts party_a_ops;  // mod switches building the return-phase copies
  double estimated_security_bits = 0;
};

class SecureKnnSession {
 public:
  // Builds the full deployment for a dataset. All randomness derives from
  // `seed`; identical seeds reproduce identical transcripts. Setup cost is
  // dominated by the O(u) database encryptions and the O(u) mod-switch
  // chain building A's return-phase copies.
  static StatusOr<std::unique_ptr<SecureKnnSession>> Create(
      const ProtocolConfig& config, const data::Dataset& dataset,
      uint64_t seed);

  // Runs one k-NN query (k taken from the config). Each call is an
  // independent protocol instance: Party A refreshes the masking
  // polynomial and permutation internally, so queries may be issued
  // back-to-back without weakening the leakage profile. Results are
  // exact (same multiset of distances as plaintext k-NN).
  //
  // Fault tolerance: the A<->B traffic travels in framed envelopes over a
  // ResilientChannel pair; on a transient transport error (IsTransient()
  // status — lost, corrupted, duplicated, reordered, or delayed frame)
  // the session discards the query's transport stack, builds a fresh one
  // and re-executes the query from PartyA::StartQuery, up to
  // RetryPolicy::max_query_reexecutions times, before the error is
  // surfaced — the same recovery as the servers' workers. A re-execution
  // is a fresh protocol instance (new mask and permutation), so it leaks
  // nothing the theorems do not already cover (DESIGN.md §8.3).
  //
  // Observability: every call — success or failure — appends one record
  // to `FlightRecorder::Global()`: replay seed, counter deltas, the
  // query_encrypt and client_decrypt phases, and the phases the protocol
  // drivers add as on the servers (core/exchange.h). Failed queries dump
  // their record to the log automatically.
  StatusOr<QueryResult> RunQuery(const std::vector<uint64_t>& query);

  // Enables deterministic fault injection on the A<->B link of every
  // subsequent RunQuery (both directions use `spec`). `seed` makes the
  // fault pattern reproducible; successive attempts (re-executions
  // included) use seed, seed+1, ...
  void SetFaultInjection(const net::FaultSpec& spec, uint64_t seed);

  // Transport carrying the A<->B frames of subsequent queries. kInMemory
  // (default) is the byte-accounted in-process link; kSocket routes the
  // identical frames over a loopback TCP pair (net::SocketLink), so the
  // whole protocol — including fault injection and re-execution — can be
  // exercised against real kernel sockets.
  enum class Transport { kInMemory, kSocket };
  void SetTransport(Transport transport) { transport_ = transport; }

  // Replaces the default transport retry policy (receive polls,
  // re-executions) for subsequent queries.
  void SetRetryPolicy(const net::RetryPolicy& policy) {
    retry_policy_ = policy;
  }

  const SetupReport& setup_report() const { return setup_report_; }
  const ProtocolConfig& config() const { return config_; }
  std::shared_ptr<const bgv::BgvContext> context() const { return ctx_; }

  // Test hooks.
  PartyA& party_a() { return *party_a_; }
  PartyB& party_b() { return *party_b_; }

 private:
  SecureKnnSession() = default;

  // The protocol body of RunQuery; partial progress (phases, link bytes)
  // lands in `*result` even on error so the flight record the public
  // wrapper appends reflects how far the query got.
  Status RunQueryInternal(const std::vector<uint64_t>& query,
                          QueryResult* result);
  // One attempt at labels 5-9 on a fresh transport stack: StartQuery,
  // then the A<->B exchange (core/exchange.h). Adds its link bytes,
  // faults and phases to `*result`; fills `*result_payloads` on success.
  Status RunAttempt(const bgv::Ciphertext& query_at_a, QueryResult* result,
                    std::vector<std::vector<uint8_t>>* result_payloads);

  ProtocolConfig config_;
  std::shared_ptr<const bgv::BgvContext> ctx_;
  SlotLayout layout_;
  std::unique_ptr<PartyA> party_a_;
  std::unique_ptr<PartyB> party_b_;
  std::unique_ptr<Client> client_;
  SetupReport setup_report_;

  net::FaultSpec fault_spec_;
  uint64_t fault_seed_ = 0;
  uint64_t attempts_run_ = 0;
  net::RetryPolicy retry_policy_;
  Transport transport_ = Transport::kInMemory;
};

}  // namespace core
}  // namespace sknn

#endif  // SKNN_CORE_SESSION_H_
