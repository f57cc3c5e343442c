#include "core/session.h"

#include <chrono>
#include <string>

#include "bgv/noise_model.h"
#include "bgv/serialization.h"
#include "common/metrics_registry.h"
#include "common/trace.h"
#include "core/exchange.h"
#include "net/frame.h"

namespace sknn {
namespace core {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// The phases only the session runs: the client's query and results legs.
constexpr char kQueryEncryptPhase[] = "query_encrypt";
constexpr char kClientDecryptPhase[] = "client_decrypt";

}  // namespace

void SecureKnnSession::SetFaultInjection(const net::FaultSpec& spec,
                                         uint64_t seed) {
  fault_spec_ = spec;
  fault_seed_ = seed;
}

StatusOr<std::unique_ptr<SecureKnnSession>> SecureKnnSession::Create(
    const ProtocolConfig& config, const data::Dataset& dataset,
    uint64_t seed) {
  trace::TraceSpan setup_span("setup");
  const auto start = std::chrono::steady_clock::now();
  auto session = std::unique_ptr<SecureKnnSession>(new SecureKnnSession());
  session->config_ = config;

  // The data owner's work (key generation, database encryption) and the
  // encrypted database it ships to Party A (Figure 2, label 1).
  Deployment deployment;
  {
    trace::TraceSpan span("owner.encrypt_db");
    SKNN_ASSIGN_OR_RETURN(
        deployment, Deployment::Derive(config, dataset, seed, /*role_a=*/true));
    for (const bgv::Ciphertext& u : deployment.encrypted_db) {
      const size_t bytes = CtToBytes(u).size();
      session->setup_report_.encrypted_db_bytes += bytes;
      trace::Tracer::Global().AddBytesSent(bytes);
    }
  }
  session->ctx_ = deployment.ctx;
  session->layout_ = deployment.layout;
  // One encryption per database unit.
  session->setup_report_.owner_ops.encryptions =
      deployment.encrypted_db.size();
  {
    ByteSink key_sink;
    bgv::WritePublicKey(deployment.pk, &key_sink);
    bgv::WriteRelinKeys(deployment.relin, &key_sink);
    bgv::WriteGaloisKeys(deployment.galois, &key_sink);
    session->setup_report_.evaluation_key_bytes = key_sink.size();
  }

  session->party_a_ = std::make_unique<PartyA>(
      session->ctx_, config, session->layout_, deployment.pk,
      std::move(deployment.relin), std::move(deployment.galois),
      deployment.party_a_seed);
  SKNN_RETURN_IF_ERROR(session->party_a_->LoadEncryptedDatabase(
      std::move(deployment.encrypted_db)));
  session->party_b_ = std::make_unique<PartyB>(
      session->ctx_, config, session->layout_, deployment.sk, deployment.pk,
      deployment.party_b_seed);
  session->client_ = std::make_unique<Client>(
      session->ctx_, config, session->layout_, deployment.pk, deployment.sk,
      deployment.client_seed);

  session->setup_report_.party_a_ops = session->party_a_->ops();
  session->setup_report_.setup_seconds = SecondsSince(start);
  session->setup_report_.estimated_security_bits = bgv::EstimateSecurityBits(
      session->ctx_->n(), session->ctx_->params().TotalModulusBits());
  session->party_a_->ResetOps();
  return session;
}

StatusOr<QueryResult> SecureKnnSession::RunQuery(
    const std::vector<uint64_t>& query) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  MetricsRegistry::Counter* misses =
      registry.GetCounter("bgv.alloc.pool_misses");
  MetricsRegistry::Counter* hits = registry.GetCounter("bgv.alloc.pool_hits");
  const uint64_t misses_before = misses->value();
  const uint64_t hits_before = hits->value();

  QueryResult result;
  FlightRecord& record = result.record;
  // The FaultyLink seed of this query's first attempt (0 when injection
  // is off) — the replay key of the flight record.
  record.seed = fault_spec_.any() ? fault_seed_ + attempts_run_ : 0;
  record.num_points = layout_.num_points();
  record.dims = layout_.dims();
  record.k = config_.k;
  const Status status = RunQueryInternal(query, &result);

  record.reexecutions = result.reexecutions;
  record.heap_allocs = misses->value() - misses_before;
  record.pool_requests = record.heap_allocs + hits->value() - hits_before;
  record.ok = status.ok();
  record.status = status.ok() ? "ok" : status.message();
  FlightRecorder::Global().Add(record);

  if (!status.ok()) return status;
  return result;
}

Status SecureKnnSession::RunQueryInternal(const std::vector<uint64_t>& query,
                                          QueryResult* out) {
  QueryResult& result = *out;
  party_b_->ResetOps();
  client_->ResetOps();

  trace::TraceSpan query_span("query");

  // Client encrypts the query and sends it to Party A (label 4). The
  // client<->A legs are in-process handoffs, but they wear the same frame
  // envelope (message 1) so A validates them like wire traffic.
  auto t0 = std::chrono::steady_clock::now();
  SKNN_ASSIGN_OR_RETURN(bgv::Ciphertext query_ct,
                        client_->EncryptQuery(query));
  std::vector<uint8_t> query_bytes =
      net::EncodeFrame(net::MessageType::kQuery, 0, CtToBytes(query_ct));
  const size_t query_frame_bytes = query_bytes.size();
  bgv::Ciphertext query_at_a;
  {
    // The client->A leg is not carried by `ab_link`, so attribute its bytes
    // to the transfer span by hand.
    trace::TraceSpan span("transfer.query");
    trace::Tracer::Global().AddBytesSent(query_bytes.size());
    trace::Tracer::Global().AddBytesReceived(query_bytes.size());
    SKNN_ASSIGN_OR_RETURN(net::Frame frame,
                          net::DecodeFrame(std::move(query_bytes)));
    if (frame.type != net::MessageType::kQuery) {
      return DataLossError("client->A frame does not carry a query tag");
    }
    SKNN_ASSIGN_OR_RETURN(query_at_a,
                          FreshCtFromBytes(*ctx_, std::move(frame.payload)));
  }
  result.record.AddToPhase(
      kQueryEncryptPhase, SecondsSince(t0), query_frame_bytes,
      bgv::NoiseModel(*ctx_).EstimatedBudgetBits(query_at_a));

  // Labels 5-9, re-executed whole on a transient failure under the same
  // bound as the servers' workers (DESIGN.md §8.2).
  std::vector<std::vector<uint8_t>> result_payloads;
  Status status = RunAttempt(query_at_a, &result, &result_payloads);
  while (!status.ok() &&
         MayReexecute(status, result.reexecutions, retry_policy_)) {
    ++result.reexecutions;
    status = RunAttempt(query_at_a, &result, &result_payloads);
  }
  SKNN_RETURN_IF_ERROR(status);

  // Party A returns the k encrypted neighbours (label 10, message 4),
  // framed like the query leg, and the client decrypts. The A->client leg
  // is not carried by `ab_link`; count its bytes against the transfer span
  // manually.
  t0 = std::chrono::steady_clock::now();
  uint64_t result_frame_bytes = 0;
  for (size_t j = 0; j < result_payloads.size(); ++j) {
    std::vector<uint8_t> bytes =
        net::EncodeFrame(net::MessageType::kResults, j, result_payloads[j]);
    result_frame_bytes += bytes.size();
    bgv::Ciphertext ct;
    {
      trace::TraceSpan span("transfer.results");
      trace::Tracer::Global().AddBytesSent(bytes.size());
      trace::Tracer::Global().AddBytesReceived(bytes.size());
      SKNN_ASSIGN_OR_RETURN(net::Frame frame,
                            net::DecodeFrame(std::move(bytes)));
      if (frame.type != net::MessageType::kResults) {
        return DataLossError("A->client frame does not carry a results tag");
      }
      SKNN_ASSIGN_OR_RETURN(ct, CtFromBytes(std::move(frame.payload)));
    }
    SKNN_ASSIGN_OR_RETURN(std::vector<uint64_t> point,
                          client_->DecryptNeighbour(ct));
    result.neighbours.push_back(std::move(point));
  }
  result.record.AddToPhase(kClientDecryptPhase, SecondsSince(t0),
                           result_frame_bytes, -1);

  result.party_b_ops = party_b_->ops();
  result.client_ops = client_->ops();
  // Mirror the per-party aggregates into the global registry so trace/JSON
  // exports carry them alongside the bgv.evaluator.* counters.
  result.party_a_ops.ExportTo(&MetricsRegistry::Global(), "core.party_a");
  result.party_b_ops.ExportTo(&MetricsRegistry::Global(), "core.party_b");
  result.client_ops.ExportTo(&MetricsRegistry::Global(), "core.client");
  return Status::Ok();
}

Status SecureKnnSession::RunAttempt(
    const bgv::Ciphertext& query_at_a, QueryResult* result,
    std::vector<std::vector<uint8_t>>* result_payloads) {
  // A fresh transport stack per attempt: byte-counted raw link (in-memory
  // deques or a loopback TCP pair, selected by SetTransport), optional
  // seeded fault injection, framed + retrying endpoints (PROTOCOL.md
  // "Frame envelope & recovery"). A failed attempt's frames die with its
  // stack — the in-process counterpart of a server worker's reconnect.
  net::InMemoryLink mem_link;
  std::unique_ptr<net::SocketLink> sock_link;
  net::Channel* a_raw = mem_link.a_endpoint();
  net::Channel* b_raw = mem_link.b_endpoint();
  if (transport_ == Transport::kSocket) {
    SKNN_ASSIGN_OR_RETURN(sock_link, net::SocketLink::Create());
    a_raw = sock_link->a_endpoint();
    b_raw = sock_link->b_endpoint();
  }
  std::unique_ptr<net::FaultyLink> faulty;
  if (fault_spec_.any()) {
    faulty = std::make_unique<net::FaultyLink>(
        a_raw, b_raw, fault_spec_, fault_spec_, fault_seed_ + attempts_run_);
    a_raw = faulty->a_endpoint();
    b_raw = faulty->b_endpoint();
  }
  ++attempts_run_;
  net::ResilientChannel a_ch(a_raw, retry_policy_, 2 * attempts_run_, "A");
  net::ResilientChannel b_ch(b_raw, retry_policy_, 2 * attempts_run_ + 1,
                             "B");
  // Every attempt's link bytes and injected faults count toward the query,
  // on every exit path.
  struct AddAttemptOnExit {
    const net::LinkStats& stats;
    const net::FaultyLink* faulty;
    QueryResult* result;
    ~AddAttemptOnExit() {
      result->ab_link += stats;
      if (faulty) result->record.faults_injected += faulty->faults_injected();
    }
  } add_attempt{sock_link ? sock_link->stats() : mem_link.stats(),
                faulty.get(), result};

  // Party A: Compute Distances (Algorithm 1, labels 5-6) with a fresh
  // mask and permutation per attempt. All of A's per-query state lives in
  // the Query object, so concurrent sessions on one PartyA stay isolated
  // (DESIGN.md §9).
  FlightRecord* record = &result->record;
  SKNN_ASSIGN_OR_RETURN(
      std::unique_ptr<PartyA::Query> a_query,
      StartQuery(party_a_.get(), query_at_a, PartyA::CancelCheck(), record));

  // Message 2: A streams the masked distance bundle to B; B runs Find
  // Neighbours (Algorithm 2, label 7).
  SKNN_RETURN_IF_ERROR(
      SendDistances(*a_query, /*trace_id=*/0, &a_ch, record));
  SKNN_ASSIGN_OR_RETURN(
      size_t k, ReceiveDistancesAndSelect(layout_.num_units(), config_.k,
                                          party_b_.get(), &b_ch, record));
  result->k = k;

  // Message 3, one row at a time: B sends the indicators of result j
  // (label 8), A absorbs them into the oblivious dot products (label 9).
  SKNN_RETURN_IF_ERROR(BeginReturnPhase(k, a_query.get(), record));
  for (size_t j = 0; j < k; ++j) {
    SKNN_RETURN_IF_ERROR(SendIndicatorRow(j, party_b_.get(), &b_ch, record));
    SKNN_RETURN_IF_ERROR(
        AbsorbIndicatorRow(*ctx_, j, a_query.get(), &a_ch, record));
  }
  SKNN_ASSIGN_OR_RETURN(*result_payloads,
                        FinalizeResults(k, a_query.get(), record));
  // The results' budget is what the client decrypts next.
  record->AddToPhase(kClientDecryptPhase, 0, 0, a_query->retrieve_budget());
  result->party_a_ops = a_query->ops();
  return Status::Ok();
}

}  // namespace core
}  // namespace sknn
