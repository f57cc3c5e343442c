#include "core/session.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "bgv/noise_model.h"
#include "bgv/serialization.h"
#include "common/flight_recorder.h"
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

// Sum of every `net.faults.*` counter — the flight recorder stores the
// delta across a query as "faults this query incurred".
uint64_t TotalInjectedFaults() {
  uint64_t total = 0;
  for (const auto& [name, value] :
       MetricsRegistry::Global().CounterValues()) {
    if (name.rfind("net.faults.", 0) == 0) total += value;
  }
  return total;
}

// min over budgets where negative means "not observed".
double MinBudget(double a, double b) {
  if (a < 0) return b;
  if (b < 0) return a;
  return std::min(a, b);
}

// The per-query noise gauges; reset to "unobserved" at query start so a
// flight record never inherits a previous query's margins.
constexpr const char* kNoiseGauges[] = {
    "bgv.noise.party_a.square_fold", "bgv.noise.party_a.mask",
    "bgv.noise.party_a.permute",     "bgv.noise.party_a.absorb",
    "bgv.noise.party_a.retrieve",    "bgv.noise.party_b.exact_distance_budget",
    "bgv.noise.party_b.indicator",   "bgv.noise.client.exact_result_budget",
};

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
  for (const char* name : kNoiseGauges) registry.GetGauge(name)->Set(-1);
  const uint64_t faults_before = TotalInjectedFaults();
  const uint64_t pool_misses_before =
      registry.GetCounter("bgv.alloc.pool_misses")->value();
  const uint64_t pool_hits_before =
      registry.GetCounter("bgv.alloc.pool_hits")->value();
  // The FaultyLink seed of this query's first attempt (0 when injection
  // is off) — the replay key of the flight record.
  const uint64_t replay_seed =
      fault_spec_.any() ? fault_seed_ + attempts_run_ : 0;

  QueryResult result;
  const Status status = RunQueryInternal(query, &result);

  auto gauge = [&](const char* name) {
    return registry.GetGauge(name)->value();
  };
  const bgv::NoiseModel noise_model(*ctx_);
  const double fresh_query_budget =
      std::max(0.0, noise_model.LogQ(ctx_->max_level()) - 1.0 -
                        noise_model.FreshPkNoiseBits());
  const double distance_margin =
      MinBudget(gauge("bgv.noise.party_a.square_fold"),
                MinBudget(gauge("bgv.noise.party_a.mask"),
                          gauge("bgv.noise.party_a.permute")));
  const double return_margin = MinBudget(
      gauge("bgv.noise.party_a.absorb"), gauge("bgv.noise.party_a.retrieve"));

  FlightRecord record;
  record.seed = replay_seed;
  record.num_points = layout_.num_points();
  record.dims = layout_.dims();
  record.k = config_.k;
  record.phases.push_back({"query_encrypt",
                           result.timings.query_encrypt_seconds,
                           result.client_bytes_sent, fresh_query_budget});
  record.phases.push_back({"compute_distances",
                           result.timings.compute_distances_seconds, 0,
                           distance_margin});
  record.phases.push_back(
      {"find_neighbours", result.timings.find_neighbours_seconds,
       result.ab_link.bytes_a_to_b,
       gauge("bgv.noise.party_b.exact_distance_budget")});
  record.phases.push_back({"return_knn", result.timings.return_knn_seconds,
                           result.ab_link.bytes_b_to_a, return_margin});
  record.phases.push_back({"client_decrypt",
                           result.timings.client_decrypt_seconds,
                           result.client_bytes_received,
                           gauge("bgv.noise.party_a.retrieve")});
  record.reexecutions = result.reexecutions;
  record.faults_injected = TotalInjectedFaults() - faults_before;
  record.heap_allocs =
      registry.GetCounter("bgv.alloc.pool_misses")->value() -
      pool_misses_before;
  record.pool_requests = record.heap_allocs +
                         registry.GetCounter("bgv.alloc.pool_hits")->value() -
                         pool_hits_before;
  record.ok = status.ok();
  record.status = status.ok() ? "ok" : status.message();
  FlightRecorder::Global().Add(std::move(record));

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
  result.client_bytes_sent = query_bytes.size();
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
  result.timings.query_encrypt_seconds = SecondsSince(t0);

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
  for (size_t j = 0; j < result_payloads.size(); ++j) {
    std::vector<uint8_t> bytes =
        net::EncodeFrame(net::MessageType::kResults, j, result_payloads[j]);
    result.client_bytes_received += bytes.size();
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
  result.timings.client_decrypt_seconds = SecondsSince(t0);

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
  // Every attempt's link bytes count toward the query, on every exit path.
  struct AddLinkStatsOnExit {
    const net::LinkStats& stats;
    net::LinkStats* total;
    ~AddLinkStatsOnExit() { *total += stats; }
  } add_link_stats{sock_link ? sock_link->stats() : mem_link.stats(),
                   &result->ab_link};

  // Party A: Compute Distances (Algorithm 1, labels 5-6) with a fresh
  // mask and permutation per attempt. All of A's per-query state lives in
  // the Query object, so concurrent sessions on one PartyA stay isolated
  // (DESIGN.md §9).
  auto t0 = std::chrono::steady_clock::now();
  SKNN_ASSIGN_OR_RETURN(std::unique_ptr<PartyA::Query> a_query,
                        party_a_->StartQuery(query_at_a));
  result->timings.compute_distances_seconds += SecondsSince(t0);

  // Message 2: A streams the masked distance bundle to B; B runs Find
  // Neighbours (Algorithm 2, label 7).
  t0 = std::chrono::steady_clock::now();
  SKNN_RETURN_IF_ERROR(SendDistances(*a_query, /*trace_id=*/0, &a_ch));
  SKNN_ASSIGN_OR_RETURN(
      size_t k, ReceiveDistancesAndSelect(layout_.num_units(), config_.k,
                                          party_b_.get(), &b_ch));
  result->timings.find_neighbours_seconds += SecondsSince(t0);
  result->k = k;

  // Message 3, one row at a time: B sends the indicators of result j
  // (label 8), A absorbs them into the oblivious dot products (label 9).
  t0 = std::chrono::steady_clock::now();
  SKNN_RETURN_IF_ERROR(a_query->BeginReturnPhase(k));
  result->timings.return_knn_seconds += SecondsSince(t0);
  for (size_t j = 0; j < k; ++j) {
    t0 = std::chrono::steady_clock::now();
    SKNN_RETURN_IF_ERROR(SendIndicatorRow(j, party_b_.get(), &b_ch));
    result->timings.find_neighbours_seconds += SecondsSince(t0);
    t0 = std::chrono::steady_clock::now();
    SKNN_RETURN_IF_ERROR(AbsorbIndicatorRow(*ctx_, j, a_query.get(), &a_ch));
    result->timings.return_knn_seconds += SecondsSince(t0);
  }
  t0 = std::chrono::steady_clock::now();
  SKNN_ASSIGN_OR_RETURN(*result_payloads, FinalizeResults(k, a_query.get()));
  result->timings.return_knn_seconds += SecondsSince(t0);
  result->party_a_ops = a_query->ops();
  return Status::Ok();
}

}  // namespace core
}  // namespace sknn
