// sknn_perfbench — the repository benchmark: one workload, one run.
//
//   sknn_perfbench --workload=NAME --seed=S --seconds=T [--trace] [--smoke]
//                  --json=PATH
//
// Everything runs in one process, as in a real deployment but on
// loopback: an in-process PartyBServer and PartyAServer on real TCP
// sockets, driven by a closed loop of kClients RemoteClient threads (the
// client API is synchronous, so each caller waits for its reply). Every
// answer is checked against plaintext brute force.
//
// Untraced run (default): set up repeatedly (median = setup_s), run
// kWarmupPerClient untimed queries per client one at a time (their wire
// bytes give wire_kb_per_query exactly), then a closed-loop window of T
// seconds. Only queries that start and finish inside the window count
// towards latency and qps. The global tracer stays off throughout:
// tracing sends trace-id preambles and changes frame timing.
//
// Traced run (--trace): the per-layer numbers. A shorter untraced
// window for the server-side counters, 1-client served passes without and
// with the tracer, a layer probe that calls each module's public
// functions in protocol order over a loopback socket pair, and a micro-op
// pass at the ring size of the workload. Spans stay in memory and are
// written as a Chrome trace next to PATH at the end.
//
// PATH receives one JSON object: correct/attempted/failed, the in-window
// sample count, and every metric with its unit. README.md in this
// directory lists the workloads and what each metric should move.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bgv/decryptor.h"
#include "bgv/encoder.h"
#include "bgv/encryptor.h"
#include "bgv/evaluator.h"
#include "bgv/noise_model.h"
#include "bgv/serialization.h"
#include "bgv/symmetric.h"
#include "common/json_writer.h"
#include "common/metrics_registry.h"
#include "common/rng.h"
#include "common/serial.h"
#include "common/trace.h"
#include "core/client.h"
#include "core/party_a.h"
#include "core/party_b.h"
#include "core/server.h"
#include "data/generators.h"
#include "knn/knn.h"
#include "math/ntt.h"
#include "math/mod_arith.h"
#include "math/prime.h"
#include "math/rns_poly.h"
#include "math/simd/kernels.h"
#include "net/resilient_channel.h"
#include "net/socket_link.h"

namespace {

using namespace sknn;  // NOLINT
using Clock = std::chrono::steady_clock;

// Load shape shared by every workload: 4 closed-loop clients (one per
// core of the 4-core reference machine), A with 2 workers and a queue of
// 8, so admission never sheds.
constexpr size_t kClients = 4;
constexpr size_t kWorkers = 2;
constexpr size_t kQueue = 8;
// Set-up repeats until kSetupBudgetS has passed, between kMinSetups and
// kMaxSetups times; setup_s is the median.
constexpr size_t kMinSetups = 3;
constexpr size_t kMaxSetups = 15;
constexpr double kSetupBudgetS = 2.0;
constexpr int kWarmupPerClient = 2;
constexpr size_t kProbeMaxQueries = 16;
constexpr size_t kMinPassQueries = 3;
constexpr int kCoordBits = 4;

// Query values do not change the HE work (masks and permutations are
// fresh per query), so the workloads vary what the cost depends on: n,
// d, k, layout and lattice preset. README.md gives the reasons.
struct Workload {
  const char* name;
  bgv::SecurityPreset preset;
  core::Layout layout;
  size_t n;
  size_t d;
  size_t k;
  size_t smoke_n;
  size_t smoke_k;
};

constexpr Workload kWorkloads[] = {
    {"toy-packed", bgv::SecurityPreset::kToy, core::Layout::kPacked, 64, 2, 3,
     16, 3},
    {"distance-heavy", bgv::SecurityPreset::kBench, core::Layout::kPacked,
     2048, 16, 1, 256, 1},
    {"return-heavy", bgv::SecurityPreset::kBench, core::Layout::kPacked, 2048,
     4, 20, 256, 4},
    {"perpoint-wire", bgv::SecurityPreset::kToy, core::Layout::kPerPoint, 48,
     2, 2, 8, 2},
};

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string json_path;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string s = argv[i];
    auto value = [&](const char* prefix, std::string* out) {
      const size_t len = std::strlen(prefix);
      if (s.compare(0, len, prefix) != 0) return false;
      *out = s.substr(len);
      return true;
    };
    std::string v;
    if (s == "--trace") {
      a->trace = true;
    } else if (s == "--smoke") {
      a->smoke = true;
    } else if (value("--workload=", &v)) {
      for (const Workload& w : kWorkloads) {
        if (v == w.name) a->workload = &w;
      }
      if (a->workload == nullptr) {
        std::fprintf(stderr, "unknown workload %s\n", v.c_str());
        return false;
      }
    } else if (value("--seed=", &v)) {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (value("--seconds=", &v)) {
      a->seconds = std::atof(v.c_str());
    } else if (value("--json=", &v)) {
      a->json_path = v;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", s.c_str());
      return false;
    }
  }
  if (a->workload == nullptr || a->json_path.empty() || !(a->seconds > 0)) {
    std::fprintf(stderr,
                 "usage: sknn_perfbench --workload=NAME --seed=S --seconds=T "
                 "[--trace] [--smoke] --json=PATH\n");
    return false;
  }
  return true;
}

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// Nearest-rank percentile over the sorted samples.
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(p * sorted.size()));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

uint64_t CounterValue(const char* name) {
  return MetricsRegistry::Global().GetCounter(name)->value();
}

// Metrics in emission order, each with its unit.
class Metrics {
 public:
  void Set(const std::string& name, double value, const char* unit) {
    values_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < values_.size(); ++i) {
      char num[64];
      std::snprintf(num, sizeof(num), "%.17g", values_[i].value);
      if (i != 0) out += ",";
      out += "\"" + values_[i].name + "\":{\"value\":" + num +
             ",\"unit\":\"" + values_[i].unit + "\"}";
    }
    return out + "}";
  }
  void Print() const {
    for (const Entry& e : values_) {
      std::printf("  %-32s %14.4f %s\n", e.name.c_str(), e.value, e.unit);
    }
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> values_;
};

// The protocol returns the neighbour points in an implementation-defined
// order, so compare the sorted multiset of squared distances against the
// plaintext top-k.
bool VerifyAnswer(const data::Dataset& dataset,
                  const std::vector<uint64_t>& query, size_t k,
                  const std::vector<std::vector<uint64_t>>& neighbours) {
  auto expected = knn::PlaintextKnn(dataset, query, k);
  if (!expected.ok() || neighbours.size() != expected->size()) return false;
  std::vector<uint64_t> got;
  for (const auto& p : neighbours) {
    if (p.size() != query.size()) return false;
    uint64_t dist = 0;
    for (size_t j = 0; j < query.size(); ++j) {
      const uint64_t diff = p[j] > query[j] ? p[j] - query[j] : query[j] - p[j];
      dist += diff * diff;
    }
    got.push_back(dist);
  }
  std::vector<uint64_t> want;
  for (const auto& nb : *expected) want.push_back(nb.squared_distance);
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  return got == want;
}

// Per-stream query generator: the workload seed and a stream id fix every
// query point.
class QueryStream {
 public:
  QueryStream(uint64_t seed, uint64_t stream, size_t dims)
      : rng_(seed, stream + 1), dims_(dims) {}
  std::vector<uint64_t> Next() {
    std::vector<uint64_t> q(dims_);
    for (auto& v : q) v = rng_.NextU64() % (uint64_t{1} << kCoordBits);
    return q;
  }

 private:
  Chacha20Rng rng_;
  size_t dims_;
};

// Outcome counts shared by every query the run issues.
struct Tally {
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};  // error or wrong answer

  // Runs one verified query; returns its latency in ms, or a negative
  // value when it failed.
  double Run(core::RemoteClient* client, const data::Dataset& dataset,
             size_t k, const std::vector<uint64_t>& query) {
    attempted.fetch_add(1, std::memory_order_relaxed);
    const auto t0 = Clock::now();
    auto answer = client->Query(query);
    const double ms = MsSince(t0);
    if (!answer.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   answer.status().ToString().c_str());
      failed.fetch_add(1, std::memory_order_relaxed);
      return -1;
    }
    if (!VerifyAnswer(dataset, query, k, *answer)) {
      std::fprintf(stderr, "VERIFICATION FAILED: answer differs from "
                           "plaintext brute force\n");
      failed.fetch_add(1, std::memory_order_relaxed);
      return -1;
    }
    return ms;
  }
};

// One set-up: both deployments derived from the data-owner seed, then
// B's and A's servers started.
struct Served {
  core::Deployment dep_a;
  core::Deployment dep_b;
  std::unique_ptr<core::PartyBServer> b;
  std::unique_ptr<core::PartyAServer> a;

  void Shutdown() {
    if (a) a->Shutdown();
    if (b) b->Shutdown();
    a.reset();
    b.reset();
  }
};

StatusOr<std::unique_ptr<Served>> SetUp(const core::ProtocolConfig& cfg,
                                        const data::Dataset& dataset,
                                        uint64_t seed, double* derive_s,
                                        double* start_s) {
  auto served = std::make_unique<Served>();
  auto t0 = Clock::now();
  SKNN_ASSIGN_OR_RETURN(served->dep_b,
                        core::Deployment::Derive(cfg, dataset, seed, false));
  SKNN_ASSIGN_OR_RETURN(served->dep_a,
                        core::Deployment::Derive(cfg, dataset, seed, true));
  *derive_s = MsSince(t0) / 1000;
  t0 = Clock::now();
  core::ServerOptions b_options;
  SKNN_ASSIGN_OR_RETURN(served->b,
                        core::PartyBServer::Start(served->dep_b, b_options));
  core::ServerOptions a_options;
  a_options.peer_port = served->b->port();
  a_options.workers = kWorkers;
  a_options.queue_capacity = kQueue;
  SKNN_ASSIGN_OR_RETURN(served->a,
                        core::PartyAServer::Start(served->dep_a, a_options));
  *start_s = MsSince(t0) / 1000;
  return served;
}

struct WindowResult {
  std::vector<double> latencies_ms;  // queries inside the window, sorted
  // Sum over clients of (in-window completions / time from the window
  // start to that client's last in-window completion): a closed loop's
  // completion rate without the quantization of count / window length.
  double qps = 0;
  uint64_t completed_since_start = 0;  // includes queries past the window
  double cpu_s = 0;                    // process CPU over those queries
};

// Closed loop: every client issues its next query as soon as the previous
// one returns, until the window ends. Latencies count only queries that
// start and finish inside [start, start + seconds].
WindowResult RunWindow(
    std::vector<std::unique_ptr<core::RemoteClient>>& clients,
    std::vector<QueryStream>& streams, const data::Dataset& dataset, size_t k,
    double seconds, Tally* tally) {
  std::vector<std::vector<double>> per_client(clients.size());
  std::vector<double> last_done_ms(clients.size(), 0);
  std::vector<uint64_t> done(clients.size(), 0);
  const double cpu0 = ProcessCpuSeconds();
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients.size(); ++c) {
      threads.emplace_back([&, c]() {
        while (Clock::now() < end) {
          const double ms =
              tally->Run(clients[c].get(), dataset, k, streams[c].Next());
          if (ms < 0) continue;
          ++done[c];
          if (Clock::now() <= end) {
            per_client[c].push_back(ms);
            last_done_ms[c] = MsSince(start);
          }
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  WindowResult r;
  r.cpu_s = ProcessCpuSeconds() - cpu0;
  for (size_t c = 0; c < clients.size(); ++c) {
    r.completed_since_start += done[c];
    r.latencies_ms.insert(r.latencies_ms.end(), per_client[c].begin(),
                          per_client[c].end());
    if (last_done_ms[c] > 0) {
      r.qps += 1000 * static_cast<double>(per_client[c].size()) /
               last_done_ms[c];
    }
  }
  std::sort(r.latencies_ms.begin(), r.latencies_ms.end());
  return r;
}

// Sequential queries on one client until `budget_s` has passed (at least
// kMinPassQueries); returns the latencies.
std::vector<double> RunPass(core::RemoteClient* client, QueryStream* stream,
                            const data::Dataset& dataset, size_t k,
                            double budget_s, Tally* tally) {
  std::vector<double> ms;
  const auto t0 = Clock::now();
  while (ms.size() < kMinPassQueries || MsSince(t0) < budget_s * 1000) {
    const double q = tally->Run(client, dataset, k, stream->Next());
    if (q < 0) break;
    ms.push_back(q);
  }
  return ms;
}

// ---------------------------------------------------------------------------
// Layer probe: one query at a time, each module's public functions called
// in protocol order over a real loopback socket pair, each call timed from
// here. No retry or recovery: the first error ends the probe.

struct ProbeQuery {
  std::map<std::string, double> ms;  // layer metric -> time in this query
  core::OpCounts a_ops;              // whole query
  core::OpCounts a_distance_ops;     // distance phase only
  uint64_t b_encryptions = 0;
  uint64_t b_decryptions = 0;
};

// Times one call into a layer and adds it to pq->ms[metric]. Opens a
// bench-side span named after the metric (minus "_ms"), so the trace shows
// the library's own spans nested under it.
template <typename F>
auto Timed(const char* metric, ProbeQuery* pq, F&& f) {
  const std::string span_name(metric, std::strlen(metric) - 3);
  trace::TraceSpan span(span_name.c_str());
  const auto t0 = Clock::now();
  auto r = f();
  pq->ms[metric] += MsSince(t0);
  return r;
}

std::vector<uint8_t> Serialize(const bgv::Ciphertext& ct, ProbeQuery* pq) {
  return Timed("bgv.serialize_ms", pq, [&] {
    ByteSink sink;
    bgv::WriteCiphertext(ct, &sink);
    return sink.TakeBytes();
  });
}

StatusOr<bgv::Ciphertext> Deserialize(std::vector<uint8_t> bytes,
                                      ProbeQuery* pq) {
  return Timed("bgv.deserialize_ms", pq, [&] {
    ByteSource src(std::move(bytes));
    return bgv::ReadCiphertext(&src);
  });
}

Status Send(net::ResilientChannel* ch, net::MessageType type,
            const std::vector<uint8_t>& bytes, ProbeQuery* pq) {
  return Timed("net.send_ms", pq, [&] { return ch->SendMessage(type, bytes); });
}

StatusOr<std::vector<uint8_t>> Receive(net::ResilientChannel* ch,
                                       net::MessageType type, ProbeQuery* pq) {
  return Timed("net.recv_wait_ms", pq,
               [&] { return ch->ReceiveMessage(type); });
}

class Probe {
 public:
  // The A<->B link is a loopback TCP pair with a zero poll window: each
  // frame is fully sent before it is received, so a receive should cost
  // only its decode. (net::SocketLink keeps the default 20 ms window, and
  // SocketChannel polls that long after draining a frame that was not
  // complete before the call, which would bill an idle wait per frame to
  // net.recv_wait_ms. The served run shows the waiting; the probe the
  // work.)
  static StatusOr<std::unique_ptr<Probe>> Create(
      const core::Deployment& dep_a, const core::Deployment& dep_b) {
    SKNN_ASSIGN_OR_RETURN(std::unique_ptr<net::SocketListener> listener,
                          net::SocketListener::Listen("127.0.0.1", 0));
    SKNN_ASSIGN_OR_RETURN(
        std::unique_ptr<net::SocketChannel> a,
        net::ConnectSocket("127.0.0.1", listener->port(), 2000, "probe A"));
    SKNN_ASSIGN_OR_RETURN(std::unique_ptr<net::SocketChannel> b,
                          listener->Accept(2000, "probe B"));
    a->set_io_poll_ms(0);
    b->set_io_poll_ms(0);
    auto probe = std::unique_ptr<Probe>(
        new Probe(dep_a, dep_b, std::move(a), std::move(b)));
    SKNN_RETURN_IF_ERROR(
        probe->party_a_.LoadEncryptedDatabase(dep_a.encrypted_db));
    return probe;
  }

  StatusOr<ProbeQuery> Run(const std::vector<uint64_t>& query,
                           const data::Dataset& dataset) {
    ProbeQuery pq;
    const bgv::NoiseModel noise_model(*ctx_);
    const core::OpCounts b_before = party_b_.ops();
    trace::TraceSpan query_span("probe.query");

    SKNN_ASSIGN_OR_RETURN(
        bgv::Ciphertext query_ct,
        Timed("client.encrypt_ms", &pq,
              [&] { return client_.EncryptQuery(query); }));
    SKNN_ASSIGN_OR_RETURN(bgv::Ciphertext query_at_a,
                          Deserialize(Serialize(query_ct, &pq), &pq));
    query_at_a.noise_bits = noise_model.FreshPkNoiseBits();

    SKNN_ASSIGN_OR_RETURN(
        std::unique_ptr<core::PartyA::Query> a_query,
        Timed("party_a.distance_ms", &pq,
              [&] { return party_a_.StartQuery(query_at_a); }));
    pq.a_distance_ops = a_query->ops();

    // Message 2, one frame at a time so neither socket buffer fills.
    std::vector<bgv::Ciphertext> received;
    for (const bgv::Ciphertext& ct : a_query->distances()) {
      SKNN_RETURN_IF_ERROR(Send(&a_ch_, net::MessageType::kDistances,
                                Serialize(ct, &pq), &pq));
      SKNN_ASSIGN_OR_RETURN(
          std::vector<uint8_t> bytes,
          Receive(&b_ch_, net::MessageType::kDistances, &pq));
      SKNN_ASSIGN_OR_RETURN(bgv::Ciphertext at_b,
                            Deserialize(std::move(bytes), &pq));
      received.push_back(std::move(at_b));
    }
    SKNN_ASSIGN_OR_RETURN(
        size_t k_eff, Timed("party_b.decrypt_select_ms", &pq, [&] {
          return party_b_.FindNeighbours(received, config_.k);
        }));

    // Message 3: B's indicator rows, absorbed by A as they arrive.
    SKNN_RETURN_IF_ERROR(Timed("party_a.absorb_ms", &pq, [&] {
      return a_query->BeginReturnPhase(k_eff);
    }));
    const size_t units = layout_.num_units();
    for (size_t j = 0; j < k_eff; ++j) {
      SKNN_ASSIGN_OR_RETURN(
          std::vector<bgv::SeededCiphertext> row,
          Timed("party_b.indicator_ms", &pq, [&] {
            return party_b_.EmitIndicatorsCompressedForResult(j);
          }));
      for (size_t pos = 0; pos < units; ++pos) {
        std::vector<uint8_t> bytes = Timed("bgv.serialize_ms", &pq, [&] {
          ByteSink sink;
          bgv::WriteSeededCiphertext(row[pos], &sink);
          return sink.TakeBytes();
        });
        SKNN_RETURN_IF_ERROR(
            Send(&b_ch_, net::MessageType::kIndicators, bytes, &pq));
        SKNN_ASSIGN_OR_RETURN(
            bytes, Receive(&a_ch_, net::MessageType::kIndicators, &pq));
        SKNN_ASSIGN_OR_RETURN(
            bgv::Ciphertext indicator,
            Timed("bgv.deserialize_ms", &pq,
                  [&]() -> StatusOr<bgv::Ciphertext> {
                    ByteSource src(std::move(bytes));
                    SKNN_ASSIGN_OR_RETURN(bgv::SeededCiphertext seeded,
                                          bgv::ReadSeededCiphertext(&src));
                    return bgv::ExpandSeeded(*ctx_, seeded);
                  }));
        SKNN_RETURN_IF_ERROR(Timed("party_a.absorb_ms", &pq, [&] {
          return a_query->AbsorbIndicator(j, pos, indicator);
        }));
      }
    }

    // Message 4: A's results, decrypted by the client.
    std::vector<std::vector<uint64_t>> neighbours;
    for (size_t j = 0; j < k_eff; ++j) {
      SKNN_ASSIGN_OR_RETURN(bgv::Ciphertext result,
                            Timed("party_a.finalize_ms", &pq,
                                  [&] { return a_query->FinalizeResult(j); }));
      SKNN_ASSIGN_OR_RETURN(bgv::Ciphertext at_client,
                            Deserialize(Serialize(result, &pq), &pq));
      SKNN_ASSIGN_OR_RETURN(
          std::vector<uint64_t> point,
          Timed("client.decrypt_ms", &pq,
                [&] { return client_.DecryptNeighbour(at_client); }));
      neighbours.push_back(std::move(point));
    }
    if (!VerifyAnswer(dataset, query, config_.k, neighbours)) {
      return DataLossError("probe answer differs from plaintext brute force");
    }
    pq.a_ops = a_query->ops();
    pq.b_encryptions = party_b_.ops().encryptions - b_before.encryptions;
    pq.b_decryptions = party_b_.ops().decryptions - b_before.decryptions;
    return pq;
  }

 private:
  Probe(const core::Deployment& dep_a, const core::Deployment& dep_b,
        std::unique_ptr<net::SocketChannel> a,
        std::unique_ptr<net::SocketChannel> b)
      : ctx_(dep_a.ctx),
        config_(dep_a.config),
        layout_(dep_a.layout),
        party_a_(dep_a.ctx, dep_a.config, dep_a.layout, dep_a.pk, dep_a.relin,
                 dep_a.galois, dep_a.party_a_seed),
        party_b_(dep_b.ctx, dep_b.config, dep_b.layout, dep_b.sk, dep_b.pk,
                 dep_b.party_b_seed),
        client_(dep_b.ctx, dep_b.config, dep_b.layout, dep_b.pk, dep_b.sk,
                dep_b.client_seed),
        a_sock_(std::move(a)),
        b_sock_(std::move(b)),
        a_ch_(a_sock_.get(), core::ServerOptions::ServerRetryPolicy(), 1,
              "probe-A"),
        b_ch_(b_sock_.get(), core::ServerOptions::ServerRetryPolicy(), 2,
              "probe-B") {}

  std::shared_ptr<const bgv::BgvContext> ctx_;
  core::ProtocolConfig config_;
  core::SlotLayout layout_;
  core::PartyA party_a_;
  core::PartyB party_b_;
  core::Client client_;
  std::unique_ptr<net::SocketChannel> a_sock_;
  std::unique_ptr<net::SocketChannel> b_sock_;
  net::ResilientChannel a_ch_;
  net::ResilientChannel b_ch_;
};

// Sum of the durations of spans whose last path component is one of
// `names` (the library's own sub-phase spans inside StartQuery).
double SpanMs(const std::vector<trace::SpanRecord>& records,
              std::initializer_list<const char*> names) {
  uint64_t ns = 0;
  for (const trace::SpanRecord& r : records) {
    const size_t slash = r.path.rfind('/');
    const std::string leaf =
        slash == std::string::npos ? r.path : r.path.substr(slash + 1);
    for (const char* n : names) {
      if (leaf == n) ns += r.dur_ns;
    }
  }
  return static_cast<double>(ns) * 1e-6;
}

// ---------------------------------------------------------------------------
// Micro-op pass at the workload's ring size: min over 5 batches of the
// mean per-op time, each batch ~10 ms.

std::atomic<uint64_t> g_sink{0};
void Keep(uint64_t v) { g_sink.fetch_add(v, std::memory_order_relaxed); }

template <typename F>
double MinOfBatchesUs(F&& op) {
  auto t0 = Clock::now();
  op();
  const double once_us = std::max(1e-3, MsSince(t0) * 1000);
  const int reps = std::max(1, static_cast<int>(10000 / once_us));
  double best = std::numeric_limits<double>::infinity();
  for (int b = 0; b < 5; ++b) {
    t0 = Clock::now();
    for (int i = 0; i < reps; ++i) op();
    best = std::min(best, MsSince(t0) * 1000 / reps);
  }
  return best;
}

Status MicroOps(const core::Deployment& dep, uint64_t seed,
                std::map<std::string, double>* per_op_us) {
  const size_t n = dep.ctx->n();
  Chacha20Rng rng(seed, 99);
  bgv::BatchEncoder encoder(dep.ctx);
  bgv::Encryptor encryptor(dep.ctx, dep.pk, &rng);
  bgv::Decryptor decryptor(dep.ctx, dep.sk);
  bgv::Evaluator evaluator(dep.ctx);
  std::vector<uint64_t> v(n);
  for (auto& x : v) x = rng.UniformBelow(1 << 10);
  SKNN_ASSIGN_OR_RETURN(bgv::Plaintext pt, encoder.Encode(v));
  SKNN_ASSIGN_OR_RETURN(bgv::Ciphertext ct_a, encryptor.Encrypt(pt));
  SKNN_ASSIGN_OR_RETURN(bgv::Ciphertext ct_b, encryptor.Encrypt(pt));
  bgv::Ciphertext ct_low = ct_a;
  SKNN_RETURN_IF_ERROR(evaluator.ModSwitchToLevelInplace(&ct_low, 0));
  const bgv::Plaintext scalar = encoder.EncodeScalar(123);

  auto& us = *per_op_us;
  us["bgv.mul_relin_us"] = MinOfBatchesUs([&] {
    Keep(evaluator.MultiplyRelin(ct_a, ct_b, dep.relin).ok());
  });
  us["bgv.rotate_us"] = MinOfBatchesUs([&] {
    bgv::Ciphertext ct = ct_a;
    Keep(evaluator.RotateRowsInplace(&ct, 1, dep.galois).ok());
  });
  us["bgv.mod_switch_us"] = MinOfBatchesUs([&] {
    bgv::Ciphertext ct = ct_a;
    Keep(evaluator.ModSwitchToNextInplace(&ct).ok());
  });
  us["bgv.plain_mul_us"] = MinOfBatchesUs([&] {
    bgv::Ciphertext ct = ct_a;
    Keep(evaluator.MultiplyPlainInplace(&ct, pt).ok());
  });
  us["bgv.encrypt_us"] =
      MinOfBatchesUs([&] { Keep(encryptor.Encrypt(scalar).ok()); });
  us["bgv.decrypt_us"] =
      MinOfBatchesUs([&] { Keep(decryptor.Decrypt(ct_low).ok()); });

  SKNN_ASSIGN_OR_RETURN(std::vector<uint64_t> primes,
                        GenerateNttPrimes(58, 2 * n, 3));
  SKNN_ASSIGN_OR_RETURN(NttTables tables, NttTables::Create(n, primes[0]));
  const uint64_t q = primes[0];
  std::vector<uint64_t> a, acc0, acc1, kb, ka;
  for (auto* vec : {&a, &acc0, &acc1, &kb, &ka}) {
    rng.SampleUniformMod(q, n, vec);
  }
  us["math.ntt_forward_us"] = MinOfBatchesUs([&] {
    tables.ForwardNtt(&a);
    Keep(a[0]);
  });
  std::vector<uint64_t> kb_shoup(n), ka_shoup(n);
  for (size_t i = 0; i < n; ++i) {
    kb_shoup[i] = ShoupPrecompute(kb[i], q);
    ka_shoup[i] = ShoupPrecompute(ka[i], q);
  }
  const simd::KernelTable& kernels = simd::ActiveKernels();
  us["math.fused_mac_us"] = MinOfBatchesUs([&] {
    kernels.fused_mac(acc0.data(), acc1.data(), a.data(), nullptr, kb.data(),
                      kb_shoup.data(), ka.data(), ka_shoup.data(), n, q);
    Keep(acc0[0]);
  });
  SKNN_ASSIGN_OR_RETURN(RnsBase base, RnsBase::Create(n, primes));
  RnsPoly pa = ZeroPoly(n, base.size(), true);
  RnsPoly pb = ZeroPoly(n, base.size(), true);
  for (size_t i = 0; i < base.size(); ++i) {
    rng.SampleUniformModInto(base.modulus(i).value(), n, pa.comp(i));
    rng.SampleUniformModInto(base.modulus(i).value(), n, pb.comp(i));
  }
  us["math.rns_mul_us"] = MinOfBatchesUs([&] {
    MulPointwiseInplace(&pa, pb, base);
    Keep(pa.data()[0]);
  });
  return Status::Ok();
}

// ---------------------------------------------------------------------------

struct Outcome {
  bool ok = true;
  uint64_t samples = 0;
  uint64_t samples_beyond_p90 = 0;
};

// What both kinds of run share: the served deployment (set up
// repeatedly), connected clients with their query streams, and the
// outcome tally.
struct Bench {
  Bench(const data::Dataset& d, size_t k_eff) : dataset(d), k(k_eff) {}

  const data::Dataset& dataset;
  size_t k;
  std::unique_ptr<Served> served;
  std::vector<std::unique_ptr<core::RemoteClient>> clients;
  std::vector<QueryStream> streams;
  std::vector<double> setup_s, derive_s, start_s;
  Tally tally;
  double wire_kb = 0;  // per warm-up query
};

Status StartBench(const core::ProtocolConfig& cfg, const Args& args,
                  Bench* b) {
  // Set-up, repeated; the last one serves the run.
  const auto t0 = Clock::now();
  while (b->setup_s.size() < kMinSetups ||
         (b->setup_s.size() < kMaxSetups &&
          MsSince(t0) < kSetupBudgetS * 1000)) {
    if (b->served) b->served->Shutdown();
    double derive = 0, start = 0;
    SKNN_ASSIGN_OR_RETURN(b->served,
                          SetUp(cfg, b->dataset, args.seed, &derive, &start));
    b->derive_s.push_back(derive);
    b->start_s.push_back(start);
    b->setup_s.push_back(derive + start);
  }
  for (size_t c = 0; c < kClients; ++c) {
    SKNN_ASSIGN_OR_RETURN(
        std::unique_ptr<core::RemoteClient> client,
        core::RemoteClient::Connect(b->served->dep_b, "127.0.0.1",
                                    b->served->a->port(),
                                    core::ServerOptions()));
    b->clients.push_back(std::move(client));
    b->streams.emplace_back(args.seed, c, cfg.dims);
  }
  // Warm-up, one query at a time, so the socket byte count is exactly
  // this many queries' traffic.
  const int warmups = args.smoke ? 1 : kWarmupPerClient;
  const uint64_t bytes0 = CounterValue("net.socket.bytes_sent");
  for (int i = 0; i < warmups; ++i) {
    for (size_t c = 0; c < kClients; ++c) {
      b->tally.Run(b->clients[c].get(), b->dataset, b->k, b->streams[c].Next());
    }
  }
  b->wire_kb =
      static_cast<double>(CounterValue("net.socket.bytes_sent") - bytes0) /
      1000.0 / static_cast<double>(warmups * kClients);
  return Status::Ok();
}

// The untraced run: every end-to-end metric.
void EndToEnd(const Args& args, Bench* b, Metrics* m, Outcome* out) {
  const WindowResult win = RunWindow(b->clients, b->streams, b->dataset, b->k,
                                     args.seconds, &b->tally);
  const auto& lat = win.latencies_ms;
  const double p90 = Percentile(lat, 0.90);
  out->samples = lat.size();
  out->samples_beyond_p90 = static_cast<uint64_t>(
      lat.end() - std::upper_bound(lat.begin(), lat.end(), p90));
  out->ok = !lat.empty();
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  m->Set("query_p50_ms", Percentile(lat, 0.50), "ms");
  m->Set("query_p90_ms", p90, "ms");
  m->Set("qps", win.qps, "1/s");
  m->Set("cpu_ms_per_query",
         1000 * win.cpu_s /
             static_cast<double>(
                 std::max<uint64_t>(1, win.completed_since_start)),
         "ms");
  m->Set("wire_kb_per_query", b->wire_kb, "KB");
  m->Set("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");
  m->Set("setup_s", Median(b->setup_s), "s");
}

// The traced run: every per-layer metric. Returns the spans recorded.
StatusOr<std::vector<trace::SpanRecord>> PerLayer(const Args& args, Bench* b,
                                                  Metrics* m, Outcome* out) {
  // (1) Untraced 4-client window for the server-side counters.
  MetricsRegistry::Histogram* queue_wait =
      MetricsRegistry::Global().GetHistogram("latency_ns.server.queue_wait");
  queue_wait->Reset();
  const uint64_t polls0 = CounterValue("net.retries");
  const uint64_t frames0 = CounterValue("net.frames.sent");
  const WindowResult win = RunWindow(b->clients, b->streams, b->dataset, b->k,
                                     args.seconds / 2, &b->tally);
  out->samples = win.latencies_ms.size();
  const double completed = static_cast<double>(
      std::max<uint64_t>(1, win.completed_since_start));
  m->Set("net.idle_polls_per_query",
         static_cast<double>(CounterValue("net.retries") - polls0) / completed,
         "count");
  m->Set("net.frames_per_query",
         static_cast<double>(CounterValue("net.frames.sent") - frames0) /
             completed,
         "count");
  m->Set("server.queue_wait_p50_ms",
         static_cast<double>(queue_wait->Quantile(0.5)) * 1e-6, "ms");
  m->Set("setup.derive_s", Median(b->derive_s), "s");
  m->Set("setup.start_s", Median(b->start_s), "s");

  // (2) 1-client served passes, untraced then traced.
  const double pass_s = args.seconds / 6;
  const double served_1c =
      Median(RunPass(b->clients[0].get(), &b->streams[0], b->dataset, b->k,
                     pass_s, &b->tally));
  trace::Tracer::Global().Enable();
  const double traced_1c =
      Median(RunPass(b->clients[0].get(), &b->streams[0], b->dataset, b->k,
                     pass_s, &b->tally));
  std::vector<trace::SpanRecord> records = trace::Tracer::Global().Records();

  // (3) Layer probe, traced, in about the time one more pass takes.
  SKNN_ASSIGN_OR_RETURN(std::unique_ptr<Probe> probe,
                        Probe::Create(b->served->dep_a, b->served->dep_b));
  const size_t probe_queries = std::clamp<size_t>(
      static_cast<size_t>(pass_s * 1000 / std::max(1.0, served_1c)),
      kMinPassQueries, kProbeMaxQueries);
  QueryStream probe_stream(args.seed, kClients, b->dataset.dims());
  std::map<std::string, std::vector<double>> layer_ms;
  std::map<std::string, std::vector<double>> op_counts;
  std::vector<double> covered_ms;
  std::vector<core::OpCounts> distance_ops;
  for (size_t i = 0; i < probe_queries; ++i) {
    trace::Tracer::Global().Reset();
    b->tally.attempted.fetch_add(1, std::memory_order_relaxed);
    auto pq = probe->Run(probe_stream.Next(), b->dataset);
    if (!pq.ok()) {
      b->tally.failed.fetch_add(1, std::memory_order_relaxed);
      trace::Tracer::Global().Disable();
      return pq.status();
    }
    const std::vector<trace::SpanRecord> q_records =
        trace::Tracer::Global().Records();
    double covered = 0;
    for (const auto& [layer, ms] : pq->ms) {
      layer_ms[layer].push_back(ms);
      covered += ms;
    }
    covered_ms.push_back(covered);
    layer_ms["party_a.square_fold_ms"].push_back(
        SpanMs(q_records, {"square_fold"}));
    layer_ms["party_a.permute_ms"].push_back(
        SpanMs(q_records, {"permute", "party_a.permute"}));
    layer_ms["party_a.mask_ms"].push_back(SpanMs(q_records, {"mask"}));
    const core::OpCounts& a = pq->a_ops;
    op_counts["party_a.ops.rotations"].push_back(a.rotations);
    op_counts["party_a.ops.multiplications"].push_back(a.he_multiplications);
    op_counts["party_a.ops.plain_ops"].push_back(a.he_plain_ops);
    op_counts["party_a.ops.relinearizations"].push_back(a.relinearizations);
    op_counts["party_a.ops.mod_switches"].push_back(a.mod_switches);
    op_counts["party_b.ops.encryptions"].push_back(pq->b_encryptions);
    op_counts["party_b.ops.decryptions"].push_back(pq->b_decryptions);
    distance_ops.push_back(pq->a_distance_ops);
    records.insert(records.end(), q_records.begin(), q_records.end());
  }
  trace::Tracer::Global().Disable();
  for (const auto& [name, v] : layer_ms) m->Set(name, Median(v), "ms");
  for (const auto& [name, v] : op_counts) m->Set(name, Median(v), "count");

  // (4) Micro-ops at this ring size, and the distance phase they predict.
  std::map<std::string, double> us;
  SKNN_RETURN_IF_ERROR(MicroOps(b->served->dep_b, args.seed, &us));
  for (const auto& [name, v] : us) m->Set(name, v, "us");
  std::vector<double> model_ratio;
  for (size_t i = 0; i < distance_ops.size(); ++i) {
    const core::OpCounts& d = distance_ops[i];
    const double predicted_us =
        static_cast<double>(d.he_multiplications) * us["bgv.mul_relin_us"] +
        static_cast<double>(d.rotations) * us["bgv.rotate_us"] +
        static_cast<double>(d.he_plain_ops) * us["bgv.plain_mul_us"] +
        static_cast<double>(d.mod_switches) * us["bgv.mod_switch_us"];
    if (predicted_us > 0) {
      model_ratio.push_back(layer_ms["party_a.distance_ms"][i] * 1000 /
                            predicted_us);
    }
  }
  m->Set("party_a.distance_model_ratio", Median(model_ratio), "ratio");

  const double covered = Median(covered_ms);
  m->Set("served_1c_ms", served_1c, "ms");
  m->Set("unaccounted_ms", served_1c - covered, "ms");
  m->Set("coverage_pct", 100 * covered / served_1c, "pct");
  m->Set("tracing_overhead_pct", 100 * (traced_1c - served_1c) / served_1c,
         "pct");
  out->ok = !covered_ms.empty() && served_1c > 0;
  return records;
}

int Run(const Args& args) {
  const Workload& w = *args.workload;
  const size_t n = args.smoke ? w.smoke_n : w.n;
  const uint64_t max_coord = (uint64_t{1} << kCoordBits) - 1;
  const data::Dataset dataset =
      data::UniformDataset(n, w.d, max_coord, args.seed);
  core::ProtocolConfig cfg;
  cfg.k = args.smoke ? w.smoke_k : w.k;
  cfg.dims = w.d;
  cfg.coord_bits = kCoordBits;
  cfg.poly_degree = 2;
  cfg.layout = w.layout;
  cfg.preset = w.preset;
  cfg.levels = cfg.MinimumLevels();
  std::printf("workload %s: n=%zu d=%zu k=%zu layout=%s seed=%llu%s%s\n",
              w.name, n, w.d, cfg.k, core::LayoutName(w.layout),
              static_cast<unsigned long long>(args.seed),
              args.trace ? " traced" : "", args.smoke ? " smoke" : "");

  Bench bench(dataset, cfg.k);
  if (Status s = StartBench(cfg, args, &bench); !s.ok()) {
    std::fprintf(stderr, "set-up: %s\n", s.ToString().c_str());
    return 1;
  }
  Metrics metrics;
  Outcome outcome;
  if (args.trace) {
    auto records = PerLayer(args, &bench, &metrics, &outcome);
    if (!records.ok()) {
      std::fprintf(stderr, "traced run: %s\n",
                   records.status().ToString().c_str());
      outcome.ok = false;
    } else if (Status s = trace::WriteChromeTrace(
                   *records, args.json_path + ".trace.json");
               !s.ok()) {
      std::fprintf(stderr, "trace: %s\n", s.ToString().c_str());
    }
  } else {
    EndToEnd(args, &bench, &metrics, &outcome);
  }
  bench.clients.clear();
  bench.served->Shutdown();

  const uint64_t attempted = bench.tally.attempted.load();
  const uint64_t failed = bench.tally.failed.load();
  const bool correct = outcome.ok && failed == 0 && attempted > 0;
  std::printf("%s: %llu attempted, %llu failed, %llu in-window samples\n",
              correct ? "verified" : "NOT VERIFIED",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(outcome.samples));
  metrics.Print();

  char header[256];
  std::snprintf(header, sizeof(header),
                "{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%s,\"smoke\":%s,"
                "\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
                "\"samples\":%llu,\"samples_beyond_p90\":%llu,",
                w.name, static_cast<unsigned long long>(args.seed),
                args.trace ? "true" : "false", args.smoke ? "true" : "false",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(outcome.samples),
                static_cast<unsigned long long>(outcome.samples_beyond_p90));
  if (!json::WriteFile(args.json_path, std::string(header) + "\"metrics\":" +
                                           metrics.Json() + "}\n")) {
    std::fprintf(stderr, "cannot write %s\n", args.json_path.c_str());
    return 1;
  }
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  return Run(args);
}
