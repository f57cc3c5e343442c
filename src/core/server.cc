#include "core/server.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <functional>
#include <sstream>

#include "common/metrics_registry.h"
#include "common/trace.h"
#include "common/trace_id.h"
#include "core/exchange.h"
#include "net/frame.h"

namespace sknn {
namespace core {
namespace {

using Clock = std::chrono::steady_clock;

uint64_t NsSince(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

std::string ToHex(uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

// ---------------------------------------------------------------------------
// Handshake (PROTOCOL.md "Socket transport"): one kControl frame each way,
// exchanged immediately after connect as the first epoch (seq 0) of the
// connection's resilient channel, so it waits for its frame exactly like
// every later exchange. The dialer announces its role and deployment
// fingerprint; the acceptor answers welcome or reject. A rejected or
// mismatched handshake is kFailedPrecondition — fatal, no retry.

constexpr const char* kHelloPrefix = "sknn-hello/1";
constexpr const char* kWelcomePrefix = "sknn-welcome/1";
constexpr const char* kRejectPrefix = "sknn-reject/1";

Status SendControl(net::ResilientChannel* ch, const std::string& text) {
  return ch->SendMessage(net::MessageType::kControl,
                         std::vector<uint8_t>(text.begin(), text.end()));
}

StatusOr<std::string> ReceiveControl(net::ResilientChannel* ch) {
  SKNN_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                        ch->ReceiveMessage(net::MessageType::kControl));
  return std::string(payload.begin(), payload.end());
}

Status DialHandshake(net::ResilientChannel* ch, const std::string& role,
                     uint64_t fingerprint) {
  SKNN_RETURN_IF_ERROR(SendControl(
      ch, std::string(kHelloPrefix) + " role=" + role +
              " fp=" + ToHex(fingerprint)));
  SKNN_ASSIGN_OR_RETURN(std::string reply, ReceiveControl(ch));
  if (reply.rfind(kWelcomePrefix, 0) == 0) return Status::Ok();
  if (reply.rfind(kRejectPrefix, 0) == 0) {
    return FailedPreconditionError("peer rejected handshake: " + reply);
  }
  return DataLossError("malformed handshake reply: " + reply);
}

// Acceptor side. The dialer's role is informational (it shows in the
// hello on a mismatch); both servers accept either role.
Status AcceptHandshake(net::ResilientChannel* ch, uint64_t fingerprint) {
  SKNN_ASSIGN_OR_RETURN(std::string hello, ReceiveControl(ch));
  if (hello.rfind(kHelloPrefix, 0) != 0) {
    (void)SendControl(ch, std::string(kRejectPrefix) + " reason=bad-hello");
    return FailedPreconditionError("malformed hello: " + hello);
  }
  const std::string want = " fp=" + ToHex(fingerprint);
  if (hello.find(want) == std::string::npos) {
    (void)SendControl(
        ch, std::string(kRejectPrefix) + " reason=fingerprint-mismatch");
    return FailedPreconditionError(
        "handshake fingerprint mismatch (peer sent \"" + hello +
        "\", expected fingerprint " + ToHex(fingerprint) +
        "): the two processes derived different deployments — check that "
        "--seed, the dataset, and every protocol flag agree");
  }
  return SendControl(
      ch, std::string(kWelcomePrefix) + " fp=" + ToHex(fingerprint));
}

// How long an accept or an idle connection sleeps before re-checking for
// shutdown or drain. Only bounds how quickly a stop is noticed.
constexpr int kStopCheckMs = 50;

// Party A's supervised B link (DESIGN.md §9.3 "Party B crash recovery"). A
// heartbeat probe that gets no echo within kHeartbeatTimeoutMs marks the
// link dead. While B is unreachable a worker re-dials with exponential
// backoff, doubling from kReconnectBackoffMs up to kReconnectBackoffMaxMs;
// each attempt's connect and handshake are bounded by
// kReconnectAttemptTimeoutMs, so a stalled network costs one bounded step.
constexpr int kHeartbeatTimeoutMs = 2000;
constexpr int kReconnectBackoffMs = 50;
constexpr int kReconnectBackoffMaxMs = 2000;
constexpr int kReconnectAttemptTimeoutMs = 250;

// The deadline of a query whose client sent none, and the bound on each
// exchange's receives on a served connection (Party B's distance
// receive). A dead peer ends a receive at once (EOF or RST), so this only
// bounds a silent network; it sits far above the slowest served query
// measured (n=200000, EXPERIMENTS.md Fig. 5).
constexpr int64_t kDefaultQueryDeadlineMs = 10 * 60 * 1000;

// Party A's whole execution of a query (the drivers count the bytes).
constexpr char kServerQueryPhase[] = "server.query";

Clock::time_point DeadlineIn(int64_t ms) {
  return Clock::now() + std::chrono::milliseconds(ms);
}

// Waits for the connection to have traffic, waking every kStopCheckMs so
// `stop` stays responsive. Returns false on stop, error when the peer is
// gone.
StatusOr<bool> WaitForTraffic(net::SocketChannel* ch,
                              const std::atomic<bool>& stop) {
  while (!stop.load(std::memory_order_relaxed)) {
    SKNN_ASSIGN_OR_RETURN(bool readable, ch->WaitReadable(kStopCheckMs));
    if (readable) return true;
  }
  return false;
}

// Query outcome control line: "ok k=N" or "err CODE message".
std::string OkControl(size_t k) { return "ok k=" + std::to_string(k); }

std::string ErrControl(const Status& status) {
  return std::string("err ") + StatusCodeToString(status.code()) + " " +
         status.message();
}

Status ParseControlReply(const std::string& reply, size_t* k_out) {
  if (reply.rfind("ok k=", 0) == 0) {
    // A corrupted control frame must surface as a typed error, never an
    // exception (the codebase is Status-based throughout).
    const char* first = reply.data() + 5;
    const char* last = reply.data() + reply.size();
    uint64_t k = 0;
    auto [ptr, ec] = std::from_chars(first, last, k);
    if (ec != std::errc() || ptr != last || first == last) {
      return DataLossError("malformed query control reply: " + reply);
    }
    *k_out = static_cast<size_t>(k);
    return Status::Ok();
  }
  if (reply.rfind("err ", 0) == 0) {
    const std::string rest = reply.substr(4);
    const size_t sp = rest.find(' ');
    const std::string code = rest.substr(0, sp);
    const std::string msg =
        sp == std::string::npos ? "" : rest.substr(sp + 1);
    if (code == "UNAVAILABLE") return UnavailableError(msg);
    if (code == "DEADLINE_EXCEEDED") return DeadlineExceededError(msg);
    if (code == "DATA_LOSS") return DataLossError(msg);
    if (code == "ABORTED") return AbortedError(msg);
    if (code == "INVALID_ARGUMENT") return InvalidArgumentError(msg);
    if (code == "FAILED_PRECONDITION") return FailedPreconditionError(msg);
    return InternalError(code + ": " + msg);
  }
  return DataLossError("malformed query control reply: " + reply);
}

MetricsRegistry::Counter* ServerCounter(const char* name) {
  return MetricsRegistry::Global().GetCounter(name);
}

// Registered at process start rather than at the first expiry: an
// OPERATIONS.md alert watches it, so a healthy process exports it at 0.
MetricsRegistry::Counter* const expired_queries =
    ServerCounter("server.queries.expired");

// Little-endian u64 heartbeat clock payload: B echoes its steady-clock
// "now" so A can estimate the A<->B clock offset from the probe RTT.
std::vector<uint8_t> EncodeClockPayload(uint64_t now_ns) {
  std::vector<uint8_t> payload(8);
  for (int i = 0; i < 8; ++i) {
    payload[i] = static_cast<uint8_t>((now_ns >> (8 * i)) & 0xff);
  }
  return payload;
}

uint64_t DecodeClockPayload(const std::vector<uint8_t>& payload) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(payload[i]) << (8 * i);
  }
  return v;
}

uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

}  // namespace

// ---------------------------------------------------------------------------
// ConnectionLoop: the connection path both servers share. The accept
// thread owns the listener and runs each accepted connection on its own
// tracked thread (joined promptly once it finishes: unjoined threads
// retain kernel resources). A connection thread handshakes, then serves
// one exchange after another (wait for traffic, start a fresh epoch, read
// the exchange head, hand it to the server's handler) until the peer
// leaves, an exchange fails (the connection is dropped) or the loop shuts
// down.

// Serves one exchange whose head the loop has read. A non-OK status drops
// the connection.
using ExchangeHandler =
    std::function<Status(ExchangeHead head, net::ResilientChannel* ch)>;

class ConnectionLoop {
 public:
  // Builds the handler for one handshaken connection, on its thread.
  using HandlerFactory = std::function<ExchangeHandler(uint64_t conn_id)>;

  // Binds the listener and starts accepting. `name` ("A", "B") tags the
  // connections' sockets and channels.
  static StatusOr<std::unique_ptr<ConnectionLoop>> Listen(
      const ServerOptions& options, uint64_t fingerprint, std::string name,
      HandlerFactory new_connection) {
    SKNN_ASSIGN_OR_RETURN(
        std::unique_ptr<net::SocketListener> listener,
        net::SocketListener::Listen(options.listen_host, options.listen_port));
    auto loop = std::unique_ptr<ConnectionLoop>(
        new ConnectionLoop(std::move(listener), options.connect_timeout_ms,
                           fingerprint, std::move(name),
                           std::move(new_connection)));
    loop->accept_thread_ = std::thread([l = loop.get()] { l->AcceptLoop(); });
    return loop;
  }
  ~ConnectionLoop() { Shutdown(); }
  // Its threads hold `this`.
  ConnectionLoop(const ConnectionLoop&) = delete;
  ConnectionLoop& operator=(const ConnectionLoop&) = delete;

  uint16_t port() const { return listener_->port(); }

  // Accepts no more connections: one opened from now on waits in the
  // listen backlog and is never handshaken. Connections already accepted
  // keep being served.
  void StopAccepting() {
    accepting_.store(false, std::memory_order_relaxed);
    if (accept_thread_.joinable()) accept_thread_.join();
  }

  // Returns once no exchange is in flight, or at `deadline`.
  void AwaitIdle(Clock::time_point deadline) {
    std::unique_lock<std::mutex> lock(idle_mu_);
    idle_cv_.wait_until(lock, deadline, [this] { return in_flight_ == 0; });
  }

  // Stops accepting, ends every connection at its next exchange boundary
  // and joins the connection threads. Idempotent.
  void Shutdown() {
    stop_.store(true, std::memory_order_relaxed);
    StopAccepting();
    listener_->Close();
    std::vector<Connection> all;
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      all.swap(connections_);
    }
    for (Connection& c : all) c.thread.join();
  }

 private:
  struct Connection {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };

  ConnectionLoop(std::unique_ptr<net::SocketListener> listener,
                 int handshake_timeout_ms, uint64_t fingerprint,
                 std::string name, HandlerFactory new_connection)
      : listener_(std::move(listener)),
        handshake_timeout_ms_(handshake_timeout_ms),
        fingerprint_(fingerprint),
        name_(std::move(name)),
        new_connection_(std::move(new_connection)) {}

  void AcceptLoop() {
    uint64_t conn_id = 0;
    while (accepting_.load(std::memory_order_relaxed)) {
      ReapFinished();
      auto conn = listener_->Accept(
          kStopCheckMs, name_ + " conn " + std::to_string(conn_id));
      if (!conn.ok()) continue;  // timeout or transient; poll again
      ServerCounter("server.connections.accepted")->Increment();
      auto done = std::make_shared<std::atomic<bool>>(false);
      std::thread t([this, c = std::move(conn).value(), id = conn_id,
                     done]() mutable {
        Serve(std::move(c), id);
        done->store(true, std::memory_order_release);
      });
      std::lock_guard<std::mutex> lock(conn_mu_);
      connections_.push_back({std::move(t), std::move(done)});
      ++conn_id;
    }
  }

  // Joins every connection thread whose body has returned.
  void ReapFinished() {
    std::vector<Connection> finished;
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      auto it = std::partition(
          connections_.begin(), connections_.end(), [](const Connection& c) {
            return !c.done->load(std::memory_order_acquire);
          });
      std::move(it, connections_.end(), std::back_inserter(finished));
      connections_.erase(it, connections_.end());
    }
    for (Connection& c : finished) c.thread.join();  // immediate
  }

  void Serve(std::unique_ptr<net::SocketChannel> conn, uint64_t conn_id) {
    MetricsRegistry::Gauge* active =
        MetricsRegistry::Global().GetGauge("server.connections.active");
    active->Add(1);
    net::ResilientChannel ch(conn.get(), net::RetryPolicy(), conn_id,
                             name_ + "-serve");
    ch.set_deadline(DeadlineIn(handshake_timeout_ms_));
    if (AcceptHandshake(&ch, fingerprint_).ok()) {
      const ExchangeHandler handler = new_connection_(conn_id);
      Status served;
      while (served.ok()) {
        auto traffic = WaitForTraffic(conn.get(), stop_);
        if (!traffic.ok() || !traffic.value()) break;
        {
          std::lock_guard<std::mutex> lock(idle_mu_);
          ++in_flight_;
        }
        // Per-exchange epoch: sequence spaces restart at the exchange
        // boundary on both ends (the peer resets before its first frame).
        // The exchange's receives get the default query deadline.
        ch.ResetEpoch();
        ch.set_deadline(DeadlineIn(kDefaultQueryDeadlineMs));
        auto head = ReadExchangeHead(&ch);
        served = head.status();
        if (head.ok()) {
          // The propagated id tags this thread's spans, log lines and any
          // flight record until the handler returns.
          trace::ScopedTraceId scoped_trace(head->trace_id);
          served = handler(std::move(head).value(), &ch);
        }
        std::lock_guard<std::mutex> lock(idle_mu_);
        if (--in_flight_ == 0) idle_cv_.notify_all();
      }
    }
    conn->Close();
    active->Add(-1);
  }

  const std::unique_ptr<net::SocketListener> listener_;
  const int handshake_timeout_ms_;
  const uint64_t fingerprint_;
  const std::string name_;
  const HandlerFactory new_connection_;
  std::atomic<bool> accepting_{true};
  std::atomic<bool> stop_{false};
  // Exchanges between their first frame and the handler's return.
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
  int in_flight_ = 0;
  std::mutex conn_mu_;
  std::vector<Connection> connections_;
  std::thread accept_thread_;
};

// ---------------------------------------------------------------------------
// AdmissionQueue

template <typename T>
AdmissionQueue<T>::AdmissionQueue(size_t capacity) : capacity_(capacity) {
  MetricsRegistry::Global()
      .GetGauge("queue.capacity")
      ->Set(static_cast<double>(capacity));
  MetricsRegistry::Global().GetGauge("queue.depth")->Set(0);
}

template <typename T>
bool AdmissionQueue<T>::TryPush(T item) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_ || items_.size() >= capacity_) {
      ServerCounter("queue.shed")->Increment();
      return false;
    }
    items_.push_back(std::move(item));
    MetricsRegistry::Global()
        .GetGauge("queue.depth")
        ->Set(static_cast<double>(items_.size()));
  }
  ServerCounter("queue.enqueued")->Increment();
  cv_.notify_one();
  return true;
}

template <typename T>
typename AdmissionQueue<T>::PopOutcome AdmissionQueue<T>::PopFor(
    T* out, int timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  const bool woke = cv_.wait_for(
      lock, std::chrono::milliseconds(timeout_ms),
      [&] { return stopped_ || !items_.empty(); });
  if (!woke) return PopOutcome::kTimeout;
  if (items_.empty()) return PopOutcome::kStopped;
  *out = std::move(items_.front());
  items_.pop_front();
  MetricsRegistry::Global()
      .GetGauge("queue.depth")
      ->Set(static_cast<double>(items_.size()));
  return PopOutcome::kItem;
}

template <typename T>
void AdmissionQueue<T>::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
  }
  cv_.notify_all();
}

template <typename T>
std::vector<T> AdmissionQueue<T>::StopAndDrain() {
  std::vector<T> leftover;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
    leftover.reserve(items_.size());
    std::move(items_.begin(), items_.end(), std::back_inserter(leftover));
    items_.clear();
    MetricsRegistry::Global().GetGauge("queue.depth")->Set(0);
  }
  cv_.notify_all();
  return leftover;
}

// ---------------------------------------------------------------------------
// PartyBServer

PartyBServer::PartyBServer(Deployment deployment)
    : deployment_(std::move(deployment)) {}

StatusOr<std::unique_ptr<PartyBServer>> PartyBServer::Start(
    const Deployment& deployment, const ServerOptions& options) {
  auto server = std::unique_ptr<PartyBServer>(new PartyBServer(deployment));
  SKNN_ASSIGN_OR_RETURN(
      server->loop_,
      ConnectionLoop::Listen(
          options, deployment.fingerprint, "B",
          [s = server.get()](uint64_t conn_id) -> ExchangeHandler {
            // One PartyB per connection: selection state and indicator
            // RNG draws are connection-local, so concurrent A workers
            // cannot interleave (per-connection isolation, DESIGN.md §9).
            // The seed is decorrelated per connection; indicator
            // freshness needs unique seeds, not a shared transcript.
            const Deployment& d = s->deployment_;
            auto party_b = std::make_shared<PartyB>(
                d.ctx, d.config, d.layout, d.sk, d.pk,
                d.party_b_seed ^ (0x9E3779B97F4A7C15ull * (conn_id + 1)));
            return [s, party_b](ExchangeHead head, net::ResilientChannel* ch) {
              return s->ServeExchange(party_b.get(), std::move(head), ch);
            };
          }));
  return server;
}

PartyBServer::~PartyBServer() { Shutdown(); }

uint16_t PartyBServer::port() const { return loop_->port(); }

void PartyBServer::Drain(int deadline_ms) {
  if (draining_.exchange(true)) return;
  // No new connection is accepted past this point; exchanges already in
  // flight get the deadline to finish, then Shutdown cuts them off.
  loop_->StopAccepting();
  loop_->AwaitIdle(DeadlineIn(deadline_ms));
}

void PartyBServer::Shutdown() {
  // Start can fail before the loop exists (e.g. the port is taken); the
  // destructor still runs Shutdown.
  if (loop_) loop_->Shutdown();
}

Status PartyBServer::ServeExchange(PartyB* party_b, ExchangeHead head,
                                   net::ResilientChannel* ch) {
  // Deadlines are between the client and Party A; a deadline preamble
  // from an A worker is a protocol violation.
  if (head.deadline) {
    return DataLossError("unexpected deadline preamble on a B connection");
  }
  if (head.frame.type == net::MessageType::kHeartbeat) {
    // Liveness probe from an idle A worker: echo, carrying our
    // steady-clock "now" so A can estimate the A<->B clock offset (the
    // probe's RTT bounds the error; PROTOCOL.md "Heartbeats").
    ServerCounter("server.b.heartbeats")->Increment();
    return ch->SendMessage(net::MessageType::kHeartbeat,
                           EncodeClockPayload(SteadyNowNs()));
  }
  if (head.frame.type != net::MessageType::kDistances) {
    return DataLossError("expected a kDistances or kHeartbeat frame");
  }
  trace::TraceSpan query_span("b.serve_query");
  // B's record, on every exit path, under the trace id the loop scoped.
  FlightRecord record;
  record.num_points = deployment_.layout.num_points();
  record.dims = deployment_.layout.dims();
  record.k = deployment_.config.k;
  StatusOr<size_t> k = ReceiveDistancesAndSelect(
      deployment_.layout.num_units(), deployment_.config.k, party_b, ch,
      &record, std::move(head.frame.payload));
  Status status = k.status();
  for (size_t j = 0; status.ok() && j < *k; ++j) {
    status = SendIndicatorRow(j, party_b, ch, &record);
  }
  record.ok = status.ok();
  record.status = status.ok() ? "ok" : status.message();
  FlightRecorder::Global().Add(std::move(record));
  if (status.ok()) ServerCounter("server.b.queries_served")->Increment();
  return status;
}

// ---------------------------------------------------------------------------
// PartyAServer

struct PartyAServer::Job {
  bgv::Ciphertext query_ct;
  Clock::time_point enqueued_at;
  // End-to-end deadline (absolute, this process's steady clock — the
  // client ships a relative budget precisely because the two clocks are
  // not comparable; kDefaultQueryDeadlineMs when it shipped none). Queue
  // wait, every A<->B leg, and the cancellation checkpoints all charge
  // against it.
  Clock::time_point deadline;
  // Distributed trace id from the client's kControl preamble (0 =
  // untraced). The worker re-establishes it thread-locally while the
  // query runs and forwards it to B ahead of the distance frames, so the
  // one id tags spans and the flight record on every process the query
  // touches.
  uint64_t trace_id = 0;
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Status status;
  size_t effective_k = 0;
  // Serialized result ciphertexts; the connection handler frames them in
  // its own sequence space (the worker does not know the client's seq).
  std::vector<std::vector<uint8_t>> result_payloads;
};

PartyAServer::PartyAServer(Deployment deployment, ServerOptions options)
    : deployment_(std::move(deployment)), options_(std::move(options)) {}

StatusOr<std::unique_ptr<PartyAServer>> PartyAServer::Start(
    const Deployment& deployment, const ServerOptions& options) {
  if (deployment.encrypted_db.empty()) {
    return FailedPreconditionError(
        "PartyAServer needs a deployment derived with role_a=true (the "
        "encrypted database)");
  }
  auto server = std::unique_ptr<PartyAServer>(
      new PartyAServer(deployment, options));
  server->party_a_ = std::make_unique<PartyA>(
      deployment.ctx, deployment.config, deployment.layout, deployment.pk,
      deployment.relin, deployment.galois, deployment.party_a_seed);
  SKNN_RETURN_IF_ERROR(
      server->party_a_->LoadEncryptedDatabase(server->deployment_.encrypted_db));
  server->deployment_.encrypted_db.clear();

  server->queue_ = std::make_unique<AdmissionQueue<std::shared_ptr<Job>>>(
      options.queue_capacity);
  // Persistent worker connections to B, established before we accept any
  // client (fail fast when B is unreachable or derived differently).
  server->b_raw_.resize(options.workers);
  server->b_ch_.resize(options.workers);
  for (size_t w = 0; w < options.workers; ++w) {
    SKNN_RETURN_IF_ERROR(
        server->ConnectWorkerToB(w, options.connect_timeout_ms));
  }
  MetricsRegistry::Global()
      .GetGauge("server.workers")
      ->Set(static_cast<double>(options.workers));
  // Every worker link is up at this point (Start fails otherwise); the
  // worker loops keep the count honest across disconnects/reconnects.
  server->connected_workers_.store(static_cast<int>(options.workers),
                                   std::memory_order_relaxed);
  MetricsRegistry::Global()
      .GetGauge("server.b_link.connected_workers")
      ->Set(static_cast<double>(options.workers));
  for (size_t w = 0; w < options.workers; ++w) {
    server->workers_.emplace_back([s = server.get(), w] { s->WorkerLoop(w); });
  }
  SKNN_ASSIGN_OR_RETURN(
      server->loop_,
      ConnectionLoop::Listen(
          options, deployment.fingerprint, "A",
          [s = server.get()](uint64_t) -> ExchangeHandler {
            return [s](ExchangeHead head, net::ResilientChannel* ch) {
              return s->ServeExchange(std::move(head), ch);
            };
          }));
  return server;
}

PartyAServer::~PartyAServer() { Shutdown(); }

uint16_t PartyAServer::port() const { return loop_->port(); }

void PartyAServer::Drain(int deadline_ms) {
  if (draining_.exchange(true)) return;
  // From here on ServeExchange sheds new queries with a typed
  // kUnavailable instead of enqueuing them. A queued or running query
  // holds its connection's exchange open, so waiting for an idle loop
  // waits for the queue and the workers.
  MetricsRegistry::Global().GetGauge("server.draining")->Set(1);
  loop_->AwaitIdle(DeadlineIn(deadline_ms));
  // Whatever is still queued at the deadline gets a typed answer — a
  // drained server never leaves a client blocked on a query it will not
  // run. In-flight queries (already on a worker) are left to finish;
  // Shutdown cuts them off if the operator will not wait.
  std::vector<std::shared_ptr<Job>> stragglers = queue_->StopAndDrain();
  for (const std::shared_ptr<Job>& straggler : stragglers) {
    ServerCounter("server.queries.drained")->Increment();
    FinishJob(straggler,
              UnavailableError("server draining: query was still queued at "
                               "the drain deadline; retry elsewhere"));
  }
}

void PartyAServer::Shutdown() {
  if (stop_.exchange(true)) return;
  // Start fails fast before the queue/loop exist when B is unreachable or
  // derived differently; the destructor still runs Shutdown, so every
  // member is guarded. Connection threads go first: one waiting on a
  // queued job needs a worker to finish it.
  if (loop_) loop_->Shutdown();
  if (queue_) queue_->Stop();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  for (auto& ch : b_raw_) {
    if (ch) ch->Close();
  }
}

Status PartyAServer::ConnectWorkerToB(size_t worker_index,
                                      int connect_timeout_ms) {
  // Startup uses the long connect_timeout_ms (fail fast but tolerate a B
  // that is still binding); the supervised reconnect loop passes the much
  // shorter kReconnectAttemptTimeoutMs so a dead B costs one bounded
  // attempt per backoff step, not a multi-second stall per job.
  SKNN_ASSIGN_OR_RETURN(
      std::unique_ptr<net::SocketChannel> conn,
      net::ConnectSocket(options_.peer_host, options_.peer_port,
                         connect_timeout_ms,
                         "A->B worker " + std::to_string(worker_index)));
  auto ch = std::make_unique<net::ResilientChannel>(
      conn.get(), net::RetryPolicy(), worker_index,
      "A-worker-" + std::to_string(worker_index));
  // The handshake wait is bounded by the same budget as the TCP connect:
  // against a stalled network (accepts connections, delivers nothing) a
  // reconnect attempt must cost one bounded step.
  ch->set_deadline(DeadlineIn(connect_timeout_ms));
  SKNN_RETURN_IF_ERROR(
      DialHandshake(ch.get(), "party_a", deployment_.fingerprint));
  b_raw_[worker_index] = std::move(conn);
  b_ch_[worker_index] = std::move(ch);
  return Status::Ok();
}

Status PartyAServer::HeartbeatProbe(size_t worker_index) {
  net::ResilientChannel& ch = *b_ch_[worker_index];
  // A heartbeat is its own epoch: B's serve loop resets at every exchange
  // boundary, so the probe and its echo both run at sequence 0.
  ch.ResetEpoch();
  ch.set_deadline(DeadlineIn(kHeartbeatTimeoutMs));
  const uint64_t t0_ns = SteadyNowNs();
  SKNN_RETURN_IF_ERROR(ch.SendMessage(net::MessageType::kHeartbeat, {}));
  SKNN_ASSIGN_OR_RETURN(std::vector<uint8_t> echo,
                        ch.ReceiveMessage(net::MessageType::kHeartbeat));
  // B's echo carries its steady-clock "now" (8 bytes LE); assuming the
  // sample was taken mid-RTT, offset = b_now - (t0 + rtt/2). An empty
  // echo (an older B) just skips the estimate — liveness is unaffected.
  if (echo.size() == 8) {
    const uint64_t rtt_ns = SteadyNowNs() - t0_ns;
    const int64_t offset_ns = static_cast<int64_t>(DecodeClockPayload(echo)) -
                              static_cast<int64_t>(t0_ns + rtt_ns / 2);
    b_clock_offset_ns_.store(offset_ns, std::memory_order_relaxed);
    MetricsRegistry::Global()
        .GetGauge("net.b_clock_offset_ns")
        ->Set(static_cast<double>(offset_ns));
  }
  return Status::Ok();
}

void PartyAServer::FinishJob(const std::shared_ptr<Job>& job, Status status) {
  {
    std::lock_guard<std::mutex> lock(job->mu);
    job->status = std::move(status);
    job->done = true;
  }
  job->cv.notify_all();
}

Status PartyAServer::RunQueryOnWorker(size_t worker_index, Job* job,
                                      FlightRecord* record) {
  // Test hook: a pending injected fault aborts before the B connection is
  // touched, so the supervised recovery path (close, reconnect,
  // re-execute) runs deterministically in tests.
  int pending_faults = inject_faults_.load(std::memory_order_relaxed);
  while (pending_faults > 0 &&
         !inject_faults_.compare_exchange_weak(pending_faults,
                                               pending_faults - 1)) {
  }
  if (pending_faults > 0) {
    return AbortedError("injected worker fault (test hook)");
  }
  net::ResilientChannel& ch = *b_ch_[worker_index];
  // Per-query epoch on this worker's B connection (the B side resets when
  // it wakes for our first frame). The query's remaining deadline bounds
  // every receive on this channel for the rest of the exchange.
  ch.ResetEpoch();
  ch.set_deadline(job->deadline);
  // Cooperative cancellation between state-machine phases and between
  // per-unit distance pipelines: a query whose deadline expired (or whose
  // server is stopping) stops burning HE compute mid-flight instead of
  // finishing an answer nobody is waiting for.
  const auto cancel = [this, job]() -> Status {
    if (stop_.load(std::memory_order_relaxed)) {
      return AbortedError("server shutting down");
    }
    if (Clock::now() >= job->deadline) {
      return DeadlineExceededError("query deadline expired mid-execution");
    }
    return Status::Ok();
  };
  SKNN_ASSIGN_OR_RETURN(
      std::unique_ptr<PartyA::Query> query,
      StartQuery(party_a_.get(), job->query_ct, cancel, record));
  SKNN_RETURN_IF_ERROR(cancel());
  // The distributed trace id rides ahead of the distance frames, so B's
  // spans and flight record carry the same id as the client's and ours.
  SKNN_RETURN_IF_ERROR(SendDistances(*query, job->trace_id, &ch, record));
  // B clamps k to the point count the same way (party_b.cc); both sides
  // derive the indicator frame count without a control message.
  const size_t k =
      std::min<size_t>(deployment_.config.k, deployment_.layout.num_points());
  SKNN_RETURN_IF_ERROR(cancel());
  SKNN_RETURN_IF_ERROR(BeginReturnPhase(k, query.get(), record));
  for (size_t j = 0; j < k; ++j) {
    SKNN_RETURN_IF_ERROR(cancel());
    SKNN_RETURN_IF_ERROR(
        AbsorbIndicatorRow(*deployment_.ctx, j, query.get(), &ch, record));
  }
  SKNN_RETURN_IF_ERROR(cancel());
  SKNN_ASSIGN_OR_RETURN(job->result_payloads,
                        FinalizeResults(k, query.get(), record));
  job->effective_k = k;
  return Status::Ok();
}

void PartyAServer::WorkerLoop(size_t worker_index) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  MetricsRegistry::Histogram* queue_wait =
      registry.GetHistogram("latency_ns.server.queue_wait");
  MetricsRegistry::Histogram* query_latency =
      registry.GetHistogram("latency_ns.server.query");
  // Supervised connection state: Start() handed this worker a live B
  // connection. While connected, idle pops are bounded by the heartbeat
  // interval so a silently dead B is probed within one interval. While
  // disconnected, pops are bounded by the current backoff step so the
  // worker keeps re-dialling B — and, crucially, keeps draining the queue
  // with typed kUnavailable sheds instead of running queries into a dead
  // channel or blocking forever.
  bool connected = true;
  int backoff_ms = kReconnectBackoffMs;
  auto last_probe = Clock::now();
  // Keeps connected_workers_ (and its gauge) in step with this worker's
  // link transitions; /readyz answers 503 while the count is 0.
  const auto note_link = [this](bool was, bool now) {
    if (was == now) return;
    const int delta = now ? 1 : -1;
    const int count =
        connected_workers_.fetch_add(delta, std::memory_order_relaxed) +
        delta;
    MetricsRegistry::Global()
        .GetGauge("server.b_link.connected_workers")
        ->Set(static_cast<double>(count));
  };
  const auto try_reconnect = [&]() {
    const bool was = connected;
    b_raw_[worker_index]->Close();
    if (ConnectWorkerToB(worker_index, kReconnectAttemptTimeoutMs).ok()) {
      ServerCounter("server.worker.reconnects")->Increment();
      connected = true;
      backoff_ms = kReconnectBackoffMs;
      last_probe = Clock::now();
    } else {
      connected = false;
      backoff_ms = std::min(backoff_ms * 2, kReconnectBackoffMaxMs);
    }
    note_link(was, connected);
  };
  std::shared_ptr<Job> job;
  for (;;) {
    const int wait_ms =
        connected ? options_.heartbeat_interval_ms : backoff_ms;
    const auto outcome = queue_->PopFor(&job, wait_ms);
    if (outcome == AdmissionQueue<std::shared_ptr<Job>>::PopOutcome::kStopped) {
      break;
    }
    if (outcome == AdmissionQueue<std::shared_ptr<Job>>::PopOutcome::kTimeout) {
      if (!connected) {
        try_reconnect();
      } else if (NsSince(last_probe) / 1000000 >=
                 static_cast<uint64_t>(options_.heartbeat_interval_ms)) {
        // Idle long enough: one bounded kHeartbeat round-trip. A failed
        // probe demotes the connection — the next pop timeout re-dials.
        Status beat = HeartbeatProbe(worker_index);
        last_probe = Clock::now();
        if (beat.ok()) {
          ServerCounter("server.worker.heartbeats")->Increment();
        } else {
          ServerCounter("server.worker.heartbeat_failures")->Increment();
          b_raw_[worker_index]->Close();
          connected = false;
          note_link(true, false);
          backoff_ms = kReconnectBackoffMs;
        }
      }
      continue;
    }
    queue_wait->Record(NsSince(job->enqueued_at));
    // Re-establish the query's distributed trace id on this worker thread
    // for the rest of the iteration: spans, log lines and the flight
    // record all tag with the client's id (0 = untraced, a no-op).
    trace::ScopedTraceId scoped_trace(job->trace_id);
    // Shed, never run, a query whose deadline expired while it queued:
    // the client has already timed out, so the HE work would be wasted.
    if (Clock::now() >= job->deadline) {
      expired_queries->Increment();
      ServerCounter("server.queries.failed")->Increment();
      FinishJob(job, DeadlineExceededError(
                         "query deadline expired in the admission queue"));
      job.reset();
      continue;
    }
    if (!connected) {
      // One immediate attempt on behalf of this job; if B is still down,
      // shed with a typed transient error rather than stall the client
      // for the full protocol timeout.
      try_reconnect();
      if (!connected) {
        ServerCounter("server.queries.failed")->Increment();
        FinishJob(job, UnavailableError(
                           "party B unreachable (worker reconnecting); "
                           "retry with backoff"));
        job.reset();
        continue;
      }
    }
    const int delay = worker_delay_ms_.load(std::memory_order_relaxed);
    if (delay > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    }
    // Execute, with bounded whole-query re-execution: the protocol is
    // stateless per query, so after a broken A<->B exchange the query is
    // re-run from StartQuery (fresh mask and permutation — the leakage
    // argument is DESIGN.md §8.3) on a fresh connection, at most
    // RetryPolicy::max_query_reexecutions times and never past the
    // deadline.
    const auto t0 = Clock::now();
    Status status;
    int attempt = 0;
    // One flight record per server-side query, its phases summed over
    // every attempt (OPERATIONS.md "The flight recorder").
    FlightRecord record;
    trace::TraceSpan exec_span("server.query");
    for (;; ++attempt) {
      status = RunQueryOnWorker(worker_index, job.get(), &record);
      if (status.ok()) break;
      // The worker's B connection may hold half a query's frames; the
      // only cross-process drain is a fresh connection (PROTOCOL.md).
      if (stop_.load(std::memory_order_relaxed)) break;
      try_reconnect();
      if (!MayReexecute(status, attempt, net::RetryPolicy())) break;
      if (status.code() == StatusCode::kDeadlineExceeded ||
          Clock::now() >= job->deadline) {
        break;  // no budget left to re-execute against
      }
      if (!connected) {
        status = Annotate(status, "party B unreachable after failure");
        break;
      }
      ServerCounter("server.query.reexecutions")->Increment();
    }
    const double seconds = static_cast<double>(NsSince(t0)) * 1e-9;
    query_latency->Record(NsSince(job->enqueued_at));
    if (status.ok()) {
      ServerCounter("server.queries.completed")->Increment();
    } else {
      ServerCounter("server.queries.failed")->Increment();
      // Every deadline on the worker's channel is the query's own.
      if (status.code() == StatusCode::kDeadlineExceeded) {
        expired_queries->Increment();
      }
    }
    record.num_points = deployment_.layout.num_points();
    record.dims = deployment_.layout.dims();
    record.k = deployment_.config.k;
    record.AddToPhase(kServerQueryPhase, seconds, 0, -1);
    record.reexecutions = static_cast<uint64_t>(attempt);
    record.ok = status.ok();
    record.status = status.ok() ? "ok" : status.message();
    FlightRecorder::Global().Add(std::move(record));
    FinishJob(job, std::move(status));
    job.reset();
  }
}

Status PartyAServer::ServeExchange(ExchangeHead head,
                                   net::ResilientChannel* ch) {
  if (head.frame.type != net::MessageType::kQuery) {
    return DataLossError("expected a kQuery frame");
  }
  Status outcome;
  std::shared_ptr<Job> job = std::make_shared<Job>();
  auto ct = FreshCtFromBytes(*deployment_.ctx, std::move(head.frame.payload));
  if (!ct.ok()) {
    outcome = ct.status();
  } else {
    job->query_ct = std::move(ct).value();
    job->enqueued_at = Clock::now();
    job->deadline =
        head.deadline.value_or(DeadlineIn(kDefaultQueryDeadlineMs));
    job->trace_id = head.trace_id;
    ServerCounter("server.queries.accepted")->Increment();
    if (draining_.load(std::memory_order_relaxed) ||
        stop_.load(std::memory_order_relaxed)) {
      ServerCounter("server.queries.shed")->Increment();
      outcome = UnavailableError(
          "server draining: not accepting new queries; retry elsewhere");
    } else if (Clock::now() >= job->deadline) {
      expired_queries->Increment();
      outcome =
          DeadlineExceededError("query deadline expired before admission");
    } else if (!queue_->TryPush(job)) {
      // Backpressure: typed shed, never a hang (DESIGN.md §9).
      ServerCounter("server.queries.shed")->Increment();
      outcome = UnavailableError("admission queue full (" +
                                 std::to_string(options_.queue_capacity) +
                                 " queued); retry with backoff");
    } else {
      std::unique_lock<std::mutex> lock(job->mu);
      job->cv.wait(lock, [&] { return job->done; });
      outcome = job->status;
    }
  }
  if (!outcome.ok()) return SendControl(ch, ErrControl(outcome));
  SKNN_RETURN_IF_ERROR(SendControl(ch, OkControl(job->effective_k)));
  for (const std::vector<uint8_t>& payload : job->result_payloads) {
    SKNN_RETURN_IF_ERROR(ch->SendMessage(net::MessageType::kResults, payload));
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// RemoteClient

RemoteClient::RemoteClient(const Deployment& deployment,
                           const ServerOptions& options)
    : config_(deployment.config), options_(options) {
  client_ = std::make_unique<Client>(deployment.ctx, deployment.config,
                                     deployment.layout, deployment.pk,
                                     deployment.sk, deployment.client_seed);
}

StatusOr<std::unique_ptr<RemoteClient>> RemoteClient::Connect(
    const Deployment& deployment, const std::string& host, uint16_t port,
    const ServerOptions& options) {
  auto rc = std::unique_ptr<RemoteClient>(
      new RemoteClient(deployment, options));
  rc->fingerprint_ = deployment.fingerprint;
  rc->host_ = host;
  rc->port_ = port;
  SKNN_RETURN_IF_ERROR(rc->Reconnect());
  return rc;
}

Status RemoteClient::Reconnect() {
  ch_.reset();
  if (conn_) conn_->Close();
  SKNN_ASSIGN_OR_RETURN(
      conn_, net::ConnectSocket(host_, port_, options_.connect_timeout_ms,
                                "client->A"));
  auto ch = std::make_unique<net::ResilientChannel>(
      conn_.get(), net::RetryPolicy(), port_, "client");
  ch->set_deadline(DeadlineIn(options_.connect_timeout_ms));
  SKNN_RETURN_IF_ERROR(DialHandshake(ch.get(), "client", fingerprint_));
  ch_ = std::move(ch);
  dirty_ = false;
  return Status::Ok();
}

StatusOr<std::vector<std::vector<uint64_t>>> RemoteClient::Query(
    const std::vector<uint64_t>& query, uint64_t deadline_ms) {
  // Distributed trace identity: when the global tracer is on (or the
  // caller already runs under a trace id), this query gets one 64-bit id
  // that rides a kControl preamble to Party A and from there to Party B,
  // tagging every process's spans/flight records/log lines. Untraced
  // queries send no preamble — the wire stays byte-identical.
  uint64_t trace_id = trace::CurrentTraceId();
  if (trace_id == 0 && trace::Tracer::Global().enabled()) {
    trace_id = trace::MintTraceId();
  }
  last_trace_id_ = trace_id;
  trace::ScopedTraceId scoped_trace(trace_id);
  trace::TraceSpan query_span("client.remote_query");
  // A previous exchange that was abandoned mid-reply (deadline expiry,
  // mid-stream disconnect) left an unconsumed — or half-consumed — reply
  // on the connection; start this query on a fresh one instead of
  // misreading the stale frames as our reply.
  if (dirty_ || !ch_) {
    SKNN_RETURN_IF_ERROR(Reconnect());
  }
  // Per-query epoch, mirrored by the server's connection handler.
  ch_->ResetEpoch();
  // Bound the client's own receive waits by the budget (the server's
  // default when we send none) plus a grace window: the server's deadline
  // is anchored later (at receipt) and it answers expiry with a typed
  // error, so a healthy server's reply lands inside the grace window and
  // the connection stays clean. Only a server that is itself dead or
  // stalled runs the window out.
  if (deadline_ms > kMaxDeadlineBudgetMs) {
    return InvalidArgumentError("deadline_ms=" + std::to_string(deadline_ms) +
                                " exceeds kMaxDeadlineBudgetMs");
  }
  const int64_t budget_ms = deadline_ms > 0
                                ? static_cast<int64_t>(deadline_ms)
                                : kDefaultQueryDeadlineMs;
  ch_->set_deadline(DeadlineIn(budget_ms + budget_ms / 4 + 250));
  SKNN_ASSIGN_OR_RETURN(bgv::Ciphertext query_ct,
                        client_->EncryptQuery(query));
  // From the first frame out until the last reply frame in, any failure
  // leaves the exchange incomplete on the wire.
  dirty_ = true;
  // The deadline travels as a relative budget: the server's clock is not
  // ours, so it anchors the absolute deadline at receipt.
  SKNN_RETURN_IF_ERROR(SendPreambles(trace_id, deadline_ms, ch_.get()));
  SKNN_RETURN_IF_ERROR(
      ch_->SendMessage(net::MessageType::kQuery, CtToBytes(query_ct)));
  SKNN_ASSIGN_OR_RETURN(std::vector<uint8_t> reply_bytes,
                        ch_->ReceiveMessage(net::MessageType::kControl));
  const std::string reply(reply_bytes.begin(), reply_bytes.end());
  size_t k = 0;
  Status verdict = ParseControlReply(reply, &k);
  if (!verdict.ok()) {
    // A typed server error is a complete exchange: the reply was
    // consumed, the connection is clean for the next query.
    dirty_ = false;
    return verdict;
  }
  // The server's effective k is min(config.k, num_points), so anything
  // above config.k is a corrupt or hostile control frame; bound it before
  // reserving and looping on result frames.
  if (k > config_.k) {
    return DataLossError("control reply k=" + std::to_string(k) +
                         " exceeds configured k=" +
                         std::to_string(config_.k));
  }
  std::vector<std::vector<uint64_t>> neighbours;
  neighbours.reserve(k);
  for (size_t j = 0; j < k; ++j) {
    SKNN_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                          ch_->ReceiveMessage(net::MessageType::kResults));
    SKNN_ASSIGN_OR_RETURN(bgv::Ciphertext ct, CtFromBytes(std::move(bytes)));
    SKNN_ASSIGN_OR_RETURN(std::vector<uint64_t> point,
                          client_->DecryptNeighbour(ct));
    neighbours.push_back(std::move(point));
  }
  dirty_ = false;
  return neighbours;
}

template class AdmissionQueue<std::shared_ptr<PartyAServer::Job>>;
template class AdmissionQueue<int>;  // unit-test instantiation

}  // namespace core
}  // namespace sknn
