#ifndef SKNN_CORE_SERVER_H_
#define SKNN_CORE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bgv/ciphertext.h"
#include "bgv/context.h"
#include "bgv/keys.h"
#include "common/flight_recorder.h"
#include "core/client.h"
#include "core/deployment.h"
#include "core/layout.h"
#include "core/party_a.h"
#include "core/party_b.h"
#include "core/protocol_config.h"
#include "data/dataset.h"
#include "net/resilient_channel.h"
#include "net/socket_link.h"

// The two-cloud deployment in server form (OPERATIONS.md): long-lived
// Party A and Party B processes on the socket transport, serving many
// concurrent client sessions.
//
//   client ──kQuery──▶ PartyAServer ──kDistances──▶ PartyBServer
//   client ◀─kResults── (worker pool) ◀─kIndicators── (per-connection B)
//
// Party A accepts client connections, admits each query into a bounded
// queue (backpressure: a full queue sheds with a typed kUnavailable
// control reply — DESIGN.md §9), and a pool of workers drains the queue.
// Every worker owns a persistent connection to Party B; one query's
// A<->B exchange runs on exactly one worker connection with a fresh
// resilient-channel epoch, so concurrent queries never interleave frames.
// Party B spawns one thread + one PartyB instance per inbound connection.
// Both servers run the same connection path (accept, handshake, then one
// exchange after another); only the per-exchange handler differs.
//
// Key distribution follows Figure 2 of the paper: every process derives
// its key material locally from the shared data-owner seed (`Deployment`,
// core/deployment.h) instead of shipping keys over the wire; the
// handshake fingerprint rejects peers whose derivation diverged.

namespace sknn {
namespace core {

struct ServerOptions {
  std::string listen_host = "127.0.0.1";
  uint16_t listen_port = 0;  // 0 = ephemeral, read back with port()
  // Party A only: where Party B listens.
  std::string peer_host = "127.0.0.1";
  uint16_t peer_port = 0;
  // Party A only: worker pool size == number of persistent A->B
  // connections == max queries in flight.
  size_t workers = 2;
  // Party A only: admission queue capacity; a query arriving when
  // `queue_capacity` jobs are already waiting is shed with kUnavailable.
  size_t queue_capacity = 8;
  int connect_timeout_ms = 5000;
  // Party A only: an idle worker probes its B connection with a
  // kHeartbeat exchange every `heartbeat_interval_ms`, so a silently dead
  // B (SIGKILL, power loss: no FIN/RST ever arrives) is detected within
  // one interval instead of at the next query (OPERATIONS.md "Failure
  // runbook").
  int heartbeat_interval_ms = 1000;

  // perfbench's probe only: a receive budget of ~10 s (500 polls of a
  // socket's 20 ms window) for its deadline-less loopback channels. The
  // servers and RemoteClient bound every receive by a deadline instead.
  static net::RetryPolicy ServerRetryPolicy() {
    net::RetryPolicy p;
    p.max_receive_polls = 500;
    return p;
  }
};

// The accept + per-connection loop both servers run (server.cc).
class ConnectionLoop;
struct ExchangeHead;

// Bounded multi-producer multi-consumer admission queue. TryPush returns
// false when full (the caller sheds); PopFor waits a bounded time for an
// item.
// Exports queue.depth / queue.capacity gauges and queue.enqueued /
// queue.shed counters.
template <typename T>
class AdmissionQueue {
 public:
  enum class PopOutcome { kItem, kTimeout, kStopped };

  explicit AdmissionQueue(size_t capacity);

  bool TryPush(T item);
  // Bounded wait: kItem fills *out, kTimeout after `timeout_ms` with no
  // item (the worker's cue to heartbeat or retry a reconnect), kStopped
  // when the queue is stopped and empty.
  PopOutcome PopFor(T* out, int timeout_ms);
  void Stop();
  // Stops the queue and hands back everything still queued, so a
  // draining server can answer the stragglers with a typed error
  // instead of leaving their connection threads blocked forever.
  std::vector<T> StopAndDrain();

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> items_;
  bool stopped_ = false;
};

// Party B as a server: accepts connections from Party A workers, runs
// FindNeighbours + indicator emission per query, one thread and one
// PartyB instance per connection (per-connection isolation: a connection
// never shares selection state or RNG draws with another). Appends one
// flight record per query, under the trace id A forwarded.
class PartyBServer {
 public:
  static StatusOr<std::unique_ptr<PartyBServer>> Start(
      const Deployment& deployment, const ServerOptions& options);
  ~PartyBServer();

  uint16_t port() const;
  // Graceful drain: stop accepting new connections (a connection opened
  // from now on is never handshaken), wait up to `deadline_ms` for
  // in-flight exchanges to finish, then return. Idempotent; Shutdown
  // still closes the connections afterwards.
  void Drain(int deadline_ms);
  void Shutdown();

  // Readiness for the /readyz admin endpoint: a draining B must answer
  // 503 so load balancers stop routing new A connections to it.
  bool draining() const { return draining_.load(std::memory_order_relaxed); }

 private:
  explicit PartyBServer(Deployment deployment);
  // One exchange on a connection: a heartbeat echo or one query (u
  // distance frames in, k_eff rows of u indicator frames out).
  Status ServeExchange(PartyB* party_b, ExchangeHead head,
                       net::ResilientChannel* ch);

  Deployment deployment_;
  std::atomic<bool> draining_{false};
  std::unique_ptr<ConnectionLoop> loop_;
};

// Party A as a server: accepts client connections, admission-controls
// queries into the worker pool, runs the A side of the protocol against
// Party B over per-worker persistent connections, and returns encrypted
// results. Exports server.* and queue.* metrics and appends one flight
// record per query.
class PartyAServer {
 public:
  // Connects `options.workers` channels to Party B (handshaking each)
  // before accepting clients; fails if B is unreachable.
  static StatusOr<std::unique_ptr<PartyAServer>> Start(
      const Deployment& deployment, const ServerOptions& options);
  ~PartyAServer();

  uint16_t port() const;
  // Graceful drain (OPERATIONS.md "Failure runbook"): new queries are
  // shed with a typed kUnavailable while queued + in-flight queries get
  // up to `deadline_ms` to finish; stragglers still queued at the
  // deadline are answered with a typed kUnavailable so no client is left
  // hanging. Idempotent; call Shutdown afterwards to release threads and
  // sockets.
  void Drain(int deadline_ms);
  void Shutdown();

  // --- Readiness + link state for the /readyz and /varz admin endpoints.
  bool draining() const { return draining_.load(std::memory_order_relaxed); }
  // Workers whose persistent B connection is currently up. 0 = every
  // worker is in its reconnect loop (B down or unreachable): the server
  // is alive but cannot serve, so /readyz answers 503.
  int connected_workers() const {
    return connected_workers_.load(std::memory_order_relaxed);
  }
  // Estimated (B steady clock) - (A steady clock) in ns, refreshed by
  // every successful heartbeat probe from B's echoed clock sample and the
  // probe RTT. 0 until the first probe completes. trace_stitch uses it to
  // align the two parties' trace timelines.
  int64_t b_clock_offset_ns() const {
    return b_clock_offset_ns_.load(std::memory_order_relaxed);
  }

  // Test hook: artificial per-query delay in the worker (exercises
  // backpressure deterministically).
  void set_worker_delay_ms_for_test(int ms) { worker_delay_ms_ = ms; }
  // Test hook: the next `n` worker query executions fail with a typed
  // kAborted before touching the B connection, exercising the
  // close-reconnect-re-execute recovery path deterministically.
  void inject_worker_faults_for_test(int n) { inject_faults_ = n; }

 private:
  struct Job;

  PartyAServer(Deployment deployment, ServerOptions options);
  // One client exchange: admit the kQuery, wait for a worker to run it,
  // reply with the control line and the result frames.
  Status ServeExchange(ExchangeHead head, net::ResilientChannel* ch);
  void WorkerLoop(size_t worker_index);
  // The A side of one query against B on this worker's channel. Fills
  // job->result_payloads on success.
  Status RunQueryOnWorker(size_t worker_index, Job* job,
                          FlightRecord* record);
  Status ConnectWorkerToB(size_t worker_index, int connect_timeout_ms);
  // One kHeartbeat round-trip on the worker's B connection, bounded by
  // kHeartbeatTimeoutMs.
  Status HeartbeatProbe(size_t worker_index);
  // Completes `job` with `status` and wakes its connection thread.
  static void FinishJob(const std::shared_ptr<Job>& job, Status status);

  Deployment deployment_;
  ServerOptions options_;
  std::unique_ptr<PartyA> party_a_;
  // Set at Shutdown: workers abandon running queries, new ones are shed.
  std::atomic<bool> stop_{false};
  std::atomic<bool> draining_{false};
  std::atomic<int> worker_delay_ms_{0};
  std::atomic<int> inject_faults_{0};
  std::atomic<int> connected_workers_{0};
  std::atomic<int64_t> b_clock_offset_ns_{0};

  std::unique_ptr<AdmissionQueue<std::shared_ptr<Job>>> queue_;
  // Worker w owns b_raw_[w] (socket) wrapped by b_ch_[w] (resilient).
  std::vector<std::unique_ptr<net::SocketChannel>> b_raw_;
  std::vector<std::unique_ptr<net::ResilientChannel>> b_ch_;
  std::vector<std::thread> workers_;
  std::unique_ptr<ConnectionLoop> loop_;
};

// A protocol client over the socket transport: connects to Party A,
// handshakes, then runs queries (encrypt -> kQuery -> control reply ->
// kResults -> decrypt). One connection serves many sequential queries;
// create one RemoteClient per concurrent client thread.
class RemoteClient {
 public:
  static StatusOr<std::unique_ptr<RemoteClient>> Connect(
      const Deployment& deployment, const std::string& host, uint16_t port,
      const ServerOptions& options);

  // Runs one query end-to-end. A shed returns the server's typed
  // kUnavailable; transport failures surface as their transient codes.
  //
  // `deadline_ms` > 0 sets an end-to-end budget: it rides a kControl
  // preamble frame to the server (which sheds the query with a typed
  // kDeadlineExceeded if it expires while queued, and bounds every
  // A<->B leg by the remainder) and bounds the client's own receive
  // waits, so a query can never outlive its deadline on either end.
  // 0 sends no preamble (the wire is byte-identical to the pre-deadline
  // protocol); the server then applies its default deadline of 10 min,
  // and so does the client to its own waits. Above kMaxDeadlineBudgetMs
  // it is kInvalidArgument.
  StatusOr<std::vector<std::vector<uint64_t>>> Query(
      const std::vector<uint64_t>& query, uint64_t deadline_ms = 0);

  // The distributed trace id of the most recent Query call (0 when that
  // query ran untraced). When the global tracer is enabled the client
  // mints one id per query and ships it to Party A in a kControl preamble
  // (PROTOCOL.md "Trace-id preamble"), so the same id tags the client's
  // spans, A's flight record and spans, and B's spans for that query.
  uint64_t last_trace_id() const { return last_trace_id_; }

 private:
  RemoteClient(const Deployment& deployment, const ServerOptions& options);
  // (Re)dials Party A and handshakes. Query calls this transparently when
  // the previous exchange left the connection dirty (an abandoned reply:
  // deadline expiry or a mid-stream failure) — reusing such a connection
  // would hand the NEXT query the stale reply and desynchronize every
  // exchange after it.
  Status Reconnect();

  ProtocolConfig config_;
  ServerOptions options_;
  uint64_t fingerprint_ = 0;
  std::string host_;
  uint16_t port_ = 0;
  std::unique_ptr<Client> client_;
  std::unique_ptr<net::SocketChannel> conn_;
  std::unique_ptr<net::ResilientChannel> ch_;
  bool dirty_ = false;
  uint64_t last_trace_id_ = 0;
};

}  // namespace core
}  // namespace sknn

#endif  // SKNN_CORE_SERVER_H_
