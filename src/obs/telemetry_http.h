#ifndef SKNN_OBS_TELEMETRY_HTTP_H_
#define SKNN_OBS_TELEMETRY_HTTP_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"

// The live telemetry plane (OPERATIONS.md "Monitoring"): a small
// self-contained HTTP/1.1 server embedded in `sknn_server_a` /
// `sknn_server_b` behind `--admin-port`, so a running deployment can be
// scraped and probed instead of only rewriting a metrics file on a timer.
//
// Scope is deliberately narrow — this is an admin plane, not a web
// server: one blocking accept thread serves requests serially, each on a
// short-lived connection (`Connection: close`), request heads are capped
// at 8 KB, and only GET is answered. It speaks plain HTTP/1.1 over the
// same POSIX sockets as the rest of the repo; no third-party
// dependencies. The SKNF protocol port and the admin port never share a
// listener, so a scraper can never desynchronize the ciphertext stream.
//
// Endpoints are registered as path -> handler; `RegisterStandardEndpoints`
// wires the five standard ones (/metrics, /healthz, /readyz, /flightz,
// /varz) against the process-global registries. `tools/check_docs.sh`
// cross-checks the registered paths against the OPERATIONS.md endpoint
// table.

namespace sknn {
namespace obs {

struct HttpRequest {
  std::string method;  // "GET", ...
  std::string path;    // decoded target path, query string stripped
  // Query parameters ("?n=10&x=y"), raw (no %-decoding: admin values are
  // ASCII numbers and words).
  std::map<std::string, std::string> params;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

class TelemetryHttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  // Binds and starts the accept thread. `port` 0 picks an ephemeral port
  // (read back with port()).
  static StatusOr<std::unique_ptr<TelemetryHttpServer>> Start(
      const std::string& host, uint16_t port);
  ~TelemetryHttpServer();

  TelemetryHttpServer(const TelemetryHttpServer&) = delete;
  TelemetryHttpServer& operator=(const TelemetryHttpServer&) = delete;

  uint16_t port() const { return port_; }

  // Registers (or replaces) the handler for an exact path. Safe to call
  // while the server is running.
  void RegisterHandler(const std::string& path, Handler handler);

  // Registered paths, sorted (the /varz "endpoints" listing).
  std::vector<std::string> RegisteredPaths() const;

  // Stops the accept thread and closes the listener. Idempotent; the
  // destructor calls it.
  void Shutdown();

 private:
  TelemetryHttpServer() = default;
  void AcceptLoop();
  void ServeOne(int client_fd);

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread accept_thread_;
  mutable std::mutex mu_;
  std::map<std::string, Handler> handlers_;
};

// Static build/process facts reported by /varz. The caller fills what it
// knows; `simd_backend` comes from the caller so this library depends
// only on sknn_common (git SHA and build type default to the values
// baked into sknn_obs at configure time when left empty).
struct BuildInfo {
  std::string role;                // "party_a" | "party_b"
  std::string git_sha;             // defaults to SKNN_OBS_GIT_SHA
  std::string build_type;          // defaults to SKNN_OBS_BUILD_TYPE
  std::string simd_backend;        // simd::ActiveKernels().name
  std::string params_fingerprint;  // deployment fingerprint, hex
};

// Readiness probe: Ok = serve traffic; an error's message becomes the
// 503 body of /readyz (e.g. "draining" or "no connected B workers").
using ReadyCheck = std::function<Status()>;

// Registers the five standard endpoints:
//   /metrics     live MetricsRegistry::Global().PrometheusText()
//   /healthz     pure liveness (200 once the process serves HTTP at all)
//   /readyz      200 when `ready` returns Ok, 503 with the reason else
//   /flightz?n=K last K flight records as JSON (default 32)
//   /varz        build info + uptime as JSON
// Every /metrics scrape refreshes the `obs.uptime_seconds` gauge so the
// exposition itself carries process uptime.
void RegisterStandardEndpoints(TelemetryHttpServer* server,
                               const BuildInfo& info, ReadyCheck ready);

// Minimal scrape client for the tests (the conformance tests, the
// process_chaos mid-run /metrics scrape and /readyz probes). One GET,
// bounded by `timeout_ms` end-to-end.
struct HttpGetResult {
  int status = 0;
  std::string body;
  double latency_ms = 0;
};
StatusOr<HttpGetResult> HttpGet(const std::string& host, uint16_t port,
                                const std::string& path_and_query,
                                int timeout_ms = 5000);

}  // namespace obs
}  // namespace sknn

#endif  // SKNN_OBS_TELEMETRY_HTTP_H_
