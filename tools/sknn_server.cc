// sknn_server_a / sknn_server_b — the two-cloud deployment as long-lived
// processes (OPERATIONS.md is the operator's guide).
//
//   sknn_server_b --port=7102 --n=64 --d=2 --k=3 --preset=toy --seed=1
//   sknn_server_a --port=7101 --peer-port=7102 --workers=2 --queue=8
//                 --n=64 --d=2 --k=3 --preset=toy --seed=1   (one line)
//
// Both processes must be launched with the same dataset/protocol flags
// and --seed: each derives the full deployment (keys, layout, encrypted
// database) locally from the seed, and the connection handshake rejects
// a peer whose derivation fingerprint differs.
//
// Observability: --metrics-out=FILE rewrites the metrics registry in
// Prometheus text format every --metrics-interval-s seconds (and once at
// shutdown); --flight-record=FILE dumps the per-query flight-recorder
// ring as JSON at shutdown.
//
// SIGINT/SIGTERM trigger a graceful drain (OPERATIONS.md "Failure
// runbook"): the server stops admitting queries, gives queued + in-flight
// work up to --drain-ms to finish, answers stragglers with a typed
// UNAVAILABLE, then flushes metrics and flight records and exits 0.

#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/flight_recorder.h"
#include "common/json_writer.h"
#include "common/metrics_registry.h"
#include "common/trace.h"
#include "core/server.h"
#include "deployment_flags.h"
#include "math/simd/kernels.h"
#include "obs/telemetry_http.h"

namespace {

using namespace sknn;  // NOLINT

using tools::DeploymentFlags;
using tools::Flags;
using tools::ParseDeploymentFlags;

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

void Usage(const char* role) {
  std::fprintf(
      stderr,
      "usage: sknn_server_%s [--key=value...]\n"
      "deployment (must agree between A, B, and clients):\n"
      "  --n=100 --d=2 --k=5 --coord-bits=4 --degree=2 --seed=1\n"
      "  --dataset=uniform|cancer|credit --preset=toy|bench|default\n"
      "  --layout=packed|per-point\n"
      "serving:\n"
      "  --host=127.0.0.1 --port=0 (0 = ephemeral, printed at startup)\n"
      "  --drain-ms=5000  graceful-drain budget on SIGINT/SIGTERM\n"
      "  --threads=0  per-query ciphertext parallelism (0 = one thread\n"
      "      per core, 1 = inline)\n"
      "%s"
      "observability:\n"
      "  --metrics-out=FILE [--metrics-interval-s=5]  periodic Prometheus\n"
      "  --flight-record=FILE  per-query flight records (JSON, at exit)\n"
      "  --admin-port=PORT [--admin-host=127.0.0.1]  live HTTP endpoints\n"
      "      (/metrics /healthz /readyz /flightz /varz; port 0 = ephemeral,\n"
      "      printed at startup; see OPERATIONS.md \"Monitoring\")\n"
      "  --trace=FILE  enable tracing; Chrome trace written at exit\n"
      "      (stitch per-process files with tools/trace_stitch.py)\n",
      role,
      std::strcmp(role, "a") == 0
          ? "  --peer-host=127.0.0.1 --peer-port=PORT  where server B "
            "listens\n  --workers=2  worker pool size (max queries in "
            "flight)\n  --queue=8  admission queue capacity (excess "
            "queries shed)\n"
          : "");
}

int ServerMain(int argc, char** argv, bool role_a) {
  const Flags flags(argc, argv, /*has_command=*/false);
  if (flags.Str("help", "") == std::string("true")) {
    Usage(role_a ? "a" : "b");
    return 2;
  }

  const DeploymentFlags dep = ParseDeploymentFlags(flags);
  const core::ProtocolConfig& cfg = dep.config;
  const data::Dataset& dataset = dep.dataset;
  const uint64_t seed = dep.seed;

  std::printf("deriving deployment (%s, %zu x %zu '%s', seed %llu)...\n",
              cfg.DebugString().c_str(), dataset.num_points(), dataset.dims(),
              dep.dataset_name.c_str(), static_cast<unsigned long long>(seed));
  auto deployment = core::Deployment::Derive(cfg, dataset, seed, role_a);
  if (!deployment.ok()) {
    std::fprintf(stderr, "derive: %s\n",
                 deployment.status().ToString().c_str());
    return 1;
  }

  core::ServerOptions options;
  options.listen_host = flags.Str("host", "127.0.0.1");
  options.listen_port = static_cast<uint16_t>(flags.U64("port", 0));
  options.peer_host = flags.Str("peer-host", "127.0.0.1");
  options.peer_port = static_cast<uint16_t>(flags.U64("peer-port", 0));
  options.workers = flags.U64("workers", 2);
  options.queue_capacity = flags.U64("queue", 8);
  const int drain_ms = static_cast<int>(flags.U64("drain-ms", 5000));

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  uint16_t port = 0;
  std::unique_ptr<core::PartyAServer> server_a;
  std::unique_ptr<core::PartyBServer> server_b;
  if (role_a) {
    if (options.peer_port == 0) {
      std::fprintf(stderr,
                   "sknn_server_a needs --peer-port (where server B "
                   "listens)\n");
      return 2;
    }
    auto server = core::PartyAServer::Start(*deployment, options);
    if (!server.ok()) {
      std::fprintf(stderr, "start: %s\n", server.status().ToString().c_str());
      return 1;
    }
    server_a = std::move(server).value();
    port = server_a->port();
  } else {
    auto server = core::PartyBServer::Start(*deployment, options);
    if (!server.ok()) {
      std::fprintf(stderr, "start: %s\n", server.status().ToString().c_str());
      return 1;
    }
    server_b = std::move(server).value();
    port = server_b->port();
  }
  std::printf("sknn_server_%s listening on %s:%u (fingerprint %llx)\n",
              role_a ? "a" : "b", options.listen_host.c_str(), port,
              static_cast<unsigned long long>(deployment->fingerprint));
  std::fflush(stdout);

  // Hidden test hook (process_chaos_test): an artificial per-query worker
  // delay keeps queries in flight long enough that the drain window — and
  // the /readyz 503 it causes — is observable from outside the process.
  const int test_delay_ms =
      static_cast<int>(flags.U64("test-worker-delay-ms", 0));
  if (server_a && test_delay_ms > 0) {
    server_a->set_worker_delay_ms_for_test(test_delay_ms);
  }

  const std::string trace_path = flags.Str("trace", "");
  if (!trace_path.empty()) trace::Tracer::Global().Enable();

  // Live telemetry plane (OPERATIONS.md "Monitoring"): /metrics, /healthz,
  // /readyz, /flightz, /varz on a separate admin port. Stays up through
  // the drain so probes watch readiness flip; torn down on process exit.
  std::unique_ptr<obs::TelemetryHttpServer> admin;
  if (!flags.Str("admin-port", "").empty()) {
    const std::string admin_host = flags.Str("admin-host", "127.0.0.1");
    auto started = obs::TelemetryHttpServer::Start(
        admin_host, static_cast<uint16_t>(flags.U64("admin-port", 0)));
    if (!started.ok()) {
      std::fprintf(stderr, "--admin-port: %s\n",
                   started.status().ToString().c_str());
      return 1;
    }
    admin = std::move(started).value();
    obs::BuildInfo info;
    info.role = role_a ? "party_a" : "party_b";
    info.simd_backend = simd::ActiveKernels().name;
    char fp_hex[32];
    std::snprintf(fp_hex, sizeof(fp_hex), "%llx",
                  static_cast<unsigned long long>(deployment->fingerprint));
    info.params_fingerprint = fp_hex;
    core::PartyAServer* a = server_a.get();
    core::PartyBServer* b = server_b.get();
    obs::RegisterStandardEndpoints(admin.get(), info, [a, b]() -> Status {
      if (g_stop) return UnavailableError("draining: stop signal received");
      if (a != nullptr) {
        if (a->draining()) return UnavailableError("draining");
        if (a->connected_workers() == 0) {
          return UnavailableError(
              "no connected B workers (B down or unreachable; workers "
              "reconnecting)");
        }
      }
      if (b != nullptr && b->draining()) return UnavailableError("draining");
      return Status::Ok();
    });
    std::printf("admin listening on %s:%u\n", admin_host.c_str(),
                admin->port());
    std::fflush(stdout);
  }

  const std::string metrics_path = flags.Str("metrics-out", "");
  const int metrics_interval_s =
      static_cast<int>(flags.U64("metrics-interval-s", 5));
  const std::string flight_path = flags.Str("flight-record", "");

  int since_metrics_write = metrics_interval_s;  // write once at startup
  while (!g_stop) {
    if (!metrics_path.empty() && since_metrics_write >= metrics_interval_s) {
      since_metrics_write = 0;
      if (!json::WriteFile(metrics_path,
                           MetricsRegistry::Global().PrometheusText())) {
        std::fprintf(stderr, "--metrics-out: cannot write %s\n",
                     metrics_path.c_str());
      }
    }
    std::this_thread::sleep_for(std::chrono::seconds(1));
    ++since_metrics_write;
  }

  // Graceful drain before teardown: answer or shed everything in flight
  // under the drain budget so no client is left mid-exchange, then flush
  // observability state. Exit code 0 on this path — a drained stop is a
  // clean stop.
  std::printf("draining (up to %d ms)...\n", drain_ms);
  std::fflush(stdout);
  if (server_a) {
    server_a->Drain(drain_ms);
    server_a->Shutdown();
  }
  if (server_b) {
    server_b->Drain(drain_ms);
    server_b->Shutdown();
  }
  if (!metrics_path.empty()) {
    json::WriteFile(metrics_path, MetricsRegistry::Global().PrometheusText());
    std::printf("metrics written to %s\n", metrics_path.c_str());
  }
  if (!flight_path.empty()) {
    if (json::WriteFile(flight_path, FlightRecorder::Global().Json())) {
      std::printf("flight records written to %s\n", flight_path.c_str());
    } else {
      std::fprintf(stderr, "--flight-record: cannot write %s\n",
                   flight_path.c_str());
    }
  }
  if (!trace_path.empty()) {
    // Written after drain so every span is closed. The stitch metadata
    // carries this process's steady-clock epoch (and, on A, the
    // heartbeat-estimated B clock offset) so tools/trace_stitch.py can
    // align the per-process files into one timeline.
    trace::TraceMeta meta;
    meta.process = role_a ? "party_a" : "party_b";
    if (server_a) meta.peer_clock_offset_ns = server_a->b_clock_offset_ns();
    const Status written = trace::WriteGlobalTrace(meta, trace_path);
    if (written.ok()) {
      std::printf("trace written to %s\n", trace_path.c_str());
    } else {
      std::fprintf(stderr, "--trace: %s\n", written.ToString().c_str());
    }
  }
  std::printf("drained; exiting\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
#if defined(SKNN_SERVER_ROLE_A)
  return ServerMain(argc, argv, /*role_a=*/true);
#else
  return ServerMain(argc, argv, /*role_a=*/false);
#endif
}
