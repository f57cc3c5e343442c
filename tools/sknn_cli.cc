// sknn_cli — command-line driver for the secure k-NN library.
//
//   sknn_cli knn      --n=1000 --d=4 --k=5 [--layout=packed|per-point]
//                     [--dataset=uniform|cancer|credit] [--queries=3]
//                     [--preset=toy|bench|default|paranoid] [--seed=1]
//                     [--threads=0]
//                     [--fault-spec=drop:0.05,flip:0.01 [--fault-seed=1]]
//   sknn_cli kmeans   --n=200 --d=2 --clusters=3 [--iterations=5]
//   sknn_cli baseline --n=50 --d=3 --k=3 [--paillier-bits=256]
//   sknn_cli params   [--preset=...] [--levels=4] [--plain-bits=33]
//   sknn_cli remote   --port=PORT [--host=127.0.0.1] [--queries=3]
//                     [--deadline-ms=0] + the same deployment flags as the
//                     running sknn_server_a/b (the derivation fingerprint
//                     must agree or the handshake is rejected)
//
// `remote` drives a live PartyAServer as a protocol client. With --trace
// it mints one distributed trace id per query (printed per query, and
// propagated to both servers over kControl preambles); stitch this
// process's trace with the servers' --trace files via
// tools/trace_stitch.py to see one query across all three timelines.
//
// `knn` and `remote` check every answer against plaintext brute force
// (knn::CheckExact; `remote` re-derives the servers' dataset from the
// deployment flags), print an `exact:` verdict per query and exit non-zero
// if any answer is not the exact k-NN.
//
// Any subcommand accepts --trace=FILE (before or after the subcommand):
// the run executes with phase tracing enabled, writes a Chrome
// trace_event JSON (load in chrome://tracing or https://ui.perfetto.dev)
// and prints a per-phase time/bytes summary on exit. --metrics-out=FILE
// writes the full metrics registry (counters, bgv.noise.* gauges,
// latency/size histograms) in Prometheus text format; --flight-record=FILE
// writes the per-query flight-recorder ring as JSON.
//
// Every subcommand prints what it would leak and what it measured.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "baseline/elmehdwi.h"
#include "common/flight_recorder.h"
#include "common/json_writer.h"
#include "common/metrics_registry.h"
#include "common/trace.h"
#include "common/trace_id.h"
#include "core/config_advisor.h"
#include "core/exchange.h"
#include "core/server.h"
#include "core/session.h"
#include "data/generators.h"
#include "deployment_flags.h"
#include "extensions/secure_kmeans.h"
#include "knn/knn.h"

namespace {

using namespace sknn;  // NOLINT

using tools::DeploymentFlags;
using tools::Flags;
using tools::ParseDeploymentFlags;
using tools::PresetFromString;

// Prints an answer's squared distances and its exactness verdict against
// plaintext brute force; returns whether the answer is exact.
bool ReportAnswer(const data::Dataset& dataset,
                  const std::vector<uint64_t>& query, size_t k,
                  const std::vector<std::vector<uint64_t>>& neighbours) {
  std::printf("  neighbours:");
  for (const auto& p : neighbours) {
    uint64_t dist = 0;
    for (size_t j = 0; j < query.size() && j < p.size(); ++j) {
      const uint64_t diff =
          p[j] > query[j] ? p[j] - query[j] : query[j] - p[j];
      dist += diff * diff;
    }
    std::printf(" d2=%llu", static_cast<unsigned long long>(dist));
  }
  const Status exact = knn::CheckExact(dataset, query, k, neighbours);
  std::printf("\n  exact: %s\n",
              exact.ok() ? "yes (matches plaintext brute force)"
                         : exact.ToString().c_str());
  return exact.ok();
}

// Seconds a query's flight record holds for `phase` (0 if it never ran).
double PhaseSeconds(const FlightRecord& record, std::string_view phase) {
  for (const FlightRecord::Phase& p : record.phases) {
    if (p.name == phase) return p.seconds;
  }
  return 0;
}

int RunKnn(const Flags& flags) {
  const DeploymentFlags dep = ParseDeploymentFlags(flags);
  const core::ProtocolConfig& cfg = dep.config;
  const data::Dataset& dataset = dep.dataset;
  const uint64_t seed = dep.seed;

  std::printf("secure k-NN: %s over %zu x %zu dataset '%s'\n",
              cfg.DebugString().c_str(), dataset.num_points(), dataset.dims(),
              dep.dataset_name.c_str());
  auto session = core::SecureKnnSession::Create(cfg, dataset, seed);
  if (!session.ok()) {
    std::fprintf(stderr, "setup: %s\n", session.status().ToString().c_str());
    return 1;
  }
  const std::string fault_spec_str = flags.Str("fault-spec", "");
  if (!fault_spec_str.empty()) {
    auto spec = net::ParseFaultSpec(fault_spec_str);
    if (!spec.ok()) {
      std::fprintf(stderr, "--fault-spec: %s\n",
                   spec.status().ToString().c_str());
      return 2;
    }
    (*session)->SetFaultInjection(*spec, flags.U64("fault-seed", 1));
    std::printf("fault injection on A<->B link: %s\n",
                spec->DebugString().c_str());
  }

  const auto& report = (*session)->setup_report();
  std::printf("setup %.2fs, encrypted db %.2f MB, eval keys %.2f MB, "
              "estimated security %.0f bits\n",
              report.setup_seconds,
              static_cast<double>(report.encrypted_db_bytes) / 1e6,
              static_cast<double>(report.evaluation_key_bytes) / 1e6,
              report.estimated_security_bits);

  const int queries = static_cast<int>(flags.U64("queries", 1));
  int inexact = 0;
  for (int q = 0; q < queries; ++q) {
    auto query =
        data::UniformQuery(cfg.dims, (uint64_t{1} << cfg.coord_bits) - 1,
                           seed + 1000 + static_cast<uint64_t>(q));
    auto result = (*session)->RunQuery(query);
    if (!result.ok()) {
      // Under fault injection a query may exhaust its re-executions; that
      // is a clean typed error, not a reason to abandon the run.
      std::fprintf(stderr, "query %d: %s%s\n", q,
                   result.status().ToString().c_str(),
                   result.status().IsTransient() ? " (transient)" : "");
      if (fault_spec_str.empty()) return 1;
      continue;
    }
    const FlightRecord& record = result->record;
    std::printf(
        "query %d: %.2fs (dist %.2f, select %.2f, return %.2f), "
        "%llu rounds, A->B %.2f MB, B->A %.2f MB\n",
        q, result->seconds(),
        PhaseSeconds(record, core::kComputeDistancesPhase),
        PhaseSeconds(record, core::kFindNeighboursPhase),
        PhaseSeconds(record, core::kReturnKnnPhase),
        static_cast<unsigned long long>((result->ab_link.rounds + 1) / 2),
        static_cast<double>(result->ab_link.bytes_a_to_b) / 1e6,
        static_cast<double>(result->ab_link.bytes_b_to_a) / 1e6);
    if (result->reexecutions > 0) {
      std::printf("  re-executed %d time(s) after transient faults\n",
                  result->reexecutions);
    }
    if (!ReportAnswer(dataset, query, cfg.k, result->neighbours)) ++inexact;
  }
  if (!fault_spec_str.empty()) {
    // Transport-resilience counters (inventory documented in README.md).
    std::printf("transport counters:\n");
    for (const auto& [name, value] :
         MetricsRegistry::Global().CounterValues()) {
      const bool relevant = name.rfind("net.", 0) == 0 ||
                            name.rfind("query.", 0) == 0;
      if (relevant && value > 0) {
        std::printf("  %-32s %llu\n", name.c_str(),
                    static_cast<unsigned long long>(value));
      }
    }
  }
  return inexact == 0 ? 0 : 1;
}

int RunKMeans(const Flags& flags) {
  extensions::KMeansConfig cfg;
  cfg.num_clusters = flags.U64("clusters", 3);
  cfg.dims = flags.U64("d", 2);
  cfg.coord_bits = static_cast<int>(flags.U64("coord-bits", 4));
  cfg.iterations = flags.U64("iterations", 5);
  cfg.preset = PresetFromString(flags.Str("preset", "toy"));
  cfg.seed = flags.U64("seed", 1);
  data::Dataset dataset = data::UniformDataset(
      flags.U64("n", 100), cfg.dims, (uint64_t{1} << cfg.coord_bits) - 1,
      cfg.seed);
  auto km = extensions::SecureKMeans::Create(cfg, dataset);
  if (!km.ok()) {
    std::fprintf(stderr, "setup: %s\n", km.status().ToString().c_str());
    return 1;
  }
  auto result = (*km)->Run();
  if (!result.ok()) {
    std::fprintf(stderr, "run: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("secure k-means finished after %zu iterations\n",
              result->iterations_run);
  for (size_t c = 0; c < result->centroids.size(); ++c) {
    std::printf("  cluster %zu (%zu points): (", c, result->sizes[c]);
    for (size_t j = 0; j < result->centroids[c].size(); ++j) {
      std::printf("%s%llu", j ? ", " : "",
                  static_cast<unsigned long long>(result->centroids[c][j]));
    }
    std::printf(")\n");
  }
  return 0;
}

int RunBaseline(const Flags& flags) {
  baseline::BaselineConfig cfg;
  cfg.k = flags.U64("k", 3);
  cfg.paillier_bits = flags.U64("paillier-bits", 256);
  cfg.seed = flags.U64("seed", 1);
  const size_t d = flags.U64("d", 2);
  const int coord_bits = static_cast<int>(flags.U64("coord-bits", 4));
  data::Dataset dataset = data::UniformDataset(
      flags.U64("n", 30), d, (uint64_t{1} << coord_bits) - 1, cfg.seed);
  auto proto = baseline::ElmehdwiSknn::Create(cfg, dataset);
  if (!proto.ok()) {
    std::fprintf(stderr, "setup: %s\n", proto.status().ToString().c_str());
    return 1;
  }
  auto query = data::UniformQuery(d, (uint64_t{1} << coord_bits) - 1,
                                  cfg.seed + 1);
  auto result = (*proto)->RunQuery(query);
  if (!result.ok()) {
    std::fprintf(stderr, "query: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "baseline (Elmehdwi et al.): %.2fs, %llu rounds, %.2f MB, "
      "C2 decs %llu, C2 encs %llu\n",
      result->query_seconds,
      static_cast<unsigned long long>(result->rounds),
      static_cast<double>(result->bytes) / 1e6,
      static_cast<unsigned long long>(result->c2_ops.decryptions),
      static_cast<unsigned long long>(result->c2_ops.encryptions));
  return 0;
}

int RunRemote(const Flags& flags) {
  const uint16_t port = static_cast<uint16_t>(flags.U64("port", 0));
  if (port == 0) {
    std::fprintf(stderr,
                 "remote needs --port (where sknn_server_a listens)\n");
    return 2;
  }
  const DeploymentFlags dep = ParseDeploymentFlags(flags);
  const core::ProtocolConfig& cfg = dep.config;
  const data::Dataset& dataset = dep.dataset;
  const uint64_t seed = dep.seed;

  std::printf("deriving client deployment (%s, seed %llu)...\n",
              cfg.DebugString().c_str(),
              static_cast<unsigned long long>(seed));
  auto deployment =
      core::Deployment::Derive(cfg, dataset, seed, /*role_a=*/false);
  if (!deployment.ok()) {
    std::fprintf(stderr, "derive: %s\n",
                 deployment.status().ToString().c_str());
    return 1;
  }
  const std::string host = flags.Str("host", "127.0.0.1");
  core::ServerOptions options;
  auto client = core::RemoteClient::Connect(*deployment, host, port, options);
  if (!client.ok()) {
    std::fprintf(stderr, "connect %s:%u: %s\n", host.c_str(), port,
                 client.status().ToString().c_str());
    return 1;
  }
  std::printf("connected to %s:%u (fingerprint %llx)\n", host.c_str(), port,
              static_cast<unsigned long long>(deployment->fingerprint));

  const int queries = static_cast<int>(flags.U64("queries", 1));
  const uint64_t deadline_ms = flags.U64("deadline-ms", 0);
  int failed = 0;
  for (int q = 0; q < queries; ++q) {
    const auto query = data::UniformQuery(
        cfg.dims, (uint64_t{1} << cfg.coord_bits) - 1,
        seed + 1000 + static_cast<uint64_t>(q));
    const auto t0 = std::chrono::steady_clock::now();
    auto result = (*client)->Query(query, deadline_ms);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const uint64_t trace_id = (*client)->last_trace_id();
    if (!result.ok()) {
      ++failed;
      std::fprintf(stderr, "query %d (trace %s): %s\n", q,
                   trace::TraceIdHex(trace_id).c_str(),
                   result.status().ToString().c_str());
      continue;
    }
    std::printf("query %d: %.2fs, %zu neighbours, trace %s\n", q, seconds,
                result->size(), trace::TraceIdHex(trace_id).c_str());
    if (!ReportAnswer(dataset, query, cfg.k, *result)) ++failed;
  }
  return failed == 0 ? 0 : 1;
}

int RunAdvise(const Flags& flags) {
  core::WorkloadSpec w;
  w.num_points = flags.U64("n", 1000);
  w.dims = flags.U64("d", 2);
  w.coord_bits = static_cast<int>(flags.U64("coord-bits", 4));
  w.k = flags.U64("k", 5);
  w.min_poly_degree = flags.U64("min-degree", 1);
  w.preset = PresetFromString(flags.Str("preset", "default"));
  auto advised = core::AdviseConfig(w);
  if (!advised.ok()) {
    std::fprintf(stderr, "%s\n", advised.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n%s", advised->config.DebugString().c_str(),
              advised->rationale.c_str());
  return 0;
}

int RunParams(const Flags& flags) {
  auto params = bgv::BgvParams::Create(
      PresetFromString(flags.Str("preset", "toy")),
      flags.U64("levels", 4), static_cast<int>(flags.U64("plain-bits", 33)));
  if (!params.ok()) {
    std::fprintf(stderr, "%s\n", params.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", params->DebugString().c_str());
  return 0;
}

void Usage() {
  std::fprintf(stderr,
               "usage: sknn_cli <knn|kmeans|baseline|params|advise|remote> "
               "[--key=value...]\n"
               "  knn      --n --d --k --layout --dataset --queries --preset\n"
               "           --threads=0  worker threads per party for a\n"
               "           query's ciphertexts (0 = one per core, 1 = inline)\n"
               "           --fault-spec=MODE:PROB[,...] --fault-seed  inject\n"
               "           deterministic A<->B faults (drop|dup|flip|trunc|\n"
               "           reorder|delay[:POLLS]) and print net.* counters\n"
               "  kmeans   --n --d --clusters --iterations --preset\n"
               "  baseline --n --d --k --paillier-bits\n"
               "  params   --preset --levels --plain-bits\n"
               "  advise   --n --d --coord-bits --k --min-degree --preset\n"
               "  remote   --port [--host] [--queries] [--deadline-ms] +\n"
               "           the running servers' deployment flags; with\n"
               "           --trace each query gets a distributed trace id\n"
               "           propagated to both servers (tools/trace_stitch.py\n"
               "           merges the three --trace files)\n"
               "common flags (any position):\n"
               "  --trace=FILE  write a Chrome trace_event JSON and print a\n"
               "                per-phase time/bytes summary\n"
               "  --metrics-out=FILE  write counters/gauges/histograms in\n"
               "                Prometheus text exposition format on exit\n"
               "                (enables tracing so latency/size histograms\n"
               "                populate)\n"
               "  --flight-record=FILE  write the per-query flight-recorder\n"
               "                ring (timings, bytes, faults, noise margins)\n"
               "                as JSON on exit\n");
}

void PrintPhaseSummary() {
  const auto summary = trace::Summarize(trace::Tracer::Global().Records());
  std::printf("per-phase summary:\n");
  std::printf("  %-48s %8s %10s %12s %12s\n", "phase", "count", "seconds",
              "sent", "received");
  for (const auto& [path, stats] : summary) {
    std::printf("  %-48s %8llu %10.3f %12llu %12llu\n", path.c_str(),
                static_cast<unsigned long long>(stats.count),
                stats.seconds(),
                static_cast<unsigned long long>(stats.bytes_sent),
                static_cast<unsigned long long>(stats.bytes_received));
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string cmd;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      cmd = argv[i];
      break;
    }
  }
  if (cmd.empty()) {
    Usage();
    return 2;
  }
  const Flags flags(argc, argv, /*has_command=*/true);
  const std::string trace_path = flags.Str("trace", "");
  const std::string metrics_path = flags.Str("metrics-out", "");
  const std::string flight_path = flags.Str("flight-record", "");
  // Histograms are recorded at TraceSpan completion, so --metrics-out
  // implies tracing even without --trace.
  if (!trace_path.empty() || !metrics_path.empty()) {
    trace::Tracer::Global().Enable();
  }

  int rc;
  if (cmd == "knn") {
    rc = RunKnn(flags);
  } else if (cmd == "kmeans") {
    rc = RunKMeans(flags);
  } else if (cmd == "baseline") {
    rc = RunBaseline(flags);
  } else if (cmd == "params") {
    rc = RunParams(flags);
  } else if (cmd == "advise") {
    rc = RunAdvise(flags);
  } else if (cmd == "remote") {
    rc = RunRemote(flags);
  } else {
    Usage();
    return 2;
  }

  if (!trace_path.empty()) {
    // Stitch metadata: a `remote` run is the client leg of a distributed
    // trace, so name the process accordingly for trace_stitch.
    trace::TraceMeta meta;
    meta.process = cmd == "remote" ? "client" : "sknn_cli";
    Status status = trace::WriteGlobalTrace(meta, trace_path);
    if (!status.ok()) {
      std::fprintf(stderr, "trace: %s\n", status.ToString().c_str());
      return rc == 0 ? 1 : rc;
    }
    PrintPhaseSummary();
    std::printf("trace written to %s\n", trace_path.c_str());
  }
  if (!metrics_path.empty()) {
    if (!json::WriteFile(metrics_path,
                         MetricsRegistry::Global().PrometheusText())) {
      std::fprintf(stderr, "--metrics-out: cannot write %s\n",
                   metrics_path.c_str());
      return rc == 0 ? 1 : rc;
    }
    std::printf("metrics written to %s\n", metrics_path.c_str());
  }
  if (!flight_path.empty()) {
    if (!json::WriteFile(flight_path, FlightRecorder::Global().Json())) {
      std::fprintf(stderr, "--flight-record: cannot write %s\n",
                   flight_path.c_str());
      return rc == 0 ? 1 : rc;
    }
    std::printf("flight records written to %s\n", flight_path.c_str());
  }
  return rc;
}
