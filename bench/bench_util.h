#ifndef SKNN_BENCH_BENCH_UTIL_H_
#define SKNN_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstring>
#include <ctime>
#include <memory>
#include <string>
#include <vector>

#include "common/json_writer.h"
#include "common/metrics_registry.h"
#include "common/trace.h"
#include "core/protocol_config.h"

// Run metadata baked in by bench/CMakeLists.txt (git SHA, build type,
// compiler). Fallbacks keep the header usable outside the bench targets.
#ifndef SKNN_GIT_SHA
#define SKNN_GIT_SHA "unknown"
#endif
#ifndef SKNN_BUILD_TYPE
#define SKNN_BUILD_TYPE "unknown"
#endif
#ifndef SKNN_COMPILER
#define SKNN_COMPILER "unknown"
#endif

// Shared helpers for the reproduction benches. Every bench binary accepts:
//   --full           paper-scale parameters (long-running)
//   --smoke          tiny parameters (seconds; the bench_smoke ctest runs)
//   --preset=NAME    toy | bench | default | paranoid (lattice preset)
//   --queries=N      queries averaged per configuration
// Default runs are sized so the whole bench suite completes on a small
// 1-core machine; they print the lattice preset and its estimated security
// so scaled-down runs are explicit about what they measure.
//
// Each bench also writes a machine-readable BENCH_<name>.json (via
// BenchJson below) whose rows carry the headline numbers plus the
// per-phase time/bytes breakdown and operation counters collected by the
// tracing layer (common/trace.h, common/metrics_registry.h).

namespace sknn {
namespace bench {

struct BenchArgs {
  bool full = false;
  bool smoke = false;
  int queries = 1;
  bool preset_set = false;
  bgv::SecurityPreset preset = bgv::SecurityPreset::kToy;
};

inline BenchArgs ParseArgs(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--full") == 0) {
      args.full = true;
    } else if (std::strcmp(a, "--smoke") == 0) {
      args.smoke = true;
    } else if (std::strncmp(a, "--preset=", 9) == 0) {
      const char* p = a + 9;
      args.preset_set = true;
      if (std::strcmp(p, "toy") == 0) args.preset = bgv::SecurityPreset::kToy;
      else if (std::strcmp(p, "bench") == 0) args.preset = bgv::SecurityPreset::kBench;
      else if (std::strcmp(p, "default") == 0) args.preset = bgv::SecurityPreset::kDefault;
      else if (std::strcmp(p, "paranoid") == 0) args.preset = bgv::SecurityPreset::kParanoid;
      else std::fprintf(stderr, "unknown preset %s (using toy)\n", p);
    } else if (std::strncmp(a, "--queries=", 10) == 0) {
      args.queries = std::atoi(a + 10);
      if (args.queries < 1) args.queries = 1;
    } else {
      std::fprintf(stderr, "unknown flag %s (supported: --full, --smoke, --preset=, --queries=)\n", a);
    }
  }
  if (args.full && !args.preset_set) {
    args.preset = bgv::SecurityPreset::kBench;
  }
  return args;
}

inline const char* PresetName(bgv::SecurityPreset p) {
  switch (p) {
    case bgv::SecurityPreset::kToy: return "toy(n=1024)";
    case bgv::SecurityPreset::kBench: return "bench(n=4096)";
    case bgv::SecurityPreset::kDefault: return "default(n=8192)";
    case bgv::SecurityPreset::kParanoid: return "paranoid(n=16384)";
  }
  return "?";
}

inline void PrintHeader(const char* title, const char* paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("==============================================================\n");
}

// Collects one JSON row per bench configuration and writes
// BENCH_<name>.json into the working directory. Construction enables the
// global tracer so every row gets a per-phase summary; BeginRow/EndRow
// bracket one configuration (records and counters are cleared between
// rows, so "phases" and "counters" cover exactly that row's work).
class BenchJson {
 public:
  explicit BenchJson(const char* name) : name_(name) {
    was_enabled_ = trace::Tracer::Global().enabled();
    trace::Tracer::Global().Enable();
  }
  ~BenchJson() {
    if (!was_enabled_) trace::Tracer::Global().Disable();
  }

  void BeginRow() {
    trace::Tracer::Global().Reset();
    MetricsRegistry::Global().ResetValues();
  }

  void EndRow(json::ObjectWriter row) {
    row.Raw("phases",
            trace::PhaseSummaryJson(
                trace::Summarize(trace::Tracer::Global().Records())));
    row.Raw("counters", MetricsRegistry::Global().CountersJson());
    // Latency/size distributions recorded at TraceSpan completion:
    // name -> {count, sum, max, p50, p95, p99}.
    row.Raw("histograms", MetricsRegistry::Global().HistogramsJson());
    rows_.push_back(row.Render());
  }

  void Write() const {
    char timestamp[32];
    const std::time_t now = std::time(nullptr);
    std::strftime(timestamp, sizeof(timestamp), "%Y-%m-%dT%H:%M:%SZ",
                  std::gmtime(&now));
    json::ObjectWriter meta;
    meta.Str("git_sha", SKNN_GIT_SHA)
        .Str("build_type", SKNN_BUILD_TYPE)
        .Str("compiler", SKNN_COMPILER)
        .Str("timestamp", timestamp);
    json::ObjectWriter top;
    top.Str("bench", name_);
    top.Raw("meta", meta.Render());
    top.Raw("rows", json::Array(rows_));
    const std::string path = "BENCH_" + name_ + ".json";
    if (!json::WriteFile(path, top.Render() + "\n")) {
      std::fprintf(stderr, "failed to write %s\n", path.c_str());
      return;
    }
    std::printf("wrote %s (%zu rows with per-phase breakdowns)\n",
                path.c_str(), rows_.size());
  }

 private:
  std::string name_;
  bool was_enabled_ = false;
  std::vector<std::string> rows_;
};

inline std::string HumanBytes(uint64_t bytes) {
  char buf[64];
  if (bytes >= 1000ull * 1000 * 1000) {
    std::snprintf(buf, sizeof(buf), "%.2f GB", static_cast<double>(bytes) / 1e9);
  } else if (bytes >= 1000 * 1000) {
    std::snprintf(buf, sizeof(buf), "%.2f MB", static_cast<double>(bytes) / 1e6);
  } else if (bytes >= 1000) {
    std::snprintf(buf, sizeof(buf), "%.2f KB", static_cast<double>(bytes) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%llu B", static_cast<unsigned long long>(bytes));
  }
  return buf;
}

}  // namespace bench
}  // namespace sknn

#include "core/session.h"
#include "data/generators.h"

namespace sknn {
namespace bench {

// One configuration of the synthetic parameter sweeps (Figures 5-7).
struct SweepPoint {
  size_t n;
  size_t d;
  size_t k;
};

// Runs the uniform-synthetic-data sweep the paper uses in Section 5.2 and
// prints one row per configuration. When `bench_name` is set, also writes
// BENCH_<bench_name>.json with a per-phase breakdown per configuration.
// Returns non-zero on failure.
inline int RunSyntheticSweep(const char* paper_note,
                             const std::vector<SweepPoint>& points,
                             const BenchArgs& args,
                             core::Layout layout = core::Layout::kPacked,
                             const char* bench_name = nullptr) {
  const int coord_bits = 5;
  std::printf("layout=%s preset=%s queries/point=%d\n",
              core::LayoutName(layout), PresetName(args.preset),
              args.queries);
  std::printf("%9s %4s %4s %12s %10s %14s %14s\n", "n", "d", "k", "query(s)",
              "setup(s)", "A->B bytes", "B->A bytes");
  std::unique_ptr<BenchJson> out;
  if (bench_name != nullptr) out = std::make_unique<BenchJson>(bench_name);
  double security = 0;
  for (const SweepPoint& p : points) {
    if (out) out->BeginRow();
    data::Dataset dataset =
        data::UniformDataset(p.n, p.d, (1u << coord_bits) - 1, 77);
    core::ProtocolConfig cfg;
    cfg.k = p.k;
    cfg.dims = p.d;
    cfg.coord_bits = coord_bits;
    cfg.poly_degree = 2;
    cfg.layout = layout;
    cfg.preset = args.preset;
    cfg.levels = cfg.MinimumLevels();
    auto session = core::SecureKnnSession::Create(cfg, dataset, 42);
    if (!session.ok()) {
      std::fprintf(stderr, "setup failed (n=%zu d=%zu k=%zu): %s\n", p.n, p.d,
                   p.k, session.status().ToString().c_str());
      return 1;
    }
    security = (*session)->setup_report().estimated_security_bits;
    double total = 0;
    core::QueryResult last;
    for (int q = 0; q < args.queries; ++q) {
      auto query =
          data::UniformQuery(p.d, (1u << coord_bits) - 1, 300 + q);
      auto result = (*session)->RunQuery(query);
      if (!result.ok()) {
        std::fprintf(stderr, "query failed: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }
      total += result->seconds();
      last = std::move(result).value();
    }
    std::printf("%9zu %4zu %4zu %12.2f %10.2f %14s %14s\n", p.n, p.d, p.k,
                total / args.queries,
                (*session)->setup_report().setup_seconds,
                HumanBytes(last.ab_link.bytes_a_to_b).c_str(),
                HumanBytes(last.ab_link.bytes_b_to_a).c_str());
    if (out) {
      json::ObjectWriter row;
      row.Int("n", p.n)
          .Int("d", p.d)
          .Int("k", p.k)
          .Str("preset", PresetName(args.preset))
          .Str("layout", core::LayoutName(layout))
          .Int("queries", static_cast<uint64_t>(args.queries))
          .Num("query_seconds", total / args.queries)
          .Num("setup_seconds", (*session)->setup_report().setup_seconds)
          .Int("bytes_a_to_b", last.ab_link.bytes_a_to_b)
          .Int("bytes_b_to_a", last.ab_link.bytes_b_to_a);
      out->EndRow(std::move(row));
    }
  }
  std::printf("%s\n", paper_note);
  std::printf("estimated lattice security of this run: %.0f bits\n",
              security);
  if (out) out->Write();
  return 0;
}

}  // namespace bench
}  // namespace sknn

#endif  // SKNN_BENCH_BENCH_UTIL_H_
