// Figure 3: running time vs k on the (simulated) cervical cancer dataset,
// 858 points x 32 dimensions. Paper: 45 s at k=2, ~166 s at k=8,
// 5 min 28 s at k=16, linear in k. Uses the paper-faithful per-point
// layout (uniform permutation over all points).

#include <cstdio>

#include "bench/bench_util.h"
#include "core/session.h"
#include "data/generators.h"

namespace {

using namespace sknn;        // NOLINT
using namespace sknn::core;  // NOLINT

int Run(const bench::BenchArgs& args) {
  bench::PrintHeader("Figure 3 — cancer dataset (858 x 32), time vs k",
                     "Kesarwani et al., EDBT 2018, Figure 3");
  data::Dataset raw = data::SimulatedCervicalCancer(2018);
  if (args.smoke) raw = raw.TakePoints(64);
  // The protocol bounds coordinates; 5 bits keeps every feature while the
  // masked distances stay inside the plaintext space.
  const int coord_bits = 5;
  data::Dataset dataset = raw.QuantizeToBits(coord_bits);

  std::vector<size_t> ks =
      args.smoke ? std::vector<size_t>{2}
      : args.full ? std::vector<size_t>{2, 4, 8, 12, 16, 20}
                  : std::vector<size_t>{2, 8, 16};

  std::printf("layout=per-point preset=%s queries/point=%d\n",
              bench::PresetName(args.preset), args.queries);
  std::printf("%6s %12s %14s %14s %12s %12s\n", "k", "query(s)", "A->B bytes",
              "B->A bytes", "B enc", "B dec");
  double security = 0;
  bench::BenchJson out("fig3_cancer");
  for (size_t k : ks) {
    out.BeginRow();
    ProtocolConfig cfg;
    cfg.k = k;
    cfg.dims = dataset.dims();
    cfg.coord_bits = coord_bits;
    cfg.poly_degree = 2;
    cfg.layout = Layout::kPerPoint;
    cfg.preset = args.preset;
    cfg.levels = cfg.MinimumLevels();
    auto session = SecureKnnSession::Create(cfg, dataset, 42);
    if (!session.ok()) {
      std::fprintf(stderr, "setup failed: %s\n",
                   session.status().ToString().c_str());
      return 1;
    }
    security = (*session)->setup_report().estimated_security_bits;
    double total = 0;
    QueryResult last;
    for (int q = 0; q < args.queries; ++q) {
      auto query = data::UniformQuery(dataset.dims(),
                                      (1u << coord_bits) - 1, 100 + q);
      auto result = (*session)->RunQuery(query);
      if (!result.ok()) {
        std::fprintf(stderr, "query failed: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }
      total += result->seconds();
      last = std::move(result).value();
    }
    std::printf("%6zu %12.2f %14s %14s %12llu %12llu\n", k,
                total / args.queries,
                bench::HumanBytes(last.ab_link.bytes_a_to_b).c_str(),
                bench::HumanBytes(last.ab_link.bytes_b_to_a).c_str(),
                static_cast<unsigned long long>(last.party_b_ops.encryptions),
                static_cast<unsigned long long>(last.party_b_ops.decryptions));
    json::ObjectWriter row;
    row.Int("k", k)
        .Int("n", dataset.num_points())
        .Int("d", dataset.dims())
        .Num("query_seconds", total / args.queries)
        .Int("bytes_a_to_b", last.ab_link.bytes_a_to_b)
        .Int("bytes_b_to_a", last.ab_link.bytes_b_to_a);
    out.EndRow(std::move(row));
  }
  std::printf(
      "paper (HElib, 4-core 2.8GHz): k=2: 45 s, k=8: 166 s, k=16: 328 s "
      "(linear in k)\n");
  std::printf("estimated lattice security of this run: %.0f bits\n", security);
  out.Write();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return Run(sknn::bench::ParseArgs(argc, argv));
}
