// Ablation (ours, beyond the paper): the cost of the design choices
// DESIGN.md calls out —
//   1. ciphertext layout: per-point (paper-faithful uniform permutation)
//      vs packed (slot packing, block permutation),
//   2. masking polynomial degree D (leakage-hardness vs depth),
// measured on the same dataset and query.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/session.h"
#include "data/generators.h"

namespace {

using namespace sknn;        // NOLINT
using namespace sknn::core;  // NOLINT

int RunOne(const data::Dataset& dataset, Layout layout, size_t degree,
           int coord_bits, const bench::BenchArgs& args,
           bench::BenchJson* out) {
  out->BeginRow();
  ProtocolConfig cfg;
  cfg.k = 5;
  cfg.dims = dataset.dims();
  cfg.coord_bits = coord_bits;
  cfg.poly_degree = degree;
  cfg.layout = layout;
  cfg.preset = args.preset;
  cfg.levels = cfg.MinimumLevels();
  auto session = SecureKnnSession::Create(cfg, dataset, 42);
  if (!session.ok()) {
    std::fprintf(stderr, "setup failed (%s, D=%zu): %s\n", LayoutName(layout),
                 degree, session.status().ToString().c_str());
    return 1;
  }
  auto query = data::UniformQuery(dataset.dims(), (1u << coord_bits) - 1, 5);
  auto r = (*session)->RunQuery(query);
  if (!r.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 r.status().ToString().c_str());
    return 1;
  }
  std::printf("%-10s %2zu %7zu %12.2f %12.2f %14s %14s\n",
              LayoutName(layout), degree, cfg.levels,
              r->seconds(),
              (*session)->setup_report().setup_seconds,
              bench::HumanBytes(r->ab_link.total_bytes()).c_str(),
              bench::HumanBytes((*session)->setup_report().encrypted_db_bytes)
                  .c_str());
  json::ObjectWriter row;
  row.Str("layout", LayoutName(layout))
      .Int("degree", degree)
      .Int("levels", cfg.levels)
      .Num("query_seconds", r->seconds())
      .Num("setup_seconds", (*session)->setup_report().setup_seconds)
      .Int("wire_bytes", r->ab_link.total_bytes())
      .Int("db_bytes", (*session)->setup_report().encrypted_db_bytes);
  out->EndRow(std::move(row));
  return 0;
}

int Run(const bench::BenchArgs& args) {
  bench::PrintHeader("Ablation — layout mode and masking degree",
                     "design choices of this reproduction (DESIGN.md section 3)");
  const size_t n = args.smoke ? 80 : args.full ? 2000 : 400;
  const size_t d = 8;
  // 3-bit coordinates keep a positive coefficient budget for the D=3
  // masking polynomial inside the 33-bit plaintext space.
  const int coord_bits = 3;
  data::Dataset dataset =
      data::UniformDataset(n, d, (1u << coord_bits) - 1, 7);
  std::printf("n=%zu d=%zu k=5 preset=%s\n\n", n, d,
              bench::PresetName(args.preset));
  std::printf("%-10s %2s %7s %12s %12s %14s %14s\n", "layout", "D",
              "levels", "query(s)", "setup(s)", "wire bytes", "db bytes");
  bench::BenchJson out("ablation");
  const std::vector<size_t> degrees =
      args.smoke ? std::vector<size_t>{2} : std::vector<size_t>{1, 2, 3};
  for (Layout layout : {Layout::kPerPoint, Layout::kPacked}) {
    for (size_t degree : degrees) {
      if (RunOne(dataset, layout, degree, coord_bits, args, &out) != 0) {
        return 1;
      }
    }
  }
  std::printf(
      "\npacked trades the uniform point-level permutation for block-level "
      "mixing (Party B additionally learns block co-residence) and wins "
      "large factors in time and bytes; each extra masking degree costs "
      "one modulus level.\n");
  out.Write();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return Run(sknn::bench::ParseArgs(argc, argv));
}
