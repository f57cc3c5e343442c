// Section 5.2 head-to-head: the paper reports that for n=2000, d=6, k=25
// the new protocol answers in 1 min 37 s while Yousef et al. (Elmehdwi et
// al., ICDE 2014) need 55 min 39 s — a ~34x gap driven by the O(k)
// interactive rounds and bit-decomposition of the baseline.
//
// Default run shrinks (n, k, Paillier modulus) so both sides finish
// quickly and reports the measured ratio; --full uses the paper's n=2000,
// d=6, k=25 with 512-bit Paillier.

#include <cstdio>

#include "baseline/elmehdwi.h"
#include "bench/bench_util.h"
#include "core/session.h"
#include "data/generators.h"

namespace {

using namespace sknn;  // NOLINT

int Run(const bench::BenchArgs& args) {
  bench::PrintHeader(
      "Section 5.2 — ours vs Yousef et al. (n=2000, d=6, k=25)",
      "Kesarwani et al., EDBT 2018, Section 5.2 comparison");
  const size_t n = args.smoke ? 50 : args.full ? 2000 : 200;
  const size_t d = 6;
  const size_t k = args.smoke ? 2 : args.full ? 25 : 5;
  const size_t paillier_bits = args.full ? 512 : 256;
  const int coord_bits = 4;
  data::Dataset dataset =
      data::UniformDataset(n, d, (1u << coord_bits) - 1, 7);
  auto query = data::UniformQuery(d, (1u << coord_bits) - 1, 8);

  std::printf("n=%zu d=%zu k=%zu paillier=%zu-bit preset=%s\n\n", n, d, k,
              paillier_bits, bench::PresetName(args.preset));

  // --- ours (both layouts) ---
  auto run_ours = [&](core::Layout layout)
      -> StatusOr<core::QueryResult> {
    core::ProtocolConfig cfg;
    cfg.k = k;
    cfg.dims = d;
    cfg.coord_bits = coord_bits;
    cfg.poly_degree = 2;
    cfg.layout = layout;
    cfg.preset = args.preset;
    cfg.levels = cfg.MinimumLevels();
    SKNN_ASSIGN_OR_RETURN(auto session,
                          core::SecureKnnSession::Create(cfg, dataset, 42));
    return session->RunQuery(query);
  };
  bench::BenchJson out("vs_baseline");
  auto ours_row = [&](const char* label, const core::QueryResult& r) {
    json::ObjectWriter row;
    row.Str("protocol", label)
        .Int("n", n)
        .Int("d", d)
        .Int("k", k)
        .Num("query_seconds", r.seconds())
        .Int("rounds", (r.ab_link.rounds + 1) / 2)
        .Int("bytes", r.ab_link.total_bytes());
    out.EndRow(std::move(row));
  };

  out.BeginRow();
  auto ours_pp = run_ours(core::Layout::kPerPoint);
  if (!ours_pp.ok()) {
    std::fprintf(stderr, "ours(per-point) failed: %s\n",
                 ours_pp.status().ToString().c_str());
    return 1;
  }
  ours_row("ours_per_point", *ours_pp);

  out.BeginRow();
  auto ours = run_ours(core::Layout::kPacked);
  if (!ours.ok()) {
    std::fprintf(stderr, "ours(packed) failed: %s\n",
                 ours.status().ToString().c_str());
    return 1;
  }
  ours_row("ours_packed", *ours);

  const double ours_pp_s = ours_pp->seconds();
  const double ours_s = ours->seconds();
  // Round trips = direction flips / 2.
  const uint64_t ours_rounds = (ours->ab_link.rounds + 1) / 2;

  // --- baseline ---
  baseline::BaselineConfig bcfg;
  bcfg.k = k;
  bcfg.paillier_bits = paillier_bits;
  bcfg.seed = 43;
  auto proto = baseline::ElmehdwiSknn::Create(bcfg, dataset);
  if (!proto.ok()) {
    std::fprintf(stderr, "baseline setup failed: %s\n",
                 proto.status().ToString().c_str());
    return 1;
  }
  out.BeginRow();
  auto base = (*proto)->RunQuery(query);
  if (!base.ok()) {
    std::fprintf(stderr, "baseline failed: %s\n",
                 base.status().ToString().c_str());
    return 1;
  }
  {
    json::ObjectWriter row;
    row.Str("protocol", "baseline_yousef")
        .Int("n", n)
        .Int("d", d)
        .Int("k", k)
        .Num("query_seconds", base->query_seconds)
        .Int("rounds", base->rounds)
        .Int("bytes", base->bytes);
    out.EndRow(std::move(row));
  }

  std::printf("%-28s %14s %14s %14s\n", "", "ours packed", "ours per-pt",
              "Yousef et al.");
  std::printf("%-28s %14.2f %14.2f %14.2f\n", "query time (s)", ours_s,
              ours_pp_s, base->query_seconds);
  std::printf("%-28s %14llu %14llu %14llu\n", "round trips",
              static_cast<unsigned long long>(ours_rounds),
              static_cast<unsigned long long>((ours_pp->ab_link.rounds + 1) /
                                              2),
              static_cast<unsigned long long>(base->rounds));
  std::printf("%-28s %14s %14s %14s\n", "bytes exchanged",
              bench::HumanBytes(ours->ab_link.total_bytes()).c_str(),
              bench::HumanBytes(ours_pp->ab_link.total_bytes()).c_str(),
              bench::HumanBytes(base->bytes).c_str());
  std::printf("%-28s %14llu %14llu %14llu\n", "key-cloud decryptions",
              static_cast<unsigned long long>(ours->party_b_ops.decryptions),
              static_cast<unsigned long long>(
                  ours_pp->party_b_ops.decryptions),
              static_cast<unsigned long long>(base->c2_ops.decryptions));
  std::printf("%-28s %14llu %14llu %14llu\n", "key-cloud encryptions",
              static_cast<unsigned long long>(ours->party_b_ops.encryptions),
              static_cast<unsigned long long>(
                  ours_pp->party_b_ops.encryptions),
              static_cast<unsigned long long>(base->c2_ops.encryptions));
  if (ours_s > 0) {
    std::printf("\nmeasured speedup: packed %.1fx, per-point %.1fx "
                "(paper reports 97 s vs 3339 s = 34.4x at full scale)\n",
                base->query_seconds / ours_s,
                base->query_seconds / ours_pp_s);
  }
  out.Write();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return Run(sknn::bench::ParseArgs(argc, argv));
}
