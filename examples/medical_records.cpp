// Medical-records scenario (the paper's first real-world workload): a
// hospital outsources 858 encrypted patient records with 32 risk-factor
// features (the cervical-cancer dataset shape) and a clinician retrieves
// the 8 most similar patient profiles to a new case — without the cloud
// learning anything about patients or the query.
//
// Build & run:   ./build/examples/medical_records [--packed]

#include <cstdio>
#include <cstring>

#include "core/session.h"
#include "data/generators.h"
#include "knn/knn.h"

int main(int argc, char** argv) {
  using namespace sknn;        // NOLINT
  using namespace sknn::core;  // NOLINT

  const bool packed = argc > 1 && std::strcmp(argv[1], "--packed") == 0;

  // Simulated UCI "cervical cancer (risk factors)" surrogate: 858 x 32
  // non-negative integers (see src/data/generators.h for the schema).
  data::Dataset raw = data::SimulatedCervicalCancer(2018);
  const int coord_bits = 5;
  data::Dataset dataset = raw.QuantizeToBits(coord_bits);
  std::printf("dataset: %zu patients x %zu features (values < %u)\n",
              dataset.num_points(), dataset.dims(), 1u << coord_bits);

  ProtocolConfig cfg;
  cfg.k = 8;
  cfg.dims = dataset.dims();
  cfg.coord_bits = coord_bits;
  cfg.poly_degree = 2;
  cfg.layout = packed ? Layout::kPacked : Layout::kPerPoint;
  cfg.preset = bgv::SecurityPreset::kToy;
  cfg.levels = cfg.MinimumLevels();

  auto session = SecureKnnSession::Create(cfg, dataset, 7);
  if (!session.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 session.status().ToString().c_str());
    return 1;
  }
  std::printf("setup: %.1f s, layout=%s, estimated security %.0f bits\n",
              (*session)->setup_report().setup_seconds, LayoutName(cfg.layout),
              (*session)->setup_report().estimated_security_bits);

  // A new patient profile as the query.
  std::vector<uint64_t> query =
      data::UniformQuery(dataset.dims(), (1u << coord_bits) - 1, 99);
  auto result = (*session)->RunQuery(query);
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  std::printf("retrieved the %zu most similar patient records\n",
              result->neighbours.size());
  std::printf("query time: %.1f s\n", result->seconds());
  for (const FlightRecord::Phase& phase : result->record.phases) {
    std::printf("  %-18s %.2f s\n", phase.name.c_str(), phase.seconds);
  }

  // Cross-check against the plaintext reference.
  const Status exact =
      knn::CheckExact(dataset, query, cfg.k, result->neighbours);
  std::printf("matches plaintext k-NN: %s\n",
              exact.ok() ? "yes (exact)" : exact.ToString().c_str());
  return exact.ok() ? 0 : 1;
}
