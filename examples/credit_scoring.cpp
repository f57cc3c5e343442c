// Credit-scoring scenario (the paper's second real-world workload): a bank
// outsources encrypted credit-card client records (30000 x 23 in the
// paper; a 4000-record slice here so the demo finishes quickly) and an
// analyst finds the k clients most similar to a new applicant. The packed
// layout keeps the whole encrypted database in a handful of ciphertexts.
//
// Build & run:   ./build/examples/credit_scoring

#include <cstdio>

#include "core/session.h"
#include "data/generators.h"
#include "knn/knn.h"

int main() {
  using namespace sknn;        // NOLINT
  using namespace sknn::core;  // NOLINT

  data::Dataset raw = data::SimulatedCreditCard(2018, /*num_points=*/4000);
  const int coord_bits = 5;
  data::Dataset dataset = raw.QuantizeToBits(coord_bits);
  std::printf("dataset: %zu clients x %zu features\n", dataset.num_points(),
              dataset.dims());

  ProtocolConfig cfg;
  cfg.k = 5;
  cfg.dims = dataset.dims();
  cfg.coord_bits = coord_bits;
  cfg.poly_degree = 2;
  cfg.layout = Layout::kPacked;
  cfg.preset = bgv::SecurityPreset::kToy;
  cfg.levels = cfg.MinimumLevels();

  auto session = SecureKnnSession::Create(cfg, dataset, 21);
  if (!session.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 session.status().ToString().c_str());
    return 1;
  }
  const auto& report = (*session)->setup_report();
  std::printf("encrypted database: %zu ciphertext units, %.1f MB total\n",
              (*session)->party_a().num_units(),
              static_cast<double>(report.encrypted_db_bytes) / 1e6);

  std::vector<uint64_t> applicant =
      data::UniformQuery(dataset.dims(), (1u << coord_bits) - 1, 5);
  auto result = (*session)->RunQuery(applicant);
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  std::printf("%zu most similar client profiles found in %.1f s\n",
              result->neighbours.size(),
              result->seconds());
  std::printf("first returned profile (quantized features): ");
  for (uint64_t v : result->neighbours[0]) {
    std::printf("%llu ", static_cast<unsigned long long>(v));
  }
  std::printf("\n");

  // Exactness cross-check.
  const Status exact =
      knn::CheckExact(dataset, applicant, cfg.k, result->neighbours);
  std::printf("matches plaintext k-NN: %s\n",
              exact.ok() ? "yes (exact)" : exact.ToString().c_str());
  return exact.ok() ? 0 : 1;
}
