// Location-based search (the taxi-for-hire application the paper's
// Section 5.1 suggests): a dispatch service outsources encrypted 2-D taxi
// positions on a city grid; a rider requests the 4 nearest taxis without
// the cloud learning the rider's location, the taxis' locations, or which
// taxis were matched. Demonstrates multiple queries against one deployment
// and the per-query refresh of Party A's mask and permutation.
//
// Build & run:   ./build/examples/location_search

#include <cstdio>

#include "core/session.h"
#include "data/generators.h"

int main() {
  using namespace sknn;        // NOLINT
  using namespace sknn::core;  // NOLINT

  // 500 taxis on a 64 x 64 grid.
  const int coord_bits = 6;
  data::Dataset taxis =
      data::UniformDataset(500, 2, (1u << coord_bits) - 1, 1234);

  ProtocolConfig cfg;
  cfg.k = 4;
  cfg.dims = 2;
  cfg.coord_bits = coord_bits;
  cfg.poly_degree = 2;
  cfg.layout = Layout::kPacked;
  cfg.preset = bgv::SecurityPreset::kToy;
  cfg.levels = cfg.MinimumLevels();

  auto session = SecureKnnSession::Create(cfg, taxis, 3);
  if (!session.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 session.status().ToString().c_str());
    return 1;
  }
  std::printf("dispatch service online: 500 encrypted taxi positions in "
              "%zu ciphertexts\n\n",
              (*session)->party_a().num_units());

  const uint64_t riders[3][2] = {{10, 50}, {32, 32}, {60, 5}};
  for (const auto& rider : riders) {
    std::vector<uint64_t> query = {rider[0], rider[1]};
    auto result = (*session)->RunQuery(query);
    if (!result.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    std::printf("rider at (%llu, %llu) -> nearest taxis:",
                static_cast<unsigned long long>(rider[0]),
                static_cast<unsigned long long>(rider[1]));
    for (const auto& taxi : result->neighbours) {
      std::printf(" (%llu,%llu)", static_cast<unsigned long long>(taxi[0]),
                  static_cast<unsigned long long>(taxi[1]));
    }
    std::printf("   [%.2f s, 1 round]\n",
                result->seconds());
  }
  std::printf(
      "\neach query used a fresh masking polynomial and permutation, so\n"
      "repeating a query presents the key-holding cloud with unrelated\n"
      "values (search-pattern hiding).\n");
  return 0;
}
