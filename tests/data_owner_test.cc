#include "core/deployment.h"

#include <gtest/gtest.h>

#include "data/generators.h"

namespace sknn {
namespace core {
namespace {

// The data owner's setup is Deployment::Derive.

ProtocolConfig Config() {
  ProtocolConfig cfg;
  cfg.k = 3;
  cfg.dims = 2;
  cfg.coord_bits = 4;
  cfg.poly_degree = 2;
  cfg.layout = Layout::kPacked;
  cfg.preset = bgv::SecurityPreset::kToy;
  cfg.levels = cfg.MinimumLevels();
  return cfg;
}

TEST(DataOwnerTest, CreatesAllKeyMaterial) {
  data::Dataset dataset = data::UniformDataset(10, 2, 15, 1);
  auto owner = Deployment::Derive(Config(), dataset, 2, /*role_a=*/false);
  ASSERT_TRUE(owner.ok()) << owner.status();
  EXPECT_FALSE(owner->relin.key.digits.empty());
  EXPECT_FALSE(owner->galois.keys.empty());
  EXPECT_GT(owner->ctx->n(), 0u);
}

TEST(DataOwnerTest, EncryptedDatabaseHasLayoutUnitCount) {
  data::Dataset dataset = data::UniformDataset(1200, 2, 15, 3);
  auto owner = Deployment::Derive(Config(), dataset, 4, /*role_a=*/true);
  ASSERT_TRUE(owner.ok());
  const std::vector<bgv::Ciphertext>& units = owner->encrypted_db;
  EXPECT_EQ(units.size(), owner->layout.num_units());
  for (const auto& ct : units) {
    EXPECT_EQ(ct.level, owner->ctx->max_level());
  }
}

TEST(DataOwnerTest, RejectsDimensionMismatch) {
  data::Dataset dataset = data::UniformDataset(10, 3, 15, 5);
  EXPECT_FALSE(Deployment::Derive(Config(), dataset, 6, false).ok());
}

TEST(DataOwnerTest, RejectsOutOfRangeValues) {
  data::Dataset dataset = data::UniformDataset(10, 2, 300, 7);
  EXPECT_FALSE(Deployment::Derive(Config(), dataset, 8, false).ok());
}

TEST(DataOwnerTest, RejectsMaskingDegreeThatCannotFit) {
  // 30-bit coordinates with degree-2 masking: x^2 alone exceeds the 33-bit
  // plaintext space.
  ProtocolConfig cfg = Config();
  cfg.coord_bits = 20;
  data::Dataset dataset = data::UniformDataset(4, 2, (1u << 20) - 1, 9);
  auto owner = Deployment::Derive(cfg, dataset, 10, false);
  EXPECT_FALSE(owner.ok());
}

TEST(DataOwnerTest, DeterministicKeygenPerSeed) {
  data::Dataset dataset = data::UniformDataset(5, 2, 15, 11);
  auto o1 = Deployment::Derive(Config(), dataset, 99, false);
  auto o2 = Deployment::Derive(Config(), dataset, 99, false);
  ASSERT_TRUE(o1.ok() && o2.ok());
  EXPECT_EQ(o1->sk.s_coeff, o2->sk.s_coeff);
  auto o3 = Deployment::Derive(Config(), dataset, 100, false);
  ASSERT_TRUE(o3.ok());
  EXPECT_NE(o1->sk.s_coeff, o3->sk.s_coeff);
}

}  // namespace
}  // namespace core
}  // namespace sknn
