#include "extensions/secure_kmeans.h"

#include <gtest/gtest.h>

#include "data/generators.h"

namespace sknn {
namespace extensions {
namespace {

KMeansConfig SmallConfig(size_t clusters, size_t dims) {
  KMeansConfig cfg;
  cfg.num_clusters = clusters;
  cfg.dims = dims;
  cfg.coord_bits = 4;
  cfg.poly_degree = 2;
  cfg.iterations = 4;
  cfg.preset = bgv::SecurityPreset::kToy;
  cfg.seed = 101;
  return cfg;
}

TEST(SecureKMeansTest, MatchesPlaintextLloydExactly) {
  data::Dataset dataset = data::UniformDataset(30, 2, 15, 1);
  auto km = SecureKMeans::Create(SmallConfig(3, 2), dataset);
  ASSERT_TRUE(km.ok()) << km.status();
  auto result = (*km)->Run();
  ASSERT_TRUE(result.ok()) << result.status();

  std::vector<std::vector<uint64_t>> init = {
      dataset.point(0), dataset.point(1), dataset.point(2)};
  std::vector<size_t> ref_sizes;
  auto ref = SecureKMeans::ReferenceLloyd(dataset, init, 4, &ref_sizes);
  EXPECT_EQ(result->centroids, ref);
  EXPECT_EQ(result->sizes, ref_sizes);
}

TEST(SecureKMeansTest, WellSeparatedClustersFound) {
  // Two obvious blobs: around (1,1) and (14,14).
  data::Dataset dataset(10, 2);
  for (size_t i = 0; i < 5; ++i) {
    dataset.set(i, 0, 1 + i % 2);
    dataset.set(i, 1, 1 + i % 3);
  }
  for (size_t i = 5; i < 10; ++i) {
    dataset.set(i, 0, 13 + i % 2);
    dataset.set(i, 1, 13 + i % 3);
  }
  auto km = SecureKMeans::Create(SmallConfig(2, 2), dataset);
  ASSERT_TRUE(km.ok());
  auto result = (*km)->Run({{0, 0}, {15, 15}});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->sizes, (std::vector<size_t>{5, 5}));
  // Centroids land inside their blobs.
  EXPECT_LE(result->centroids[0][0], 3u);
  EXPECT_GE(result->centroids[1][0], 12u);
}

TEST(SecureKMeansTest, ConvergenceStopsEarly) {
  data::Dataset dataset(4, 1);
  dataset.set(0, 0, 1);
  dataset.set(1, 0, 2);
  dataset.set(2, 0, 14);
  dataset.set(3, 0, 15);
  KMeansConfig cfg = SmallConfig(2, 1);
  cfg.iterations = 10;
  auto km = SecureKMeans::Create(cfg, dataset);
  ASSERT_TRUE(km.ok());
  auto result = (*km)->Run({{0}, {15}});
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->iterations_run, 10u);  // stabilizes quickly
  EXPECT_EQ(result->centroids[0][0], 1u);   // floor((1+2)/2)
  EXPECT_EQ(result->centroids[1][0], 14u);  // floor((14+15)/2)
}

TEST(SecureKMeansTest, MultiUnitDatasetWithPadding) {
  // More points than one unit holds at n=1024, d=2 -> several units plus
  // padding blocks, all of which must be excluded from the assignment.
  data::Dataset dataset = data::UniformDataset(1200, 2, 15, 2);
  KMeansConfig cfg = SmallConfig(2, 2);
  cfg.iterations = 2;
  auto km = SecureKMeans::Create(cfg, dataset);
  ASSERT_TRUE(km.ok());
  auto result = (*km)->Run();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->sizes[0] + result->sizes[1], 1200u);
  std::vector<std::vector<uint64_t>> init = {dataset.point(0),
                                             dataset.point(1)};
  auto ref = SecureKMeans::ReferenceLloyd(dataset, init, 2);
  EXPECT_EQ(result->centroids, ref);
}

TEST(SecureKMeansTest, EmptyClusterKeepsCentroid) {
  data::Dataset dataset(3, 2);
  dataset.set(0, 0, 1);
  dataset.set(0, 1, 1);
  dataset.set(1, 0, 2);
  dataset.set(1, 1, 2);
  dataset.set(2, 0, 3);
  dataset.set(2, 1, 3);
  KMeansConfig cfg = SmallConfig(2, 2);
  cfg.iterations = 1;
  auto km = SecureKMeans::Create(cfg, dataset);
  ASSERT_TRUE(km.ok());
  // Second centroid far away from everything: it captures no points.
  auto result = (*km)->Run({{2, 2}, {15, 15}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->sizes[1], 0u);
  EXPECT_EQ(result->centroids[1], (std::vector<uint64_t>{15, 15}));
}

TEST(SecureKMeansTest, HigherDimensions) {
  data::Dataset dataset = data::UniformDataset(40, 5, 15, 3);
  auto km = SecureKMeans::Create(SmallConfig(3, 5), dataset);
  ASSERT_TRUE(km.ok());
  auto result = (*km)->Run();
  ASSERT_TRUE(result.ok()) << result.status();
  std::vector<std::vector<uint64_t>> init = {
      dataset.point(0), dataset.point(1), dataset.point(2)};
  EXPECT_EQ(result->centroids, SecureKMeans::ReferenceLloyd(dataset, init, 4));
}

TEST(SecureKMeansTest, RejectsBadConfigs) {
  data::Dataset dataset = data::UniformDataset(5, 2, 15, 4);
  KMeansConfig cfg = SmallConfig(0, 2);
  EXPECT_FALSE(SecureKMeans::Create(cfg, dataset).ok());
  cfg = SmallConfig(6, 2);  // more clusters than points
  EXPECT_FALSE(SecureKMeans::Create(cfg, dataset).ok());
  cfg = SmallConfig(2, 3);  // dims mismatch
  EXPECT_FALSE(SecureKMeans::Create(cfg, dataset).ok());
}

TEST(SecureKMeansTest, RejectsWrongInitialCentroids) {
  data::Dataset dataset = data::UniformDataset(5, 2, 15, 5);
  auto km = SecureKMeans::Create(SmallConfig(2, 2), dataset);
  ASSERT_TRUE(km.ok());
  EXPECT_FALSE((*km)->Run({{1, 1}}).ok());            // too few
  EXPECT_FALSE((*km)->Run({{1}, {2}}).ok());          // wrong dims
}

TEST(SecureKMeansTest, PartyOpsAccumulated) {
  data::Dataset dataset = data::UniformDataset(20, 2, 15, 6);
  KMeansConfig cfg = SmallConfig(2, 2);
  cfg.iterations = 1;
  auto km = SecureKMeans::Create(cfg, dataset);
  ASSERT_TRUE(km.ok());
  auto result = (*km)->Run();
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->party_a_ops.he_multiplications, 0u);
  EXPECT_GT(result->party_b_ops.decryptions, 0u);
  EXPECT_GT(result->party_b_ops.encryptions, 0u);
}

// Party A's op counts cover every relinearization and key switch of an
// iteration: per centroid and unit, D relinearizations (the squaring and
// D-1 Horner products) and log2(d') fold rotations, then per cluster one
// relinearization of the sum and log2(row/d') + 1 fold rotations. The
// transform's block rotations and row swaps only add to the rotations.
TEST(SecureKMeansTest, OneIterationCountsEveryRelinearizationAndRotation) {
  // Toy ring: 1024 slots in two rows of 512. d = 5 pads to d' = 8, so a
  // unit holds 2 * 512 / 8 = 128 points and 200 points fill u = 2 units.
  constexpr size_t kClusters = 2;
  constexpr size_t kUnits = 2;
  constexpr size_t kDegree = 2;
  constexpr size_t kLogPaddedDims = 3;  // log2(8)
  constexpr size_t kLogBlocksPerRow = 6;  // log2(512 / 8)
  data::Dataset dataset = data::UniformDataset(200, 5, 15, 7);
  KMeansConfig cfg = SmallConfig(kClusters, 5);
  cfg.poly_degree = kDegree;
  cfg.iterations = 1;
  auto km = SecureKMeans::Create(cfg, dataset);
  ASSERT_TRUE(km.ok()) << km.status();
  auto result = (*km)->Run();
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->iterations_run, 1u);
  EXPECT_EQ(result->party_a_ops.relinearizations,
            kClusters * kUnits * kDegree + kClusters);
  EXPECT_GE(result->party_a_ops.rotations,
            kClusters * kUnits * kLogPaddedDims +
                kClusters * (kLogBlocksPerRow + 1));
}

}  // namespace
}  // namespace extensions
}  // namespace sknn
