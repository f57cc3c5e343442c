#include "knn/knn.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "data/generators.h"

namespace sknn {
namespace knn {
namespace {

TEST(PlaintextKnnTest, FindsExactNeighbours) {
  data::Dataset d(4, 1);
  d.set(0, 0, 10);
  d.set(1, 0, 20);
  d.set(2, 0, 30);
  d.set(3, 0, 40);
  auto result = PlaintextKnn(d, {22}, 2);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 2u);
  EXPECT_EQ((*result)[0].index, 1u);  // 20: distance 4
  EXPECT_EQ((*result)[1].index, 2u);  // 30: distance 64
}

TEST(PlaintextKnnTest, DistancesSortedAscending) {
  data::Dataset d = data::UniformDataset(200, 4, 100, 1);
  auto q = data::UniformQuery(4, 100, 2);
  auto result = PlaintextKnn(d, q, 10);
  ASSERT_TRUE(result.ok());
  for (size_t i = 1; i < result->size(); ++i) {
    EXPECT_LE((*result)[i - 1].squared_distance,
              (*result)[i].squared_distance);
  }
}

TEST(PlaintextKnnTest, TieBreaksByIndex) {
  data::Dataset d(3, 1);
  d.set(0, 0, 5);
  d.set(1, 0, 15);  // both at distance 25 from q=10
  d.set(2, 0, 10);
  auto result = PlaintextKnn(d, {10}, 2);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)[0].index, 2u);
  EXPECT_EQ((*result)[1].index, 0u);  // ties: lower index first
}

TEST(PlaintextKnnTest, KClampedToN) {
  data::Dataset d = data::UniformDataset(5, 2, 10, 3);
  auto result = PlaintextKnn(d, {0, 0}, 100);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 5u);
}

TEST(PlaintextKnnTest, RejectsBadInput) {
  data::Dataset d = data::UniformDataset(5, 2, 10, 4);
  EXPECT_FALSE(PlaintextKnn(d, {1, 2, 3}, 2).ok());
  EXPECT_FALSE(PlaintextKnn(d, {1, 2}, 0).ok());
}

TEST(CheckExactTest, AcceptsAnyOrderAndAnyTiedPoint) {
  data::Dataset d(4, 1);
  d.set(0, 0, 5);
  d.set(1, 0, 15);  // ties with point 0 at distance 25 from q=10
  d.set(2, 0, 10);
  d.set(3, 0, 40);
  // Brute force picks points 2 and 0; point 1 is an equally exact answer.
  EXPECT_TRUE(CheckExact(d, {10}, 2, {{15}, {10}}).ok());
  EXPECT_TRUE(CheckExact(d, {10}, 2, {{10}, {5}}).ok());
}

TEST(CheckExactTest, MismatchListsBothMultisets) {
  data::Dataset d(3, 1);
  d.set(0, 0, 10);
  d.set(1, 0, 20);
  d.set(2, 0, 30);
  Status wrong = CheckExact(d, {22}, 2, {{20}, {10}});
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.code(), StatusCode::kInternal);
  EXPECT_NE(wrong.message().find("{4, 144}"), std::string::npos)
      << wrong.ToString();
  EXPECT_NE(wrong.message().find("{4, 64}"), std::string::npos)
      << wrong.ToString();
  // Too few neighbours, or a point of the wrong dimension, is never exact.
  EXPECT_FALSE(CheckExact(d, {22}, 2, {{20}}).ok());
  EXPECT_FALSE(CheckExact(d, {22}, 2, {{20}, {30, 0}}).ok());
}

TEST(SelectKSmallestTest, BasicSelection) {
  std::vector<uint64_t> v = {50, 10, 40, 20, 30};
  auto idx = SelectKSmallest(v, 2);
  std::set<size_t> got(idx.begin(), idx.end());
  EXPECT_EQ(got, (std::set<size_t>{1, 3}));
}

TEST(SelectKSmallestTest, MatchesSortBasedReference) {
  Chacha20Rng rng(uint64_t{5});
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<uint64_t> v(100);
    for (auto& x : v) x = rng.UniformBelow(1 << 30);
    const size_t k = 1 + rng.UniformBelow(20);
    auto idx = SelectKSmallest(v, k);
    ASSERT_EQ(idx.size(), k);
    std::vector<uint64_t> selected;
    for (size_t i : idx) selected.push_back(v[i]);
    std::sort(selected.begin(), selected.end());
    std::vector<uint64_t> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    sorted.resize(k);
    EXPECT_EQ(selected, sorted);
  }
}

TEST(SelectKSmallestTest, DistinctIndices) {
  std::vector<uint64_t> v = {7, 7, 7, 7};
  auto idx = SelectKSmallest(v, 3);
  std::set<size_t> got(idx.begin(), idx.end());
  EXPECT_EQ(got.size(), 3u);
}

TEST(SelectKSmallestTest, KLargerThanInput) {
  std::vector<uint64_t> v = {3, 1};
  auto idx = SelectKSmallest(v, 10);
  EXPECT_EQ(idx.size(), 2u);
}

TEST(SelectKSmallestTest, EmptyInput) {
  EXPECT_TRUE(SelectKSmallest({}, 5).empty());
  EXPECT_TRUE(SelectKSmallest({1, 2}, 0).empty());
}

}  // namespace
}  // namespace knn
}  // namespace sknn
