#include "net/channel.h"

#include <gtest/gtest.h>

namespace sknn {
namespace net {
namespace {

TEST(ChannelTest, MessageDelivery) {
  InMemoryLink link;
  ASSERT_TRUE(link.a_endpoint()->Send({1, 2, 3}).ok());
  auto msg = link.b_endpoint()->Receive();
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg.value(), (std::vector<uint8_t>{1, 2, 3}));
}

TEST(ChannelTest, BidirectionalFifoOrder) {
  InMemoryLink link;
  ASSERT_TRUE(link.a_endpoint()->Send({1}).ok());
  ASSERT_TRUE(link.a_endpoint()->Send({2}).ok());
  ASSERT_TRUE(link.b_endpoint()->Send({9}).ok());
  EXPECT_EQ(link.b_endpoint()->Receive().value(), (std::vector<uint8_t>{1}));
  EXPECT_EQ(link.b_endpoint()->Receive().value(), (std::vector<uint8_t>{2}));
  EXPECT_EQ(link.a_endpoint()->Receive().value(), (std::vector<uint8_t>{9}));
}

TEST(ChannelTest, ReceiveOnEmptyFails) {
  InMemoryLink link;
  EXPECT_FALSE(link.b_endpoint()->Receive().ok());
}

TEST(ChannelTest, ByteAccounting) {
  InMemoryLink link;
  ASSERT_TRUE(link.a_endpoint()->Send(std::vector<uint8_t>(100)).ok());
  ASSERT_TRUE(link.a_endpoint()->Send(std::vector<uint8_t>(50)).ok());
  ASSERT_TRUE(link.b_endpoint()->Send(std::vector<uint8_t>(7)).ok());
  const LinkStats& stats = link.stats();
  EXPECT_EQ(stats.bytes_a_to_b, 150u);
  EXPECT_EQ(stats.bytes_b_to_a, 7u);
  EXPECT_EQ(stats.messages_a_to_b, 2u);
  EXPECT_EQ(stats.messages_b_to_a, 1u);
  EXPECT_EQ(stats.total_bytes(), 157u);
}

TEST(ChannelTest, RoundCountsDirectionFlips) {
  InMemoryLink link;
  // A burst from A, then a burst from B, then one more from A: 3 flips.
  ASSERT_TRUE(link.a_endpoint()->Send({1}).ok());
  ASSERT_TRUE(link.a_endpoint()->Send({2}).ok());
  ASSERT_TRUE(link.b_endpoint()->Send({3}).ok());
  ASSERT_TRUE(link.b_endpoint()->Send({4}).ok());
  ASSERT_TRUE(link.a_endpoint()->Send({5}).ok());
  EXPECT_EQ(link.stats().rounds, 3u);
}

}  // namespace
}  // namespace net
}  // namespace sknn
