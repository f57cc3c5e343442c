// FaultyLink + ResilientChannel: deterministic fault injection and the
// receive-side recovery machinery (dedup, reorder stash, poll budget,
// typed timeouts), plus FaultSpec parsing.

#include "net/faulty_link.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/metrics_registry.h"
#include "net/resilient_channel.h"

namespace sknn {
namespace net {
namespace {

// Retry policy tuned for tests: enough polls to beat every delay spec
// used here.
RetryPolicy FastPolicy() {
  RetryPolicy p;
  p.max_receive_polls = 32;
  return p;
}

std::vector<uint8_t> Payload(uint8_t tag, size_t len = 32) {
  return std::vector<uint8_t>(len, tag);
}

TEST(FaultSpecTest, ParsesModesAndRejectsGarbage) {
  auto spec = ParseFaultSpec("drop:0.05,flip:0.01,delay:0.2:7");
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_DOUBLE_EQ(spec->drop, 0.05);
  EXPECT_DOUBLE_EQ(spec->flip, 0.01);
  EXPECT_DOUBLE_EQ(spec->delay, 0.2);
  EXPECT_EQ(spec->delay_polls, 7);
  EXPECT_TRUE(spec->any());

  EXPECT_TRUE(ParseFaultSpec("").ok());
  EXPECT_FALSE(ParseFaultSpec("")->any());
  EXPECT_FALSE(ParseFaultSpec("drop:1.5").ok());
  EXPECT_FALSE(ParseFaultSpec("warp:0.1").ok());
  EXPECT_FALSE(ParseFaultSpec("drop").ok());
  EXPECT_FALSE(ParseFaultSpec("flip:0.1:3").ok());
  EXPECT_FALSE(ParseFaultSpec("delay:0.1:0").ok());
}

TEST(FaultSpecTest, DebugStringListsActiveModes) {
  auto spec = ParseFaultSpec("drop:0.25,reorder:0.5").value();
  const std::string s = spec.DebugString();
  EXPECT_NE(s.find("drop:0.25"), std::string::npos);
  EXPECT_NE(s.find("reorder:0.5"), std::string::npos);
  EXPECT_EQ(s.find("flip"), std::string::npos);
}

TEST(FaultyLinkTest, NoFaultsIsTransparent) {
  InMemoryLink raw;
  FaultSpec none;
  FaultyLink link(raw.a_endpoint(), raw.b_endpoint(), none, none, 1);
  ASSERT_TRUE(link.a_endpoint()->Send(Payload(1)).ok());
  auto msg = link.b_endpoint()->Receive();
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg.value(), Payload(1));
  EXPECT_EQ(link.faults_injected(), 0u);
}

TEST(FaultyLinkTest, DropIsDeterministicAndCounted) {
  FaultSpec spec;
  spec.drop = 0.5;
  auto run = [&](uint64_t seed) {
    InMemoryLink raw;
    FaultyLink link(raw.a_endpoint(), raw.b_endpoint(), spec, spec, seed);
    for (int i = 0; i < 100; ++i) {
      EXPECT_TRUE(link.a_endpoint()->Send(Payload(1)).ok());
    }
    return raw.stats().messages_a_to_b;
  };
  const uint64_t delivered = run(7);
  EXPECT_EQ(delivered, run(7)) << "same seed must replay identically";
  EXPECT_GT(delivered, 20u);
  EXPECT_LT(delivered, 80u);
}

TEST(FaultyLinkTest, InjectionCountsAreExported) {
  MetricsRegistry::Counter* drops =
      MetricsRegistry::Global().GetCounter("net.faults.drop");
  const uint64_t before = drops->value();
  FaultSpec spec;
  spec.drop = 1.0;
  InMemoryLink raw;
  FaultyLink link(raw.a_endpoint(), raw.b_endpoint(), spec, spec, 3);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(link.a_endpoint()->Send(Payload(2)).ok());
  }
  EXPECT_EQ(drops->value(), before + 10);
  EXPECT_EQ(raw.stats().messages_a_to_b, 0u);
  EXPECT_EQ(link.faults_injected(), 10u);
}

TEST(ResilientChannelTest, FramedRoundTripOverCleanLink) {
  InMemoryLink raw;
  ResilientChannel a(raw.a_endpoint(), FastPolicy(), 1, "A");
  ResilientChannel b(raw.b_endpoint(), FastPolicy(), 2, "B");
  ASSERT_TRUE(a.SendMessage(MessageType::kDistances, Payload(1)).ok());
  ASSERT_TRUE(a.SendMessage(MessageType::kDistances, Payload(2)).ok());
  auto m1 = b.ReceiveMessage(MessageType::kDistances);
  auto m2 = b.ReceiveMessage(MessageType::kDistances);
  ASSERT_TRUE(m1.ok() && m2.ok());
  EXPECT_EQ(m1.value(), Payload(1));
  EXPECT_EQ(m2.value(), Payload(2));
  // Wire bytes = payload + one header per message.
  EXPECT_EQ(raw.stats().bytes_a_to_b, 2 * (32 + kFrameHeaderBytes));
}

TEST(ResilientChannelTest, WrongTypeIsTypedDesyncError) {
  InMemoryLink raw;
  ResilientChannel a(raw.a_endpoint(), FastPolicy(), 1, "A");
  ResilientChannel b(raw.b_endpoint(), FastPolicy(), 2, "B");
  ASSERT_TRUE(a.SendMessage(MessageType::kDistances, Payload(1)).ok());
  auto msg = b.ReceiveMessage(MessageType::kIndicators);
  ASSERT_FALSE(msg.ok());
  EXPECT_EQ(msg.status().code(), StatusCode::kDataLoss);
  EXPECT_TRUE(msg.status().IsTransient());
}

TEST(ResilientChannelTest, DuplicatesAreConsumedSilently) {
  FaultSpec spec;
  spec.dup = 1.0;
  InMemoryLink raw;
  FaultyLink link(raw.a_endpoint(), raw.b_endpoint(), spec, spec, 5);
  ResilientChannel a(link.a_endpoint(), FastPolicy(), 1, "A");
  ResilientChannel b(link.b_endpoint(), FastPolicy(), 2, "B");
  for (uint8_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(a.SendMessage(MessageType::kOpaque, Payload(i)).ok());
  }
  EXPECT_EQ(raw.stats().messages_a_to_b, 10u);  // every frame doubled
  for (uint8_t i = 0; i < 5; ++i) {
    auto msg = b.ReceiveMessage(MessageType::kOpaque);
    ASSERT_TRUE(msg.ok()) << msg.status();
    EXPECT_EQ(msg.value(), Payload(i)) << "duplicate leaked through";
  }
  // Nothing but the 5 duplicates is left.
  EXPECT_FALSE(b.ReceiveFrame().ok());
}

TEST(ResilientChannelTest, ReorderedFramesAreReassembledInOrder) {
  FaultSpec spec;
  spec.reorder = 1.0;  // every message held and released after the next
  InMemoryLink raw;
  FaultyLink link(raw.a_endpoint(), raw.b_endpoint(), spec, spec, 6);
  ResilientChannel a(link.a_endpoint(), FastPolicy(), 1, "A");
  ResilientChannel b(link.b_endpoint(), FastPolicy(), 2, "B");
  for (uint8_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(a.SendMessage(MessageType::kOpaque, Payload(i)).ok());
  }
  for (uint8_t i = 0; i < 6; ++i) {
    auto msg = b.ReceiveMessage(MessageType::kOpaque);
    ASSERT_TRUE(msg.ok()) << msg.status();
    EXPECT_EQ(msg.value(), Payload(i)) << "order not restored at " << int{i};
  }
}

TEST(ResilientChannelTest, DelayedFrameArrivesAfterPolling) {
  FaultSpec spec;
  spec.delay = 1.0;
  spec.delay_polls = 4;
  InMemoryLink raw;
  FaultyLink link(raw.a_endpoint(), raw.b_endpoint(), spec, spec, 8);
  ResilientChannel a(link.a_endpoint(), FastPolicy(), 1, "A");
  ResilientChannel b(link.b_endpoint(), FastPolicy(), 2, "B");
  ASSERT_TRUE(a.SendMessage(MessageType::kOpaque, Payload(9)).ok());
  EXPECT_EQ(raw.stats().messages_a_to_b, 0u) << "message should be staged";
  auto msg = b.ReceiveMessage(MessageType::kOpaque);
  ASSERT_TRUE(msg.ok()) << msg.status();
  EXPECT_EQ(msg.value(), Payload(9));
}

TEST(ResilientChannelTest, DropYieldsDeadlineExceeded) {
  FaultSpec spec;
  spec.drop = 1.0;
  InMemoryLink raw;
  FaultyLink link(raw.a_endpoint(), raw.b_endpoint(), spec, spec, 9);
  RetryPolicy policy = FastPolicy();
  policy.max_receive_polls = 4;
  ResilientChannel a(link.a_endpoint(), policy, 1, "A");
  ResilientChannel b(link.b_endpoint(), policy, 2, "B");
  ASSERT_TRUE(a.SendMessage(MessageType::kDistances, Payload(1)).ok());
  auto msg = b.ReceiveMessage(MessageType::kDistances);
  ASSERT_FALSE(msg.ok());
  EXPECT_EQ(msg.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(msg.status().IsTransient());
}

TEST(ResilientChannelTest, BitFlipYieldsDataLoss) {
  FaultSpec spec;
  spec.flip = 1.0;
  InMemoryLink raw;
  FaultyLink link(raw.a_endpoint(), raw.b_endpoint(), spec, spec, 10);
  ResilientChannel a(link.a_endpoint(), FastPolicy(), 1, "A");
  ResilientChannel b(link.b_endpoint(), FastPolicy(), 2, "B");
  ASSERT_TRUE(a.SendMessage(MessageType::kDistances, Payload(1)).ok());
  auto msg = b.ReceiveMessage(MessageType::kDistances);
  ASSERT_FALSE(msg.ok());
  // A flip can land anywhere, including the version byte: corrupt
  // (kDataLoss, transient) is the norm, version mismatch the rare fatal.
  EXPECT_TRUE(msg.status().code() == StatusCode::kDataLoss ||
              msg.status().code() == StatusCode::kFailedPrecondition)
      << msg.status();
}

TEST(ResilientChannelTest, EpochResetAfterDrainRecoversDesync) {
  FaultSpec spec;  // clean link; desync provoked by a raw-level receive
  InMemoryLink raw;
  FaultyLink link(raw.a_endpoint(), raw.b_endpoint(), spec, spec, 11);
  RetryPolicy policy = FastPolicy();
  policy.max_receive_polls = 3;
  ResilientChannel a(link.a_endpoint(), policy, 1, "A");
  ResilientChannel b(link.b_endpoint(), policy, 2, "B");
  ASSERT_TRUE(a.SendMessage(MessageType::kOpaque, Payload(1)).ok());
  ASSERT_TRUE(raw.b_endpoint()->Receive().ok());  // "the network ate it"
  EXPECT_FALSE(b.ReceiveMessage(MessageType::kOpaque).ok());
  // The link is empty again: reset epochs, re-send.
  a.ResetEpoch();
  b.ResetEpoch();
  ASSERT_TRUE(a.SendMessage(MessageType::kOpaque, Payload(1)).ok());
  auto msg = b.ReceiveMessage(MessageType::kOpaque);
  ASSERT_TRUE(msg.ok()) << msg.status();
  EXPECT_EQ(msg.value(), Payload(1));
}

TEST(ChannelTest, EmptyQueueErrorIsUnavailableWithContext) {
  InMemoryLink link;
  ASSERT_TRUE(link.a_endpoint()->Send(Payload(1)).ok());
  ASSERT_TRUE(link.b_endpoint()->Receive().ok());
  auto msg = link.b_endpoint()->Receive();
  ASSERT_FALSE(msg.ok());
  EXPECT_EQ(msg.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(msg.status().IsTransient());
  // Direction, counts, and the expected message index are all reported.
  const std::string& text = msg.status().message();
  EXPECT_NE(text.find("A->B"), std::string::npos) << text;
  EXPECT_NE(text.find("expected message #1"), std::string::npos) << text;
  EXPECT_NE(text.find("endpoint B"), std::string::npos) << text;
}

}  // namespace
}  // namespace net
}  // namespace sknn
