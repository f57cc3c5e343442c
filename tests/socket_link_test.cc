// Socket transport unit tests: framed envelopes over real loopback TCP
// (PROTOCOL.md "Socket transport"). Covers the round-trip of every
// protocol message type, stream reassembly across the kernel boundary,
// and the typed-transient error taxonomy for truncated connections, peer
// disconnects, and desynchronized streams.

#include "net/socket_link.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "net/resilient_channel.h"

namespace sknn {
namespace net {
namespace {

// Receive with retries: the sender's bytes need a trip through the kernel,
// so the first poll-bounded Receive may legitimately return kUnavailable.
StatusOr<std::vector<uint8_t>> ReceiveBlocking(Channel* ch,
                                               int max_polls = 200) {
  for (int i = 0; i < max_polls; ++i) {
    auto bytes = ch->Receive();
    if (bytes.ok() || bytes.status().code() != StatusCode::kUnavailable) {
      return bytes;
    }
  }
  return DeadlineExceededError("no frame within the test's poll budget");
}

// Same, but for errors: polls until Receive reports something other than
// kUnavailable and returns that status.
Status ReceiveUntilError(Channel* ch, int max_polls = 200) {
  for (int i = 0; i < max_polls; ++i) {
    auto bytes = ch->Receive();
    if (bytes.ok()) continue;  // drain anything that did arrive
    if (bytes.status().code() != StatusCode::kUnavailable) {
      return bytes.status();
    }
  }
  return Status::Ok();  // never became an error — callers EXPECT against it
}

// A connected loopback pair built through the public listener API.
struct RawPair {
  std::unique_ptr<SocketListener> listener;
  std::unique_ptr<SocketChannel> dialer;
  std::unique_ptr<SocketChannel> accepted;
};

RawPair MakePair() {
  RawPair pair;
  auto listener = SocketListener::Listen("127.0.0.1", 0);
  EXPECT_TRUE(listener.ok()) << listener.status();
  pair.listener = std::move(listener).value();
  auto dialer =
      ConnectSocket("127.0.0.1", pair.listener->port(), 2000, "dialer");
  EXPECT_TRUE(dialer.ok()) << dialer.status();
  pair.dialer = std::move(dialer).value();
  auto accepted = pair.listener->Accept(2000, "accepted");
  EXPECT_TRUE(accepted.ok()) << accepted.status();
  pair.accepted = std::move(accepted).value();
  return pair;
}

TEST(SocketLinkTest, RoundTripsEveryProtocolMessageType) {
  auto link = SocketLink::Create();
  ASSERT_TRUE(link.ok()) << link.status();
  const MessageType kTypes[] = {MessageType::kQuery, MessageType::kDistances,
                                MessageType::kIndicators,
                                MessageType::kResults};
  uint64_t seq = 0;
  for (MessageType type : kTypes) {
    const std::vector<uint8_t> payload = {1, 2, 3,
                                          static_cast<uint8_t>(seq)};
    // A -> B.
    ASSERT_TRUE(
        (*link)->a_endpoint()->Send(EncodeFrame(type, seq, payload)).ok());
    auto received = ReceiveBlocking((*link)->b_endpoint());
    ASSERT_TRUE(received.ok()) << received.status();
    auto frame = DecodeFrame(std::move(received).value());
    ASSERT_TRUE(frame.ok()) << frame.status();
    EXPECT_EQ(frame->type, type);
    EXPECT_EQ(frame->seq, seq);
    EXPECT_EQ(frame->payload, payload);
    // B -> A.
    ASSERT_TRUE(
        (*link)->b_endpoint()->Send(EncodeFrame(type, seq, payload)).ok());
    received = ReceiveBlocking((*link)->a_endpoint());
    ASSERT_TRUE(received.ok()) << received.status();
    frame = DecodeFrame(std::move(received).value());
    ASSERT_TRUE(frame.ok()) << frame.status();
    EXPECT_EQ(frame->type, type);
    ++seq;
  }
  // Byte accounting matches: every frame crossed the link exactly once.
  EXPECT_EQ((*link)->stats().messages_a_to_b, 4u);
  EXPECT_EQ((*link)->stats().messages_b_to_a, 4u);
  EXPECT_EQ((*link)->stats().bytes_a_to_b, (*link)->stats().bytes_b_to_a);
}

TEST(SocketLinkTest, ReassemblesFramesLargerThanOneRead) {
  auto link = SocketLink::Create();
  ASSERT_TRUE(link.ok()) << link.status();
  // Bigger than the 64KB read chunks, so reassembly spans many fills.
  std::vector<uint8_t> payload(1 << 20);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  ASSERT_TRUE((*link)
                  ->a_endpoint()
                  ->Send(EncodeFrame(MessageType::kDistances, 9, payload))
                  .ok());
  auto received = ReceiveBlocking((*link)->b_endpoint(), 2000);
  ASSERT_TRUE(received.ok()) << received.status();
  auto frame = DecodeFrame(std::move(received).value());
  ASSERT_TRUE(frame.ok()) << frame.status();
  EXPECT_EQ(frame->payload, payload);
}

TEST(SocketLinkTest, BackToBackFramesStayDelimited) {
  auto link = SocketLink::Create();
  ASSERT_TRUE(link.ok()) << link.status();
  // Many small frames coalesce into one TCP segment; the header length
  // field must split them back apart.
  for (uint64_t seq = 0; seq < 16; ++seq) {
    ASSERT_TRUE((*link)
                    ->a_endpoint()
                    ->Send(EncodeFrame(MessageType::kOpaque, seq,
                                       {static_cast<uint8_t>(seq)}))
                    .ok());
  }
  for (uint64_t seq = 0; seq < 16; ++seq) {
    auto received = ReceiveBlocking((*link)->b_endpoint());
    ASSERT_TRUE(received.ok()) << received.status();
    auto frame = DecodeFrame(std::move(received).value());
    ASSERT_TRUE(frame.ok()) << frame.status();
    EXPECT_EQ(frame->seq, seq);
  }
}

TEST(SocketLinkTest, EmptyStreamIsUnavailable) {
  auto link = SocketLink::Create();
  ASSERT_TRUE(link.ok()) << link.status();
  auto received = (*link)->b_endpoint()->Receive();
  ASSERT_FALSE(received.ok());
  EXPECT_EQ(received.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(received.status().IsTransient());
}

// A frame already in the kernel is handed over at once: Receive must not
// sit out the rest of its poll window after draining it.
TEST(SocketLinkTest, ReceiveReturnsAsSoonAsItsFrameCompletes) {
  RawPair pair = MakePair();
  pair.accepted->set_io_poll_ms(5000);
  ASSERT_TRUE(
      pair.dialer->Send(EncodeFrame(MessageType::kDistances, 0, {1, 2}))
          .ok());
  const auto t0 = std::chrono::steady_clock::now();
  auto received = pair.accepted->Receive();
  const auto waited = std::chrono::steady_clock::now() - t0;
  ASSERT_TRUE(received.ok()) << received.status();
  EXPECT_LT(waited, std::chrono::milliseconds(1000));
}

// A frame that trickles in over several writes is delivered by one
// Receive, as long as its last byte lands inside the window.
TEST(SocketLinkTest, ReceiveWaitsAcrossPartialWritesWithinWindow) {
  RawPair pair = MakePair();
  pair.accepted->set_io_poll_ms(5000);
  const std::vector<uint8_t> payload(300, 5);
  const std::vector<uint8_t> wire =
      EncodeFrame(MessageType::kIndicators, 4, payload);
  std::thread writer([&] {
    const size_t third = wire.size() / 3;
    for (size_t off = 0; off < wire.size(); off += third) {
      const size_t end = std::min(wire.size(), off + third);
      EXPECT_TRUE(pair.dialer
                      ->Send(std::vector<uint8_t>(wire.begin() + off,
                                                  wire.begin() + end))
                      .ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }
  });
  const auto t0 = std::chrono::steady_clock::now();
  auto received = pair.accepted->Receive();
  const auto waited = std::chrono::steady_clock::now() - t0;
  writer.join();
  ASSERT_TRUE(received.ok()) << received.status();
  EXPECT_EQ(received.value(), wire);
  EXPECT_LT(waited, std::chrono::milliseconds(2500));
}

TEST(SocketLinkTest, CleanDisconnectAtFrameBoundaryIsAborted) {
  RawPair pair = MakePair();
  // One whole frame, then a clean close: the receiver must deliver the
  // frame, then report kAborted (peer gone, stream not corrupted).
  ASSERT_TRUE(
      pair.dialer->Send(EncodeFrame(MessageType::kResults, 3, {7})).ok());
  pair.dialer->Close();
  auto received = ReceiveBlocking(pair.accepted.get());
  ASSERT_TRUE(received.ok()) << received.status();
  EXPECT_TRUE(DecodeFrame(std::move(received).value()).ok());
  const Status status = ReceiveUntilError(pair.accepted.get());
  EXPECT_EQ(status.code(), StatusCode::kAborted) << status;
  EXPECT_TRUE(status.IsTransient());
}

TEST(SocketLinkTest, TruncatedConnectionIsDataLoss) {
  RawPair pair = MakePair();
  // Half a frame, then the peer dies: typed kDataLoss, never a hang.
  std::vector<uint8_t> frame =
      EncodeFrame(MessageType::kDistances, 1, std::vector<uint8_t>(256, 9));
  frame.resize(frame.size() / 2);
  ASSERT_TRUE(pair.dialer->Send(std::move(frame)).ok());
  pair.dialer->Close();
  const Status status = ReceiveUntilError(pair.accepted.get());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status;
  EXPECT_TRUE(status.IsTransient());
}

TEST(SocketLinkTest, GarbageOnTheStreamIsDataLoss) {
  RawPair pair = MakePair();
  // 64 bytes of non-SKNF garbage: the receiver cannot find a frame
  // header, declares the stream desynchronized, and discards its buffer.
  ASSERT_TRUE(pair.dialer->Send(std::vector<uint8_t>(64, 0xAB)).ok());
  const Status status = ReceiveUntilError(pair.accepted.get());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status;
  EXPECT_TRUE(status.IsTransient());
}

// Only an empty poll is polled again: a stream that lost framing fails
// the resilient receive at once with kDataLoss, not after the budget.
TEST(SocketLinkTest, ResilientReceiveSurfacesBrokenStreamAtOnce) {
  RawPair pair = MakePair();
  RetryPolicy policy;
  policy.max_receive_polls = 200;
  ResilientChannel ch(pair.accepted.get(), policy, 1, "accepted");
  ASSERT_TRUE(pair.dialer->Send(std::vector<uint8_t>(64, 0xAB)).ok());
  auto received = ch.ReceiveMessage(MessageType::kDistances);
  ASSERT_FALSE(received.ok());
  EXPECT_EQ(received.status().code(), StatusCode::kDataLoss)
      << received.status();
}

// With a deadline set, only the clock ends a resilient receive: a frame
// that arrives long after the poll budget (2 polls of a 20 ms window) is
// still received, and an absent one fails at the deadline.
TEST(SocketLinkTest, ResilientReceiveWaitsForTheDeadlineNotThePollBudget) {
  RawPair pair = MakePair();
  RetryPolicy policy;
  policy.max_receive_polls = 2;
  ResilientChannel ch(pair.accepted.get(), policy, 1, "accepted");
  const auto t0 = std::chrono::steady_clock::now();
  ch.set_deadline(t0 + std::chrono::seconds(3));
  const std::vector<uint8_t> payload = {7, 7, 7};
  std::thread late_sender([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    EXPECT_TRUE(
        pair.dialer->Send(EncodeFrame(MessageType::kDistances, 0, payload))
            .ok());
  });
  auto got = ch.ReceiveMessage(MessageType::kDistances);
  late_sender.join();
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got.value(), payload);

  const auto t1 = std::chrono::steady_clock::now();
  ch.set_deadline(t1 + std::chrono::milliseconds(300));
  auto absent = ch.ReceiveMessage(MessageType::kDistances);
  const auto waited_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::steady_clock::now() - t1)
                             .count();
  ASSERT_FALSE(absent.ok());
  EXPECT_EQ(absent.status().code(), StatusCode::kDeadlineExceeded)
      << absent.status();
  EXPECT_GE(waited_ms, 300);
  EXPECT_LT(waited_ms, 2000);
}

TEST(SocketLinkTest, SendToDisconnectedPeerIsAborted) {
  RawPair pair = MakePair();
  pair.accepted->Close();
  // The first send may land in the kernel buffer before the RST comes
  // back; within a few sends the error must surface as kAborted.
  Status status = Status::Ok();
  for (int i = 0; i < 50 && status.ok(); ++i) {
    status = pair.dialer->Send(
        EncodeFrame(MessageType::kOpaque, i, std::vector<uint8_t>(4096, 1)));
  }
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kAborted) << status;
  EXPECT_TRUE(status.IsTransient());
}

TEST(SocketLinkTest, AcceptTimesOutUnavailable) {
  auto listener = SocketListener::Listen("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok()) << listener.status();
  auto conn = (*listener)->Accept(10, "nobody");
  ASSERT_FALSE(conn.ok());
  EXPECT_EQ(conn.status().code(), StatusCode::kUnavailable);
}

TEST(SocketLinkTest, ConnectToClosedPortFailsCleanly) {
  // Grab an ephemeral port, then close the listener so nobody is there.
  auto listener = SocketListener::Listen("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok()) << listener.status();
  const uint16_t port = (*listener)->port();
  (*listener)->Close();
  auto conn = ConnectSocket("127.0.0.1", port, 50, "nobody");
  ASSERT_FALSE(conn.ok());
  EXPECT_TRUE(conn.status().IsTransient()) << conn.status();
}

TEST(SocketLinkTest, WaitReadableSeesTraffic) {
  RawPair pair = MakePair();
  auto quiet = pair.accepted->WaitReadable(10);
  ASSERT_TRUE(quiet.ok()) << quiet.status();
  EXPECT_FALSE(quiet.value());
  ASSERT_TRUE(
      pair.dialer->Send(EncodeFrame(MessageType::kControl, 0, {1})).ok());
  auto ready = pair.accepted->WaitReadable(2000);
  ASSERT_TRUE(ready.ok()) << ready.status();
  EXPECT_TRUE(ready.value());
}

// The resilient layer's ordered exactly-once delivery works unchanged
// over the socket transport (same Channel interface contract).
TEST(SocketLinkTest, ResilientChannelRunsOverSockets) {
  auto link = SocketLink::Create();
  ASSERT_TRUE(link.ok()) << link.status();
  RetryPolicy policy;
  policy.max_receive_polls = 200;
  ResilientChannel a((*link)->a_endpoint(), policy, 1, "a");
  ResilientChannel b((*link)->b_endpoint(), policy, 2, "b");
  for (int round = 0; round < 3; ++round) {
    a.ResetEpoch();
    b.ResetEpoch();
    for (uint64_t i = 0; i < 4; ++i) {
      const std::vector<uint8_t> payload = {static_cast<uint8_t>(round),
                                            static_cast<uint8_t>(i)};
      ASSERT_TRUE(a.SendMessage(MessageType::kDistances, payload).ok());
      auto got = b.ReceiveMessage(MessageType::kDistances);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(got.value(), payload);
    }
  }
}

}  // namespace
}  // namespace net
}  // namespace sknn
