// Multi-client server tests: the socket-backed two-cloud deployment
// (core/server.h) serving concurrent clients with admission control.
// Every answer is checked exactly against plaintext brute force; the
// backpressure test pins the typed-shed contract of DESIGN.md §9.

#include "core/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/flight_recorder.h"
#include "common/metrics_registry.h"
#include "common/trace_id.h"
#include "core/exchange.h"
#include "data/generators.h"
#include "knn/knn.h"
#include "net/frame.h"
#include "net/resilient_channel.h"
#include "net/socket_link.h"

namespace sknn {
namespace core {
namespace {

ProtocolConfig ServerConfig() {
  ProtocolConfig cfg;
  cfg.k = 3;
  cfg.poly_degree = 2;
  cfg.coord_bits = 4;
  cfg.dims = 2;
  cfg.layout = Layout::kPacked;
  cfg.preset = bgv::SecurityPreset::kToy;
  cfg.plain_bits = 33;
  cfg.threads = 1;
  cfg.levels = cfg.MinimumLevels();
  return cfg;
}

std::vector<uint64_t> SortedDistances(
    const std::vector<std::vector<uint64_t>>& points,
    const std::vector<uint64_t>& query) {
  std::vector<uint64_t> out;
  for (const auto& p : points) {
    uint64_t sum = 0;
    for (size_t j = 0; j < query.size(); ++j) {
      const uint64_t d = p[j] > query[j] ? p[j] - query[j] : query[j] - p[j];
      sum += d * d;
    }
    out.push_back(sum);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<uint64_t> ReferenceDistances(const data::Dataset& data,
                                         const std::vector<uint64_t>& query,
                                         size_t k) {
  auto ref = knn::PlaintextKnn(data, query, k);
  EXPECT_TRUE(ref.ok());
  std::vector<uint64_t> out;
  for (const auto& nb : ref.value()) out.push_back(nb.squared_distance);
  std::sort(out.begin(), out.end());
  return out;
}

Status SendControlText(net::ResilientChannel* ch, const std::string& text) {
  return ch->SendMessage(net::MessageType::kControl,
                         std::vector<uint8_t>(text.begin(), text.end()));
}

std::string HelloFor(const Deployment& deployment) {
  std::ostringstream hello;
  hello << "sknn-hello/1 role=party_a fp=" << std::hex
        << deployment.fingerprint;
  return hello.str();
}

// The acceptor half of the handshake for a fake Party A: swallow the
// hello, answer welcome (the dialer only checks the prefix).
bool AnswerHandshake(net::ResilientChannel* ch) {
  auto hello = ch->ReceiveMessage(net::MessageType::kControl);
  if (!hello.ok()) {
    ADD_FAILURE() << hello.status();
    return false;
  }
  return SendControlText(ch, "sknn-welcome/1").ok();
}

// Every served channel receives against a deadline; the hand-driven
// peers below use one far beyond any test's runtime.
std::chrono::steady_clock::time_point PeerDeadline() {
  return std::chrono::steady_clock::now() + std::chrono::seconds(60);
}

// A hand-driven peer of a server: a socket that has completed the
// dialer half of the handshake, for tests that write the wire directly.
struct RawPeer {
  std::unique_ptr<net::SocketChannel> conn;
  std::unique_ptr<net::ResilientChannel> ch;
};

RawPeer DialRaw(uint16_t port, const Deployment& deployment) {
  RawPeer peer;
  auto conn = net::ConnectSocket("127.0.0.1", port, 2000, "raw peer");
  if (!conn.ok()) {
    ADD_FAILURE() << conn.status();
    return peer;
  }
  peer.conn = std::move(conn).value();
  peer.ch = std::make_unique<net::ResilientChannel>(
      peer.conn.get(), net::RetryPolicy(), 1, "raw peer");
  peer.ch->set_deadline(PeerDeadline());
  auto welcome = SendControlText(peer.ch.get(), HelloFor(deployment));
  auto reply = peer.ch->ReceiveMessage(net::MessageType::kControl);
  if (!welcome.ok() || !reply.ok()) {
    ADD_FAILURE() << "raw handshake failed: " << welcome << " / "
                  << reply.status();
    peer.ch.reset();
  }
  return peer;
}

std::unique_ptr<Client> MakeClient(const Deployment& d) {
  return std::make_unique<Client>(d.ctx, d.config, d.layout, d.pk, d.sk,
                                  d.client_seed);
}

// Decrypts serialized result ciphertexts to neighbour coordinates.
std::vector<std::vector<uint64_t>> DecryptResults(
    Client* client, std::vector<std::vector<uint8_t>> payloads) {
  std::vector<std::vector<uint64_t>> neighbours;
  for (std::vector<uint8_t>& bytes : payloads) {
    auto ct = CtFromBytes(std::move(bytes));
    EXPECT_TRUE(ct.ok()) << ct.status();
    if (!ct.ok()) break;
    auto point = client->DecryptNeighbour(ct.value());
    EXPECT_TRUE(point.ok()) << point.status();
    if (!point.ok()) break;
    neighbours.push_back(std::move(point).value());
  }
  return neighbours;
}

// Deriving a toy deployment costs a second or two; share one across the
// suite (the servers themselves are started per test).
class ServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::Dataset(data::UniformDataset(24, 2, 15, 42));
    auto a = Deployment::Derive(ServerConfig(), *dataset_, 7,
                                /*role_a=*/true);
    ASSERT_TRUE(a.ok()) << a.status();
    deployment_a_ = new Deployment(std::move(a).value());
    auto b = Deployment::Derive(ServerConfig(), *dataset_, 7,
                                /*role_a=*/false);
    ASSERT_TRUE(b.ok()) << b.status();
    deployment_b_ = new Deployment(std::move(b).value());
  }
  static void TearDownTestSuite() {
    delete deployment_a_;
    delete deployment_b_;
    delete dataset_;
    deployment_a_ = nullptr;
    deployment_b_ = nullptr;
    dataset_ = nullptr;
  }

  // Starts B then A wired to it; returns both (A must shut down first, so
  // order of members in the struct matters: A is declared last).
  struct Servers {
    std::unique_ptr<PartyBServer> b;
    std::unique_ptr<PartyAServer> a;
    Servers() = default;
    Servers(Servers&&) = default;
    ~Servers() {
      if (a) a->Shutdown();
      if (b) b->Shutdown();
    }
  };

  static Servers StartServers(size_t workers, size_t queue_capacity,
                              ServerOptions a_options = ServerOptions()) {
    Servers s;
    ServerOptions b_options;
    auto b = PartyBServer::Start(*deployment_b_, b_options);
    EXPECT_TRUE(b.ok()) << b.status();
    s.b = std::move(b).value();
    a_options.peer_port = s.b->port();
    a_options.workers = workers;
    a_options.queue_capacity = queue_capacity;
    auto a = PartyAServer::Start(*deployment_a_, a_options);
    EXPECT_TRUE(a.ok()) << a.status();
    s.a = std::move(a).value();
    return s;
  }

  static data::Dataset* dataset_;
  static Deployment* deployment_a_;
  static Deployment* deployment_b_;
};

data::Dataset* ServerTest::dataset_ = nullptr;
Deployment* ServerTest::deployment_a_ = nullptr;
Deployment* ServerTest::deployment_b_ = nullptr;

// Depth is read from the exported `queue.depth` gauge: that is what an
// operator sees on /metrics.
double QueueDepthGauge() {
  return MetricsRegistry::Global().GetGauge("queue.depth")->value();
}

TEST(AdmissionQueueTest, BoundsDepthAndSheds) {
  AdmissionQueue<int> queue(2);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  EXPECT_FALSE(queue.TryPush(3)) << "push beyond capacity must shed";
  EXPECT_EQ(QueueDepthGauge(), 2.0);
  using Outcome = AdmissionQueue<int>::PopOutcome;
  int out = 0;
  EXPECT_EQ(queue.PopFor(&out, 1000), Outcome::kItem);
  EXPECT_EQ(out, 1) << "FIFO order";
  EXPECT_TRUE(queue.TryPush(3)) << "popping frees a slot";
  EXPECT_EQ(queue.PopFor(&out, 1000), Outcome::kItem);
  EXPECT_EQ(out, 2);
  EXPECT_EQ(queue.PopFor(&out, 1000), Outcome::kItem);
  EXPECT_EQ(out, 3);
}

TEST(AdmissionQueueTest, PopForTimesOutAndDrainHandsBackItems) {
  AdmissionQueue<int> queue(4);
  int out = 0;
  // Bounded wait on an empty queue: kTimeout, promptly.
  EXPECT_EQ(queue.PopFor(&out, 10), AdmissionQueue<int>::PopOutcome::kTimeout);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  EXPECT_EQ(queue.PopFor(&out, 10), AdmissionQueue<int>::PopOutcome::kItem);
  EXPECT_EQ(out, 1);
  // StopAndDrain returns the leftovers in FIFO order and stops the queue.
  std::vector<int> leftover = queue.StopAndDrain();
  ASSERT_EQ(leftover.size(), 1u);
  EXPECT_EQ(leftover[0], 2);
  EXPECT_EQ(QueueDepthGauge(), 0.0);
  EXPECT_EQ(queue.PopFor(&out, 10),
            AdmissionQueue<int>::PopOutcome::kStopped);
  EXPECT_FALSE(queue.TryPush(3)) << "a drained queue is stopped";
}

TEST(AdmissionQueueTest, StopUnblocksPoppers) {
  AdmissionQueue<int> queue(4);
  std::atomic<bool> returned{false};
  std::thread popper([&] {
    int out = 0;
    EXPECT_EQ(queue.PopFor(&out, 60000),
              AdmissionQueue<int>::PopOutcome::kStopped)
        << "Stop must wake a waiting popper";
    returned = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned);
  queue.Stop();
  popper.join();
  EXPECT_TRUE(returned);
  EXPECT_FALSE(queue.TryPush(1)) << "a stopped queue sheds everything";
}

TEST_F(ServerTest, DeploymentDerivationIsDeterministic) {
  auto again = Deployment::Derive(ServerConfig(), *dataset_, 7,
                                  /*role_a=*/false);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->fingerprint, deployment_a_->fingerprint);
  EXPECT_EQ(again->party_a_seed, deployment_a_->party_a_seed);
  EXPECT_EQ(again->party_b_seed, deployment_a_->party_b_seed);
  EXPECT_EQ(again->client_seed, deployment_a_->client_seed);
  // role_a controls whether the encrypted database is materialized.
  EXPECT_TRUE(again->encrypted_db.empty());
  EXPECT_FALSE(deployment_a_->encrypted_db.empty());

  // A different seed is a different deployment: the handshake fingerprint
  // must differ so mismatched processes reject each other.
  auto other = Deployment::Derive(ServerConfig(), *dataset_, 8,
                                  /*role_a=*/false);
  ASSERT_TRUE(other.ok()) << other.status();
  EXPECT_NE(other->fingerprint, deployment_a_->fingerprint);

  // Every derivation input is in the fingerprint, so a --preset mismatch
  // fails the handshake too. The thread count is per-process and is not.
  auto fingerprint_with = [&](void (*edit)(ProtocolConfig*)) -> uint64_t {
    ProtocolConfig cfg = ServerConfig();
    edit(&cfg);
    auto d = Deployment::Derive(cfg, *dataset_, 7, /*role_a=*/false);
    EXPECT_TRUE(d.ok()) << d.status();
    return d.ok() ? d->fingerprint : 0;
  };
  const uint64_t base = deployment_a_->fingerprint;
  EXPECT_NE(fingerprint_with([](ProtocolConfig* c) {
              c->preset = bgv::SecurityPreset::kBench;
            }),
            base);
  EXPECT_NE(fingerprint_with([](ProtocolConfig* c) {
              c->indicator_level = 2;
            }),
            base);
  EXPECT_EQ(fingerprint_with([](ProtocolConfig* c) { c->threads = 4; }),
            base);
}

TEST_F(ServerTest, FourConcurrentClientsGetExactAnswers) {
  Servers servers = StartServers(/*workers=*/2, /*queue_capacity=*/8);
  constexpr size_t kClients = 4;
  constexpr size_t kQueriesPerClient = 2;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ServerOptions options;
      auto client = RemoteClient::Connect(*deployment_b_, "127.0.0.1",
                                          servers.a->port(), options);
      if (!client.ok()) {
        ADD_FAILURE() << "client " << c << ": " << client.status();
        ++failures;
        return;
      }
      for (size_t q = 0; q < kQueriesPerClient; ++q) {
        const std::vector<uint64_t> query =
            data::UniformQuery(2, 15, 1000 * (c + 1) + q);
        auto answer = (*client)->Query(query);
        if (!answer.ok()) {
          ADD_FAILURE() << "client " << c << " query " << q << ": "
                        << answer.status();
          ++failures;
          continue;
        }
        if (SortedDistances(answer.value(), query) !=
            ReferenceDistances(*dataset_, query, ServerConfig().k)) {
          ADD_FAILURE() << "client " << c << " query " << q
                        << ": answer does not match brute force";
          ++failures;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // The counters OPERATIONS.md tells operators to watch moved.
  auto& registry = MetricsRegistry::Global();
  EXPECT_GE(registry.GetCounter("server.queries.completed")->value(),
            kClients * kQueriesPerClient);
  EXPECT_GE(registry.GetCounter("server.connections.accepted")->value(),
            kClients);
  EXPECT_EQ(registry.GetGauge("server.workers")->value(), 2.0);
}

TEST_F(ServerTest, SequentialQueriesOnOneConnection) {
  Servers servers = StartServers(/*workers=*/1, /*queue_capacity=*/4);
  ServerOptions options;
  auto client = RemoteClient::Connect(*deployment_b_, "127.0.0.1",
                                      servers.a->port(), options);
  ASSERT_TRUE(client.ok()) << client.status();
  // Several queries over one connection: per-query epochs keep the
  // sequence spaces aligned between client and server.
  for (int q = 0; q < 3; ++q) {
    const std::vector<uint64_t> query = data::UniformQuery(2, 15, 7000 + q);
    auto answer = (*client)->Query(query);
    ASSERT_TRUE(answer.ok()) << "query " << q << ": " << answer.status();
    EXPECT_EQ(SortedDistances(answer.value(), query),
              ReferenceDistances(*dataset_, query, ServerConfig().k));
  }
}

// ServerConfig() pins one thread; this test serves with the default
// per-party pools, so A's per-unit work (distance pipelines, and in
// kPacked the return phase's database transform) and B's indicator rows
// run across cores while two clients' queries share A's pool. The tsan
// round of tools/check_robustness.sh runs it.
TEST_F(ServerTest, DefaultThreadsServeExactAnswers) {
  struct Case {
    Layout layout;
    data::Dataset dataset;
  };
  // Per-point: one unit per point. Packed: 1200 points at d' = 2 fill
  // three units of the toy ring.
  for (const Case& c : {Case{Layout::kPerPoint, *dataset_},
                        Case{Layout::kPacked,
                             data::UniformDataset(1200, 2, 15, 43)}}) {
    SCOPED_TRACE(LayoutName(c.layout));
    ProtocolConfig cfg = ServerConfig();
    cfg.threads = ProtocolConfig().threads;
    cfg.layout = c.layout;
    auto dep_a = Deployment::Derive(cfg, c.dataset, 7, /*role_a=*/true);
    ASSERT_TRUE(dep_a.ok()) << dep_a.status();
    ASSERT_GT(dep_a->layout.num_units(), 1u);
    auto dep_b = Deployment::Derive(cfg, c.dataset, 7, /*role_a=*/false);
    ASSERT_TRUE(dep_b.ok()) << dep_b.status();
    auto b = PartyBServer::Start(*dep_b, ServerOptions());
    ASSERT_TRUE(b.ok()) << b.status();
    ServerOptions a_options;
    a_options.peer_port = (*b)->port();
    a_options.workers = 2;
    auto a = PartyAServer::Start(*dep_a, a_options);
    ASSERT_TRUE(a.ok()) << a.status();
    std::vector<std::thread> clients;
    for (uint64_t q = 0; q < 2; ++q) {
      clients.emplace_back([&, q] {
        auto client = RemoteClient::Connect(*dep_b, "127.0.0.1",
                                            (*a)->port(), ServerOptions());
        ASSERT_TRUE(client.ok()) << client.status();
        const std::vector<uint64_t> query =
            data::UniformQuery(2, 15, 7200 + q);
        auto answer = (*client)->Query(query);
        ASSERT_TRUE(answer.ok()) << answer.status();
        EXPECT_EQ(SortedDistances(answer.value(), query),
                  ReferenceDistances(c.dataset, query, cfg.k));
      });
    }
    for (std::thread& t : clients) t.join();
    (*a)->Shutdown();
    (*b)->Shutdown();
  }
}

TEST_F(ServerTest, SaturatedQueueShedsWithTypedUnavailable) {
  Servers servers = StartServers(/*workers=*/1, /*queue_capacity=*/1);
  // One worker, one queue slot, and a 400ms artificial delay per query:
  // firing 4 concurrent queries guarantees at least one arrives while
  // both the worker and the slot are busy.
  servers.a->set_worker_delay_ms_for_test(400);
  auto& registry = MetricsRegistry::Global();
  const uint64_t shed_before =
      registry.GetCounter("server.queries.shed")->value();
  std::atomic<int> ok_count{0}, shed_count{0}, other_count{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < 4; ++c) {
    threads.emplace_back([&, c] {
      ServerOptions options;
      auto client = RemoteClient::Connect(*deployment_b_, "127.0.0.1",
                                          servers.a->port(), options);
      if (!client.ok()) {
        ++other_count;
        return;
      }
      const std::vector<uint64_t> query = data::UniformQuery(2, 15, 500 + c);
      auto answer = (*client)->Query(query);
      if (answer.ok()) {
        ++ok_count;
      } else if (answer.status().code() == StatusCode::kUnavailable) {
        // The shed contract: typed, transient, and explanatory.
        EXPECT_TRUE(answer.status().IsTransient());
        EXPECT_NE(answer.status().message().find("admission queue full"),
                  std::string::npos)
            << answer.status();
        ++shed_count;
      } else {
        ADD_FAILURE() << "client " << c
                      << ": unexpected error: " << answer.status();
        ++other_count;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok_count + shed_count, 4) << "every query ends ok or shed";
  EXPECT_GE(shed_count.load(), 1) << "saturation never tripped admission";
  EXPECT_GE(ok_count.load(), 1) << "admitted queries still complete";
  EXPECT_GT(registry.GetCounter("server.queries.shed")->value(), shed_before);
}

TEST_F(ServerTest, MismatchedDeploymentIsRejectedAtHandshake) {
  Servers servers = StartServers(/*workers=*/1, /*queue_capacity=*/4);
  auto wrong = Deployment::Derive(ServerConfig(), *dataset_, 999,
                                  /*role_a=*/false);
  ASSERT_TRUE(wrong.ok()) << wrong.status();
  ServerOptions options;
  auto client = RemoteClient::Connect(*wrong, "127.0.0.1", servers.a->port(),
                                      options);
  ASSERT_FALSE(client.ok()) << "a mismatched fingerprint must not connect";
  EXPECT_EQ(client.status().code(), StatusCode::kFailedPrecondition)
      << client.status();
  EXPECT_NE(client.status().message().find("reject"), std::string::npos)
      << client.status();
}

// The handshake's wire form (PROTOCOL.md "Handshake"): one kControl frame
// each way at seq 0, the same bytes a raw peer writes by hand.
TEST_F(ServerTest, HandshakeIsOneControlFrameEachWayAtSeqZero) {
  auto b = PartyBServer::Start(*deployment_b_, ServerOptions());
  ASSERT_TRUE(b.ok()) << b.status();
  auto conn = net::ConnectSocket("127.0.0.1", (*b)->port(), 2000, "raw A");
  ASSERT_TRUE(conn.ok()) << conn.status();
  const std::string text = HelloFor(*deployment_b_);
  ASSERT_TRUE((*conn)
                  ->Send(net::EncodeFrame(
                      net::MessageType::kControl, 0,
                      std::vector<uint8_t>(text.begin(), text.end())))
                  .ok());
  (*conn)->set_io_poll_ms(5000);
  auto reply = (*conn)->Receive();
  ASSERT_TRUE(reply.ok()) << reply.status();
  auto frame = net::DecodeFrame(std::move(reply).value());
  ASSERT_TRUE(frame.ok()) << frame.status();
  EXPECT_EQ(frame->type, net::MessageType::kControl);
  EXPECT_EQ(frame->seq, 0u);
  const std::string welcome(frame->payload.begin(), frame->payload.end());
  EXPECT_EQ(welcome.rfind("sknn-welcome/1", 0), 0u) << welcome;
}

// The control-preamble contract (PROTOCOL.md "Control preambles") over
// raw connections. Party A serves a query behind a trace and a deadline
// preamble in either order, and drops the connection on a malformed or
// unknown preamble or a 5th one. Party B drops an A connection that sends
// a malformed trace preamble or any deadline preamble.
TEST_F(ServerTest, ControlPreamblesAreServedOrDropTheConnection) {
  Servers servers = StartServers(/*workers=*/1, /*queue_capacity=*/4);
  const std::string trace = "trace id=00000000000000ab";
  const std::string deadline = "deadline budget_ms=30000";
  const std::string at_bound =
      "deadline budget_ms=" + std::to_string(kMaxDeadlineBudgetMs);
  const std::string above_bound =
      "deadline budget_ms=" + std::to_string(kMaxDeadlineBudgetMs + 1);
  struct Case {
    const char* name;
    bool to_b;
    std::vector<std::string> preambles;
    bool served;
  };
  const std::vector<Case> cases = {
      {"A: trace, deadline", false, {trace, deadline}, true},
      {"A: deadline, trace", false, {deadline, trace}, true},
      {"A: four preambles", false, {trace, deadline, trace, deadline}, true},
      {"A: malformed deadline", false, {"deadline budget_ms=soon"}, false},
      // A budget is bounded: anchored to a steady clock, a larger one
      // would overflow into the past.
      {"A: deadline at the bound", false, {at_bound}, true},
      {"A: deadline above the bound", false, {above_bound}, false},
      {"A: deadline of 10^13 ms",
       false,
       {"deadline budget_ms=10000000000000"},
       false},
      {"A: deadline of 2^64-1 ms",
       false,
       {"deadline budget_ms=18446744073709551615"},
       false},
      {"A: unknown preamble", false, {"priority level=1"}, false},
      {"A: fifth preamble",
       false,
       {trace, deadline, trace, deadline, trace},
       false},
      {"B: malformed trace", true, {"trace id=xyz"}, false},
      {"B: deadline", true, {deadline}, false},
  };
  std::unique_ptr<Client> client = MakeClient(*deployment_b_);
  const std::vector<uint64_t> query = data::UniformQuery(2, 15, 4321);
  auto query_ct = client->EncryptQuery(query);
  ASSERT_TRUE(query_ct.ok()) << query_ct.status();
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    RawPeer peer = DialRaw(c.to_b ? servers.b->port() : servers.a->port(),
                           *deployment_b_);
    ASSERT_TRUE(peer.ch);
    peer.ch->ResetEpoch();
    Status sent;
    for (const std::string& preamble : c.preambles) {
      if (sent.ok()) sent = SendControlText(peer.ch.get(), preamble);
    }
    if (sent.ok()) {
      sent = peer.ch->SendMessage(
          c.to_b ? net::MessageType::kDistances : net::MessageType::kQuery,
          CtToBytes(query_ct.value()));
    }
    if (!c.served) {
      // A send may already fail against the closed connection. Any frame
      // or a timeout instead of the close means the server kept serving.
      auto next = peer.ch->ReceiveFrame();
      ASSERT_FALSE(next.ok()) << "the server answered, frame type "
                              << net::MessageTypeToString(next->type);
      EXPECT_EQ(next.status().code(), StatusCode::kAborted) << next.status();
      continue;
    }
    ASSERT_TRUE(sent.ok()) << sent;
    auto reply = peer.ch->ReceiveMessage(net::MessageType::kControl);
    ASSERT_TRUE(reply.ok()) << reply.status();
    const size_t k = ServerConfig().k;
    EXPECT_EQ(std::string(reply->begin(), reply->end()),
              "ok k=" + std::to_string(k));
    std::vector<std::vector<uint8_t>> payloads;
    for (size_t j = 0; j < k; ++j) {
      auto result = peer.ch->ReceiveMessage(net::MessageType::kResults);
      ASSERT_TRUE(result.ok()) << result.status();
      payloads.push_back(std::move(result).value());
    }
    EXPECT_EQ(
        SortedDistances(DecryptResults(client.get(), std::move(payloads)),
                        query),
        ReferenceDistances(*dataset_, query, k));
  }
}

// RemoteClient refuses a deadline above the bound before it sends
// anything, and the connection stays usable.
TEST_F(ServerTest, ClientRefusesDeadlineAboveTheBound) {
  Servers servers = StartServers(/*workers=*/1, /*queue_capacity=*/4);
  auto client = RemoteClient::Connect(*deployment_b_, "127.0.0.1",
                                      servers.a->port(), ServerOptions());
  ASSERT_TRUE(client.ok()) << client.status();
  MetricsRegistry::Counter* accepted =
      MetricsRegistry::Global().GetCounter("server.queries.accepted");
  const uint64_t accepted_before = accepted->value();
  const std::vector<uint64_t> query = data::UniformQuery(2, 15, 1357);
  for (uint64_t budget_ms : {kMaxDeadlineBudgetMs + 1,
                             uint64_t{10000000000000},
                             std::numeric_limits<uint64_t>::max()}) {
    SCOPED_TRACE(budget_ms);
    auto answer = (*client)->Query(query, budget_ms);
    ASSERT_FALSE(answer.ok());
    EXPECT_EQ(answer.status().code(), StatusCode::kInvalidArgument)
        << answer.status();
  }
  EXPECT_EQ(accepted->value(), accepted_before) << "a refused query was sent";
  auto answer = (*client)->Query(query, kMaxDeadlineBudgetMs);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(SortedDistances(answer.value(), query),
            ReferenceDistances(*dataset_, query, ServerConfig().k));
}

// A served query leaves one flight record on Party A and one on Party B,
// joined by the client's trace id. A's holds server.query and the three
// driver phases; B's holds find_neighbours, with the distance bytes B
// received and B's exact noise budget.
TEST_F(ServerTest, ServedQueryRecordsOnBothPartiesJoinByTraceId) {
  Servers servers = StartServers(/*workers=*/1, /*queue_capacity=*/4);
  auto client = RemoteClient::Connect(*deployment_b_, "127.0.0.1",
                                      servers.a->port(), ServerOptions());
  ASSERT_TRUE(client.ok()) << client.status();
  constexpr uint64_t kTraceId = 0x5eed00000000f00dull;
  const std::vector<uint64_t> query = data::UniformQuery(2, 15, 8642);
  {
    trace::ScopedTraceId scoped_trace(kTraceId);
    auto answer = (*client)->Query(query);
    ASSERT_TRUE(answer.ok()) << answer.status();
    EXPECT_EQ(SortedDistances(answer.value(), query),
              ReferenceDistances(*dataset_, query, ServerConfig().k));
  }
  ASSERT_EQ((*client)->last_trace_id(), kTraceId);

  // B adds its record after sending its last indicator frame, which may
  // be after A has answered the client.
  std::vector<FlightRecord> records;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  do {
    records.clear();
    for (FlightRecord& r : FlightRecorder::Global().Records()) {
      if (r.trace_id == kTraceId) records.push_back(std::move(r));
    }
    if (records.size() >= 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  } while (std::chrono::steady_clock::now() < give_up);
  ASSERT_EQ(records.size(), 2u);

  const auto phase = [](const FlightRecord& r, const std::string& name) {
    const FlightRecord::Phase* found = nullptr;
    for (const FlightRecord::Phase& p : r.phases) {
      if (p.name == name) found = &p;
    }
    return found;
  };
  const bool a_first = phase(records[0], "server.query") != nullptr;
  const FlightRecord& a = records[a_first ? 0 : 1];
  const FlightRecord& b = records[a_first ? 1 : 0];
  EXPECT_TRUE(a.ok) << a.status;
  EXPECT_TRUE(b.ok) << b.status;
  for (const char* name : {"server.query", kComputeDistancesPhase,
                           kFindNeighboursPhase, kReturnKnnPhase}) {
    EXPECT_NE(phase(a, name), nullptr) << "A's record lacks " << name;
  }
  ASSERT_EQ(b.phases.size(), 1u);
  EXPECT_EQ(b.phases[0].name, kFindNeighboursPhase);
  EXPECT_GT(b.phases[0].bytes, 0u);
  EXPECT_GE(b.phases[0].min_noise_budget_bits, 0.0);
  // A's return phase received B's indicator frames.
  ASSERT_NE(phase(a, kReturnKnnPhase), nullptr);
  EXPECT_GT(phase(a, kReturnKnnPhase)->bytes, 0u);
}

// A draining Party B finishes the exchange already in flight, and never
// serves a connection opened after Drain (not even its handshake).
TEST_F(ServerTest, DrainingPartyBFinishesInFlightQueryAndServesNoNewConnection) {
  auto b = PartyBServer::Start(*deployment_b_, ServerOptions());
  ASSERT_TRUE(b.ok()) << b.status();
  RawPeer a = DialRaw((*b)->port(), *deployment_b_);
  ASSERT_TRUE(a.ch);
  // Party A's half of the query runs here, by hand.
  const Deployment& d = *deployment_a_;
  PartyA party_a(d.ctx, d.config, d.layout, d.pk, d.relin, d.galois,
                 d.party_a_seed);
  ASSERT_TRUE(party_a.LoadEncryptedDatabase(d.encrypted_db).ok());
  std::unique_ptr<Client> client = MakeClient(*deployment_b_);
  const std::vector<uint64_t> point = data::UniformQuery(2, 15, 2468);
  auto query_ct = client->EncryptQuery(point);
  ASSERT_TRUE(query_ct.ok()) << query_ct.status();
  auto query = party_a.StartQuery(query_ct.value());
  ASSERT_TRUE(query.ok()) << query.status();

  // Open the exchange with its trace preamble only: B is now mid-exchange,
  // waiting for the distance frames.
  a.ch->ResetEpoch();
  ASSERT_TRUE(SendControlText(a.ch.get(), "trace id=00000000000000cd").ok());
  std::atomic<bool> drained{false};
  const auto drain_start = std::chrono::steady_clock::now();
  std::thread drainer([&] {
    (*b)->Drain(/*deadline_ms=*/20000);
    drained = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_FALSE(drained) << "Drain returned with an exchange in flight";

  ASSERT_TRUE(SendDistances(**query, /*trace_id=*/0, a.ch.get()).ok());
  const size_t k = std::min<size_t>(d.config.k, d.layout.num_points());
  ASSERT_TRUE((*query)->BeginReturnPhase(k).ok());
  for (size_t j = 0; j < k; ++j) {
    Status row = AbsorbIndicatorRow(*d.ctx, j, query->get(), a.ch.get());
    ASSERT_TRUE(row.ok()) << row;
  }
  auto results = FinalizeResults(k, query->get());
  ASSERT_TRUE(results.ok()) << results.status();
  EXPECT_EQ(SortedDistances(
                DecryptResults(client.get(), std::move(results).value()),
                point),
            ReferenceDistances(*dataset_, point, k));
  drainer.join();
  EXPECT_LT(std::chrono::steady_clock::now() - drain_start,
            std::chrono::seconds(10))
      << "Drain waited out its deadline instead of returning when idle";

  // The kernel still completes the TCP connect into the listen backlog,
  // but nobody answers the hello.
  auto late = net::ConnectSocket("127.0.0.1", (*b)->port(), 2000, "late A");
  ASSERT_TRUE(late.ok()) << late.status();
  const std::string hello = HelloFor(*deployment_b_);
  ASSERT_TRUE((*late)
                  ->Send(net::EncodeFrame(
                      net::MessageType::kControl, 0,
                      std::vector<uint8_t>(hello.begin(), hello.end())))
                  .ok());
  auto answered = (*late)->WaitReadable(500);
  ASSERT_TRUE(answered.ok()) << answered.status();
  EXPECT_FALSE(answered.value()) << "a draining B served a new connection";
}

TEST_F(ServerTest, PartyAServerRequiresEncryptedDatabase) {
  ServerOptions options;
  options.peer_port = 1;  // never dialed: the role check fires first
  auto server = PartyAServer::Start(*deployment_b_, options);
  ASSERT_FALSE(server.ok());
  EXPECT_EQ(server.status().code(), StatusCode::kFailedPrecondition);
}

// The documented fail-fast path: Start returns the connect error before
// the listener exists, and the partially-constructed server's destructor
// (which runs Shutdown) must tolerate the missing members instead of
// dereferencing null.
TEST_F(ServerTest, PartyAStartFailsCleanlyWhenPeerUnreachable) {
  ServerOptions options;
  options.peer_port = 1;  // reserved port, nothing listens: refused
  options.connect_timeout_ms = 500;
  auto server = PartyAServer::Start(*deployment_a_, options);
  ASSERT_FALSE(server.ok()) << "connect to an unreachable B must fail";
  EXPECT_TRUE(server.status().IsTransient() ||
              server.status().code() == StatusCode::kFailedPrecondition)
      << server.status();
}

TEST_F(ServerTest, PartyBStartFailsCleanlyWhenPortTaken) {
  ServerOptions options;
  auto first = PartyBServer::Start(*deployment_b_, options);
  ASSERT_TRUE(first.ok()) << first.status();
  ServerOptions clash;
  clash.listen_port = (*first)->port();
  // Listen fails before the accept thread exists; the error must surface
  // through Start (the destructor runs Shutdown on a listener-less
  // server).
  auto second = PartyBServer::Start(*deployment_b_, clash);
  ASSERT_FALSE(second.ok()) << "binding a taken port must fail";
}

// A corrupted or hostile "ok k=..." control frame must surface as a typed
// kDataLoss, not an exception or an unbounded result loop. The fake
// Party A speaks just enough of the protocol (handshake welcome, then
// framed control replies) to poison the reply.
TEST_F(ServerTest, MalformedControlReplyIsTypedDataLoss) {
  auto listener = net::SocketListener::Listen("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok()) << listener.status();
  const std::vector<std::string> replies = {"ok k=banana", "ok k=999"};
  std::thread fake_a([&] {
    auto conn_or = (*listener)->Accept(5000, "fake-A conn");
    if (!conn_or.ok()) {
      ADD_FAILURE() << conn_or.status();
      return;
    }
    std::unique_ptr<net::SocketChannel> conn = std::move(conn_or).value();
    net::ResilientChannel ch(conn.get(), net::RetryPolicy(), 1,
                             "fake-A serve");
    ch.set_deadline(PeerDeadline());
    if (!AnswerHandshake(&ch)) return;
    for (const std::string& reply : replies) {
      ch.ResetEpoch();
      auto query = ch.ReceiveMessage(net::MessageType::kQuery);
      if (!query.ok()) {
        ADD_FAILURE() << query.status();
        return;
      }
      (void)ch.SendMessage(
          net::MessageType::kControl,
          std::vector<uint8_t>(reply.begin(), reply.end()));
    }
  });
  ServerOptions options;
  auto client = RemoteClient::Connect(*deployment_b_, "127.0.0.1",
                                      (*listener)->port(), options);
  ASSERT_TRUE(client.ok()) << client.status();
  const std::vector<uint64_t> query = data::UniformQuery(2, 15, 321);
  auto garbled = (*client)->Query(query);
  ASSERT_FALSE(garbled.ok());
  EXPECT_EQ(garbled.status().code(), StatusCode::kDataLoss)
      << garbled.status();
  EXPECT_NE(garbled.status().message().find("malformed"), std::string::npos)
      << garbled.status();
  // "ok k=999" parses but exceeds the configured k: the client must bound
  // it instead of looping on 999 result frames that never come.
  auto oversized = (*client)->Query(query);
  ASSERT_FALSE(oversized.ok());
  EXPECT_EQ(oversized.status().code(), StatusCode::kDataLoss)
      << oversized.status();
  EXPECT_NE(oversized.status().message().find("exceeds configured k"),
            std::string::npos)
      << oversized.status();
  fake_a.join();
}

// Regression for the stuck-worker bug: after a query error the worker
// used to make ONE reconnect attempt and, when that failed, kept popping
// jobs into the closed channel forever — every later client hung. The
// supervised loop must shed with a typed kUnavailable while B is down and
// recover by itself once B is back on the same address.
TEST_F(ServerTest, WorkerShedsWhileBDownAndRecoversAfterRestart) {
  Servers servers = StartServers(/*workers=*/1, /*queue_capacity=*/4);
  const uint16_t b_port = servers.b->port();
  ServerOptions options;
  auto client = RemoteClient::Connect(*deployment_b_, "127.0.0.1",
                                      servers.a->port(), options);
  ASSERT_TRUE(client.ok()) << client.status();
  const std::vector<uint64_t> query = data::UniformQuery(2, 15, 4242);
  auto before = (*client)->Query(query);
  ASSERT_TRUE(before.ok()) << before.status();

  // Kill B. The next queries must end in typed transient errors — never
  // hang, never a wrong answer.
  servers.b->Shutdown();
  servers.b.reset();
  for (int q = 0; q < 2; ++q) {
    auto while_down = (*client)->Query(query);
    ASSERT_FALSE(while_down.ok()) << "query must fail while B is down";
    EXPECT_TRUE(while_down.status().IsTransient()) << while_down.status();
  }

  // Restart B on the same port; the worker's supervised reconnect loop
  // must find it without any operator action on A.
  ServerOptions b_options;
  b_options.listen_port = b_port;
  auto restarted = PartyBServer::Start(*deployment_b_, b_options);
  ASSERT_TRUE(restarted.ok()) << restarted.status();
  servers.b = std::move(restarted).value();

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  StatusOr<std::vector<std::vector<uint64_t>>> answer =
      UnavailableError("never ran");
  while (std::chrono::steady_clock::now() < deadline) {
    answer = (*client)->Query(query);
    if (answer.ok()) break;
    ASSERT_TRUE(answer.status().IsTransient()) << answer.status();
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  ASSERT_TRUE(answer.ok()) << "worker never recovered: " << answer.status();
  EXPECT_EQ(SortedDistances(answer.value(), query),
            ReferenceDistances(*dataset_, query, ServerConfig().k));
  EXPECT_GE(
      MetricsRegistry::Global().GetCounter("server.worker.reconnects")->value(),
      1u);
}

// Idle workers probe their B connection: within a few heartbeat intervals
// both sides' heartbeat counters must move, with no query traffic at all.
TEST_F(ServerTest, IdleWorkersHeartbeatPartyB) {
  auto& registry = MetricsRegistry::Global();
  const uint64_t a_beats_before =
      registry.GetCounter("server.worker.heartbeats")->value();
  const uint64_t b_beats_before =
      registry.GetCounter("server.b.heartbeats")->value();
  ServerOptions a_options;
  a_options.heartbeat_interval_ms = 50;
  Servers servers = StartServers(/*workers=*/1, /*queue_capacity=*/4,
                                 a_options);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline &&
         registry.GetCounter("server.worker.heartbeats")->value() <
             a_beats_before + 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(registry.GetCounter("server.worker.heartbeats")->value(),
            a_beats_before + 2);
  EXPECT_GE(registry.GetCounter("server.b.heartbeats")->value(),
            b_beats_before + 2);
  EXPECT_EQ(registry.GetCounter("server.worker.heartbeat_failures")->value(),
            0u);
}

// Deadline propagation: a query whose budget expires while it waits in
// the admission queue must be shed with a typed kDeadlineExceeded (and
// counted), not run to completion for a client that already gave up.
TEST_F(ServerTest, ExpiredQueueDeadlineIsTypedDeadlineExceeded) {
  Servers servers = StartServers(/*workers=*/1, /*queue_capacity=*/4);
  servers.a->set_worker_delay_ms_for_test(300);
  auto& registry = MetricsRegistry::Global();
  const uint64_t expired_before =
      registry.GetCounter("server.queries.expired")->value();
  // Occupy the single worker, then race a short-deadline query into the
  // queue behind it.
  std::thread occupant([&] {
    ServerOptions options;
    auto c = RemoteClient::Connect(*deployment_b_, "127.0.0.1",
                                   servers.a->port(), options);
    if (!c.ok()) return;
    (void)(*c)->Query(data::UniformQuery(2, 15, 9001));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  ServerOptions options;
  auto client = RemoteClient::Connect(*deployment_b_, "127.0.0.1",
                                      servers.a->port(), options);
  ASSERT_TRUE(client.ok()) << client.status();
  auto answer =
      (*client)->Query(data::UniformQuery(2, 15, 9002), /*deadline_ms=*/100);
  occupant.join();
  ASSERT_FALSE(answer.ok()) << "a 100ms deadline cannot survive a 300ms+ "
                               "occupied worker";
  EXPECT_EQ(answer.status().code(), StatusCode::kDeadlineExceeded)
      << answer.status();
  // The server-side expiry counter moves when the worker pops the dead
  // job (which may be after the client's own bounded wait returned).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline &&
         registry.GetCounter("server.queries.expired")->value() <=
             expired_before) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GT(registry.GetCounter("server.queries.expired")->value(),
            expired_before);
  // The connection survives for the next (undeadlined) query.
  auto after = (*client)->Query(data::UniformQuery(2, 15, 9003));
  EXPECT_TRUE(after.ok()) << after.status();
}

// A query's own deadline is the only clock on its receives: a query
// that runs past the old fixed ~10 s per-message receive budget (500
// polls of 20 ms) is answered exactly, both with no client deadline (the
// server's default applies) and with a 30 s one.
TEST_F(ServerTest, QuerySlowerThanTenSecondsIsServedExactly) {
  Servers servers = StartServers(/*workers=*/2, /*queue_capacity=*/4);
  servers.a->set_worker_delay_ms_for_test(11000);
  const std::vector<uint64_t> deadlines_ms = {0, 30000};
  std::vector<std::thread> threads;
  for (size_t i = 0; i < deadlines_ms.size(); ++i) {
    threads.emplace_back([&, i] {
      ServerOptions options;
      auto client = RemoteClient::Connect(*deployment_b_, "127.0.0.1",
                                          servers.a->port(), options);
      ASSERT_TRUE(client.ok()) << client.status();
      const std::vector<uint64_t> query = data::UniformQuery(2, 15, 9100 + i);
      auto answer = (*client)->Query(query, deadlines_ms[i]);
      ASSERT_TRUE(answer.ok())
          << "deadline_ms=" << deadlines_ms[i] << ": " << answer.status();
      EXPECT_EQ(SortedDistances(answer.value(), query),
                ReferenceDistances(*dataset_, query, ServerConfig().k))
          << "deadline_ms=" << deadlines_ms[i];
    });
  }
  for (auto& t : threads) t.join();
}

// A deadline that expires while the worker runs the query (not while it
// queues) ends the query with a typed kDeadlineExceeded, counted in
// server.queries.expired, within the budget plus the client's grace
// window (budget/4 + 250 ms) plus slack.
TEST_F(ServerTest, DeadlineExpiringMidExecutionIsTypedAndBounded) {
  Servers servers = StartServers(/*workers=*/1, /*queue_capacity=*/4);
  servers.a->set_worker_delay_ms_for_test(800);
  MetricsRegistry::Counter* expired =
      MetricsRegistry::Global().GetCounter("server.queries.expired");
  const uint64_t expired_before = expired->value();
  ServerOptions options;
  auto client = RemoteClient::Connect(*deployment_b_, "127.0.0.1",
                                      servers.a->port(), options);
  ASSERT_TRUE(client.ok()) << client.status();
  constexpr int64_t kBudgetMs = 500;
  const auto t0 = std::chrono::steady_clock::now();
  auto answer = (*client)->Query(data::UniformQuery(2, 15, 9200), kBudgetMs);
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_FALSE(answer.ok()) << "a 500 ms deadline cannot survive an 800 ms "
                               "worker";
  EXPECT_EQ(answer.status().code(), StatusCode::kDeadlineExceeded)
      << answer.status();
  EXPECT_NE(answer.status().message().find("mid-execution"),
            std::string::npos)
      << answer.status();
  EXPECT_LT(elapsed_ms, kBudgetMs + (kBudgetMs / 4 + 250) + 1000);
  // Counted before the worker answers, so already visible here.
  EXPECT_EQ(expired->value(), expired_before + 1);
}

// Whole-query re-execution: an injected worker fault aborts the first
// attempt; the worker must reconnect and re-run the query from
// StartQuery, and the client sees nothing but a correct answer.
TEST_F(ServerTest, InjectedWorkerFaultIsHealedByReexecution) {
  Servers servers = StartServers(/*workers=*/1, /*queue_capacity=*/4);
  auto& registry = MetricsRegistry::Global();
  const uint64_t reexec_before =
      registry.GetCounter("server.query.reexecutions")->value();
  servers.a->inject_worker_faults_for_test(1);
  ServerOptions options;
  auto client = RemoteClient::Connect(*deployment_b_, "127.0.0.1",
                                      servers.a->port(), options);
  ASSERT_TRUE(client.ok()) << client.status();
  const std::vector<uint64_t> query = data::UniformQuery(2, 15, 777);
  auto answer = (*client)->Query(query);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(SortedDistances(answer.value(), query),
            ReferenceDistances(*dataset_, query, ServerConfig().k));
  EXPECT_EQ(registry.GetCounter("server.query.reexecutions")->value(),
            reexec_before + 1);
}

// Party A disconnecting after the "ok k=" control reply but before the
// result frames must surface as a typed transient error on the client —
// never a hang (the dead socket fast-fails the receive) and never a
// partial answer.
TEST_F(ServerTest, DisconnectMidResultStreamIsTypedTransient) {
  auto listener = net::SocketListener::Listen("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok()) << listener.status();
  std::thread fake_a([&] {
    auto conn_or = (*listener)->Accept(5000, "fake-A conn");
    if (!conn_or.ok()) {
      ADD_FAILURE() << conn_or.status();
      return;
    }
    std::unique_ptr<net::SocketChannel> conn = std::move(conn_or).value();
    net::ResilientChannel ch(conn.get(), net::RetryPolicy(), 1,
                             "fake-A serve");
    ch.set_deadline(PeerDeadline());
    if (!AnswerHandshake(&ch)) return;
    ch.ResetEpoch();
    auto query = ch.ReceiveMessage(net::MessageType::kQuery);
    if (!query.ok()) {
      ADD_FAILURE() << query.status();
      return;
    }
    // Promise two results, deliver none: drop the connection mid-stream.
    const std::string ok = "ok k=2";
    (void)ch.SendMessage(net::MessageType::kControl,
                         std::vector<uint8_t>(ok.begin(), ok.end()));
    conn->Close();
  });
  ServerOptions options;
  auto client = RemoteClient::Connect(*deployment_b_, "127.0.0.1",
                                      (*listener)->port(), options);
  ASSERT_TRUE(client.ok()) << client.status();
  const auto t0 = std::chrono::steady_clock::now();
  auto answer = (*client)->Query(data::UniformQuery(2, 15, 654));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  ASSERT_FALSE(answer.ok()) << "a mid-stream disconnect cannot produce an "
                               "answer";
  EXPECT_TRUE(answer.status().IsTransient()) << answer.status();
  // Fast-fail contract: a closed peer is detected at the frame boundary,
  // not at the client's deadline.
  EXPECT_LT(elapsed, 5000) << "client hung on a dead connection";
  fake_a.join();
}

// Graceful drain: queued-but-unstarted queries are answered with a typed
// kUnavailable at the drain deadline, in-flight queries finish, and new
// arrivals are shed while draining.
TEST_F(ServerTest, DrainAnswersStragglersAndShedsNewQueries) {
  Servers servers = StartServers(/*workers=*/1, /*queue_capacity=*/4);
  servers.a->set_worker_delay_ms_for_test(400);
  auto& registry = MetricsRegistry::Global();
  const uint64_t drained_before =
      registry.GetCounter("server.queries.drained")->value();
  std::atomic<int> ok_count{0}, unavailable_count{0}, other_count{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < 3; ++c) {
    threads.emplace_back([&, c] {
      ServerOptions options;
      auto client = RemoteClient::Connect(*deployment_b_, "127.0.0.1",
                                          servers.a->port(), options);
      if (!client.ok()) {
        ++other_count;
        return;
      }
      const std::vector<uint64_t> query = data::UniformQuery(2, 15, 80 + c);
      auto answer = (*client)->Query(query);
      if (answer.ok()) {
        if (SortedDistances(answer.value(), query) ==
            ReferenceDistances(*dataset_, query, ServerConfig().k)) {
          ++ok_count;
        } else {
          ADD_FAILURE() << "drained server returned a wrong answer";
          ++other_count;
        }
      } else if (answer.status().code() == StatusCode::kUnavailable) {
        ++unavailable_count;
      } else {
        ADD_FAILURE() << "unexpected drain-time error: " << answer.status();
        ++other_count;
      }
    });
  }
  // Let the queries reach the queue, then drain with a deadline shorter
  // than the backlog: the in-flight query finishes, the rest are
  // answered with the typed straggler error.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  servers.a->Drain(/*deadline_ms=*/100);
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok_count + unavailable_count, 3)
      << "every query must end answered or typed-shed";
  EXPECT_GE(ok_count.load(), 1) << "the in-flight query must finish";
  EXPECT_GE(unavailable_count.load(), 1) << "stragglers must be shed";
  EXPECT_GE(registry.GetCounter("server.queries.drained")->value(),
            drained_before + 1);
  // New queries during/after drain: typed shed, never accepted.
  ServerOptions options;
  auto late_client = RemoteClient::Connect(*deployment_b_, "127.0.0.1",
                                           servers.a->port(), options);
  ASSERT_TRUE(late_client.ok()) << late_client.status();
  auto late = (*late_client)->Query(data::UniformQuery(2, 15, 99));
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kUnavailable) << late.status();
  EXPECT_NE(late.status().message().find("draining"), std::string::npos)
      << late.status();
}

}  // namespace
}  // namespace core
}  // namespace sknn
