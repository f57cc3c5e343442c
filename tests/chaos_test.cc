// Chaos harness (ISSUE: fault-tolerant transport). Runs hundreds of
// complete secure k-NN queries through a FaultyLink under every single
// fault mode plus a mixed soak, and enforces the contract of DESIGN.md §8:
// every query either returns the *exact* plaintext k-NN answer or a clean
// typed error — never a crash, a hang (receives are poll-bounded), or a
// silently wrong answer.

#include <gtest/gtest.h>

#include <algorithm>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "common/flight_recorder.h"
#include "common/metrics_registry.h"
#include "core/session.h"
#include "data/generators.h"
#include "knn/knn.h"
#include "net/faulty_link.h"

namespace sknn {
namespace core {
namespace {

ProtocolConfig ChaosConfig() {
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

// Enough polls to outlast every delay spec here, and room to re-execute.
net::RetryPolicy FastRetries() {
  net::RetryPolicy policy;
  policy.max_receive_polls = 16;
  policy.max_query_reexecutions = 8;
  return policy;
}

std::vector<uint64_t> SortedDistances(
    const std::vector<std::vector<uint64_t>>& points,
    const std::vector<uint64_t>& query) {
  std::vector<uint64_t> out;
  for (const auto& p : points) {
    uint64_t sum = 0;
    for (size_t j = 0; j < query.size(); ++j) {
      uint64_t d = p[j] > query[j] ? p[j] - query[j] : query[j] - p[j];
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

// The only statuses a faulted transport may surface. Anything else (e.g.
// kOutOfRange from the ciphertext parser) means corrupt bytes slipped past
// the frame checksum — exactly the failure class the envelope exists to
// prevent.
bool IsCleanTransportError(const Status& status) {
  switch (status.code()) {
    case StatusCode::kDeadlineExceeded:  // drop/delay beyond the poll budget
    case StatusCode::kDataLoss:          // corrupt frame or desync
    case StatusCode::kUnavailable:       // raw link ran dry
    case StatusCode::kAborted:
      return true;
    case StatusCode::kFailedPrecondition:  // flipped version byte: fatal
      return true;
    default:
      return false;
  }
}

struct ChaosTally {
  int ok = 0;
  int typed_errors = 0;
  int recovered = 0;  // queries that succeeded after >= 1 re-execution
};

// Runs `num_queries` queries under `spec_str` faults and enforces the
// exact-or-typed-error contract on every one of them.
ChaosTally RunChaos(SecureKnnSession* session, const data::Dataset& dataset,
                    const std::string& spec_str, uint64_t fault_seed,
                    int num_queries) {
  auto spec = net::ParseFaultSpec(spec_str);
  EXPECT_TRUE(spec.ok()) << spec.status();
  session->SetFaultInjection(*spec, fault_seed);
  session->SetRetryPolicy(FastRetries());

  // Thousands of failures are injected on purpose: silence the automatic
  // per-error dump and print only the first failing query's flight record,
  // which carries the replay seed for `--fault-seed` reproduction.
  FlightRecorder::Global().set_dump_on_error(false);
  bool dumped_first_failure = false;

  const ProtocolConfig& cfg = session->config();
  ChaosTally tally;
  for (int q = 0; q < num_queries; ++q) {
    const std::vector<uint64_t> query = data::UniformQuery(
        cfg.dims, (1u << cfg.coord_bits) - 1, fault_seed * 1000 + q);
    auto result = session->RunQuery(query);
    if (result.ok()) {
      ++tally.ok;
      if (result->reexecutions > 0) ++tally.recovered;
      // Exactness: a success under faults must be bit-for-bit the same
      // answer as plaintext k-NN — a re-execution may never change the
      // result.
      EXPECT_EQ(SortedDistances(result->neighbours, query),
                ReferenceDistances(dataset, query, cfg.k))
          << "wrong answer under faults '" << spec_str << "', query " << q;
    } else {
      ++tally.typed_errors;
      EXPECT_TRUE(IsCleanTransportError(result.status()))
          << "non-transport error leaked through under '" << spec_str
          << "', query " << q << ": " << result.status();
      EXPECT_FALSE(result.status().message().empty());
      if (!dumped_first_failure) {
        dumped_first_failure = true;
        const auto records = FlightRecorder::Global().Records();
        if (!records.empty()) {
          std::cout << "[chaos] first failing query under '" << spec_str
                    << "' (replay seed " << records.back().seed
                    << "): " << records.back().Json() << "\n";
        }
      }
    }
  }
  // Turn injection back off so later tests start clean.
  session->SetFaultInjection(net::FaultSpec(), 0);
  FlightRecorder::Global().set_dump_on_error(true);
  return tally;
}

class ChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::Dataset(data::UniformDataset(16, 2, 15, 42));
    auto session = SecureKnnSession::Create(ChaosConfig(), *dataset_, 7);
    ASSERT_TRUE(session.ok()) << session.status();
    session_ = session->release();
  }
  static void TearDownTestSuite() {
    delete session_;
    session_ = nullptr;
    delete dataset_;
    dataset_ = nullptr;
  }

  static data::Dataset* dataset_;
  static SecureKnnSession* session_;
};

data::Dataset* ChaosTest::dataset_ = nullptr;
SecureKnnSession* ChaosTest::session_ = nullptr;

// 6 modes x 60 queries = 360 single-fault queries.
TEST_F(ChaosTest, EverySingleFaultModeIsSurvived) {
  const struct {
    const char* spec;
    bool lossless;  // mode cannot lose data -> zero failures expected
  } kModes[] = {
      {"drop:0.1", false},   {"dup:0.1", true},      {"flip:0.1", false},
      {"trunc:0.1", false},  {"reorder:0.1", true},  {"delay:0.1:2", true},
  };
  uint64_t seed = 100;
  int total_recovered = 0;
  for (const auto& mode : kModes) {
    SCOPED_TRACE(mode.spec);
    const ChaosTally tally = RunChaos(session_, *dataset_, mode.spec,
                                      /*fault_seed=*/seed++, 60);
    EXPECT_EQ(tally.ok + tally.typed_errors, 60);
    // Duplicates, reorders, and short delays are absorbed by the framing
    // layer without even a re-execution's worth of disruption to the
    // caller.
    if (mode.lossless) {
      EXPECT_EQ(tally.typed_errors, 0) << "lossless mode produced errors";
    }
    // At 10% the overwhelming majority of queries must come back exact.
    EXPECT_GE(tally.ok, 50) << "too many failures under " << mode.spec;
    total_recovered += tally.recovered;
  }
  // The retry machinery must actually have engaged somewhere.
  EXPECT_GT(total_recovered, 0);
}

// 150-query soak with every fault mode active at once.
TEST_F(ChaosTest, MixedFaultSoak) {
  const ChaosTally tally = RunChaos(
      session_, *dataset_,
      "drop:0.03,dup:0.03,flip:0.03,trunc:0.03,reorder:0.03,delay:0.03:2",
      /*fault_seed=*/500, 150);
  EXPECT_EQ(tally.ok + tally.typed_errors, 150);
  EXPECT_GE(tally.ok, 120) << "soak success rate collapsed";
  EXPECT_GT(tally.recovered, 0) << "soak never exercised re-execution";
}

// Same session seed + same fault seed => the same success/failure pattern,
// the same re-execution counts and the same answers: the whole chaos run
// is replayable.
TEST_F(ChaosTest, FaultInjectionIsDeterministic) {
  auto run = [&]() {
    auto session = SecureKnnSession::Create(ChaosConfig(), *dataset_, 7);
    EXPECT_TRUE(session.ok());
    std::vector<std::string> transcript;
    auto spec = net::ParseFaultSpec("drop:0.2,flip:0.1").value();
    (*session)->SetFaultInjection(spec, 77);
    (*session)->SetRetryPolicy(FastRetries());
    for (int q = 0; q < 15; ++q) {
      const std::vector<uint64_t> query = data::UniformQuery(2, 15, 900 + q);
      auto result = (*session)->RunQuery(query);
      if (result.ok()) {
        std::string entry = "ok:";
        for (uint64_t d : SortedDistances(result->neighbours, query)) {
          entry += std::to_string(d) + ",";
        }
        transcript.push_back(entry);
      } else {
        transcript.push_back("err:" +
                             std::string(StatusCodeToString(
                                 result.status().code())));
      }
      // The flight record carries the re-execution count on both paths.
      const FlightRecord record = FlightRecorder::Global().Records().back();
      transcript.back() += " reexec=" + std::to_string(record.reexecutions);
    }
    return transcript;
  };
  EXPECT_EQ(run(), run());
}

// Queries that needed a re-execution are bit-exact and report it in
// QueryResult::reexecutions, and the counters that README documents
// (net.faults.*, net.corrupt_frames) actually move.
TEST_F(ChaosTest, RecoveryCountersMove) {
  auto& registry = MetricsRegistry::Global();
  const uint64_t corrupt_before =
      registry.GetCounter("net.corrupt_frames")->value();
  const uint64_t flips_before =
      registry.GetCounter("net.faults.bitflip")->value();

  const ChaosTally tally =
      RunChaos(session_, *dataset_, "flip:0.25", /*fault_seed=*/900, 30);
  EXPECT_GT(tally.recovered, 0);
  EXPECT_GT(registry.GetCounter("net.corrupt_frames")->value(), corrupt_before);
  EXPECT_GT(registry.GetCounter("net.faults.bitflip")->value(), flips_before);
}

// Fault-free framing overhead on the A<->B link stays under 1% of the
// payload bytes; LinkStats and the frame counters agree on the message
// count.
TEST_F(ChaosTest, FramingOverheadUnderOnePercent) {
  ProtocolConfig cfg = ChaosConfig();
  auto session = SecureKnnSession::Create(cfg, *dataset_, 7);
  ASSERT_TRUE(session.ok());

  auto& registry = MetricsRegistry::Global();
  const uint64_t sent_before = registry.GetCounter("net.frames.sent")->value();
  const uint64_t overhead_before =
      registry.GetCounter("net.frames.overhead_bytes")->value();

  const std::vector<uint64_t> query = data::UniformQuery(2, 15, 321);
  auto result = (*session)->RunQuery(query);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->reexecutions, 0);
  EXPECT_EQ(result->ab_link.rounds, 2u);

  const uint64_t messages =
      result->ab_link.messages_a_to_b + result->ab_link.messages_b_to_a;
  EXPECT_EQ(registry.GetCounter("net.frames.sent")->value() - sent_before,
            messages);
  const uint64_t overhead =
      registry.GetCounter("net.frames.overhead_bytes")->value() -
      overhead_before;
  EXPECT_EQ(overhead, messages * net::kFrameHeaderBytes);
  // LinkStats counts framed bytes; the envelope is < 1% of the traffic.
  EXPECT_LT(overhead * 100, result->ab_link.total_bytes())
      << "framing overhead " << overhead << " B of "
      << result->ab_link.total_bytes() << " B";
}

// --- Socket transport (net::SocketLink): the identical frames over real
// loopback TCP. The kernel adds its own behaviours — coalescing, partial
// reads, a fresh connection per re-execution — so the exactness and
// typed-error contracts are re-pinned on this transport.

// Clean run over sockets: bit-exact answers, both protocol rounds, and
// the same message counts as the in-memory link.
TEST_F(ChaosTest, SocketTransportCleanRunIsExact) {
  auto session = SecureKnnSession::Create(ChaosConfig(), *dataset_, 7);
  ASSERT_TRUE(session.ok()) << session.status();
  (*session)->SetTransport(SecureKnnSession::Transport::kSocket);
  // Real sockets need a real poll budget (kernel latency), unlike the
  // in-memory link's instant delivery — but each 20ms poll returns as
  // soon as bytes arrive, so 25 polls (500ms) is generous on loopback
  // while keeping genuinely-dropped legs cheap to detect.
  net::RetryPolicy policy = FastRetries();
  policy.max_receive_polls = 25;
  (*session)->SetRetryPolicy(policy);
  for (int q = 0; q < 3; ++q) {
    const std::vector<uint64_t> query = data::UniformQuery(2, 15, 4200 + q);
    auto result = (*session)->RunQuery(query);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->reexecutions, 0);
    EXPECT_EQ(SortedDistances(result->neighbours, query),
              ReferenceDistances(*dataset_, query, ChaosConfig().k));
    EXPECT_EQ(result->ab_link.rounds, 2u)
        << "socket transport changed the round structure";
    EXPECT_GT(result->ab_link.bytes_a_to_b, 0u);
    EXPECT_GT(result->ab_link.bytes_b_to_a, 0u);
  }
}

// The full mixed fault soak over real sockets: FaultyLink decorates the
// socket endpoints exactly as it decorates the in-memory ones, and every
// query must still end exact-or-typed-error.
TEST_F(ChaosTest, SocketTransportSurvivesMixedFaults) {
  auto session = SecureKnnSession::Create(ChaosConfig(), *dataset_, 7);
  ASSERT_TRUE(session.ok()) << session.status();
  (*session)->SetTransport(SecureKnnSession::Transport::kSocket);
  net::RetryPolicy policy = FastRetries();
  policy.max_receive_polls = 25;
  (*session)->SetRetryPolicy(policy);

  auto spec = net::ParseFaultSpec(
      "drop:0.03,dup:0.03,flip:0.03,trunc:0.03,reorder:0.03,delay:0.03:2");
  ASSERT_TRUE(spec.ok()) << spec.status();
  (*session)->SetFaultInjection(*spec, 4400);
  FlightRecorder::Global().set_dump_on_error(false);

  ChaosTally tally;
  for (int q = 0; q < 40; ++q) {
    const std::vector<uint64_t> query = data::UniformQuery(2, 15, 4400 + q);
    auto result = (*session)->RunQuery(query);
    if (result.ok()) {
      ++tally.ok;
      if (result->reexecutions > 0) ++tally.recovered;
      EXPECT_EQ(SortedDistances(result->neighbours, query),
                ReferenceDistances(*dataset_, query, ChaosConfig().k))
          << "wrong answer under faults over sockets, query " << q;
    } else {
      ++tally.typed_errors;
      EXPECT_TRUE(IsCleanTransportError(result.status()))
          << "non-transport error over sockets, query " << q << ": "
          << result.status();
    }
  }
  FlightRecorder::Global().set_dump_on_error(true);
  EXPECT_EQ(tally.ok + tally.typed_errors, 40);
  EXPECT_GE(tally.ok, 30) << "socket soak success rate collapsed";
  EXPECT_GT(tally.recovered, 0)
      << "socket soak never exercised re-execution";
}

}  // namespace
}  // namespace core
}  // namespace sknn
