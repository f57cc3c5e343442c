// Flight recorder (common/flight_recorder.h): ring semantics, JSON shape,
// seed lookup — and the session integration contract: every RunQuery,
// successful or not, appends one record with the five protocol phases,
// counter deltas, noise margins, and a replayable seed.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/flight_recorder.h"
#include "common/trace_id.h"
#include "core/session.h"
#include "data/generators.h"
#include "net/faulty_link.h"

namespace sknn {
namespace {

FlightRecord MakeRecord(uint64_t seed, bool ok) {
  FlightRecord r;
  r.seed = seed;
  r.num_points = 16;
  r.dims = 2;
  r.k = 3;
  r.phases.push_back({"query_encrypt", 0.001, 512, 40.5});
  r.phases.push_back({"compute_distances", 0.25, 0, 12.25});
  r.reexecutions = 2;
  r.ok = ok;
  r.status = ok ? "ok" : "deadline exceeded";
  return r;
}

TEST(FlightRecord, JsonShape) {
  const std::string json = MakeRecord(77, true).Json();
  EXPECT_NE(json.find("\"seed\":77"), std::string::npos);
  EXPECT_NE(json.find("\"num_points\":16"), std::string::npos);
  EXPECT_NE(json.find("\"k\":3"), std::string::npos);
  EXPECT_NE(json.find("\"query_encrypt\""), std::string::npos);
  EXPECT_NE(json.find("\"compute_distances\""), std::string::npos);
  EXPECT_NE(json.find("\"reexecutions\":2"), std::string::npos);
  EXPECT_NE(json.find("\"ok\":true"), std::string::npos);
}

TEST(FlightRecorder, RingEvictsOldest) {
  FlightRecorder recorder(/*capacity=*/4);
  recorder.set_dump_on_error(false);
  for (uint64_t i = 0; i < 6; ++i) recorder.Add(MakeRecord(i, true));
  const auto records = recorder.Records();
  ASSERT_EQ(records.size(), 4u);
  // Oldest two were evicted; ids keep counting across evictions.
  EXPECT_EQ(records.front().seed, 2u);
  EXPECT_EQ(records.back().seed, 5u);
  EXPECT_EQ(records.back().query_id, 5u);
}

TEST(FlightRecorder, ClearEmptiesRingAndJsonWraps) {
  FlightRecorder recorder(8);
  recorder.Add(MakeRecord(1, true));
  EXPECT_NE(recorder.Json().find("\"flight_records\""), std::string::npos);
  recorder.Clear();
  EXPECT_TRUE(recorder.Records().empty());
}

// --- session integration -------------------------------------------------

core::ProtocolConfig RecorderConfig() {
  core::ProtocolConfig cfg;
  cfg.k = 3;
  cfg.poly_degree = 2;
  cfg.coord_bits = 4;
  cfg.dims = 2;
  cfg.layout = core::Layout::kPacked;
  cfg.preset = bgv::SecurityPreset::kToy;
  cfg.plain_bits = 33;
  cfg.threads = 1;
  cfg.levels = cfg.MinimumLevels();
  return cfg;
}

net::RetryPolicy FastRetries() {
  net::RetryPolicy policy;
  policy.max_receive_polls = 4;
  policy.max_query_reexecutions = 2;
  return policy;
}

TEST(FlightRecorderSession, SuccessfulQueryAppendsFivePhaseRecord) {
  const data::Dataset dataset = data::UniformDataset(16, 2, 15, 42);
  auto session = core::SecureKnnSession::Create(RecorderConfig(), dataset, 7);
  ASSERT_TRUE(session.ok()) << session.status();

  const size_t before = FlightRecorder::Global().Records().size();
  const std::vector<uint64_t> query = data::UniformQuery(2, 15, 11);
  auto result = (*session)->RunQuery(query);
  ASSERT_TRUE(result.ok()) << result.status();

  const auto records = FlightRecorder::Global().Records();
  ASSERT_EQ(records.size(), before + 1);
  const FlightRecord& rec = records.back();
  EXPECT_TRUE(rec.ok);
  EXPECT_EQ(rec.status, "ok");
  EXPECT_EQ(rec.seed, 0u);  // no fault injection active
  EXPECT_EQ(rec.num_points, 16u);
  EXPECT_EQ(rec.dims, 2u);
  EXPECT_EQ(rec.k, 3u);
  ASSERT_EQ(rec.phases.size(), 5u);
  EXPECT_EQ(rec.phases[0].name, "query_encrypt");
  EXPECT_EQ(rec.phases[1].name, "compute_distances");
  EXPECT_EQ(rec.phases[2].name, "find_neighbours");
  EXPECT_EQ(rec.phases[3].name, "return_knn");
  EXPECT_EQ(rec.phases[4].name, "client_decrypt");
  // The BGV phases carry live noise margins (estimator is wired through).
  EXPECT_GT(rec.phases[0].min_noise_budget_bits, 0.0);
  EXPECT_GE(rec.phases[1].min_noise_budget_bits, 0.0);
  EXPECT_GE(rec.phases[3].min_noise_budget_bits, 0.0);
  // Transport phases carry their byte counts.
  EXPECT_GT(rec.phases[0].bytes, 0u);
  EXPECT_GT(rec.phases[2].bytes, 0u);
  EXPECT_GT(rec.phases[3].bytes, 0u);
  for (const auto& phase : rec.phases) EXPECT_GE(phase.seconds, 0.0);
  EXPECT_EQ(rec.reexecutions, 0u);
  EXPECT_EQ(rec.faults_injected, 0u);
}

TEST(FlightRecorderSession, SteadyStateQueryReusesPooledBuffers) {
  // ISSUE acceptance: allocations-per-query must drop >= 10x once the
  // BufferPool is warm. Query 1 populates the free lists (its misses are
  // the cold-start cost); by query 2 at least 90% of buffer requests must
  // be served from the pool, i.e. heap_allocs * 10 <= pool_requests.
  const data::Dataset dataset = data::UniformDataset(16, 2, 15, 43);
  auto session = core::SecureKnnSession::Create(RecorderConfig(), dataset, 7);
  ASSERT_TRUE(session.ok()) << session.status();

  ASSERT_TRUE((*session)->RunQuery(data::UniformQuery(2, 15, 21)).ok());
  ASSERT_TRUE((*session)->RunQuery(data::UniformQuery(2, 15, 22)).ok());

  const auto records = FlightRecorder::Global().Records();
  ASSERT_GE(records.size(), 2u);
  const FlightRecord& warm = records.back();
  // A query makes a substantial number of polynomial temporaries — the
  // floor guards against the counters silently unwiring (0 <= 10*0 would
  // otherwise pass).
  EXPECT_GE(warm.pool_requests, 100u);
  EXPECT_LE(warm.heap_allocs * 10, warm.pool_requests)
      << "warm query hit the heap " << warm.heap_allocs << " times in "
      << warm.pool_requests << " buffer requests";
}

TEST(FlightRecorderSession, FailedQueryRecordsErrorAndReplaySeed) {
  const data::Dataset dataset = data::UniformDataset(16, 2, 15, 42);
  auto session = core::SecureKnnSession::Create(RecorderConfig(), dataset, 7);
  ASSERT_TRUE(session.ok()) << session.status();
  // Drop every frame: the query must fail after exhausting re-executions.
  auto spec = net::ParseFaultSpec("drop:1.0");
  ASSERT_TRUE(spec.ok());
  (*session)->SetFaultInjection(*spec, /*fault_seed=*/4242);
  (*session)->SetRetryPolicy(FastRetries());

  FlightRecorder::Global().set_dump_on_error(false);
  const size_t before = FlightRecorder::Global().Records().size();
  auto result = (*session)->RunQuery(data::UniformQuery(2, 15, 12));
  FlightRecorder::Global().set_dump_on_error(true);
  ASSERT_FALSE(result.ok());

  const auto records = FlightRecorder::Global().Records();
  ASSERT_EQ(records.size(), before + 1);
  const FlightRecord& rec = records.back();
  EXPECT_FALSE(rec.ok);
  EXPECT_FALSE(rec.status.empty());
  EXPECT_NE(rec.status, "ok");
  EXPECT_EQ(rec.seed, 4242u);  // the first attempt's fault seed: replay key
  EXPECT_EQ(rec.reexecutions, 2u);
  EXPECT_GT(rec.faults_injected, 0u);
}

TEST(FlightRecorder, RecordsCarryRestartSafeIdentity) {
  FlightRecorder recorder(/*capacity=*/8);
  recorder.set_dump_on_error(false);
  recorder.Add(MakeRecord(1, true));
  recorder.Add(MakeRecord(2, true));
  const auto records = recorder.Records();
  ASSERT_EQ(records.size(), 2u);
  // Every record is stamped with the live process epoch and a derived
  // nonzero trace id; ids differ between records (the counter moves).
  for (const FlightRecord& r : records) {
    EXPECT_EQ(r.process_epoch, trace::ProcessEpoch());
    EXPECT_NE(r.trace_id, 0u);
  }
  EXPECT_NE(records[0].trace_id, records[1].trace_id);
  // A restarted process (different epoch) cannot alias these ids even
  // at the same query ordinal.
  const uint64_t other_epoch = trace::ProcessEpoch() ^ 0x5555555555555555ull;
  EXPECT_NE(trace::DeriveTraceId(other_epoch, records[0].query_id),
            records[0].trace_id);
}

TEST(FlightRecorder, ExplicitAndThreadLocalTraceIdsWin) {
  FlightRecorder recorder(/*capacity=*/8);
  recorder.set_dump_on_error(false);
  // An explicitly-set trace id (the propagated distributed id) is kept.
  FlightRecord explicit_id = MakeRecord(10, true);
  explicit_id.trace_id = 0xdeadbeefcafef00dull;
  recorder.Add(std::move(explicit_id));
  // With no explicit id, the thread's active id is picked up.
  {
    trace::ScopedTraceId scoped(0x1122334455667788ull);
    recorder.Add(MakeRecord(11, true));
  }
  const auto records = recorder.Records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].trace_id, 0xdeadbeefcafef00dull);
  EXPECT_EQ(records[1].trace_id, 0x1122334455667788ull);
  // The JSON emits the ids in the wire/log hex form.
  const std::string json = recorder.Json();
  EXPECT_NE(json.find("\"trace_id\":\"deadbeefcafef00d\""),
            std::string::npos);
  EXPECT_NE(json.find("\"trace_id\":\"1122334455667788\""),
            std::string::npos);
}

}  // namespace
}  // namespace sknn
