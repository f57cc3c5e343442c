#include "common/trace.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/metrics_registry.h"
#include "common/thread_pool.h"
#include "core/metrics.h"
#include "gtest/gtest.h"
#include "net/channel.h"

namespace sknn {
namespace {

using trace::SpanRecord;
using trace::TraceSpan;
using trace::Tracer;

// Every test starts from a clean, enabled tracer and restores the default
// disabled state afterwards so tests stay order-independent.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override { Tracer::Global().Enable(); }
  void TearDown() override { Tracer::Global().Disable(); }
};

std::vector<std::string> Paths(const std::vector<SpanRecord>& records) {
  std::vector<std::string> out;
  for (const SpanRecord& r : records) out.push_back(r.path);
  return out;
}

TEST_F(TraceTest, NestedSpansRecordFullPath) {
  {
    TraceSpan outer("query");
    {
      TraceSpan mid("party_a.distance");
      TraceSpan inner("unit");
    }
  }
  const auto records = Tracer::Global().Records();
  // Children close before parents, so records appear innermost-first.
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].path, "query/party_a.distance/unit");
  EXPECT_EQ(records[1].path, "query/party_a.distance");
  EXPECT_EQ(records[2].path, "query");
  // Parent durations include their children.
  EXPECT_GE(records[2].dur_ns, records[1].dur_ns);
  EXPECT_GE(records[1].dur_ns, records[0].dur_ns);
}

TEST_F(TraceTest, SequentialSpansShareNoAncestry) {
  { TraceSpan a("alpha"); }
  { TraceSpan b("beta"); }
  const auto paths = Paths(Tracer::Global().Records());
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0], "alpha");
  EXPECT_EQ(paths[1], "beta");
}

TEST_F(TraceTest, DisabledTracerRecordsNothing) {
  Tracer::Global().Disable();
  {
    TraceSpan span("ignored");
    Tracer::Global().AddBytesSent(100);
  }
  EXPECT_TRUE(Tracer::Global().Records().empty());
}

TEST_F(TraceTest, EnableClearsPriorRecords) {
  { TraceSpan span("stale"); }
  ASSERT_EQ(Tracer::Global().Records().size(), 1u);
  Tracer::Global().Enable();
  EXPECT_TRUE(Tracer::Global().Records().empty());
}

TEST_F(TraceTest, BytesAttributeToInnermostSpan) {
  {
    TraceSpan outer("outer");
    Tracer::Global().AddBytesSent(10);
    {
      TraceSpan inner("inner");
      Tracer::Global().AddBytesSent(7);
      Tracer::Global().AddBytesReceived(3);
    }
    Tracer::Global().AddBytesSent(5);
  }
  const auto records = Tracer::Global().Records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].path, "outer/inner");
  EXPECT_EQ(records[0].bytes_sent, 7u);
  EXPECT_EQ(records[0].bytes_received, 3u);
  // The parent keeps only its own bytes; children's are not folded in.
  EXPECT_EQ(records[1].path, "outer");
  EXPECT_EQ(records[1].bytes_sent, 15u);
  EXPECT_EQ(records[1].bytes_received, 0u);
}

TEST_F(TraceTest, ChannelMessagesLandOnActiveSpan) {
  net::InMemoryLink link;
  {
    TraceSpan span("transfer.distances");
    ASSERT_TRUE(
        link.a_endpoint()->Send(std::vector<uint8_t>(128, 0xAB)).ok());
    auto received = link.b_endpoint()->Receive();
    ASSERT_TRUE(received.ok());
  }
  const auto records = Tracer::Global().Records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].bytes_sent, 128u);
  EXPECT_EQ(records[0].bytes_received, 128u);
}

TEST_F(TraceTest, ParallelForWorkersInheritCallerPath) {
  ThreadPool pool(2);
  {
    TraceSpan phase("party_a.distance");
    pool.ParallelFor(0, 4, [](size_t) { TraceSpan unit("unit"); });
  }
  const auto records = Tracer::Global().Records();
  size_t units = 0;
  for (const SpanRecord& r : records) {
    if (r.path == "party_a.distance/unit") ++units;
  }
  EXPECT_EQ(units, 4u);
}

TEST_F(TraceTest, SummarizeAggregatesByPath) {
  for (int i = 0; i < 3; ++i) {
    TraceSpan span("phase");
    Tracer::Global().AddBytesSent(10);
  }
  const auto summary = trace::Summarize(Tracer::Global().Records());
  ASSERT_EQ(summary.count("phase"), 1u);
  EXPECT_EQ(summary.at("phase").count, 3u);
  EXPECT_EQ(summary.at("phase").bytes_sent, 30u);
  EXPECT_GT(summary.at("phase").total_ns, 0u);
}

TEST_F(TraceTest, PhaseSummaryJsonContainsEveryPath) {
  { TraceSpan a("a"); }
  {
    TraceSpan b("b");
    Tracer::Global().AddBytesReceived(9);
  }
  const std::string json =
      trace::PhaseSummaryJson(trace::Summarize(Tracer::Global().Records()));
  EXPECT_NE(json.find("\"a\""), std::string::npos);
  EXPECT_NE(json.find("\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"bytes_received\":9"), std::string::npos);
}

TEST_F(TraceTest, WriteChromeTraceProducesEvents) {
  {
    TraceSpan outer("query");
    TraceSpan inner("client.encrypt");
  }
  const std::string path = ::testing::TempDir() + "trace_test_chrome.json";
  ASSERT_TRUE(trace::WriteGlobalTrace(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, got);
  }
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_NE(content.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(content.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(content.find("\"query/client.encrypt\""), std::string::npos);
  EXPECT_NE(content.find("\"phaseSummary\""), std::string::npos);
  EXPECT_NE(content.find("\"counters\""), std::string::npos);
}

TEST(MetricsRegistryTest, CountersAccumulateAndReset) {
  MetricsRegistry reg;
  MetricsRegistry::Counter* c = reg.GetCounter("bgv.evaluator.add");
  c->Increment();
  c->Add(4);
  EXPECT_EQ(c->value(), 5u);
  // Same name returns the same handle.
  EXPECT_EQ(reg.GetCounter("bgv.evaluator.add"), c);
  reg.GetGauge("noise.budget")->Set(12.5);
  EXPECT_DOUBLE_EQ(reg.GetGauge("noise.budget")->value(), 12.5);
  reg.ResetValues();
  EXPECT_EQ(c->value(), 0u);
}

TEST(MetricsRegistryTest, CountersJsonSkipsNothing) {
  MetricsRegistry reg;
  reg.GetCounter("alpha")->Add(1);
  reg.GetCounter("beta")->Add(2);
  const std::string json = reg.CountersJson();
  EXPECT_NE(json.find("\"alpha\":1"), std::string::npos);
  EXPECT_NE(json.find("\"beta\":2"), std::string::npos);
}

TEST(OpCountsExportTest, ExportsNonZeroFieldsUnderPrefix) {
  core::OpCounts ops;
  ops.he_multiplications = 3;
  ops.decryptions = 2;
  MetricsRegistry reg;
  ops.ExportTo(&reg, "core.party_a");
  const auto values = reg.CounterValues();
  ASSERT_EQ(values.count("core.party_a.he_multiplications"), 1u);
  EXPECT_EQ(values.at("core.party_a.he_multiplications"), 3u);
  EXPECT_EQ(values.at("core.party_a.decryptions"), 2u);
  // Zero fields are skipped to keep exports sparse.
  EXPECT_EQ(values.count("core.party_a.rotations"), 0u);
  // A second export accumulates.
  ops.ExportTo(&reg, "core.party_a");
  EXPECT_EQ(reg.GetCounter("core.party_a.he_multiplications")->value(), 6u);
}

TEST(TraceIdTest, MintedIdsAreNonzeroAndDistinct) {
  std::vector<uint64_t> ids;
  for (int i = 0; i < 64; ++i) ids.push_back(trace::MintTraceId());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_NE(ids[i], 0u);
    for (size_t j = i + 1; j < ids.size(); ++j) EXPECT_NE(ids[i], ids[j]);
  }
}

TEST(TraceIdTest, HexRoundTripsAndRejectsMalformed) {
  const uint64_t probes[] = {1, 0xF, 0xabcdef0123456789ull, ~0ull};
  for (uint64_t id : probes) {
    const std::string hex = trace::TraceIdHex(id);
    EXPECT_EQ(trace::ParseTraceIdHex(hex.data(), hex.data() + hex.size()),
              id);
  }
  EXPECT_EQ(trace::TraceIdHex(0), "0");
  const char* bad[] = {"", "xyz", "123g", "0123456789abcdef0"};  // 17 digits
  for (const char* s : bad) {
    EXPECT_EQ(trace::ParseTraceIdHex(s, s + std::strlen(s)), 0u) << s;
  }
}

TEST(TraceIdTest, DerivedIdsDifferAcrossProcessEpochs) {
  // The flight recorder's cross-restart fix: the same record ordinal
  // under different process epochs must not alias.
  const uint64_t e1 = 0x1111111111111111ull, e2 = 0x2222222222222222ull;
  for (uint64_t ordinal = 0; ordinal < 32; ++ordinal) {
    EXPECT_NE(trace::DeriveTraceId(e1, ordinal),
              trace::DeriveTraceId(e2, ordinal));
    EXPECT_NE(trace::DeriveTraceId(e1, ordinal), 0u);
  }
  EXPECT_NE(trace::ProcessEpoch(), 0u);
  EXPECT_EQ(trace::ProcessEpoch(), trace::ProcessEpoch());
}

TEST(TraceIdTest, ScopedTraceIdSetsAndRestores) {
  EXPECT_EQ(trace::CurrentTraceId(), 0u);
  {
    trace::ScopedTraceId outer(0x1234);
    EXPECT_EQ(trace::CurrentTraceId(), 0x1234u);
    {
      trace::ScopedTraceId inner(0x5678);
      EXPECT_EQ(trace::CurrentTraceId(), 0x5678u);
    }
    EXPECT_EQ(trace::CurrentTraceId(), 0x1234u);
  }
  EXPECT_EQ(trace::CurrentTraceId(), 0u);
}

TEST_F(TraceTest, SpansCaptureTheActiveTraceId) {
  {
    trace::ScopedTraceId scoped(0xabcdef0123456789ull);
    TraceSpan span("traced.work");
  }
  {
    TraceSpan span("untraced.work");
  }
  uint64_t traced_id = 0, untraced_id = ~0ull;
  for (const SpanRecord& r : Tracer::Global().Records()) {
    if (r.path == "traced.work") traced_id = r.trace_id;
    if (r.path == "untraced.work") untraced_id = r.trace_id;
  }
  EXPECT_EQ(traced_id, 0xabcdef0123456789ull);
  EXPECT_EQ(untraced_id, 0u);
}

TEST_F(TraceTest, ChromeTraceTagsEventsWithTraceIdAndMeta) {
  {
    trace::ScopedTraceId scoped(0xfeedface12345678ull);
    TraceSpan span("tagged.query");
  }
  const std::string path = ::testing::TempDir() + "trace_test_ids.json";
  trace::TraceMeta meta;
  meta.process = "unit_test";
  meta.peer_clock_offset_ns = -42;
  ASSERT_TRUE(trace::WriteGlobalTrace(meta, path).ok());
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, got);
  }
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_NE(content.find("\"trace_id\":\"feedface12345678\""),
            std::string::npos);
  EXPECT_NE(content.find("\"traceMeta\""), std::string::npos);
  EXPECT_NE(content.find("\"process\":\"unit_test\""), std::string::npos);
  EXPECT_NE(content.find("\"peer_clock_offset_ns\":-42"), std::string::npos);
}

}  // namespace
}  // namespace sknn
