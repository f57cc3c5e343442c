// Tests for the MetricsRegistry histogram subsystem: bucket geometry,
// quantile readout, merge/reset, Prometheus text exposition, and a
// multi-threaded hammer (the tsan preset re-runs this suite, so the
// lock-free Record path gets a data-race check for free).

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics_registry.h"
#include "common/thread_pool.h"

namespace sknn {
namespace {

using Histogram = MetricsRegistry::Histogram;

TEST(HistogramBuckets, SmallValuesGetExactBuckets) {
  // Values below kSubBuckets land in per-value unit buckets.
  for (uint64_t v = 0; v < Histogram::kSubBuckets; ++v) {
    EXPECT_EQ(Histogram::BucketIndex(v), static_cast<int>(v));
    EXPECT_EQ(Histogram::BucketUpperBound(static_cast<int>(v)), v);
  }
}

TEST(HistogramBuckets, IndexIsMonotoneAndBoundsAreConsistent) {
  uint64_t probes[] = {0,   1,    7,    8,     9,    15,        16,
                       100, 1000, 1023, 1024,  4095, 123456789, 1ull << 40,
                       (1ull << 63) + 5, ~0ull};
  int prev_index = -1;
  uint64_t prev_value = 0;
  for (uint64_t v : probes) {
    const int index = Histogram::BucketIndex(v);
    ASSERT_GE(index, 0) << v;
    ASSERT_LT(index, Histogram::kNumBuckets) << v;
    if (v >= prev_value) EXPECT_GE(index, prev_index) << v;
    // The bucket's upper bound never understates its members.
    EXPECT_GE(Histogram::BucketUpperBound(index), v);
    // ...and overstates by at most one sub-bucket width (12.5% relative).
    if (v >= Histogram::kSubBuckets) {
      EXPECT_LE(static_cast<double>(Histogram::BucketUpperBound(index)),
                static_cast<double>(v) * 1.125 + 1.0);
    }
    prev_index = index;
    prev_value = v;
  }
}

TEST(HistogramBuckets, EveryBucketRoundTrips) {
  // The upper bound of every bucket must map back into that bucket.
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    const uint64_t upper = Histogram::BucketUpperBound(i);
    EXPECT_EQ(Histogram::BucketIndex(upper), i) << "bucket " << i;
  }
}

TEST(Histogram, CountSumMax) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  h.Record(10);
  h.Record(20);
  h.Record(5);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 35u);
  EXPECT_EQ(h.max(), 20u);
}

TEST(Histogram, QuantilesOnUniformRange) {
  Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) h.Record(v);
  // Bucketed quantiles may overshoot by one bucket width (<= 12.5%), and
  // never undershoot the true quantile's bucket.
  const uint64_t p50 = h.Quantile(0.5);
  const uint64_t p95 = h.Quantile(0.95);
  const uint64_t p99 = h.Quantile(0.99);
  EXPECT_GE(p50, 500u);
  EXPECT_LE(p50, 563u);
  EXPECT_GE(p95, 950u);
  EXPECT_LE(p95, 1000u);  // clamped to observed max
  EXPECT_GE(p99, 990u);
  EXPECT_LE(p99, 1000u);
  EXPECT_EQ(h.Quantile(1.0), 1000u);
}

TEST(Histogram, QuantileOfSingleValue) {
  Histogram h;
  h.Record(42);
  EXPECT_EQ(h.Quantile(0.0), 42u);
  EXPECT_EQ(h.Quantile(0.5), 42u);
  EXPECT_EQ(h.Quantile(1.0), 42u);
}

TEST(Histogram, ResetClearsEverything) {
  Histogram h;
  h.Record(123);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.Quantile(0.5), 0u);
}

TEST(Registry, GetHistogramIsStableAndNamed) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("latency_ns.query");
  EXPECT_EQ(h, registry.GetHistogram("latency_ns.query"));
  h->Record(100);
  auto snapshots = registry.HistogramValues();
  ASSERT_EQ(snapshots.count("latency_ns.query"), 1u);
  EXPECT_EQ(snapshots["latency_ns.query"].count, 1u);
}

TEST(Registry, MergeAndResetCoverHistograms) {
  MetricsRegistry a;
  a.GetHistogram("h")->Record(7);
  a.GetCounter("c")->Add(3);
  EXPECT_EQ(a.HistogramValues()["h"].count, 1u);
  EXPECT_EQ(a.CounterValues()["c"], 3u);
  a.ResetValues();
  EXPECT_EQ(a.HistogramValues()["h"].count, 0u);
  EXPECT_EQ(a.CounterValues()["c"], 0u);
}

TEST(Registry, HistogramsJsonCarriesQuantiles) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("latency_ns.phase");
  for (uint64_t v = 1; v <= 100; ++v) h->Record(v);
  const std::string json = registry.HistogramsJson();
  EXPECT_NE(json.find("\"latency_ns.phase\""), std::string::npos);
  EXPECT_NE(json.find("\"count\""), std::string::npos);
  EXPECT_NE(json.find("100"), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(Registry, PrometheusTextShape) {
  MetricsRegistry registry;
  registry.GetCounter("bgv.evaluator.multiply")->Add(4);
  registry.GetGauge("bgv.noise.party_a.mask")->Set(17.5);
  Histogram* h = registry.GetHistogram("latency_ns.query");
  h->Record(5);
  h->Record(500);
  const std::string text = registry.PrometheusText();
  // Names are sanitized: dots become underscores.
  EXPECT_NE(text.find("# TYPE bgv_evaluator_multiply counter"),
            std::string::npos);
  EXPECT_NE(text.find("bgv_evaluator_multiply 4"), std::string::npos);
  EXPECT_NE(text.find("# TYPE bgv_noise_party_a_mask gauge"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE latency_ns_query histogram"),
            std::string::npos);
  // Cumulative buckets end with +Inf and carry _sum/_count.
  EXPECT_NE(text.find("latency_ns_query_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("latency_ns_query_sum 505"), std::string::npos);
  EXPECT_NE(text.find("latency_ns_query_count 2"), std::string::npos);
  // Companion quantile summary.
  EXPECT_NE(text.find("latency_ns_query_quantiles{quantile=\"0.5\"}"),
            std::string::npos);
  // Every line is either a comment or "name[{labels}] value".
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    if (!line.empty() && line[0] != '#') {
      EXPECT_NE(line.find(' '), std::string::npos) << line;
    }
    pos = end + 1;
  }
}

TEST(Registry, ConcurrentCountersAndHistogramsNoEventLoss) {
  // Hammer one registry from the thread pool: every worker records into
  // the SAME counter and histogram. Under the tsan preset this doubles as
  // a data-race check on the lock-free Record path.
  MetricsRegistry registry;
  MetricsRegistry::Counter* counter = registry.GetCounter("hammer.counter");
  Histogram* histogram = registry.GetHistogram("hammer.histogram");
  constexpr size_t kWorkers = 8;
  constexpr uint64_t kPerWorker = 20000;
  ThreadPool pool(kWorkers);
  pool.ParallelFor(0, kWorkers, [&](size_t w) {
    uint64_t v = w * 977 + 1;
    for (uint64_t i = 0; i < kPerWorker; ++i) {
      counter->Increment();
      histogram->Record(v);
      v = v * 6364136223846793005ull + 1442695040888963407ull;
      v >>= 32;
      // Worker-local names also exercise the locked map path.
      if (i % 4096 == 0) registry.GetHistogram("hammer.histogram");
    }
  });
  EXPECT_EQ(counter->value(), kWorkers * kPerWorker);
  EXPECT_EQ(histogram->count(), kWorkers * kPerWorker);
  // Bucket totals must equal the event count (no lost updates).
  uint64_t bucket_total = 0;
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    bucket_total += histogram->bucket_count(i);
  }
  EXPECT_EQ(bucket_total, kWorkers * kPerWorker);
}

TEST(Registry, GaugeAddIsAtomicUnderContention) {
  // The servers track live connection counts with Gauge::Add from
  // concurrent threads; a load/Set pair would lose updates and drift.
  // Balanced +1/-1 pairs must land exactly back at the starting value.
  MetricsRegistry registry;
  MetricsRegistry::Gauge* gauge = registry.GetGauge("hammer.gauge");
  gauge->Set(5);
  constexpr size_t kWorkers = 8;
  constexpr int kPerWorker = 20000;
  ThreadPool pool(kWorkers);
  pool.ParallelFor(0, kWorkers, [&](size_t) {
    for (int i = 0; i < kPerWorker; ++i) {
      gauge->Add(1);
      gauge->Add(-1);
    }
  });
  EXPECT_EQ(gauge->value(), 5.0);
}

}  // namespace
}  // namespace sknn
