#ifndef SKNN_COMMON_METRICS_REGISTRY_H_
#define SKNN_COMMON_METRICS_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

// Named counters, gauges and histograms for protocol and substrate
// instrumentation.
//
// A `Counter` is a monotonically increasing uint64 (homomorphic-op counts,
// message counts); a `Gauge` is a last-write-wins double (noise budgets,
// security bits); a `Histogram` is a lock-free log-bucketed distribution
// (latencies in ns, transfer sizes in bytes) with p50/p95/p99/max readout.
// Handles returned by `GetCounter`/`GetGauge`/`GetHistogram` are stable
// for the registry's lifetime, so hot paths cache the pointer once (e.g.
// in a function-local static) and pay one relaxed atomic add per event —
// the BGV evaluator counts every primitive this way, always-on.
//
// Naming taxonomy (dot-separated, coarse-to-fine):
//   bgv.evaluator.<op>    evaluator primitives (multiply, rotate, ...)
//   core.<party>.<op>     protocol-level counts exported from OpCounts
//   baseline.<...>        Paillier baseline equivalents
// `core::OpCounts` (the per-party struct the paper's Table 1 is built
// from) stays the protocol-facing aggregate; `OpCounts::ExportTo` maps it
// into this registry under a caller-chosen prefix.

namespace sknn {

class MetricsRegistry {
 public:
  class Counter {
   public:
    void Add(uint64_t delta) { v_.fetch_add(delta, std::memory_order_relaxed); }
    void Increment() { Add(1); }
    uint64_t value() const { return v_.load(std::memory_order_relaxed); }
    void Reset() { v_.store(0, std::memory_order_relaxed); }

   private:
    std::atomic<uint64_t> v_{0};
  };

  class Gauge {
   public:
    void Set(double v) { v_.store(v, std::memory_order_relaxed); }
    // Atomic read-modify-write for gauges tracking a live count (e.g.
    // server.connections.active) updated from concurrent threads; a
    // load/Set pair would lose updates under contention.
    void Add(double delta) {
      double cur = v_.load(std::memory_order_relaxed);
      while (!v_.compare_exchange_weak(cur, cur + delta,
                                       std::memory_order_relaxed)) {
      }
    }
    double value() const { return v_.load(std::memory_order_relaxed); }

   private:
    std::atomic<double> v_{0};
  };

  // Lock-free log-bucketed histogram (HDR-lite). Values below kSubBuckets
  // land in exact unit buckets; above that each power-of-two octave is
  // split into kSubBuckets sub-buckets, so the relative bucket width is
  // <= 1/kSubBuckets (12.5%) across the full uint64 range. `Record` is a
  // handful of relaxed atomic ops (no locks, no allocation), cheap enough
  // to call from every TraceSpan completion; `BM_HistogramRecord` in
  // bench_microops pins the per-event cost.
  //
  // Concurrent `Record`s are individually atomic but the aggregate
  // (count/sum/buckets) is only eventually consistent: a snapshot taken
  // while writers are active may be off by in-flight events. That is fine
  // for telemetry; quantile readout walks a bucket snapshot.
  class Histogram {
   public:
    static constexpr int kSubBucketBits = 3;
    static constexpr int kSubBuckets = 1 << kSubBucketBits;  // 8
    static constexpr int kNumBuckets =
        kSubBuckets + (64 - kSubBucketBits) * kSubBuckets;  // 496

    void Record(uint64_t v) {
      buckets_[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
      sum_.fetch_add(v, std::memory_order_relaxed);
      count_.fetch_add(1, std::memory_order_relaxed);
      uint64_t cur = max_.load(std::memory_order_relaxed);
      while (v > cur && !max_.compare_exchange_weak(
                            cur, v, std::memory_order_relaxed)) {
      }
    }

    uint64_t count() const { return count_.load(std::memory_order_relaxed); }
    uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
    uint64_t max() const { return max_.load(std::memory_order_relaxed); }
    uint64_t bucket_count(int i) const {
      return buckets_[i].load(std::memory_order_relaxed);
    }

    // Approximate value at quantile q in [0, 1]: the inclusive upper bound
    // of the bucket holding the q-th event (clamped to the observed max),
    // so reported percentiles never understate the true value by more than
    // one bucket width (<= 12.5% relative).
    uint64_t Quantile(double q) const;

    void Reset();

    // Inclusive upper bound of bucket `i` (the `le` label in Prometheus
    // exposition).
    static uint64_t BucketUpperBound(int i);
    static int BucketIndex(uint64_t v);

   private:
    std::atomic<uint64_t> buckets_[kNumBuckets]{};
    std::atomic<uint64_t> sum_{0};
    std::atomic<uint64_t> count_{0};
    std::atomic<uint64_t> max_{0};
  };

  // Point-in-time distribution summary used by exporters.
  struct HistogramSnapshot {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t max = 0;
    uint64_t p50 = 0;
    uint64_t p95 = 0;
    uint64_t p99 = 0;
  };

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // The process-wide registry used by library instrumentation.
  static MetricsRegistry& Global();

  // Returns the counter/gauge/histogram with this name, creating it at
  // zero on first use. The pointer stays valid for the registry's
  // lifetime.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  // Point-in-time snapshots (name -> value), sorted by name.
  std::map<std::string, uint64_t> CounterValues() const;
  std::map<std::string, double> GaugeValues() const;
  std::map<std::string, HistogramSnapshot> HistogramValues() const;

  // Zeroes all counters, gauges and histograms (names and handles
  // survive).
  void ResetValues();

  // Counter snapshot rendered as a JSON object (for trace files and
  // BENCH_*.json).
  std::string CountersJson() const;

  // Histogram snapshot rendered as a JSON object: name -> {count, sum,
  // max, p50, p95, p99}. Embedded as the "histograms" key of every
  // BENCH_*.json row.
  std::string HistogramsJson() const;

  // Full registry in Prometheus text exposition format (version 0.0.4):
  // counters as `counter`, gauges as `gauge`, histograms as `histogram`
  // (cumulative `le` buckets + `_sum`/`_count`) plus a companion
  // `<name>_quantiles` summary carrying p50/p95/p99/max. Metric names are
  // sanitized (non-[a-zA-Z0-9_:] -> '_'). This is the payload of
  // `sknn_cli --metrics-out=FILE`.
  std::string PrometheusText() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace sknn

#endif  // SKNN_COMMON_METRICS_REGISTRY_H_
