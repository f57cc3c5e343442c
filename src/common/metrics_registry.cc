#include "common/metrics_registry.h"

#include <cinttypes>
#include <cstdio>

#include "common/json_writer.h"

namespace sknn {
namespace {

// Prometheus metric names admit [a-zA-Z_:][a-zA-Z0-9_:]*; our dotted,
// '/'-joined span paths do not, so map every other byte to '_'.
std::string PrometheusName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out = "_" + out;
  return out;
}

std::string U64(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

std::string Dbl(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

int MetricsRegistry::Histogram::BucketIndex(uint64_t v) {
  if (v < kSubBuckets) return static_cast<int>(v);
  // Octave = floor(log2(v)) >= kSubBucketBits; the top kSubBucketBits+1
  // bits select {octave, sub-bucket}.
  const int octave = 63 - __builtin_clzll(v);
  const int sub = static_cast<int>((v >> (octave - kSubBucketBits)) &
                                   (kSubBuckets - 1));
  return kSubBuckets + (octave - kSubBucketBits) * kSubBuckets + sub;
}

uint64_t MetricsRegistry::Histogram::BucketUpperBound(int i) {
  if (i < kSubBuckets) return static_cast<uint64_t>(i);
  const int rel = i - kSubBuckets;
  const int octave = rel / kSubBuckets + kSubBucketBits;
  const int sub = rel % kSubBuckets;
  const uint64_t lower = static_cast<uint64_t>(kSubBuckets + sub)
                         << (octave - kSubBucketBits);
  const uint64_t width = uint64_t{1} << (octave - kSubBucketBits);
  return lower + width - 1;
}

uint64_t MetricsRegistry::Histogram::Quantile(double q) const {
  uint64_t counts[kNumBuckets];
  uint64_t total = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    counts[i] = bucket_count(i);
    total += counts[i];
  }
  if (total == 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  // Rank of the target event, 1-based; q=0 maps to the first event.
  uint64_t target = static_cast<uint64_t>(q * static_cast<double>(total));
  if (target < 1) target = 1;
  if (target > total) target = total;
  uint64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    seen += counts[i];
    if (seen >= target) {
      const uint64_t upper = BucketUpperBound(i);
      const uint64_t observed_max = max();
      return upper < observed_max ? upper : observed_max;
    }
  }
  return max();
}

void MetricsRegistry::Histogram::Reset() {
  for (int i = 0; i < kNumBuckets; ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  sum_.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::Counter* MetricsRegistry::GetCounter(
    const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

MetricsRegistry::Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

MetricsRegistry::Histogram* MetricsRegistry::GetHistogram(
    const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

std::map<std::string, uint64_t> MetricsRegistry::CounterValues() const {
  std::map<std::string, uint64_t> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, counter] : counters_) out[name] = counter->value();
  return out;
}

std::map<std::string, double> MetricsRegistry::GaugeValues() const {
  std::map<std::string, double> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, gauge] : gauges_) out[name] = gauge->value();
  return out;
}

std::map<std::string, MetricsRegistry::HistogramSnapshot>
MetricsRegistry::HistogramValues() const {
  std::map<std::string, HistogramSnapshot> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, hist] : histograms_) {
    HistogramSnapshot snap;
    snap.count = hist->count();
    snap.sum = hist->sum();
    snap.max = hist->max();
    snap.p50 = hist->Quantile(0.50);
    snap.p95 = hist->Quantile(0.95);
    snap.p99 = hist->Quantile(0.99);
    out[name] = snap;
  }
  return out;
}

void MetricsRegistry::ResetValues() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Set(0);
  for (auto& [name, hist] : histograms_) hist->Reset();
}

std::string MetricsRegistry::CountersJson() const {
  json::ObjectWriter out;
  for (const auto& [name, value] : CounterValues()) out.Int(name, value);
  return out.Render();
}

std::string MetricsRegistry::HistogramsJson() const {
  json::ObjectWriter out;
  for (const auto& [name, snap] : HistogramValues()) {
    json::ObjectWriter row;
    row.Int("count", snap.count)
        .Int("sum", snap.sum)
        .Int("max", snap.max)
        .Int("p50", snap.p50)
        .Int("p95", snap.p95)
        .Int("p99", snap.p99);
    out.Raw(name, row.Render());
  }
  return out.Render();
}

std::string MetricsRegistry::PrometheusText() const {
  std::string out;
  for (const auto& [name, value] : CounterValues()) {
    const std::string pname = PrometheusName(name);
    out += "# TYPE " + pname + " counter\n";
    out += pname + " " + U64(value) + "\n";
  }
  for (const auto& [name, value] : GaugeValues()) {
    const std::string pname = PrometheusName(name);
    out += "# TYPE " + pname + " gauge\n";
    out += pname + " " + Dbl(value) + "\n";
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, hist] : histograms_) {
    const std::string pname = PrometheusName(name);
    out += "# TYPE " + pname + " histogram\n";
    uint64_t cumulative = 0;
    for (int i = 0; i < Histogram::kNumBuckets; ++i) {
      const uint64_t c = hist->bucket_count(i);
      if (c == 0) continue;  // only occupied buckets; `le` stays cumulative
      cumulative += c;
      out += pname + "_bucket{le=\"" + U64(Histogram::BucketUpperBound(i)) +
             "\"} " + U64(cumulative) + "\n";
    }
    out += pname + "_bucket{le=\"+Inf\"} " + U64(cumulative) + "\n";
    out += pname + "_sum " + U64(hist->sum()) + "\n";
    out += pname + "_count " + U64(hist->count()) + "\n";
    const std::string qname = pname + "_quantiles";
    out += "# TYPE " + qname + " summary\n";
    out += qname + "{quantile=\"0.5\"} " + U64(hist->Quantile(0.50)) + "\n";
    out += qname + "{quantile=\"0.95\"} " + U64(hist->Quantile(0.95)) + "\n";
    out += qname + "{quantile=\"0.99\"} " + U64(hist->Quantile(0.99)) + "\n";
    out += qname + "{quantile=\"1\"} " + U64(hist->max()) + "\n";
    out += qname + "_sum " + U64(hist->sum()) + "\n";
    out += qname + "_count " + U64(hist->count()) + "\n";
  }
  return out;
}

}  // namespace sknn
