#include "common/flight_recorder.h"

#include <algorithm>

#include "common/json_writer.h"
#include "common/logging.h"
#include "common/trace_id.h"

namespace sknn {

void FlightRecord::AddToPhase(std::string_view name, double seconds,
                              uint64_t bytes, double min_noise_budget_bits) {
  auto it = std::find_if(phases.begin(), phases.end(),
                         [&](const Phase& p) { return p.name == name; });
  Phase& phase =
      it != phases.end() ? *it : phases.emplace_back(Phase{std::string(name)});
  phase.seconds += seconds;
  phase.bytes += bytes;
  double& min = phase.min_noise_budget_bits;
  if (min_noise_budget_bits >= 0 && (min < 0 || min_noise_budget_bits < min)) {
    min = min_noise_budget_bits;
  }
}

std::string FlightRecord::Json() const {
  std::vector<std::string> phase_rows;
  phase_rows.reserve(phases.size());
  for (const Phase& p : phases) {
    json::ObjectWriter row;
    row.Str("name", p.name).Num("seconds", p.seconds).Int("bytes", p.bytes);
    if (p.min_noise_budget_bits >= 0) {
      row.Num("min_noise_budget_bits", p.min_noise_budget_bits);
    }
    phase_rows.push_back(row.Render());
  }
  json::ObjectWriter out;
  out.Int("query_id", query_id)
      .Str("process_epoch", trace::TraceIdHex(process_epoch))
      .Str("trace_id", trace::TraceIdHex(trace_id))
      .Int("seed", seed)
      .Int("num_points", num_points)
      .Int("dims", dims)
      .Int("k", k)
      .Raw("phases", json::Array(phase_rows))
      .Int("reexecutions", reexecutions)
      .Int("faults_injected", faults_injected)
      .Int("heap_allocs", heap_allocs)
      .Int("pool_requests", pool_requests)
      .Bool("ok", ok)
      .Str("status", status);
  return out.Render();
}

FlightRecorder::FlightRecorder(size_t capacity) : capacity_(capacity) {}

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

void FlightRecorder::Add(FlightRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  record.query_id = next_id_++;
  record.process_epoch = trace::ProcessEpoch();
  // A query that ran under an active distributed trace keeps that id
  // (thread-local, established by the server/session plumbing); an
  // untraced query still gets a restart-unique id derived from the
  // process epoch, never the bare monotonic counter.
  if (record.trace_id == 0) record.trace_id = trace::CurrentTraceId();
  if (record.trace_id == 0) {
    record.trace_id =
        trace::DeriveTraceId(record.process_epoch, record.query_id);
  }
  const bool dump = !record.ok && dump_on_error_;
  ring_.push_back(std::move(record));
  if (ring_.size() > capacity_) ring_.pop_front();
  if (dump) {
    SKNN_LOG_ERROR << "query failed; flight record: " << ring_.back().Json();
  }
}

std::vector<FlightRecord> FlightRecorder::Records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<FlightRecord>(ring_.begin(), ring_.end());
}

void FlightRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
}

std::string FlightRecorder::Json() const {
  std::vector<std::string> rows;
  for (const FlightRecord& r : Records()) rows.push_back(r.Json());
  json::ObjectWriter out;
  out.Raw("flight_records", json::Array(rows));
  return out.Render();
}

}  // namespace sknn
