#ifndef SKNN_COMMON_FLIGHT_RECORDER_H_
#define SKNN_COMMON_FLIGHT_RECORDER_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

// Bounded ring of per-query structured records — the protocol's black box.
//
// Each process a query runs on (the in-process session, Party A's worker,
// Party B's connection) appends one record for it: the replay seed,
// problem shape, the phases the protocol drivers (core/exchange.h) filled
// with their durations, received bytes and noise minima, the
// re-execution and injected-fault counts, and the final status. A served
// query's records on A and B share its trace id. The ring keeps the last
// `capacity` queries (default 256), so a failure deep into a soak run
// still has its context. When a record with a non-OK status is added the
// recorder dumps it to the log automatically — a chaos failure is
// replayable from stderr alone. `sknn_cli --flight-record=FILE` writes
// the whole ring as JSON.

namespace sknn {

struct FlightRecord {
  uint64_t query_id = 0;  // monotonic across the recorder's lifetime
  // Restart-safe identity. `query_id` alone starts at 0 in every process,
  // so records from a restarted server alias the old ones; `process_epoch`
  // (random, minted once per process — common/trace_id.h) disambiguates,
  // and `trace_id` is globally unique: the distributed id propagated from
  // the client when the query was traced, else derived from
  // (process_epoch, query_id) by the recorder.
  uint64_t process_epoch = 0;
  uint64_t trace_id = 0;
  // Replay key: the fault seed of the query's first attempt (in chaos
  // runs, fault_seed + the number of attempts before it; 0 when no fault
  // injection is active).
  uint64_t seed = 0;
  uint64_t num_points = 0;  // n
  uint64_t dims = 0;        // d
  uint64_t k = 0;

  struct Phase {
    std::string name;
    double seconds = 0;
    uint64_t bytes = 0;  // bytes moved during the phase (both directions)
    // Minimum estimated remaining noise budget over the phase's
    // ciphertexts (bits); negative = not tracked for this phase.
    double min_noise_budget_bits = -1;
  };
  std::vector<Phase> phases;

  // Adds one call to phase `name` (appended if new): seconds and bytes
  // add up, `min_noise_budget_bits` joins the minimum (negative = none).
  void AddToPhase(std::string_view name, double seconds, uint64_t bytes,
                  double min_noise_budget_bits);

  // Whole-query re-executions after a transient failure (attempts - 1),
  // and the injected faults the query incurred across all attempts.
  uint64_t reexecutions = 0;
  uint64_t faults_injected = 0;

  // Allocation counter deltas across this query (bgv.alloc.*): heap_allocs
  // is the number of buffer-pool misses (actual heap allocations),
  // pool_requests the total buffers drawn. A warm pool keeps heap_allocs
  // near zero while pool_requests stays in the thousands.
  uint64_t heap_allocs = 0;
  uint64_t pool_requests = 0;

  bool ok = false;
  std::string status;  // "ok" or the error message

  std::string Json() const;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(size_t capacity = 256);

  // The process-wide recorder the session and the servers populate.
  static FlightRecorder& Global();

  // Appends a record, evicting the oldest when full. Non-OK records are
  // dumped to the log (SKNN_LOG_ERROR) unless dumping is disabled.
  void Add(FlightRecord record);

  // Snapshot, oldest first.
  std::vector<FlightRecord> Records() const;

  void Clear();

  // {"flight_records": [...]} — the --flight-record=FILE payload.
  std::string Json() const;

  // Chaos tests inject thousands of failing queries on purpose; they turn
  // the automatic dump off and print only the records they care about.
  void set_dump_on_error(bool dump) { dump_on_error_ = dump; }

 private:
  const size_t capacity_;
  bool dump_on_error_ = true;
  mutable std::mutex mu_;
  uint64_t next_id_ = 0;
  std::deque<FlightRecord> ring_;
};

}  // namespace sknn

#endif  // SKNN_COMMON_FLIGHT_RECORDER_H_
