#ifndef SKNN_CORE_PARTY_A_H_
#define SKNN_CORE_PARTY_A_H_

#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "bgv/ciphertext.h"
#include "bgv/context.h"
#include "bgv/encoder.h"
#include "bgv/evaluator.h"
#include "bgv/keys.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/layout.h"
#include "core/masking.h"
#include "core/metrics.h"
#include "core/protocol_config.h"

// Party A: the storage-and-compute cloud. Holds the encrypted database and
// the evaluation keys; never sees the secret key. Implements Algorithm 1
// (Compute Distances) and Algorithm 3 (Return kNN) of the paper.
//
// Security invariants this class maintains (Theorem 4.1 relies on them):
//  * Everything A touches stays encrypted — no method takes or returns a
//    plaintext derived from the database or the query.
//  * The masking polynomial m and the permutation/rotation transform are
//    redrawn from the CSPRNG on EVERY StartQuery call. Reusing either
//    across queries would let Party B link masked distances between
//    queries; freshness is a hard precondition, not an optimisation.
//    The query ciphertexts given to ONE Query (StartQuery's and each
//    ComputeDistances call's) share its transform by design, so their
//    masked distances compare (secure k-means assigns points this way);
//    only the additive mask on non-payload slots is redrawn per call.
//
// Concurrency: one PartyA serves many queries at once (DESIGN.md §9).
// All per-query state — mask, permutation, transformed database,
// accumulators, op counts — lives in the `Query` object returned by
// `StartQuery`, so concurrent queries cannot cross-contaminate ciphertexts
// or transforms. The shared pieces are immutable after setup (database
// units, keys) or internally synchronized (the CSPRNG behind `rng_mu_`,
// the thread pool).
//
// Cost model (n = database points, u = ciphertext units — n in kPerPoint,
// ~n·d'/slots in kPacked — d = dimensions, D = mask degree, k = results):
// distance phase O(u·(log d' + D)) ciphertext multiplies/rotations; return
// phase O(u·k) ciphertext multiplies (no key switch) + O(k)
// relinearizations, plus in kPacked one Galois chain per unit to
// transform the database (independent of k).

namespace sknn {
namespace core {

class PartyA {
 public:
  // Cooperative cancellation hook for a query's per-unit work. Called
  // before each unit's distance pipeline (StartQuery) and before each
  // unit's database transform (BeginReturnPhase); returning a non-OK
  // status stops the remaining units and surfaces that status from the
  // call. The server wires a deadline/shutdown check here so a
  // query whose deadline expired mid-phase stops burning HE compute
  // instead of finishing an answer nobody is waiting for. Must be
  // thread-safe: units run on the thread pool.
  using CancelCheck = std::function<Status()>;

  // The per-query transform: drawn fresh from the party CSPRNG at
  // StartQuery, fixed for the query's lifetime, never shared between
  // queries. Kept in a shared_ptr so the `last_*` test hooks can observe
  // the most recent draw without racing query teardown.
  struct QueryTransform {
    explicit QueryTransform(MaskingPolynomial m) : mask(std::move(m)) {}
    MaskingPolynomial mask;
    std::vector<size_t> perm;       // transformed position -> original unit
    std::vector<size_t> rotations;  // per original unit, in blocks
    std::vector<bool> col_swapped;  // per original unit
  };

  // One in-flight query at Party A: a small state machine
  // (DESIGN.md §9) advancing kDistancesReady -> kReturning on
  // BeginReturnPhase. Construction (via StartQuery) runs Algorithm 1;
  // the return-phase methods run Algorithm 3 against this query's own
  // accumulators and transform. Not thread-safe itself — one query is
  // driven by one worker — but independent Query objects may run
  // concurrently on one PartyA. Its parallel sections (the distance
  // units, the database transform and FinalizeResults' k results) run on
  // the party's pool, and each iteration writes only its own unit or
  // result slot.
  class Query {
   public:
    // Masked, permuted, transport-level distance ciphertexts in
    // transformed order (protocol message 2 payload).
    const std::vector<bgv::Ciphertext>& distances() const {
      return distances_;
    }

    // Algorithm 1 for another query ciphertext under this query's
    // transform, with fresh per-unit additive-mask seeds. Returns the
    // distances in transformed order; distances() is left as it is.
    StatusOr<std::vector<bgv::Ciphertext>> ComputeDistances(
        const bgv::Ciphertext& query_ct);

    // Phase 2 (Algorithm 3): absorbs Party B's indicator ciphertexts one
    // at a time (streaming keeps memory at O(1) indicators), accumulating
    // the oblivious dot products T^j. Indicator positions refer to this
    // query's TRANSFORMED order. BeginReturnPhase resets the
    // accumulators; in kPacked it also applies the query's block
    // rotations and column swaps to every database unit (u Galois chains
    // on the pool, u transformed units held until the query ends), so a
    // selected point's coordinates sit under its indicator block. One
    // ciphertext-ciphertext multiply per indicator, no key switch: O(u·k)
    // total.
    Status BeginReturnPhase(size_t k);
    Status AbsorbIndicator(size_t j, size_t transformed_unit_pos,
                           const bgv::Ciphertext& indicator);
    // Relinearizes T^j and hands it over at the indicator level, with
    // budget left for more work (secure k-means folds it). Consumes T^j.
    StatusOr<bgv::Ciphertext> RelinearizedSum(size_t j);
    // Relinearizes T^j, then switches it to the transport level (message 4
    // payload). One relinearization + mod-switch chain per result.
    // Consumes T^j.
    StatusOr<bgv::Ciphertext> FinalizeResult(size_t j);
    // FinalizeResult for T^0..T^{k-1} as one batch on the party's pool,
    // results in j order, bit-identical to k FinalizeResult calls (no RNG
    // in this phase). Checks that every j < k has something absorbed
    // before it consumes any accumulator.
    StatusOr<std::vector<bgv::Ciphertext>> FinalizeResults(size_t k);

    // Minimum estimated budget (bits; negative = none) of this query's
    // distances, absorbed accumulators and finalized results.
    double distance_budget() const { return min_distance_budget_; }
    double absorb_budget() const { return min_absorb_budget_; }
    double retrieve_budget() const { return min_retrieve_budget_; }

    // HE work performed by this query so far (distance phase included).
    const OpCounts& ops() const { return ops_; }
    const QueryTransform& transform() const { return *transform_; }

   private:
    friend class PartyA;
    enum class State { kDistancesReady, kReturning };

    explicit Query(PartyA* party) : party_(party) {}
    Status Cancelled() const { return cancel_ ? cancel_() : Status::Ok(); }
    // kFailedPrecondition unless T^j has something absorbed.
    Status CheckAbsorbed(size_t j) const;
    // The one body behind RelinearizedSum and the finalizers: moves T^j
    // out, relinearizes it and switches it down to `level`. Touches only
    // acc_[j], so the batch runs it for distinct j on the pool; the
    // caller checks first and counts the work afterwards.
    StatusOr<bgv::Ciphertext> TakeSum(size_t j, size_t level);
    // FinalizeResults over [begin, end), under one `party_a.retrieve`
    // span; shared state is updated after the join, in j order.
    StatusOr<std::vector<bgv::Ciphertext>> FinalizeRange(size_t begin,
                                                         size_t end);

    PartyA* party_;
    CancelCheck cancel_;  // StartQuery's, kept for the return phase
    std::shared_ptr<const QueryTransform> transform_;
    std::vector<bgv::Ciphertext> distances_;
    // kPacked: the indicator-level database units under this query's
    // intra-unit transform, by original unit (built by BeginReturnPhase).
    std::vector<bgv::Ciphertext> transformed_db_;
    State state_ = State::kDistancesReady;
    // T^j by result; empty (no parts) until its first indicator is
    // absorbed and again once it is consumed.
    std::vector<bgv::Ciphertext> acc_;
    double min_distance_budget_ = -1;
    // Reset by BeginReturnPhase; exported as
    // `bgv.noise.party_a.{absorb,retrieve}` when the results are taken.
    double min_absorb_budget_ = -1;
    double min_retrieve_budget_ = -1;
    OpCounts ops_;
  };

  PartyA(std::shared_ptr<const bgv::BgvContext> ctx, ProtocolConfig config,
         SlotLayout layout, bgv::PublicKey pk, bgv::RelinKeys relin,
         bgv::GaloisKeys galois, uint64_t rng_seed);

  // Stores the encrypted database units (top level) and precomputes the
  // indicator-level copies used by the return phase.
  Status LoadEncryptedDatabase(std::vector<bgv::Ciphertext> units);

  // Phase 1 (Algorithm 1): draws a fresh mask + permutation (under the
  // RNG mutex, so concurrent StartQuery calls each get an independent
  // transform) and homomorphically computes the masked, permuted
  // distances for the encrypted query. Runs the per-unit pipeline on the
  // internal thread pool; emits `party_a.distance` trace spans.
  // O(u·(log d' + D)) HE ops. The two-argument form checks `cancel`
  // before each unit's pipeline, and the query keeps it for
  // BeginReturnPhase (see CancelCheck above).
  StatusOr<std::unique_ptr<Query>> StartQuery(const bgv::Ciphertext& query_ct);
  StatusOr<std::unique_ptr<Query>> StartQuery(const bgv::Ciphertext& query_ct,
                                              const CancelCheck& cancel);

  const OpCounts& ops() const { return ops_; }
  void ResetOps() { ops_ = OpCounts(); }
  size_t num_units() const { return layout_.num_units(); }

  // Exposed for tests: the transform drawn for the most recent query
  // (under concurrency, the most recent StartQuery to finish drawing).
  // The pointers stay valid until the next StartQuery — single-threaded
  // test-driver use only.
  std::vector<size_t> last_permutation() const;
  const MaskingPolynomial* last_mask() const;

 private:
  // Minimum estimated remaining noise budget (bits) observed at the end of
  // each distance sub-phase; negative = no tracked ciphertext seen.
  // Reduced across units after the parallel section and exported as the
  // `bgv.noise.party_a.*` gauges.
  struct PhaseNoise {
    double square_fold = -1;
    double mask = -1;
    double permute = -1;
  };

  // Algorithm 1 over every unit under `query`'s transform (unit u's
  // additive mask drawn from unit_seeds[u]), checking the query's cancel
  // hook before each unit; adds to the query's op counts and returns the
  // distances in transformed order.
  StatusOr<std::vector<bgv::Ciphertext>> DistanceSweep(
      const bgv::Ciphertext& query_ct, Query* query,
      const std::vector<uint64_t>& unit_seeds);

  // Galois elements of unit `unit`'s intra-unit transform: its block
  // rotation, then the column swap when drawn (empty in kPerPoint). The
  // distance phase applies it to the masked distances, the return phase
  // to the database; one key switch per element.
  std::vector<uint64_t> TransformGaloisElts(const QueryTransform& transform,
                                            size_t unit) const;

  // Distance pipeline for a single unit (everything after the subtraction
  // is per-unit independent, so units run in parallel).
  StatusOr<bgv::Ciphertext> DistanceForUnit(size_t unit,
                                            const bgv::Ciphertext& query_ct,
                                            Query* query,
                                            Chacha20Rng* unit_rng,
                                            OpCounts* ops, PhaseNoise* noise);

  std::shared_ptr<const bgv::BgvContext> ctx_;
  ProtocolConfig config_;
  SlotLayout layout_;
  bgv::RelinKeys relin_;
  bgv::GaloisKeys galois_;
  bgv::BatchEncoder encoder_;
  bgv::Evaluator evaluator_;
  mutable std::mutex rng_mu_;  // guards rng_ and last_transform_
  Chacha20Rng rng_;
  ThreadPool pool_;
  OpCounts ops_;  // setup-time work only (return-phase copies)

  std::vector<bgv::Ciphertext> db_top_;  // distance phase operands
  std::vector<bgv::Ciphertext> db_ret_;  // return phase operands (low level)

  // Most recent transform, for the test hooks above.
  std::shared_ptr<const QueryTransform> last_transform_;
};

}  // namespace core
}  // namespace sknn

#endif  // SKNN_CORE_PARTY_A_H_
