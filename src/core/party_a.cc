#include "core/party_a.h"

#include <algorithm>
#include <mutex>
#include <utility>

#include "common/metrics_registry.h"
#include "common/trace.h"
#include "data/dataset.h"

namespace sknn {
namespace core {
namespace {

// min over estimated budgets where negative means "not observed yet".
double MinBudget(double a, double b) {
  if (a < 0) return b;
  if (b < 0) return a;
  return std::min(a, b);
}

}  // namespace

PartyA::PartyA(std::shared_ptr<const bgv::BgvContext> ctx,
               ProtocolConfig config, SlotLayout layout, bgv::PublicKey pk,
               bgv::RelinKeys relin, bgv::GaloisKeys galois,
               uint64_t rng_seed)
    : ctx_(ctx),
      config_(std::move(config)),
      layout_(std::move(layout)),
      relin_(std::move(relin)),
      galois_(std::move(galois)),
      encoder_(ctx),
      evaluator_(ctx),
      rng_(rng_seed),
      pool_(config_.threads) {
  (void)pk;  // Party A does not encrypt in this protocol variant.
}

Status PartyA::LoadEncryptedDatabase(std::vector<bgv::Ciphertext> units) {
  if (units.size() != layout_.num_units()) {
    return InvalidArgumentError("database unit count does not match layout");
  }
  db_top_ = std::move(units);
  db_ret_.clear();
  db_ret_.reserve(db_top_.size());
  for (const bgv::Ciphertext& unit : db_top_) {
    bgv::Ciphertext low = unit;
    SKNN_RETURN_IF_ERROR(
        evaluator_.ModSwitchToLevelInplace(&low, config_.indicator_level));
    ops_.mod_switches += ctx_->max_level() - config_.indicator_level;
    db_ret_.push_back(std::move(low));
  }
  return Status::Ok();
}

std::vector<size_t> PartyA::last_permutation() const {
  std::lock_guard<std::mutex> lock(rng_mu_);
  return last_transform_ ? last_transform_->perm : std::vector<size_t>();
}

const MaskingPolynomial* PartyA::last_mask() const {
  std::lock_guard<std::mutex> lock(rng_mu_);
  return last_transform_ ? &last_transform_->mask : nullptr;
}

std::vector<uint64_t> PartyA::TransformGaloisElts(
    const QueryTransform& transform, size_t unit) const {
  if (layout_.mode() != Layout::kPacked) return {};
  std::vector<uint64_t> elts = evaluator_.RotationGaloisElts(
      static_cast<int>(transform.rotations[unit] * layout_.padded_dims()),
      galois_);
  if (transform.col_swapped[unit]) {
    elts.push_back(ctx_->GaloisEltForColumnSwap());
  }
  return elts;
}

StatusOr<bgv::Ciphertext> PartyA::DistanceForUnit(
    size_t unit, const bgv::Ciphertext& query_ct, Query* query,
    Chacha20Rng* unit_rng, OpCounts* ops, PhaseNoise* noise) {
  const QueryTransform& transform = *query->transform_;
  const MaskingPolynomial& mask = transform.mask;
  trace::TraceSpan unit_span("unit");
  const uint64_t t = ctx_->t();
  bgv::Ciphertext x;
  {
    trace::TraceSpan span("square_fold");
    // diff = p' - Q' (slot-wise).
    bgv::Ciphertext diff = db_top_[unit];
    SKNN_RETURN_IF_ERROR(evaluator_.SubInplace(&diff, query_ct));
    ops->he_additions += 1;
    // sq = diff^2, one level consumed.
    SKNN_ASSIGN_OR_RETURN(x, evaluator_.MultiplyRelin(diff, diff, relin_));
    ops->he_multiplications += 1;
    ops->relinearizations += 1;
    ops->mod_switches += 1;
    // Fold the padded_dims-wide blocks so each block's first slot holds the
    // squared distance.
    if (layout_.padded_dims() > 1) {
      SKNN_RETURN_IF_ERROR(
          evaluator_.FoldRowsInplace(&x, layout_.padded_dims(), galois_));
      size_t steps = 0;
      for (size_t s = 1; s < layout_.padded_dims(); s <<= 1) ++steps;
      ops->rotations += steps;
      ops->he_additions += steps;
    }
    // Packed mode: zero out fold garbage and padding payloads immediately
    // (while the noise budget is widest). Zeroed slots pass through the
    // masking polynomial as the constant m(0) = a_0 and are re-masked below.
    if (layout_.mode() == Layout::kPacked) {
      SKNN_ASSIGN_OR_RETURN(bgv::Plaintext selector,
                            encoder_.Encode(layout_.SelectorSlots(unit)));
      SKNN_RETURN_IF_ERROR(evaluator_.MultiplyPlainInplace(&x, selector));
      ops->he_plain_ops += 1;
      // A plaintext product costs as much noise as a ciphertext product;
      // spend a level on it.
      SKNN_RETURN_IF_ERROR(evaluator_.ModSwitchToNextInplace(&x));
      ops->mod_switches += 1;
    }
    noise->square_fold = evaluator_.noise_model().EstimatedBudgetBits(x);
  }
  bgv::Ciphertext u;
  {
    trace::TraceSpan span("mask");
    // Horner evaluation of the masking polynomial:
    //   u = a_D x + a_{D-1}; u = u*x + a_{D-2}; ...; + a_0.
    const std::vector<uint64_t>& a = mask.coefficients();
    const size_t d = mask.degree();
    u = x;
    SKNN_RETURN_IF_ERROR(evaluator_.MultiplyScalarInplace(&u, a[d]));
    ops->he_plain_ops += 1;
    SKNN_RETURN_IF_ERROR(evaluator_.AddScalarInplace(&u, a[d - 1]));
    ops->he_plain_ops += 1;
    for (size_t j = d - 1; j-- > 0;) {
      SKNN_ASSIGN_OR_RETURN(u, evaluator_.MultiplyRelin(u, x, relin_));
      ops->he_multiplications += 1;
      ops->relinearizations += 1;
      ops->mod_switches += 1;
      SKNN_RETURN_IF_ERROR(evaluator_.AddScalarInplace(&u, a[j]));
      ops->he_plain_ops += 1;
    }
    // Masking and rotations happen at level 1: level 0 is reserved for
    // transport because its single-prime noise budget cannot absorb a key
    // switch.
    if (u.level > 1) {
      const size_t before = u.level;
      SKNN_RETURN_IF_ERROR(evaluator_.ModSwitchToLevelInplace(&u, 1));
      ops->mod_switches += before - 1;
    }
    // Additive mask: uniform randomness on every non-payload slot (hides the
    // fold partial sums / the zeroed garbage pattern), the exact t-1
    // sentinel on padding payloads (their current value is m(0) = a_0, which
    // Party A knows), zero on real payloads.
    std::vector<uint64_t> mask_slots(ctx_->n(), 0);
    const std::vector<bool> random_pos = layout_.RandomMaskPositions(unit);
    std::vector<uint64_t> draws(
        static_cast<size_t>(std::count(random_pos.begin(), random_pos.end(),
                                       true)));
    unit_rng->SampleUniformModInto(t, draws.size(), draws.data());
    for (size_t s = 0, next = 0; s < mask_slots.size(); ++s) {
      if (random_pos[s]) mask_slots[s] = draws[next++];
    }
    const uint64_t pad_sentinel = SubMod(t - 1, a[0] % t, t);
    for (size_t s : layout_.PaddingPayloadSlots(unit)) {
      mask_slots[s] = pad_sentinel;
    }
    SKNN_ASSIGN_OR_RETURN(bgv::Plaintext mask_pt, encoder_.Encode(mask_slots));
    SKNN_RETURN_IF_ERROR(evaluator_.AddPlainInplace(&u, mask_pt));
    ops->he_plain_ops += 1;
    noise->mask = evaluator_.noise_model().EstimatedBudgetBits(u);
  }
  {
    trace::TraceSpan span("permute");
    // Packed mode: the intra-unit part of the permutation, as one Galois
    // chain.
    const std::vector<uint64_t> elts = TransformGaloisElts(transform, unit);
    ops->rotations += elts.size();
    SKNN_RETURN_IF_ERROR(evaluator_.ApplyGaloisChainInplace(&u, elts, galois_));
    // Transport level: the smallest ciphertext Party B can decrypt.
    if (u.level > 0) {
      const size_t before = u.level;
      SKNN_RETURN_IF_ERROR(evaluator_.ModSwitchToLevelInplace(&u, 0));
      ops->mod_switches += before;
    }
    noise->permute = evaluator_.noise_model().EstimatedBudgetBits(u);
    // The transport-level ciphertext is what Party B must decrypt: this is
    // the narrowest point of the distance phase.
    evaluator_.noise_model().WarnIfThin(u, "party_a.distance");
  }
  return u;
}

StatusOr<std::unique_ptr<PartyA::Query>> PartyA::StartQuery(
    const bgv::Ciphertext& query_ct) {
  return StartQuery(query_ct, CancelCheck());
}

StatusOr<std::unique_ptr<PartyA::Query>> PartyA::StartQuery(
    const bgv::Ciphertext& query_ct, const CancelCheck& cancel) {
  if (db_top_.empty()) {
    return FailedPreconditionError("no encrypted database loaded");
  }
  trace::TraceSpan phase_span("party_a.distance");
  const uint64_t t = ctx_->t();
  const uint64_t max_dist = data::MaxSquaredDistance(
      layout_.dims(), (uint64_t{1} << config_.coord_bits) - 1);
  const size_t units = layout_.num_units();

  auto query = std::unique_ptr<Query>(new Query(this));
  query->cancel_ = cancel;
  std::vector<uint64_t> unit_seeds(units);
  {
    // Draw the whole per-query transform in one critical section, in a
    // fixed order (mask, rotations/col-swaps, permutation, unit seeds), so
    // concurrent StartQuery calls interleave at transform granularity and
    // every query still gets an independent, deterministic-per-session
    // draw sequence.
    std::lock_guard<std::mutex> lock(rng_mu_);
    SKNN_ASSIGN_OR_RETURN(
        MaskingPolynomial mask,
        MaskingPolynomial::Sample(t, max_dist, config_.poly_degree, &rng_));
    auto transform = std::make_shared<QueryTransform>(std::move(mask));
    transform->rotations.assign(units, 0);
    transform->col_swapped.assign(units, false);
    if (layout_.mode() == Layout::kPacked) {
      for (size_t u = 0; u < units; ++u) {
        transform->rotations[u] = rng_.UniformBelow(layout_.points_per_row());
        transform->col_swapped[u] = rng_.UniformBelow(2) == 1;
      }
    }
    transform->perm = rng_.RandomPermutation(units);
    // Per-unit deterministic RNG forks (stable under parallel execution).
    for (auto& s : unit_seeds) s = rng_.NextU64();
    query->transform_ = transform;
    last_transform_ = transform;
  }
  SKNN_ASSIGN_OR_RETURN(query->distances_,
                        DistanceSweep(query_ct, query.get(), unit_seeds));
  return query;
}

StatusOr<std::vector<bgv::Ciphertext>> PartyA::Query::ComputeDistances(
    const bgv::Ciphertext& query_ct) {
  PartyA& a = *party_;
  trace::TraceSpan phase_span("party_a.distance");
  std::vector<uint64_t> unit_seeds(a.layout_.num_units());
  {
    std::lock_guard<std::mutex> lock(a.rng_mu_);
    for (auto& s : unit_seeds) s = a.rng_.NextU64();
  }
  return a.DistanceSweep(query_ct, this, unit_seeds);
}

StatusOr<std::vector<bgv::Ciphertext>> PartyA::DistanceSweep(
    const bgv::Ciphertext& query_ct, Query* query,
    const std::vector<uint64_t>& unit_seeds) {
  const size_t units = layout_.num_units();
  std::vector<bgv::Ciphertext> transformed(units);
  std::vector<OpCounts> unit_ops(units);
  std::vector<PhaseNoise> unit_noise(units);
  Status first_error = Status::Ok();
  std::mutex error_mu;
  pool_.ParallelFor(0, units, [&](size_t u) {
    // Cooperative cancellation checkpoint: a cancelled/expired query
    // skips the remaining units' HE pipelines (earlier units may have
    // completed — their ciphertexts are simply dropped with the query).
    Status cancelled = query->Cancelled();
    if (!cancelled.ok()) {
      std::lock_guard<std::mutex> lock(error_mu);
      if (first_error.ok()) first_error = std::move(cancelled);
      return;
    }
    Chacha20Rng unit_rng(unit_seeds[u]);
    auto result = DistanceForUnit(u, query_ct, query, &unit_rng,
                                  &unit_ops[u], &unit_noise[u]);
    if (!result.ok()) {
      std::lock_guard<std::mutex> lock(error_mu);
      if (first_error.ok()) first_error = result.status();
      return;
    }
    transformed[u] = std::move(result).value();
  });
  SKNN_RETURN_IF_ERROR(first_error);
  for (const OpCounts& oc : unit_ops) query->ops_ += oc;
  // Worst-case (minimum) estimated budget per sub-phase across units.
  PhaseNoise worst;
  for (const PhaseNoise& pn : unit_noise) {
    worst.square_fold = MinBudget(worst.square_fold, pn.square_fold);
    worst.mask = MinBudget(worst.mask, pn.mask);
    worst.permute = MinBudget(worst.permute, pn.permute);
  }
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetGauge("bgv.noise.party_a.square_fold")->Set(worst.square_fold);
  registry.GetGauge("bgv.noise.party_a.mask")->Set(worst.mask);
  registry.GetGauge("bgv.noise.party_a.permute")->Set(worst.permute);
  query->min_distance_budget_ = MinBudget(
      query->min_distance_budget_,
      MinBudget(worst.square_fold, MinBudget(worst.mask, worst.permute)));

  // Apply the unit permutation: output position p carries original unit
  // perm[p].
  trace::TraceSpan perm_span("party_a.permute");
  std::vector<bgv::Ciphertext> distances(units);
  for (size_t p = 0; p < units; ++p) {
    distances[p] = std::move(transformed[query->transform_->perm[p]]);
  }
  return distances;
}

Status PartyA::Query::BeginReturnPhase(size_t k) {
  PartyA& a = *party_;
  if (a.layout_.mode() == Layout::kPacked) {
    // Algorithm 3 applies the query's transform to the database, once:
    // unit u's indicator-level copy gets the same block rotation and
    // column swap as its distances, so every indicator lines up with it
    // as sent. One Galois chain per unit, units in parallel.
    trace::TraceSpan span("party_a.absorb");
    const size_t units = a.layout_.num_units();
    std::vector<bgv::Ciphertext> transformed(units);
    std::vector<size_t> hops(units, 0);
    Status first_error = Status::Ok();
    std::mutex error_mu;
    a.pool_.ParallelFor(0, units, [&](size_t u) {
      // Same checkpoint as the distance sweep: u chains are most of the
      // return phase's key switches.
      Status s = Cancelled();
      if (s.ok()) {
        const std::vector<uint64_t> elts =
            a.TransformGaloisElts(*transform_, u);
        hops[u] = elts.size();
        transformed[u] = a.db_ret_[u];
        s = a.evaluator_.ApplyGaloisChainInplace(&transformed[u], elts,
                                                 a.galois_);
      }
      if (!s.ok()) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (first_error.ok()) first_error = std::move(s);
      }
    });
    SKNN_RETURN_IF_ERROR(first_error);
    for (size_t h : hops) ops_.rotations += h;
    transformed_db_ = std::move(transformed);
  }
  acc_.assign(k, bgv::Ciphertext());
  min_absorb_budget_ = -1;
  min_retrieve_budget_ = -1;
  state_ = State::kReturning;
  return Status::Ok();
}

Status PartyA::Query::AbsorbIndicator(size_t j, size_t transformed_unit_pos,
                                      const bgv::Ciphertext& indicator) {
  if (state_ != State::kReturning) {
    return FailedPreconditionError("BeginReturnPhase has not run");
  }
  if (j >= acc_.size()) return InvalidArgumentError("result index j too big");
  const QueryTransform& transform = *transform_;
  if (transformed_unit_pos >= transform.perm.size()) {
    return InvalidArgumentError("unit position out of range");
  }
  trace::TraceSpan span("party_a.absorb");
  PartyA& a = *party_;
  const size_t unit = transform.perm[transformed_unit_pos];
  const bgv::Ciphertext& db_unit =
      transformed_db_.empty() ? a.db_ret_[unit] : transformed_db_[unit];
  SKNN_ASSIGN_OR_RETURN(bgv::Ciphertext prod,
                        a.evaluator_.Multiply(db_unit, indicator));
  ops_.he_multiplications += 1;
  if (acc_[j].c.empty()) {
    acc_[j] = std::move(prod);
  } else {
    SKNN_RETURN_IF_ERROR(a.evaluator_.AddInplace(&acc_[j], prod));
    ops_.he_additions += 1;
  }
  min_absorb_budget_ =
      MinBudget(min_absorb_budget_,
                a.evaluator_.noise_model().EstimatedBudgetBits(acc_[j]));
  return Status::Ok();
}

Status PartyA::Query::CheckAbsorbed(size_t j) const {
  if (state_ != State::kReturning || j >= acc_.size() || acc_[j].c.empty()) {
    return FailedPreconditionError("no indicators absorbed for this result");
  }
  return Status::Ok();
}

StatusOr<bgv::Ciphertext> PartyA::Query::TakeSum(size_t j, size_t level) {
  bgv::Ciphertext sum = std::exchange(acc_[j], bgv::Ciphertext());
  SKNN_RETURN_IF_ERROR(
      party_->evaluator_.RelinearizeInplace(&sum, party_->relin_));
  SKNN_RETURN_IF_ERROR(
      party_->evaluator_.ModSwitchToLevelInplace(&sum, level));
  return sum;
}

StatusOr<bgv::Ciphertext> PartyA::Query::RelinearizedSum(size_t j) {
  SKNN_RETURN_IF_ERROR(CheckAbsorbed(j));
  SKNN_ASSIGN_OR_RETURN(bgv::Ciphertext sum, TakeSum(j, acc_[j].level));
  ops_.relinearizations += 1;
  MetricsRegistry::Global()
      .GetGauge("bgv.noise.party_a.absorb")
      ->Set(min_absorb_budget_);
  return sum;
}

StatusOr<bgv::Ciphertext> PartyA::Query::FinalizeResult(size_t j) {
  SKNN_ASSIGN_OR_RETURN(std::vector<bgv::Ciphertext> results,
                        FinalizeRange(j, j + 1));
  return std::move(results[0]);
}

StatusOr<std::vector<bgv::Ciphertext>> PartyA::Query::FinalizeResults(
    size_t k) {
  return FinalizeRange(0, k);
}

StatusOr<std::vector<bgv::Ciphertext>> PartyA::Query::FinalizeRange(
    size_t begin, size_t end) {
  trace::TraceSpan span("party_a.retrieve");
  PartyA& a = *party_;
  // Check every result before consuming any, so a missing row leaves the
  // accumulators (and the op counts) as they were.
  std::vector<size_t> levels;
  for (size_t j = begin; j < end; ++j) {
    SKNN_RETURN_IF_ERROR(CheckAbsorbed(j));
    levels.push_back(acc_[j].level);
  }
  // The results are independent: one iteration per result, each touching
  // only acc_[j] and its own slot. A batch of one runs inline.
  std::vector<bgv::Ciphertext> results(end - begin);
  std::vector<Status> statuses(end - begin);
  a.pool_.ParallelFor(begin, end, [&](size_t j) {
    auto result = TakeSum(j, 0);
    if (result.ok()) {
      results[j - begin] = std::move(result).value();
    } else {
      statuses[j - begin] = result.status();
    }
  });
  for (const Status& s : statuses) SKNN_RETURN_IF_ERROR(s);
  const bgv::NoiseModel& noise = a.evaluator_.noise_model();
  for (size_t i = 0; i < results.size(); ++i) {
    ops_.relinearizations += 1;
    ops_.mod_switches += levels[i];
    min_retrieve_budget_ = MinBudget(min_retrieve_budget_,
                                     noise.EstimatedBudgetBits(results[i]));
    // The client must decrypt this ciphertext; warn before it gets the
    // chance to fail.
    noise.WarnIfThin(results[i], "party_a.retrieve");
  }
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetGauge("bgv.noise.party_a.absorb")->Set(min_absorb_budget_);
  registry.GetGauge("bgv.noise.party_a.retrieve")->Set(min_retrieve_budget_);
  return results;
}

}  // namespace core
}  // namespace sknn
