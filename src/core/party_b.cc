#include "core/party_b.h"

#include <algorithm>
#include <limits>

#include "bgv/noise_model.h"
#include "common/metrics_registry.h"
#include "common/trace.h"
#include "knn/knn.h"

namespace sknn {
namespace core {

PartyB::PartyB(std::shared_ptr<const bgv::BgvContext> ctx,
               ProtocolConfig config, SlotLayout layout, bgv::SecretKey sk,
               bgv::PublicKey pk, uint64_t rng_seed)
    : ctx_(ctx),
      config_(std::move(config)),
      layout_(std::move(layout)),
      encoder_(ctx),
      noise_(*ctx),
      decryptor_(ctx, sk),  // keeps a copy; the original moves below
      rng_(rng_seed),
      sym_encryptor_(ctx, std::move(sk), &rng_),
      pool_(config_.threads) {
  (void)pk;  // Indicators are encrypted under the secret key.
}

StatusOr<size_t> PartyB::FindNeighbours(
    const std::vector<bgv::Ciphertext>& units, size_t k) {
  if (units.size() != layout_.num_units()) {
    return InvalidArgumentError("unexpected distance unit count");
  }
  trace::TraceSpan span("party_b.decrypt_select");
  // B holds the secret key, so every decryption also yields the unit's
  // EXACT noise budget. Their minimum is the ground truth the static
  // estimator's `bgv.noise.party_a.permute` gauge must stay at or below.
  const size_t ppu = layout_.payloads_per_unit();
  observed_.assign(units.size() * ppu, 0);
  double min_budget = std::numeric_limits<double>::infinity();
  for (size_t pos = 0; pos < units.size(); ++pos) {
    SKNN_ASSIGN_OR_RETURN(bgv::Decryption d,
                          decryptor_.DecryptWithBudget(units[pos]));
    ops_.decryptions += 1;
    min_budget = std::min(min_budget, d.budget_bits);
    const std::vector<uint64_t> slots = encoder_.Decode(d.plaintext);
    for (size_t p = 0; p < ppu; ++p) {
      observed_[pos * ppu + p] = slots[layout_.PayloadSlot(p)];
    }
  }
  exact_distance_budget_ = units.empty() ? -1 : min_budget;
  // Once per query. The indicators are fresh symmetric encryptions at a
  // fixed level, so their budget is a constant of the parameter set: the
  // headroom A's return phase starts from.
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetGauge("bgv.noise.party_b.exact_distance_budget")
      ->Set(exact_distance_budget_);
  registry.GetGauge("bgv.noise.party_b.indicator")
      ->Set(std::max(0.0, noise_.LogQ(config_.indicator_level) - 1.0 -
                              noise_.FreshSymmetricNoiseBits()));
  const size_t effective_k = std::min(k, layout_.num_points());
  const std::vector<size_t> flat =
      knn::SelectKSmallest(observed_, effective_k);
  selected_.clear();
  selected_.reserve(flat.size());
  for (size_t f : flat) {
    selected_.emplace_back(f / ppu, f % ppu);
  }
  return effective_k;
}

StatusOr<bgv::Plaintext> PartyB::BuildIndicatorPlaintext(
    size_t j, size_t unit_pos) const {
  if (j >= selected_.size()) {
    return InvalidArgumentError("indicator index out of range");
  }
  const auto [sel_unit, sel_payload] = selected_[j];
  if (layout_.mode() == Layout::kPerPoint) {
    // Scalar 0/1: cheap encode, identical security (fresh encryption).
    return encoder_.EncodeScalar(sel_unit == unit_pos ? 1 : 0);
  }
  std::vector<uint64_t> slots(ctx_->n(), 0);
  if (sel_unit == unit_pos) {
    slots = layout_.IndicatorSlots(sel_payload);
  }
  return encoder_.Encode(slots);
}

StatusOr<std::vector<bgv::SeededCiphertext>>
PartyB::EmitIndicatorsCompressedForResult(size_t j) const {
  trace::TraceSpan span("party_b.indicator");
  const size_t units = layout_.num_units();
  // Per-indicator deterministic RNG forks: seeds come off the party RNG
  // sequentially BEFORE the parallel section, so the transcript is a pure
  // function of the party seed (same pattern as Party A's per-unit forks).
  std::vector<uint64_t> seeds(units);
  for (auto& s : seeds) s = rng_.NextU64();
  std::vector<bgv::SeededCiphertext> out(units);
  std::vector<Status> status(units);
  pool_.ParallelFor(0, units, [&](size_t pos) {
    StatusOr<bgv::Plaintext> pt = BuildIndicatorPlaintext(j, pos);
    if (!pt.ok()) {
      status[pos] = pt.status();
      return;
    }
    Chacha20Rng fork(seeds[pos]);
    StatusOr<bgv::SeededCiphertext> ct =
        sym_encryptor_.EncryptSeeded(pt.value(), config_.indicator_level, &fork);
    if (!ct.ok()) {
      status[pos] = ct.status();
      return;
    }
    out[pos] = std::move(ct).value();
  });
  for (const Status& s : status) SKNN_RETURN_IF_ERROR(s);
  ops_.encryptions += units;
  return out;
}

}  // namespace core
}  // namespace sknn
