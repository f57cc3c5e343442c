#include "core/client.h"

#include <algorithm>
#include <limits>

#include "common/metrics_registry.h"
#include "common/trace.h"

namespace sknn {
namespace core {

Client::Client(std::shared_ptr<const bgv::BgvContext> ctx,
               ProtocolConfig config, SlotLayout layout, bgv::PublicKey pk,
               bgv::SecretKey sk, uint64_t rng_seed)
    : ctx_(ctx),
      config_(std::move(config)),
      layout_(std::move(layout)),
      encoder_(ctx),
      rng_(rng_seed),
      encryptor_(ctx, std::move(pk), &rng_),
      decryptor_(ctx, std::move(sk)) {}

StatusOr<bgv::Ciphertext> Client::EncryptQuery(
    const std::vector<uint64_t>& query) {
  if (query.size() != layout_.dims()) {
    return InvalidArgumentError("query dimensionality mismatch");
  }
  trace::TraceSpan span("client.encrypt");
  const uint64_t bound = uint64_t{1} << config_.coord_bits;
  for (uint64_t v : query) {
    if (v >= bound) {
      return InvalidArgumentError("query coordinate exceeds coord_bits");
    }
  }
  SKNN_ASSIGN_OR_RETURN(bgv::Plaintext pt,
                        encoder_.Encode(layout_.EncodeQuery(query)));
  SKNN_ASSIGN_OR_RETURN(bgv::Ciphertext ct, encryptor_.Encrypt(pt));
  ops_.encryptions += 1;
  min_result_budget_ = std::numeric_limits<double>::infinity();
  return ct;
}

StatusOr<std::vector<uint64_t>> Client::DecryptNeighbour(
    const bgv::Ciphertext& ct) {
  trace::TraceSpan span("client.decrypt");
  SKNN_ASSIGN_OR_RETURN(bgv::Decryption d, decryptor_.DecryptWithBudget(ct));
  ops_.decryptions += 1;
  min_result_budget_ = std::min(min_result_budget_, d.budget_bits);
  MetricsRegistry::Global()
      .GetGauge("bgv.noise.client.exact_result_budget")
      ->Set(min_result_budget_);
  return layout_.ExtractPoint(encoder_.Decode(d.plaintext), ctx_->t());
}

}  // namespace core
}  // namespace sknn
