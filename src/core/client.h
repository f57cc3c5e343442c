#ifndef SKNN_CORE_CLIENT_H_
#define SKNN_CORE_CLIENT_H_

#include <limits>
#include <memory>
#include <vector>

#include "bgv/ciphertext.h"
#include "bgv/context.h"
#include "bgv/decryptor.h"
#include "bgv/encoder.h"
#include "bgv/encryptor.h"
#include "bgv/keys.h"
#include "common/rng.h"
#include "core/layout.h"
#include "core/metrics.h"
#include "core/protocol_config.h"

// The authorized client: encrypts queries (protocol message 1) and
// decrypts the k returned neighbour points (message 4). It holds both
// keys, like Party B, and performs O(1) encryptions + O(k) decryptions
// per query — all heavy lifting stays in the clouds.

namespace sknn {
namespace core {

class Client {
 public:
  Client(std::shared_ptr<const bgv::BgvContext> ctx, ProtocolConfig config,
         SlotLayout layout, bgv::PublicKey pk, bgv::SecretKey sk,
         uint64_t rng_seed);

  // Encrypts a query point (dimensions must match the config; every
  // coordinate must fit coord_bits — violating the bound would overflow
  // the masking budget and break exactness). One public-key encryption in
  // the layout's replicated slot pattern; span `query/client.encrypt`.
  StatusOr<bgv::Ciphertext> EncryptQuery(const std::vector<uint64_t>& query);

  // Decrypts one returned neighbour ciphertext into its coordinates by
  // summing the decoded blocks (non-selected blocks decrypt to exact
  // zeros). One decryption per neighbour; span `query/client.decrypt`.
  // The same decryption measures the result's exact noise budget; the
  // minimum over the results since the last EncryptQuery is the gauge
  // `bgv.noise.client.exact_result_budget`.
  StatusOr<std::vector<uint64_t>> DecryptNeighbour(const bgv::Ciphertext& ct);

  const OpCounts& ops() const { return ops_; }
  void ResetOps() { ops_ = OpCounts(); }

 private:
  std::shared_ptr<const bgv::BgvContext> ctx_;
  ProtocolConfig config_;
  SlotLayout layout_;
  bgv::BatchEncoder encoder_;
  Chacha20Rng rng_;
  bgv::Encryptor encryptor_;
  bgv::Decryptor decryptor_;
  OpCounts ops_;
  double min_result_budget_ = std::numeric_limits<double>::infinity();
};

}  // namespace core
}  // namespace sknn

#endif  // SKNN_CORE_CLIENT_H_
