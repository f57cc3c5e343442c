#ifndef SKNN_CORE_PARTY_B_H_
#define SKNN_CORE_PARTY_B_H_

#include <memory>
#include <utility>
#include <vector>

#include "bgv/ciphertext.h"
#include "bgv/context.h"
#include "bgv/decryptor.h"
#include "bgv/encoder.h"
#include "bgv/keys.h"
#include "bgv/noise_model.h"
#include "bgv/symmetric.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/layout.h"
#include "core/metrics.h"
#include "core/protocol_config.h"

// Party B: the key-holding cloud. Decrypts the masked, permuted distances,
// selects the k smallest (Algorithm 2), and answers with indicator
// ciphertexts. It never sees the database, the query or the true distances
// — only images under Party A's secret monotone polynomial in permuted
// order (Theorem 4.2: the view reveals the equidistance pattern and
// nothing else, provided A refreshed m and Π for this query).
//
// Cost model (n = points, u = units, l = payloads per unit, k = results):
// FindNeighbours is O(u) decryptions + O(n log k) heap scan; the
// indicator reply is O(u·k) fresh encryptions (the dominant B→A traffic —
// see EmitIndicatorsCompressedForResult).

namespace sknn {
namespace core {

class PartyB {
 public:
  PartyB(std::shared_ptr<const bgv::BgvContext> ctx, ProtocolConfig config,
         SlotLayout layout, bgv::SecretKey sk, bgv::PublicKey pk,
         uint64_t rng_seed);

  // Algorithm 2: decrypts the distance units, selects the k smallest
  // masked values (monotone masking preserves the order, so the selection
  // is exact). Returns the effective k (clamped to the point count).
  // Selection state persists until the next call; indicator rows are
  // meaningless unless they follow the FindNeighbours of the same query.
  // Each decryption also yields its unit's exact noise budget; the minimum
  // over the u units is the `bgv.noise.party_b.exact_distance_budget` gauge.
  // O(u) decryptions + O(n log k) scan; span `query/party_b.decrypt_select`.
  StatusOr<size_t> FindNeighbours(const std::vector<bgv::Ciphertext>& units,
                                  size_t k);

  // That minimum for the last successful FindNeighbours (-1 before one).
  double exact_distance_budget() const { return exact_distance_budget_; }

  // Message 3, row j: the indicators for result j across ALL transformed
  // unit positions, in unit-position order. Position `unit_pos` encrypts
  // the 0/1 block selector (all zeros when result j does not live in that
  // unit) at `indicator_level`, seed-compressed: B holds the secret key,
  // so it encrypts symmetrically with a PRF-expanded c1, half the bytes
  // of a public-key ciphertext. Every (j, unit_pos) pair gets a FRESH
  // encryption — even the all-zero ones — so A cannot distinguish hits
  // from misses by ciphertext equality. The row is encrypted in parallel
  // on the internal thread pool; each position gets a deterministic RNG
  // fork (seeds drawn sequentially from the party RNG before the parallel
  // section), so the ciphertexts do not depend on thread count or
  // scheduling.
  StatusOr<std::vector<bgv::SeededCiphertext>> EmitIndicatorsCompressedForResult(
      size_t j) const;

  const OpCounts& ops() const { return ops_; }
  void ResetOps() { ops_ = OpCounts(); }

  // Exposed for leakage tests: the masked values B observed (flattened in
  // transformed order) during the last query.
  const std::vector<uint64_t>& observed_masked_values() const {
    return observed_;
  }
  const std::vector<std::pair<size_t, size_t>>& selected() const {
    return selected_;
  }

 private:
  StatusOr<bgv::Plaintext> BuildIndicatorPlaintext(size_t j,
                                                   size_t unit_pos) const;

  std::shared_ptr<const bgv::BgvContext> ctx_;
  ProtocolConfig config_;
  SlotLayout layout_;
  bgv::BatchEncoder encoder_;
  bgv::NoiseModel noise_;
  bgv::Decryptor decryptor_;
  mutable Chacha20Rng rng_;
  bgv::SymmetricEncryptor sym_encryptor_;
  mutable ThreadPool pool_;
  mutable OpCounts ops_;

  double exact_distance_budget_ = -1;
  std::vector<uint64_t> observed_;
  // (transformed unit position, payload index) per selected neighbour.
  std::vector<std::pair<size_t, size_t>> selected_;
};

}  // namespace core
}  // namespace sknn

#endif  // SKNN_CORE_PARTY_B_H_
