#ifndef SKNN_CORE_DEPLOYMENT_H_
#define SKNN_CORE_DEPLOYMENT_H_

#include <memory>
#include <vector>

#include "bgv/ciphertext.h"
#include "bgv/context.h"
#include "bgv/keys.h"
#include "core/layout.h"
#include "core/protocol_config.h"
#include "data/dataset.h"

// The trusted data owner's setup (Figure 2, labels 1-3) and everything a
// process derives from the data-owner seed: context, layout, key material,
// the encrypted database, per-party RNG seeds and the handshake
// fingerprint. This is the library's one derivation chain: the session,
// secure k-means and both servers build their parties from it. A served
// deployment is still not transcript-compatible with a local session at
// the same seed: Party B decorrelates its seed per connection.

namespace sknn {
namespace core {

struct Deployment {
  // Validates the dataset against the config (coordinate range, plaintext
  // capacity for the masked distances), builds the context and generates
  // the keys. `role_a`: also encrypt the database (only Party A needs the
  // encrypted units; B and clients skip the O(u) encryption work).
  static StatusOr<Deployment> Derive(const ProtocolConfig& config,
                                     const data::Dataset& dataset,
                                     uint64_t seed, bool role_a);

  ProtocolConfig config;
  std::shared_ptr<const bgv::BgvContext> ctx;
  SlotLayout layout;
  bgv::SecretKey sk;
  bgv::PublicKey pk;
  bgv::RelinKeys relin;
  bgv::GaloisKeys galois;
  uint64_t party_a_seed = 0;
  uint64_t party_b_seed = 0;
  uint64_t client_seed = 0;
  // XXH64 over (config, dataset shape, seed): both ends of every
  // connection must agree or the handshake is rejected.
  uint64_t fingerprint = 0;
  // role_a only: the database units in layout order, at the top level.
  std::vector<bgv::Ciphertext> encrypted_db;
};

}  // namespace core
}  // namespace sknn

#endif  // SKNN_CORE_DEPLOYMENT_H_
