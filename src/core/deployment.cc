#include "core/deployment.h"

#include <sstream>
#include <string>

#include "bgv/encoder.h"
#include "bgv/encryptor.h"
#include "common/rng.h"
#include "common/xxhash.h"
#include "core/masking.h"

namespace sknn {
namespace core {

StatusOr<Deployment> Deployment::Derive(const ProtocolConfig& config,
                                        const data::Dataset& dataset,
                                        uint64_t seed, bool role_a) {
  SKNN_RETURN_IF_ERROR(config.Validate());
  if (dataset.dims() != config.dims) {
    return InvalidArgumentError("dataset dimensionality mismatch");
  }
  const uint64_t bound = uint64_t{1} << config.coord_bits;
  if (dataset.MaxValue() >= bound) {
    return InvalidArgumentError(
        "dataset values exceed coord_bits; quantize the data first");
  }
  Deployment d;
  d.config = config;
  SKNN_ASSIGN_OR_RETURN(bgv::BgvParams params, config.MakeBgvParams());
  SKNN_ASSIGN_OR_RETURN(d.ctx, bgv::BgvContext::Create(params));

  // The plaintext space must hold every masked distance.
  const uint64_t max_dist = data::MaxSquaredDistance(config.dims, bound - 1);
  if (max_dist >= d.ctx->t()) {
    return InvalidArgumentError(
        "squared distances exceed the plaintext modulus; lower coord_bits "
        "or raise plain_bits");
  }
  if (MaskingPolynomial::CoefficientBudget(d.ctx->t(), max_dist,
                                           config.poly_degree,
                                           config.poly_degree) < 1) {
    return InvalidArgumentError(
        "plaintext modulus cannot accommodate the masking degree at this "
        "distance bound; lower poly_degree or coord_bits, or raise "
        "plain_bits");
  }
  SKNN_ASSIGN_OR_RETURN(
      d.layout, SlotLayout::Create(config, d.ctx->n(), dataset.num_points()));

  // The data owner's stream: key generation, then database encryption.
  Chacha20Rng owner_rng(seed);
  bgv::KeyGenerator keygen(d.ctx, &owner_rng);
  d.sk = keygen.GenerateSecretKey();
  d.pk = keygen.GeneratePublicKey(d.sk);
  d.relin = keygen.GenerateRelinKeys(d.sk);
  d.galois = keygen.GeneratePowerOfTwoRotationKeys(d.sk);
  // The party seeds come from their own stream, never from the owner's.
  Chacha20Rng seeder(seed ^ 0x5eC0DEull);
  d.party_a_seed = seeder.NextU64();
  d.party_b_seed = seeder.NextU64();
  d.client_seed = seeder.NextU64();
  // Fingerprint: config (DebugString names every field but the
  // per-process `threads`) + dataset shape + seed. Two processes that
  // derive from different flags or data disagree here and fail the
  // handshake instead of mis-decrypting each other's ciphertexts.
  std::ostringstream fp;
  fp << config.DebugString() << "|n=" << dataset.num_points()
     << "|d=" << dataset.dims() << "|seed=" << seed;
  const std::string fp_str = fp.str();
  d.fingerprint = Xxh64(fp_str.data(), fp_str.size(), 0x736b6e6e);

  if (role_a) {
    bgv::BatchEncoder encoder(d.ctx);
    bgv::Encryptor encryptor(d.ctx, d.pk, &owner_rng);
    d.encrypted_db.reserve(d.layout.num_units());
    for (size_t u = 0; u < d.layout.num_units(); ++u) {
      SKNN_ASSIGN_OR_RETURN(
          bgv::Plaintext pt,
          encoder.Encode(d.layout.EncodeDbUnit(dataset, u)));
      SKNN_ASSIGN_OR_RETURN(bgv::Ciphertext ct, encryptor.Encrypt(pt));
      d.encrypted_db.push_back(std::move(ct));
    }
  }
  return d;
}

}  // namespace core
}  // namespace sknn
