#include "bgv/encryptor.h"

#include "bgv/noise_model.h"
#include "bgv/sampling.h"
#include "common/logging.h"

namespace sknn {
namespace bgv {

Encryptor::Encryptor(std::shared_ptr<const BgvContext> ctx, PublicKey pk,
                     Chacha20Rng* rng)
    : ctx_(std::move(ctx)), pk_(std::move(pk)), rng_(rng) {}

StatusOr<Ciphertext> Encryptor::Encrypt(const Plaintext& pt) const {
  return EncryptAtLevel(pt, ctx_->max_level());
}

StatusOr<Ciphertext> Encryptor::EncryptAtLevel(const Plaintext& pt,
                                               size_t level) const {
  if (level > ctx_->max_level()) {
    return InvalidArgumentError("encryption level exceeds parameter chain");
  }
  if (pt.coeffs.size() != ctx_->n()) {
    return InvalidArgumentError("plaintext has wrong degree");
  }
  const size_t comps = level + 1;
  const RnsBase& base = ctx_->key_base();

  RnsPoly u = SampleTernaryPoly(*ctx_, comps, rng_);
  ToNttInplace(&u, base);
  RnsPoly e0 = SampleGaussianPoly(*ctx_, comps, rng_);
  RnsPoly e1 = SampleGaussianPoly(*ctx_, comps, rng_);
  std::vector<uint64_t> t_mod(comps);
  for (size_t i = 0; i < comps; ++i) t_mod[i] = ctx_->t_mod_q(i);
  MulScalarInplace(&e0, t_mod, base);
  MulScalarInplace(&e1, t_mod, base);

  RnsPoly m = LiftPlainCentered(*ctx_, pt.coeffs, comps);
  AddInplace(&e0, m, base);  // e0 <- t*e0 + m (both coefficient form)
  ToNttInplace(&e0, base);
  ToNttInplace(&e1, base);

  Ciphertext ct;
  ct.level = level;
  ct.scale = 1;
  ct.noise_bits = NoiseModel(*ctx_).FreshPkNoiseBits();
  // c0 = b*u + t*e0 + m ; c1 = a*u + t*e1, restricted to `comps` components.
  RnsPoly b_restricted = pk_.b.Prefix(comps);
  RnsPoly a_restricted = pk_.a.Prefix(comps);
  RnsPoly c0 = MulPointwise(b_restricted, u, base);
  AddInplace(&c0, e0, base);
  RnsPoly c1 = MulPointwise(a_restricted, u, base);
  AddInplace(&c1, e1, base);
  ct.c.push_back(std::move(c0));
  ct.c.push_back(std::move(c1));
  return ct;
}

}  // namespace bgv
}  // namespace sknn
