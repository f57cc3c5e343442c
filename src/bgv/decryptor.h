#ifndef SKNN_BGV_DECRYPTOR_H_
#define SKNN_BGV_DECRYPTOR_H_

#include <memory>

#include "bgv/ciphertext.h"
#include "bgv/context.h"
#include "bgv/keys.h"
#include "common/status.h"
#include "common/statusor.h"

// BGV decryption and exact noise measurement.

namespace sknn {
namespace bgv {

// The plaintext and the exact noise budget of one ciphertext, both read
// off the same c0 + c1·s (+ c2·s²) product.
struct Decryption {
  Plaintext plaintext;
  double budget_bits = 0.0;
};

class Decryptor {
 public:
  Decryptor(std::shared_ptr<const BgvContext> ctx, SecretKey sk);

  // Decrypts a ciphertext of size 2 or 3 at any level, and measures its
  // remaining noise budget in bits: bitlen(Q_level) - 1 - bitlen(|noise|),
  // the noise taken at the worst coefficient. Decryption fails (garbage
  // output) when the budget reaches 0. Applies the modulus switching
  // correction factor so the plaintext equals the originally encrypted one.
  // Cost: the inner product with the secret key, one inverse NTT per
  // prime, then one pass over the coefficients that yields both outputs —
  // 64-bit arithmetic at level 0, where the budget adds a few word
  // operations per coefficient to the decryption; a BigUint CRT
  // reconstruction per coefficient above it.
  StatusOr<Decryption> DecryptWithBudget(const Ciphertext& ct) const;

  // The plaintext or the budget alone; each costs a DecryptWithBudget.
  StatusOr<Plaintext> Decrypt(const Ciphertext& ct) const;
  StatusOr<double> NoiseBudgetBits(const Ciphertext& ct) const;

 private:
  // v = sum_i c_i * s^i over the ciphertext's components, coefficient form.
  RnsPoly DotWithSecret(const Ciphertext& ct) const;

  std::shared_ptr<const BgvContext> ctx_;
  SecretKey sk_;
};

}  // namespace bgv
}  // namespace sknn

#endif  // SKNN_BGV_DECRYPTOR_H_
