#ifndef SKNN_BGV_ENCRYPTOR_H_
#define SKNN_BGV_ENCRYPTOR_H_

#include <memory>

#include "bgv/ciphertext.h"
#include "bgv/context.h"
#include "bgv/keys.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/statusor.h"

// Public-key BGV encryption.

namespace sknn {
namespace bgv {

class Encryptor {
 public:
  Encryptor(std::shared_ptr<const BgvContext> ctx, PublicKey pk,
            Chacha20Rng* rng);

  // Encrypts at the top level (all data primes).
  StatusOr<Ciphertext> Encrypt(const Plaintext& pt) const;
  // Encrypts directly at a lower level: smaller ciphertext, less headroom.
  StatusOr<Ciphertext> EncryptAtLevel(const Plaintext& pt, size_t level) const;

 private:
  std::shared_ptr<const BgvContext> ctx_;
  PublicKey pk_;
  Chacha20Rng* rng_;
};

}  // namespace bgv
}  // namespace sknn

#endif  // SKNN_BGV_ENCRYPTOR_H_
