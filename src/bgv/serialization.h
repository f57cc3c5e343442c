#ifndef SKNN_BGV_SERIALIZATION_H_
#define SKNN_BGV_SERIALIZATION_H_

#include "bgv/ciphertext.h"
#include "bgv/keys.h"
#include "common/serial.h"
#include "common/status.h"
#include "common/statusor.h"

// Byte-level (de)serialization of ciphertexts, the only BGV objects that
// cross a protocol channel (every process derives its keys locally). The
// reader validates structure but trusts the caller to check shapes against
// the active context. The key writers measure and pin key material: the
// session reports the evaluation-key size, and tests digest keys.

namespace sknn {
namespace bgv {

void WriteRnsPoly(const RnsPoly& p, ByteSink* sink);
StatusOr<RnsPoly> ReadRnsPoly(ByteSource* src);

void WriteCiphertext(const Ciphertext& ct, ByteSink* sink);
StatusOr<Ciphertext> ReadCiphertext(ByteSource* src);

void WritePublicKey(const PublicKey& pk, ByteSink* sink);
void WriteSecretKey(const SecretKey& sk, ByteSink* sink);
void WriteRelinKeys(const RelinKeys& rk, ByteSink* sink);
void WriteGaloisKeys(const GaloisKeys& gk, ByteSink* sink);

}  // namespace bgv
}  // namespace sknn

#endif  // SKNN_BGV_SERIALIZATION_H_
