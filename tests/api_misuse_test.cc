// API misuse must produce Status errors, never crashes or silent
// corruption: wrong-context ciphertexts, invalid rotation arguments,
// out-of-range operations, and operations on malformed ciphertexts.

#include <gtest/gtest.h>

#include "bgv/context.h"
#include "bgv/decryptor.h"
#include "bgv/encoder.h"
#include "bgv/encryptor.h"
#include "bgv/evaluator.h"
#include "bgv/keys.h"
#include "common/rng.h"

namespace sknn {
namespace bgv {
namespace {

struct Deployment {
  std::shared_ptr<const BgvContext> ctx;
  std::unique_ptr<Chacha20Rng> rng;
  SecretKey sk;
  PublicKey pk;
  RelinKeys rk;
  GaloisKeys gk;
  std::unique_ptr<BatchEncoder> encoder;
  std::unique_ptr<Encryptor> encryptor;
  std::unique_ptr<Evaluator> evaluator;
};

Deployment MakeDeployment(size_t n, uint64_t seed) {
  Deployment d;
  auto params = BgvParams::CreateCustom(n, 20, 3, 45, 50);
  EXPECT_TRUE(params.ok());
  d.ctx = BgvContext::Create(params.value()).value();
  d.rng = std::make_unique<Chacha20Rng>(seed);
  KeyGenerator keygen(d.ctx, d.rng.get());
  d.sk = keygen.GenerateSecretKey();
  d.pk = keygen.GeneratePublicKey(d.sk);
  d.rk = keygen.GenerateRelinKeys(d.sk);
  d.gk = keygen.GeneratePowerOfTwoRotationKeys(d.sk);
  d.encoder = std::make_unique<BatchEncoder>(d.ctx);
  d.encryptor = std::make_unique<Encryptor>(d.ctx, d.pk, d.rng.get());
  d.evaluator = std::make_unique<Evaluator>(d.ctx);
  return d;
}

TEST(ApiMisuseTest, ForeignRingCiphertextRejected) {
  Deployment small = MakeDeployment(128, 1);
  Deployment big = MakeDeployment(256, 2);
  Ciphertext foreign =
      small.encryptor->Encrypt(small.encoder->EncodeScalar(1)).value();
  Ciphertext native =
      big.encryptor->Encrypt(big.encoder->EncodeScalar(2)).value();
  EXPECT_FALSE(big.evaluator->AddInplace(&native, foreign).ok());
  EXPECT_FALSE(big.evaluator->Multiply(native, foreign).ok());
  Ciphertext copy = foreign;
  EXPECT_FALSE(big.evaluator->ModSwitchToNextInplace(&copy).ok());
}

TEST(ApiMisuseTest, EmptyCiphertextRejectedEverywhere) {
  Deployment d = MakeDeployment(128, 3);
  Ciphertext empty;
  Ciphertext good = d.encryptor->Encrypt(d.encoder->EncodeScalar(1)).value();
  EXPECT_FALSE(d.evaluator->AddInplace(&good, empty).ok());
  EXPECT_FALSE(d.evaluator->Multiply(good, empty).ok());
  EXPECT_FALSE(d.evaluator->RelinearizeInplace(&good, d.rk).ok());  // size 2
}

TEST(ApiMisuseTest, RelinearizeRequiresSizeThree) {
  Deployment d = MakeDeployment(128, 4);
  Ciphertext ct = d.encryptor->Encrypt(d.encoder->EncodeScalar(1)).value();
  EXPECT_FALSE(d.evaluator->RelinearizeInplace(&ct, d.rk).ok());
}

TEST(ApiMisuseTest, DoubleMultiplyWithoutRelinRejected) {
  Deployment d = MakeDeployment(128, 5);
  Ciphertext a = d.encryptor->Encrypt(d.encoder->EncodeScalar(2)).value();
  auto tensor = d.evaluator->Multiply(a, a);
  ASSERT_TRUE(tensor.ok());
  EXPECT_FALSE(d.evaluator->Multiply(tensor.value(), a).ok());
}

TEST(ApiMisuseTest, FoldBlockValidation) {
  Deployment d = MakeDeployment(128, 6);
  Ciphertext ct = d.encryptor->Encrypt(d.encoder->EncodeScalar(1)).value();
  EXPECT_FALSE(d.evaluator->FoldRowsInplace(&ct, 0, d.gk).ok());
  EXPECT_FALSE(d.evaluator->FoldRowsInplace(&ct, 3, d.gk).ok());     // not 2^k
  EXPECT_FALSE(d.evaluator->FoldRowsInplace(&ct, 256, d.gk).ok());   // > row
  EXPECT_TRUE(d.evaluator->FoldRowsInplace(&ct, 8, d.gk).ok());
}

TEST(ApiMisuseTest, RotationStepNormalization) {
  Deployment d = MakeDeployment(128, 7);
  std::vector<uint64_t> v(d.ctx->n());
  for (size_t i = 0; i < v.size(); ++i) v[i] = i;
  Ciphertext a = d.encryptor->Encrypt(d.encoder->Encode(v).value()).value();
  Ciphertext b = a;
  // step and step + row_size are the same rotation.
  const int row = static_cast<int>(d.ctx->row_size());
  ASSERT_TRUE(d.evaluator->RotateRowsInplace(&a, 3, d.gk).ok());
  ASSERT_TRUE(d.evaluator->RotateRowsInplace(&b, 3 + row, d.gk).ok());
  Decryptor dec(d.ctx, d.sk);
  EXPECT_EQ(d.encoder->Decode(dec.Decrypt(a).value()),
            d.encoder->Decode(dec.Decrypt(b).value()));
  // step 0 is a no-op and must succeed.
  EXPECT_TRUE(d.evaluator->RotateRowsInplace(&a, 0, d.gk).ok());
}

TEST(ApiMisuseTest, DecryptorRejectsMalformedCiphertexts) {
  Deployment d = MakeDeployment(128, 8);
  Decryptor dec(d.ctx, d.sk);
  Ciphertext ct;
  EXPECT_FALSE(dec.Decrypt(ct).ok());
  EXPECT_FALSE(dec.NoiseBudgetBits(ct).ok());
  ct = d.encryptor->Encrypt(d.encoder->EncodeScalar(1)).value();
  ct.level = 99;
  EXPECT_FALSE(dec.Decrypt(ct).ok());
  EXPECT_FALSE(dec.NoiseBudgetBits(ct).ok());
}

TEST(ApiMisuseTest, WrongKeyDecryptsToGarbageNotCrash) {
  Deployment d1 = MakeDeployment(128, 9);
  Deployment d2 = MakeDeployment(128, 10);
  Ciphertext ct =
      d1.encryptor->Encrypt(d1.encoder->EncodeScalar(42)).value();
  Decryptor wrong(d2.ctx, d2.sk);  // same params, different key
  auto pt = wrong.Decrypt(ct);
  ASSERT_TRUE(pt.ok());  // structurally valid...
  EXPECT_NE(d2.encoder->Decode(pt.value())[0], 42u);  // ...semantic garbage
}

}  // namespace
}  // namespace bgv
}  // namespace sknn
