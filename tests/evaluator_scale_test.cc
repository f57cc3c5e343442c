// Dedicated tests for the BGV correction-factor (scale) machinery — the
// subtlest part of the implementation (see DESIGN.md §3.11): modulus
// switching scales the plaintext by q^{-1} mod t, multiplication multiplies
// the factors, and additions must reconcile mismatched factors.

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

class EvaluatorScaleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto params = BgvParams::CreateCustom(256, 20, 4, 45, 50);
    ASSERT_TRUE(params.ok());
    ctx_ = BgvContext::Create(params.value()).value();
    rng_ = std::make_unique<Chacha20Rng>(uint64_t{717});
    KeyGenerator keygen(ctx_, rng_.get());
    sk_ = keygen.GenerateSecretKey();
    pk_ = keygen.GeneratePublicKey(sk_);
    rk_ = keygen.GenerateRelinKeys(sk_);
    encoder_ = std::make_unique<BatchEncoder>(ctx_);
    encryptor_ = std::make_unique<Encryptor>(ctx_, pk_, rng_.get());
    decryptor_ = std::make_unique<Decryptor>(ctx_, sk_);
    evaluator_ = std::make_unique<Evaluator>(ctx_);
  }

  Ciphertext Enc(uint64_t v) {
    return encryptor_->Encrypt(encoder_->EncodeScalar(v)).value();
  }
  uint64_t Dec0(const Ciphertext& ct) {
    return encoder_->Decode(decryptor_->Decrypt(ct).value())[0];
  }

  std::shared_ptr<const BgvContext> ctx_;
  std::unique_ptr<Chacha20Rng> rng_;
  SecretKey sk_;
  PublicKey pk_;
  RelinKeys rk_;
  std::unique_ptr<BatchEncoder> encoder_;
  std::unique_ptr<Encryptor> encryptor_;
  std::unique_ptr<Decryptor> decryptor_;
  std::unique_ptr<Evaluator> evaluator_;
};

TEST_F(EvaluatorScaleTest, FreshScaleIsOne) {
  EXPECT_EQ(Enc(5).scale, 1u);
}

TEST_F(EvaluatorScaleTest, ModSwitchTracksDroppedPrimeInverse) {
  Ciphertext ct = Enc(5);
  const uint64_t t = ctx_->t();
  uint64_t expected = 1;
  while (ct.level > 0) {
    const size_t dropped = ct.level;
    ASSERT_TRUE(evaluator_->ModSwitchToNextInplace(&ct).ok());
    expected = MulModSlow(expected, ctx_->q_inv_mod_t(dropped), t);
    EXPECT_EQ(ct.scale, expected);
    EXPECT_EQ(Dec0(ct), 5u);
  }
  // Accumulated factor equals the reference product of dropped primes.
  EXPECT_EQ(MulModSlow(ct.scale, ctx_->correction_mod_t(0), t), 1u);
}

TEST_F(EvaluatorScaleTest, MultiplicationMultipliesScales) {
  Ciphertext a = Enc(3);
  Ciphertext b = Enc(4);
  ASSERT_TRUE(evaluator_->ModSwitchToNextInplace(&a).ok());
  ASSERT_TRUE(evaluator_->ModSwitchToNextInplace(&b).ok());
  auto prod = evaluator_->Multiply(a, b);
  ASSERT_TRUE(prod.ok());
  ASSERT_TRUE(evaluator_->RelinearizeInplace(&*prod, rk_).ok());
  EXPECT_EQ(prod->scale, MulModSlow(a.scale, b.scale, ctx_->t()));
  EXPECT_EQ(Dec0(prod.value()), 12u);
}

TEST_F(EvaluatorScaleTest, DeepChainDecryptsThroughScaleTracking) {
  // (((2*3)*4)*5) = 120 with a mod switch after every multiply: the scale
  // walks through several factors and must always be divided out exactly.
  Ciphertext acc = Enc(2);
  for (uint64_t v : {3ull, 4ull, 5ull}) {
    auto next = evaluator_->MultiplyRelin(acc, Enc(v), rk_);
    ASSERT_TRUE(next.ok());
    acc = std::move(next).value();
  }
  EXPECT_EQ(Dec0(acc), 120u);
  EXPECT_NE(acc.scale, 1u);
}

TEST_F(EvaluatorScaleTest, AddReconcilesMismatchedScales) {
  // a: two multiplications deep (its scale picks up a squared factor);
  // b: only mod-switched. Their scales differ at the same level; Add must
  // reconcile and still produce 3*3*1 + 4 = 13.
  auto a1 = evaluator_->MultiplyRelin(Enc(3), Enc(3), rk_);
  ASSERT_TRUE(a1.ok());
  auto a = evaluator_->MultiplyRelin(a1.value(), Enc(1), rk_);
  ASSERT_TRUE(a.ok());
  Ciphertext b = Enc(4);
  ASSERT_TRUE(evaluator_->ModSwitchToLevelInplace(&b, a->level).ok());
  EXPECT_NE(a->scale, b.scale);
  Ciphertext sum = a.value();
  ASSERT_TRUE(evaluator_->AddInplace(&sum, b).ok());
  EXPECT_EQ(Dec0(sum), 13u);
}

TEST_F(EvaluatorScaleTest, SubReconcilesMismatchedScales) {
  auto a = evaluator_->MultiplyRelin(Enc(5), Enc(5), rk_);  // 25
  ASSERT_TRUE(a.ok());
  Ciphertext b = Enc(4);
  Ciphertext diff = a.value();
  ASSERT_TRUE(evaluator_->SubInplace(&diff, b).ok());
  EXPECT_EQ(Dec0(diff), 21u);
}

TEST_F(EvaluatorScaleTest, AddPlainRespectsScale) {
  auto a = evaluator_->MultiplyRelin(Enc(6), Enc(7), rk_);  // 42, scaled
  ASSERT_TRUE(a.ok());
  Ciphertext ct = a.value();
  ASSERT_TRUE(
      evaluator_->AddPlainInplace(&ct, encoder_->EncodeScalar(8)).ok());
  EXPECT_EQ(Dec0(ct), 50u);
}

TEST_F(EvaluatorScaleTest, MultiplyPlainPreservesScale) {
  auto a = evaluator_->MultiplyRelin(Enc(6), Enc(7), rk_);
  ASSERT_TRUE(a.ok());
  Ciphertext ct = a.value();
  const uint64_t scale_before = ct.scale;
  ASSERT_TRUE(
      evaluator_->MultiplyPlainInplace(&ct, encoder_->EncodeScalar(2)).ok());
  EXPECT_EQ(ct.scale, scale_before);
  EXPECT_EQ(Dec0(ct), 84u);
}

TEST_F(EvaluatorScaleTest, HornerStyleMixedOpsExact) {
  // The protocol's exact hot path: u = a2*x + a1; u = u*x + a0 with large
  // pseudo-random coefficients, verified against 64-bit reference.
  Chacha20Rng coeff_rng(uint64_t{5});
  const uint64_t t = ctx_->t();
  Modulus t_mod(t);
  for (int trial = 0; trial < 5; ++trial) {
    const uint64_t x = coeff_rng.UniformBelow(1 << 12);
    const uint64_t a2 = coeff_rng.UniformBelow(1 << 8);
    const uint64_t a1 = coeff_rng.UniformBelow(t);
    const uint64_t a0 = coeff_rng.UniformBelow(t);
    Ciphertext cx = Enc(x);
    Ciphertext u = cx;
    ASSERT_TRUE(evaluator_->MultiplyScalarInplace(&u, a2).ok());
    ASSERT_TRUE(
        evaluator_->AddPlainInplace(&u, encoder_->EncodeScalar(a1)).ok());
    auto u2 = evaluator_->MultiplyRelin(u, cx, rk_);
    ASSERT_TRUE(u2.ok());
    u = std::move(u2).value();
    ASSERT_TRUE(
        evaluator_->AddPlainInplace(&u, encoder_->EncodeScalar(a0)).ok());
    const uint64_t expected = AddMod(
        t_mod.MulMod(AddMod(t_mod.MulMod(a2, x), a1, t), x), a0, t);
    EXPECT_EQ(Dec0(u), expected);
  }
}

}  // namespace
}  // namespace bgv
}  // namespace sknn
