// Noise-budget behaviour of the BGV implementation: these tests pin down
// the level-management contract the protocol relies on (see the pipeline
// in src/core/party_a.cc).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bgv/context.h"
#include "bgv/decryptor.h"
#include "bgv/encoder.h"
#include "bgv/encryptor.h"
#include "bgv/evaluator.h"
#include "bgv/keys.h"
#include "bgv/symmetric.h"
#include "common/rng.h"
#include "noise_reference.h"

namespace sknn {
namespace bgv {
namespace {

class BgvNoiseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto params = BgvParams::CreateCustom(256, 20, 4, 45, 50);
    ASSERT_TRUE(params.ok());
    auto ctx = BgvContext::Create(params.value());
    ASSERT_TRUE(ctx.ok());
    ctx_ = ctx.value();
    rng_ = std::make_unique<Chacha20Rng>(uint64_t{31337});
    KeyGenerator keygen(ctx_, rng_.get());
    sk_ = keygen.GenerateSecretKey();
    pk_ = keygen.GeneratePublicKey(sk_);
    rk_ = keygen.GenerateRelinKeys(sk_);
    gk_ = keygen.GeneratePowerOfTwoRotationKeys(sk_);
    encoder_ = std::make_unique<BatchEncoder>(ctx_);
    encryptor_ = std::make_unique<Encryptor>(ctx_, pk_, rng_.get());
    decryptor_ = std::make_unique<Decryptor>(ctx_, sk_);
    evaluator_ = std::make_unique<Evaluator>(ctx_);
  }

  Ciphertext Fresh(uint64_t scalar = 3) {
    return encryptor_->Encrypt(encoder_->EncodeScalar(scalar)).value();
  }

  double Budget(const Ciphertext& ct) {
    return decryptor_->NoiseBudgetBits(ct).value();
  }

  std::shared_ptr<const BgvContext> ctx_;
  std::unique_ptr<Chacha20Rng> rng_;
  SecretKey sk_;
  PublicKey pk_;
  RelinKeys rk_;
  GaloisKeys gk_;
  std::unique_ptr<BatchEncoder> encoder_;
  std::unique_ptr<Encryptor> encryptor_;
  std::unique_ptr<Decryptor> decryptor_;
  std::unique_ptr<Evaluator> evaluator_;
};

TEST_F(BgvNoiseTest, AdditionBarelyCostsBudget) {
  Ciphertext a = Fresh();
  Ciphertext b = Fresh();
  const double before = Budget(a);
  ASSERT_TRUE(evaluator_->AddInplace(&a, b).ok());
  EXPECT_GE(Budget(a), before - 2.0);
}

TEST_F(BgvNoiseTest, PlainAddIsEssentiallyFree) {
  Ciphertext a = Fresh();
  const double before = Budget(a);
  ASSERT_TRUE(
      evaluator_->AddPlainInplace(&a, encoder_->EncodeScalar(12345)).ok());
  EXPECT_GE(Budget(a), before - 2.0);
}

TEST_F(BgvNoiseTest, ScalarMultCostsAboutLogScalar) {
  Ciphertext a = Fresh();
  const double before = Budget(a);
  ASSERT_TRUE(evaluator_->MultiplyScalarInplace(&a, 1 << 10).ok());
  const double after = Budget(a);
  EXPECT_LT(after, before);
  // ~10 bits plus small slack.
  EXPECT_GT(after, before - 18.0);
}

TEST_F(BgvNoiseTest, CiphertextMultCostsMuchMoreThanScalar) {
  Ciphertext a = Fresh();
  Ciphertext b = Fresh();
  Ciphertext s = Fresh();
  const double before = Budget(a);
  auto prod = evaluator_->Multiply(a, b);
  ASSERT_TRUE(prod.ok());
  ASSERT_TRUE(evaluator_->RelinearizeInplace(&*prod, rk_).ok());
  const double mult_cost = before - Budget(prod.value());
  ASSERT_TRUE(evaluator_->MultiplyScalarInplace(&s, 7).ok());
  const double scalar_cost = before - Budget(s);
  EXPECT_GT(mult_cost, scalar_cost + 10.0);
}

TEST_F(BgvNoiseTest, ModSwitchRecoversRelativeBudget) {
  // After a multiplication, switching down sheds noise along with modulus
  // so the *relative* budget is nearly preserved while ciphertexts shrink.
  Ciphertext a = Fresh();
  auto prod = evaluator_->Multiply(a, a);
  ASSERT_TRUE(prod.ok());
  ASSERT_TRUE(evaluator_->RelinearizeInplace(&*prod, rk_).ok());
  const double before = Budget(prod.value());
  Ciphertext switched = prod.value();
  ASSERT_TRUE(evaluator_->ModSwitchToNextInplace(&switched).ok());
  // The budget loss from dropping one ~45-bit prime should be far less
  // than 45 bits because noise shrinks proportionally.
  EXPECT_GT(Budget(switched), before - 46.0);
  EXPECT_GT(Budget(switched), 0.0);
  // And the plaintext is intact.
  auto pt = decryptor_->Decrypt(switched);
  ASSERT_TRUE(pt.ok());
  EXPECT_EQ(encoder_->Decode(pt.value())[0], 9u);
}

TEST_F(BgvNoiseTest, RotationAddsOnlyAdditiveNoise) {
  Ciphertext a = Fresh();
  const double before = Budget(a);
  ASSERT_TRUE(evaluator_->RotateRowsInplace(&a, 1, gk_).ok());
  EXPECT_GT(Budget(a), before - 25.0);  // keyswitch noise floor, not a level
}

TEST_F(BgvNoiseTest, Level0SurvivesAdditionButNotMultiplication) {
  Ciphertext a = Fresh(5);
  ASSERT_TRUE(evaluator_->ModSwitchToLevelInplace(&a, 0).ok());
  EXPECT_GT(Budget(a), 0.0);
  Ciphertext b = a;
  ASSERT_TRUE(evaluator_->AddInplace(&a, b).ok());
  auto pt = decryptor_->Decrypt(a);
  ASSERT_TRUE(pt.ok());
  EXPECT_EQ(encoder_->Decode(pt.value())[0], 10u);
}

TEST_F(BgvNoiseTest, ExhaustedBudgetDetectable) {
  // Deliberately run out of budget: repeated scalar multiplications at the
  // lowest level must eventually drive the measured budget to zero.
  Ciphertext a = Fresh(1);
  ASSERT_TRUE(evaluator_->ModSwitchToLevelInplace(&a, 0).ok());
  double budget = Budget(a);
  for (int i = 0; i < 20 && budget > 0; ++i) {
    ASSERT_TRUE(evaluator_->MultiplyScalarInplace(&a, (1u << 16) - 1).ok());
    budget = Budget(a);
  }
  EXPECT_EQ(budget, 0.0);
}

TEST_F(BgvNoiseTest, FreshBudgetGrowsWithLevels) {
  // More data primes -> larger modulus -> more budget.
  auto small = BgvParams::CreateCustom(256, 20, 2, 45, 50);
  ASSERT_TRUE(small.ok());
  auto small_ctx = BgvContext::Create(small.value()).value();
  Chacha20Rng rng(uint64_t{1});
  KeyGenerator kg(small_ctx, &rng);
  auto sk = kg.GenerateSecretKey();
  auto pk = kg.GeneratePublicKey(sk);
  BatchEncoder enc(small_ctx);
  Encryptor encr(small_ctx, pk, &rng);
  Decryptor dec(small_ctx, sk);
  auto ct = encr.Encrypt(enc.EncodeScalar(3)).value();
  const double small_budget = dec.NoiseBudgetBits(ct).value();
  EXPECT_GT(Budget(Fresh()), small_budget + 40.0);  // two extra 45-bit primes
}

// Decryptor::DecryptWithBudget against the BigUint reference
// (tests/noise_reference.h) on the toy (n=1024) and bench (n=4096) rings:
// the same budget and a bit-identical plaintext at every level, through
// the 64-bit path at level 0 and the CRT path above it.
class DecryptWithBudgetTest
    : public ::testing::TestWithParam<SecurityPreset> {
 protected:
  void SetUp() override {
    auto params = BgvParams::Create(GetParam());
    ASSERT_TRUE(params.ok());
    ctx_ = BgvContext::Create(params.value()).value();
    rng_ = std::make_unique<Chacha20Rng>(uint64_t{2718});
    KeyGenerator keygen(ctx_, rng_.get());
    sk_ = keygen.GenerateSecretKey();
    rk_ = keygen.GenerateRelinKeys(sk_);
    encoder_ = std::make_unique<BatchEncoder>(ctx_);
    encryptor_ = std::make_unique<Encryptor>(
        ctx_, keygen.GeneratePublicKey(sk_), rng_.get());
    sym_encryptor_ =
        std::make_unique<SymmetricEncryptor>(ctx_, sk_, rng_.get());
    decryptor_ = std::make_unique<Decryptor>(ctx_, sk_);
    evaluator_ = std::make_unique<Evaluator>(ctx_);
  }

  Plaintext RandomPlaintext() {
    std::vector<uint64_t> slots(ctx_->n());
    for (uint64_t& v : slots) v = rng_->NextU64() % ctx_->t();
    return encoder_->Encode(slots).value();
  }

  void ExpectMatchesReference(const Ciphertext& ct, const std::string& what) {
    SCOPED_TRACE(what + " at level " + std::to_string(ct.level));
    const ReferenceDecryption want = ReferenceDecrypt(*ctx_, sk_, ct);
    auto got = decryptor_->DecryptWithBudget(ct);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got->budget_bits, want.budget_bits);
    EXPECT_EQ(got->plaintext.coeffs, want.plaintext.coeffs);
    EXPECT_EQ(decryptor_->NoiseBudgetBits(ct).value(), want.budget_bits);
    EXPECT_EQ(decryptor_->Decrypt(ct).value().coeffs, want.plaintext.coeffs);
  }

  // Compares `ct` at its own level and after each switch down to level 0.
  void ExpectMatchesReferenceDown(Ciphertext ct, const std::string& what) {
    for (;;) {
      ExpectMatchesReference(ct, what);
      if (ct.level == 0) return;
      ASSERT_TRUE(evaluator_->ModSwitchToNextInplace(&ct).ok());
    }
  }

  // c1 = 0 and c0 = `coeffs` (coefficient form, mod q0) at level 0, so
  // the decryptor's v is exactly `coeffs`.
  Ciphertext HandBuilt(const std::vector<uint64_t>& coeffs) {
    RnsPoly c0 = ZeroPoly(ctx_->n(), 1, /*ntt_form=*/false);
    std::copy(coeffs.begin(), coeffs.end(), c0.comp(0));
    ToNttInplace(&c0, ctx_->key_base());
    Ciphertext ct;
    ct.c.push_back(std::move(c0));
    ct.c.push_back(ZeroPoly(ctx_->n(), 1, /*ntt_form=*/true));
    return ct;
  }

  std::shared_ptr<const BgvContext> ctx_;
  std::unique_ptr<Chacha20Rng> rng_;
  SecretKey sk_;
  RelinKeys rk_;
  std::unique_ptr<BatchEncoder> encoder_;
  std::unique_ptr<Encryptor> encryptor_;
  std::unique_ptr<SymmetricEncryptor> sym_encryptor_;
  std::unique_ptr<Decryptor> decryptor_;
  std::unique_ptr<Evaluator> evaluator_;
};

TEST_P(DecryptWithBudgetTest, MatchesBigUintReferenceAtEveryLevel) {
  const size_t top = ctx_->max_level();
  const Ciphertext a = encryptor_->Encrypt(RandomPlaintext()).value();
  const Ciphertext b = encryptor_->Encrypt(RandomPlaintext()).value();
  ExpectMatchesReferenceDown(a, "fresh public-key");
  ExpectMatchesReferenceDown(
      sym_encryptor_->Encrypt(RandomPlaintext(), top).value(),
      "fresh symmetric");
  ExpectMatchesReference(
      sym_encryptor_->Encrypt(RandomPlaintext(), 0).value(),
      "fresh symmetric");
  Ciphertext product = evaluator_->Multiply(a, b).value();
  ASSERT_EQ(product.size(), 3u);
  ExpectMatchesReferenceDown(product, "multiplied (size 3)");
  ASSERT_TRUE(evaluator_->RelinearizeInplace(&product, rk_).ok());
  ExpectMatchesReferenceDown(product, "relinearized");
  // A second product one level down: the budget left at level 0 is small
  // or gone, which the clamp at 0 must treat the same way.
  ASSERT_TRUE(evaluator_->ModSwitchToNextInplace(&product).ok());
  Ciphertext b_down = b;
  ASSERT_TRUE(evaluator_->ModSwitchToNextInplace(&b_down).ok());
  Ciphertext depth2 = evaluator_->MultiplyRelin(product, b_down, rk_).value();
  ExpectMatchesReferenceDown(depth2, "two products deep");
}

TEST_P(DecryptWithBudgetTest, HandBuiltCenteringAndRoundingEdges) {
  const uint64_t q0 = ctx_->key_base().modulus(0).value();
  const uint64_t t = ctx_->t();
  const uint64_t half_q = q0 / 2;
  std::vector<uint64_t> values = {0, 1, half_q, half_q + 1, q0 - 1};
  for (uint64_t r : {t / 2, t / 2 + 1}) {
    // Residue r mod t: small positive, small negative, and the last
    // positive and first negative centered values.
    const uint64_t last_positive = r + (half_q - r) / t * t;
    values.insert(values.end(), {r, q0 - r, last_positive,
                                 last_positive + t, q0 - last_positive});
  }
  for (uint64_t x : values) {
    ASSERT_LT(x, q0);
    std::vector<uint64_t> coeffs(ctx_->n(), 0);
    coeffs[0] = x;
    ExpectMatchesReference(HandBuilt(coeffs), "c0[0] = " + std::to_string(x));
  }
  std::vector<uint64_t> spread(ctx_->n(), 0);
  std::copy(values.begin(), values.end(), spread.begin());
  ExpectMatchesReference(HandBuilt(spread), "every edge at once");
}

INSTANTIATE_TEST_SUITE_P(
    Rings, DecryptWithBudgetTest,
    ::testing::Values(SecurityPreset::kToy, SecurityPreset::kBench),
    [](const ::testing::TestParamInfo<SecurityPreset>& info) {
      return std::string(info.param == SecurityPreset::kToy ? "toy1024"
                                                            : "bench4096");
    });

}  // namespace
}  // namespace bgv
}  // namespace sknn
