#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "bgv/context.h"
#include "bgv/decryptor.h"
#include "bgv/encoder.h"
#include "bgv/encryptor.h"
#include "bgv/evaluator.h"
#include "bgv/keys.h"
#include "bgv/params.h"
#include "common/rng.h"

namespace sknn {
namespace bgv {
namespace {

// Shared small-parameter fixture: n=256 keeps every test fast while
// exercising the full RNS/keyswitch machinery.
class BgvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto params = BgvParams::CreateCustom(/*n=*/256, /*plain_bits=*/20,
                                          /*levels=*/4, /*data_prime_bits=*/45,
                                          /*special_prime_bits=*/50);
    ASSERT_TRUE(params.ok()) << params.status();
    auto ctx = BgvContext::Create(params.value());
    ASSERT_TRUE(ctx.ok()) << ctx.status();
    ctx_ = ctx.value();
    rng_ = std::make_unique<Chacha20Rng>(uint64_t{2024});
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

  std::vector<uint64_t> RandomSlots(uint64_t bound = 0) {
    if (bound == 0) bound = ctx_->t();
    std::vector<uint64_t> v(ctx_->n());
    for (auto& x : v) x = rng_->UniformBelow(bound);
    return v;
  }

  Ciphertext EncryptVec(const std::vector<uint64_t>& slots) {
    auto pt = encoder_->Encode(slots);
    EXPECT_TRUE(pt.ok());
    auto ct = encryptor_->Encrypt(pt.value());
    EXPECT_TRUE(ct.ok());
    return ct.value();
  }

  std::vector<uint64_t> DecryptVec(const Ciphertext& ct) {
    auto pt = decryptor_->Decrypt(ct);
    EXPECT_TRUE(pt.ok()) << pt.status();
    return encoder_->Decode(pt.value());
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

TEST(BgvParamsTest, PresetsValidate) {
  for (auto preset : {SecurityPreset::kToy, SecurityPreset::kBench}) {
    auto p = BgvParams::Create(preset, /*levels=*/3);
    ASSERT_TRUE(p.ok()) << p.status();
    EXPECT_TRUE(p->Validate().ok());
    EXPECT_EQ(p->max_level(), 2u);
  }
}

TEST(BgvParamsTest, PlaintextPrimeSplitsRing) {
  auto p = BgvParams::Create(SecurityPreset::kToy);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->plain_modulus % (2 * p->n), 1u);
}

TEST(BgvParamsTest, SecurityEstimateMonotoneInModulus) {
  double wide = EstimateSecurityBits(8192, 400);
  double narrow = EstimateSecurityBits(8192, 200);
  EXPECT_GT(narrow, wide);
  EXPECT_NEAR(EstimateSecurityBits(8192, 218), 128.0, 1.0);
}

TEST(BgvParamsTest, CustomRejectsSillyInputs) {
  EXPECT_FALSE(BgvParams::CreateCustom(100, 20, 2, 45, 50).ok());  // not 2^k
  EXPECT_FALSE(BgvParams::CreateCustom(256, 20, 0, 45, 50).ok());  // no primes
}

TEST_F(BgvTest, ContextConstantsAreConsistent) {
  const uint64_t t = ctx_->t();
  for (size_t i = 0; i < ctx_->num_data_primes(); ++i) {
    const uint64_t q = ctx_->params().data_primes[i];
    EXPECT_EQ(MulModSlow(ctx_->t_inv_mod_q(i), t % q, q), 1u);
    EXPECT_EQ(ctx_->sp_mod_q(i), ctx_->params().special_prime % q);
    EXPECT_EQ(MulModSlow(ctx_->q_inv_mod_q(ctx_->special_index(), i),
                         ctx_->sp_mod_q(i), q),
              1u);
  }
  // q_inv_mod_t really inverts each prime mod t.
  for (size_t i = 0; i < ctx_->num_data_primes(); ++i) {
    EXPECT_EQ(MulModSlow(ctx_->q_inv_mod_t(i),
                         ctx_->params().data_primes[i] % t, t),
              1u);
  }
  EXPECT_EQ(ctx_->correction_mod_t(ctx_->max_level()), 1u);
}

TEST_F(BgvTest, EncoderRoundtrip) {
  std::vector<uint64_t> values = RandomSlots();
  auto pt = encoder_->Encode(values);
  ASSERT_TRUE(pt.ok());
  EXPECT_EQ(encoder_->Decode(pt.value()), values);
}

TEST_F(BgvTest, EncoderPartialVectorZeroPads) {
  std::vector<uint64_t> values = {1, 2, 3};
  auto pt = encoder_->Encode(values);
  ASSERT_TRUE(pt.ok());
  auto decoded = encoder_->Decode(pt.value());
  EXPECT_EQ(decoded[0], 1u);
  EXPECT_EQ(decoded[1], 2u);
  EXPECT_EQ(decoded[2], 3u);
  for (size_t i = 3; i < decoded.size(); ++i) EXPECT_EQ(decoded[i], 0u);
}

TEST_F(BgvTest, EncoderRejectsOversize) {
  std::vector<uint64_t> too_many(ctx_->n() + 1, 0);
  EXPECT_FALSE(encoder_->Encode(too_many).ok());
  EXPECT_FALSE(encoder_->Encode({ctx_->t()}).ok());
}

TEST_F(BgvTest, ScalarEncodePutsValueInEverySlot) {
  Plaintext pt = encoder_->EncodeScalar(7);
  for (uint64_t v : encoder_->Decode(pt)) EXPECT_EQ(v, 7u);
}

TEST_F(BgvTest, EncryptDecryptRoundtrip) {
  std::vector<uint64_t> values = RandomSlots();
  Ciphertext ct = EncryptVec(values);
  EXPECT_EQ(ct.level, ctx_->max_level());
  EXPECT_EQ(DecryptVec(ct), values);
}

TEST_F(BgvTest, FreshNoiseBudgetPositive) {
  Ciphertext ct = EncryptVec(RandomSlots());
  auto budget = decryptor_->NoiseBudgetBits(ct);
  ASSERT_TRUE(budget.ok());
  EXPECT_GT(budget.value(), 30.0);
}

TEST_F(BgvTest, AddIsSlotwise) {
  auto a = RandomSlots();
  auto b = RandomSlots();
  Ciphertext ca = EncryptVec(a);
  Ciphertext cb = EncryptVec(b);
  ASSERT_TRUE(evaluator_->AddInplace(&ca, cb).ok());
  auto sum = DecryptVec(ca);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(sum[i], AddMod(a[i], b[i], ctx_->t()));
  }
}

TEST_F(BgvTest, SubIsSlotwise) {
  auto a = RandomSlots();
  auto b = RandomSlots();
  Ciphertext ca = EncryptVec(a);
  Ciphertext cb = EncryptVec(b);
  ASSERT_TRUE(evaluator_->SubInplace(&ca, cb).ok());
  auto diff = DecryptVec(ca);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(diff[i], SubMod(a[i], b[i], ctx_->t()));
  }
}

TEST_F(BgvTest, NegateIsSlotwise) {
  auto a = RandomSlots();
  Ciphertext ca = EncryptVec(a);
  evaluator_->NegateInplace(&ca);
  auto neg = DecryptVec(ca);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(neg[i], NegMod(a[i], ctx_->t()));
  }
}

TEST_F(BgvTest, AddPlainIsSlotwise) {
  auto a = RandomSlots();
  auto b = RandomSlots();
  Ciphertext ca = EncryptVec(a);
  auto pb = encoder_->Encode(b);
  ASSERT_TRUE(pb.ok());
  ASSERT_TRUE(evaluator_->AddPlainInplace(&ca, pb.value()).ok());
  auto sum = DecryptVec(ca);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(sum[i], AddMod(a[i], b[i], ctx_->t()));
  }
}

TEST_F(BgvTest, MultiplyRelinIsSlotwise) {
  auto a = RandomSlots();
  auto b = RandomSlots();
  Ciphertext ca = EncryptVec(a);
  Ciphertext cb = EncryptVec(b);
  auto prod = evaluator_->MultiplyRelin(ca, cb, rk_);
  ASSERT_TRUE(prod.ok()) << prod.status();
  EXPECT_EQ(prod->level, ctx_->max_level() - 1);  // auto mod switch
  auto got = DecryptVec(prod.value());
  Modulus t(ctx_->t());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(got[i], t.MulMod(a[i], b[i]));
  }
}

TEST_F(BgvTest, MultiplyWithoutRelinDecryptsViaSize3) {
  auto a = RandomSlots();
  auto b = RandomSlots();
  auto prod = evaluator_->Multiply(EncryptVec(a), EncryptVec(b));
  ASSERT_TRUE(prod.ok());
  EXPECT_EQ(prod->size(), 3u);
  auto got = DecryptVec(prod.value());
  Modulus t(ctx_->t());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(got[i], t.MulMod(a[i], b[i]));
  }
}

TEST_F(BgvTest, MultiplyPlainIsSlotwise) {
  auto a = RandomSlots();
  auto b = RandomSlots();
  Ciphertext ca = EncryptVec(a);
  auto pb = encoder_->Encode(b);
  ASSERT_TRUE(pb.ok());
  ASSERT_TRUE(evaluator_->MultiplyPlainInplace(&ca, pb.value()).ok());
  auto got = DecryptVec(ca);
  Modulus t(ctx_->t());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(got[i], t.MulMod(a[i], b[i]));
  }
}

TEST_F(BgvTest, MultiplyScalarScalesEverySlot) {
  auto a = RandomSlots();
  Ciphertext ca = EncryptVec(a);
  ASSERT_TRUE(evaluator_->MultiplyScalarInplace(&ca, 12345).ok());
  auto got = DecryptVec(ca);
  Modulus t(ctx_->t());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(got[i], t.MulMod(a[i], 12345));
  }
}

TEST_F(BgvTest, ModSwitchPreservesPlaintextAllTheWayDown) {
  auto a = RandomSlots();
  Ciphertext ca = EncryptVec(a);
  while (ca.level > 0) {
    ASSERT_TRUE(evaluator_->ModSwitchToNextInplace(&ca).ok());
    EXPECT_EQ(DecryptVec(ca), a) << "level " << ca.level;
  }
  EXPECT_FALSE(evaluator_->ModSwitchToNextInplace(&ca).ok());
}

TEST_F(BgvTest, EncryptAtLevelMatchesSwitchedDown) {
  auto a = RandomSlots();
  auto b = RandomSlots();
  auto pa = encoder_->Encode(a);
  ASSERT_TRUE(pa.ok());
  auto low = encryptor_->EncryptAtLevel(pa.value(), 1);
  ASSERT_TRUE(low.ok());
  EXPECT_EQ(low->level, 1u);
  EXPECT_EQ(DecryptVec(low.value()), a);
  // Mixing a fresh low-level ciphertext with a switched-down one must work.
  Ciphertext cb = EncryptVec(b);
  ASSERT_TRUE(evaluator_->ModSwitchToLevelInplace(&cb, 1).ok());
  ASSERT_TRUE(evaluator_->AddInplace(&cb, low.value()).ok());
  auto sum = DecryptVec(cb);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(sum[i], AddMod(a[i], b[i], ctx_->t()));
  }
}

TEST_F(BgvTest, AddAcrossLevelsAutoEqualizes) {
  auto a = RandomSlots();
  auto b = RandomSlots();
  Ciphertext ca = EncryptVec(a);
  Ciphertext cb = EncryptVec(b);
  ASSERT_TRUE(evaluator_->ModSwitchToLevelInplace(&ca, 1).ok());
  ASSERT_TRUE(evaluator_->AddInplace(&ca, cb).ok());
  auto sum = DecryptVec(ca);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(sum[i], AddMod(a[i], b[i], ctx_->t()));
  }
}

TEST_F(BgvTest, FullDepthMultiplicationChain) {
  // Multiply max_level() fresh ciphertexts together (uses every level).
  const size_t depth = ctx_->max_level();
  std::vector<uint64_t> expected(ctx_->n(), 1);
  Modulus t(ctx_->t());
  Ciphertext acc = EncryptVec(std::vector<uint64_t>(ctx_->n(), 1));
  for (size_t d = 0; d < depth; ++d) {
    auto v = RandomSlots(1 << 10);
    for (size_t i = 0; i < expected.size(); ++i) {
      expected[i] = t.MulMod(expected[i], v[i]);
    }
    auto next = evaluator_->MultiplyRelin(acc, EncryptVec(v), rk_);
    ASSERT_TRUE(next.ok()) << next.status();
    acc = std::move(next).value();
  }
  EXPECT_EQ(acc.level, 0u);
  EXPECT_EQ(DecryptVec(acc), expected);
}

TEST_F(BgvTest, NoiseBudgetDecreasesWithMultiplication) {
  Ciphertext ct = EncryptVec(RandomSlots());
  auto fresh = decryptor_->NoiseBudgetBits(ct);
  ASSERT_TRUE(fresh.ok());
  auto prod = evaluator_->Multiply(ct, ct);
  ASSERT_TRUE(prod.ok());
  ASSERT_TRUE(evaluator_->RelinearizeInplace(&*prod, rk_).ok());
  auto after = decryptor_->NoiseBudgetBits(prod.value());
  ASSERT_TRUE(after.ok());
  EXPECT_LT(after.value(), fresh.value());
}

TEST_F(BgvTest, RotateRowsShiftsSlotsLeft) {
  std::vector<uint64_t> v(ctx_->n());
  std::iota(v.begin(), v.end(), 0);
  Ciphertext ct = EncryptVec(v);
  ASSERT_TRUE(evaluator_->RotateRowsInplace(&ct, 1, gk_).ok());
  auto got = DecryptVec(ct);
  const size_t row = ctx_->row_size();
  for (size_t i = 0; i < row; ++i) {
    EXPECT_EQ(got[i], v[(i + 1) % row]) << "row0 slot " << i;
    EXPECT_EQ(got[row + i], v[row + (i + 1) % row]) << "row1 slot " << i;
  }
}

TEST_F(BgvTest, RotateRowsNegativeStepShiftsRight) {
  std::vector<uint64_t> v(ctx_->n());
  std::iota(v.begin(), v.end(), 0);
  Ciphertext ct = EncryptVec(v);
  ASSERT_TRUE(evaluator_->RotateRowsInplace(&ct, -1, gk_).ok());
  auto got = DecryptVec(ct);
  const size_t row = ctx_->row_size();
  for (size_t i = 0; i < row; ++i) {
    EXPECT_EQ(got[i], v[(i + row - 1) % row]);
  }
}

TEST_F(BgvTest, RotateByCompositeStepViaPowerOfTwoKeys) {
  std::vector<uint64_t> v(ctx_->n());
  std::iota(v.begin(), v.end(), 0);
  Ciphertext ct = EncryptVec(v);
  ASSERT_TRUE(evaluator_->RotateRowsInplace(&ct, 5, gk_).ok());
  auto got = DecryptVec(ct);
  const size_t row = ctx_->row_size();
  for (size_t i = 0; i < row; ++i) {
    EXPECT_EQ(got[i], v[(i + 5) % row]);
  }
}

TEST_F(BgvTest, RotateColumnsSwapsRows) {
  std::vector<uint64_t> v(ctx_->n());
  std::iota(v.begin(), v.end(), 0);
  Ciphertext ct = EncryptVec(v);
  ASSERT_TRUE(evaluator_->RotateColumnsInplace(&ct, gk_).ok());
  auto got = DecryptVec(ct);
  const size_t row = ctx_->row_size();
  for (size_t i = 0; i < row; ++i) {
    EXPECT_EQ(got[i], v[row + i]);
    EXPECT_EQ(got[row + i], v[i]);
  }
}

TEST_F(BgvTest, FoldRowsComputesBlockSums) {
  const size_t block = 8;
  auto v = RandomSlots(1 << 10);
  Ciphertext ct = EncryptVec(v);
  ASSERT_TRUE(evaluator_->FoldRowsInplace(&ct, block, gk_).ok());
  auto got = DecryptVec(ct);
  const size_t row = ctx_->row_size();
  const uint64_t t = ctx_->t();
  // After folding, slot j holds sum of v[j..j+block-1] (cyclic in the row).
  for (size_t r = 0; r < 2; ++r) {
    for (size_t j = 0; j < row; j += block) {
      uint64_t expected = 0;
      for (size_t b = 0; b < block; ++b) {
        expected = AddMod(expected, v[r * row + (j + b) % row], t);
      }
      EXPECT_EQ(got[r * row + j], expected) << "row " << r << " block " << j;
    }
  }
}

TEST_F(BgvTest, RotationAfterMultiplicationStillCorrect) {
  auto a = RandomSlots(1 << 9);
  auto b = RandomSlots(1 << 9);
  auto prod = evaluator_->MultiplyRelin(EncryptVec(a), EncryptVec(b), rk_);
  ASSERT_TRUE(prod.ok());
  Ciphertext ct = std::move(prod).value();
  ASSERT_TRUE(evaluator_->RotateRowsInplace(&ct, 2, gk_).ok());
  auto got = DecryptVec(ct);
  Modulus t(ctx_->t());
  const size_t row = ctx_->row_size();
  for (size_t i = 0; i < row; ++i) {
    EXPECT_EQ(got[i], t.MulMod(a[(i + 2) % row], b[(i + 2) % row]));
  }
}

TEST_F(BgvTest, MissingGaloisKeyIsReported) {
  GaloisKeys empty;
  Ciphertext ct = EncryptVec(RandomSlots());
  Status s = evaluator_->ApplyGaloisInplace(&ct, 3, empty);
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST_F(BgvTest, TransparentMultiplicationsRejected) {
  Ciphertext ct = EncryptVec(RandomSlots());
  EXPECT_FALSE(evaluator_->MultiplyScalarInplace(&ct, 0).ok());
  Plaintext zero;
  zero.coeffs.assign(ctx_->n(), 0);
  EXPECT_FALSE(evaluator_->MultiplyPlainInplace(&ct, zero).ok());
}

}  // namespace
}  // namespace bgv
}  // namespace sknn
