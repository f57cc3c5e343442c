// Tests for the split key-switching stack (DESIGN.md §3.2): the
// coefficient-form Galois chain, fold-vs-naive equivalence, and the
// prepared plaintext-operand cache. The tests below assert polynomial
// equality, not just decode equality, wherever that invariant holds.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

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

class EvaluatorHoistingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto params = BgvParams::CreateCustom(256, 20, 4, 45, 50);
    ASSERT_TRUE(params.ok());
    ctx_ = BgvContext::Create(params.value()).value();
    rng_ = std::make_unique<Chacha20Rng>(uint64_t{4242});
    KeyGenerator keygen(ctx_, rng_.get());
    sk_ = keygen.GenerateSecretKey();
    pk_ = keygen.GeneratePublicKey(sk_);
    gk_ = keygen.GeneratePowerOfTwoRotationKeys(sk_);
    encoder_ = std::make_unique<BatchEncoder>(ctx_);
    encryptor_ = std::make_unique<Encryptor>(ctx_, pk_, rng_.get());
    decryptor_ = std::make_unique<Decryptor>(ctx_, sk_);
    evaluator_ = std::make_unique<Evaluator>(ctx_);
  }

  Ciphertext EncryptRamp() {
    std::vector<uint64_t> values(ctx_->n());
    for (size_t i = 0; i < values.size(); ++i) values[i] = i % ctx_->t();
    return encryptor_->Encrypt(encoder_->Encode(values).value()).value();
  }

  std::vector<uint64_t> Decode(const Ciphertext& ct) {
    return encoder_->Decode(decryptor_->Decrypt(ct).value());
  }

  static void ExpectSameCiphertext(const Ciphertext& a, const Ciphertext& b) {
    ASSERT_EQ(a.c.size(), b.c.size());
    EXPECT_EQ(a.level, b.level);
    EXPECT_EQ(a.scale, b.scale);
    for (size_t i = 0; i < a.c.size(); ++i) EXPECT_TRUE(a.c[i] == b.c[i]);
  }

  std::shared_ptr<const BgvContext> ctx_;
  std::unique_ptr<Chacha20Rng> rng_;
  SecretKey sk_;
  PublicKey pk_;
  GaloisKeys gk_;
  std::unique_ptr<BatchEncoder> encoder_;
  std::unique_ptr<Encryptor> encryptor_;
  std::unique_ptr<Decryptor> decryptor_;
  std::unique_ptr<Evaluator> evaluator_;
};

// A chain of automorphisms (the permute/absorb sweep shape, including the
// column swap) must equal the same automorphisms applied one by one.
TEST_F(EvaluatorHoistingTest, GaloisChainMatchesSequentialHops) {
  Ciphertext ct = EncryptRamp();
  std::vector<uint64_t> elts = {
      ctx_->GaloisEltForRotation(1), ctx_->GaloisEltForRotation(4),
      ctx_->GaloisEltForColumnSwap(), ctx_->GaloisEltForRotation(-2)};
  Ciphertext chained = ct;
  ASSERT_TRUE(
      evaluator_->ApplyGaloisChainInplace(&chained, elts, gk_).ok());
  Ciphertext seq = ct;
  for (uint64_t elt : elts) {
    ASSERT_TRUE(evaluator_->ApplyGaloisInplace(&seq, elt, gk_).ok());
  }
  EXPECT_EQ(Decode(chained), Decode(seq));
}

TEST_F(EvaluatorHoistingTest, GaloisChainRejectsMissingKey) {
  Ciphertext ct = EncryptRamp();
  // Only power-of-two steps have keys; the exact element for step 3 does
  // not.
  const uint64_t elt = ctx_->GaloisEltForRotation(3);
  ASSERT_FALSE(gk_.Has(elt));
  Status s = evaluator_->ApplyGaloisChainInplace(&ct, {elt}, gk_);
  EXPECT_FALSE(s.ok());
}

// Row rotations through the power-of-two key set: every step decomposes
// into signed ±2^i hops, never more than popcount(step) of them, and the
// chain decrypts to the plaintext rotation of both rows.
TEST_F(EvaluatorHoistingTest, SignedDigitRotationChainsAreExactAndShort) {
  const size_t row = ctx_->row_size();
  const Ciphertext ct = EncryptRamp();
  const std::vector<uint64_t> values = Decode(ct);
  size_t hops = 0;
  size_t binary_hops = 0;
  for (size_t step = 0; step < row; ++step) {
    SCOPED_TRACE(step);
    const std::vector<uint64_t> elts =
        evaluator_->RotationGaloisElts(static_cast<int>(step), gk_);
    const size_t bits = static_cast<size_t>(std::popcount(step));
    EXPECT_LE(elts.size(), bits);
    hops += elts.size();
    binary_hops += bits;
    Ciphertext rotated = ct;
    ASSERT_TRUE(evaluator_->ApplyGaloisChainInplace(&rotated, elts, gk_).ok());
    std::vector<uint64_t> expected(values.size());
    for (size_t r = 0; r < 2; ++r) {
      for (size_t j = 0; j < row; ++j) {
        expected[r * row + j] = values[r * row + (j + step) % row];
      }
    }
    EXPECT_EQ(Decode(rotated), expected);
  }
  // The signed digits pay off on runs of ones (steps 3, 7, 15, ...).
  EXPECT_LT(hops, binary_hops);
}

// FoldRows must equal the naive rotate-and-add ladder.
TEST_F(EvaluatorHoistingTest, FoldRowsMatchesNaiveRotateAdd) {
  for (size_t block : {size_t{2}, size_t{8}, ctx_->row_size()}) {
    Ciphertext folded = EncryptRamp();
    Ciphertext naive = folded;
    ASSERT_TRUE(evaluator_->FoldRowsInplace(&folded, block, gk_).ok());
    for (size_t s = 1; s < block; s <<= 1) {
      Ciphertext rot = naive;
      ASSERT_TRUE(
          evaluator_->RotateRowsInplace(&rot, static_cast<int>(s), gk_).ok());
      ASSERT_TRUE(evaluator_->AddInplace(&naive, rot).ok());
    }
    EXPECT_EQ(Decode(folded), Decode(naive)) << "block " << block;
  }
}

// A fold whose power-of-two key set has a gap must fail before it touches
// the ciphertext, as the Galois chain does.
TEST_F(EvaluatorHoistingTest, FoldRowsRejectsMissingKeyUntouched) {
  GaloisKeys partial;
  for (int step : {1, 4}) {
    const uint64_t elt = ctx_->GaloisEltForRotation(step);
    partial.keys.emplace(elt, gk_.keys.at(elt));
  }
  Ciphertext ct = EncryptRamp();
  const Ciphertext before = ct;
  Status s = evaluator_->FoldRowsInplace(&ct, 8, partial);
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  ExpectSameCiphertext(ct, before);
}

// The prepared-operand overloads must be bit-identical to the plain
// overloads (same lift, same NTT, same pointwise ops).
TEST_F(EvaluatorHoistingTest, MultiplyOperandMatchesPlainOverload) {
  std::vector<uint64_t> values(ctx_->n());
  for (size_t i = 0; i < values.size(); ++i) values[i] = (3 * i + 1) % 17;
  Plaintext pt = encoder_->Encode(values).value();
  Ciphertext ct = EncryptRamp();

  Ciphertext direct = ct;
  ASSERT_TRUE(evaluator_->MultiplyPlainInplace(&direct, pt).ok());

  auto op = evaluator_->MakeMultiplyOperand(pt, ct.level);
  ASSERT_TRUE(op.ok());
  Ciphertext prepared = ct;
  ASSERT_TRUE(evaluator_->MultiplyPlainInplace(&prepared, op.value()).ok());
  ExpectSameCiphertext(direct, prepared);
}

TEST_F(EvaluatorHoistingTest, AddOperandMatchesPlainOverload) {
  Plaintext pt = encoder_->EncodeScalar(9);
  Ciphertext ct = EncryptRamp();
  // Mod-switch once so the ciphertext carries a non-trivial scale — the
  // operand must bake the same correction in.
  ASSERT_TRUE(evaluator_->ModSwitchToNextInplace(&ct).ok());

  Ciphertext direct = ct;
  ASSERT_TRUE(evaluator_->AddPlainInplace(&direct, pt).ok());

  auto op = evaluator_->MakeAddOperand(pt, ct.level, ct.scale);
  ASSERT_TRUE(op.ok());
  Ciphertext prepared = ct;
  ASSERT_TRUE(evaluator_->AddPlainInplace(&prepared, op.value()).ok());
  ExpectSameCiphertext(direct, prepared);
}

TEST_F(EvaluatorHoistingTest, OperandRejectsLevelAndScaleMismatch) {
  Plaintext pt = encoder_->EncodeScalar(2);
  Ciphertext ct = EncryptRamp();
  auto mul_op = evaluator_->MakeMultiplyOperand(pt, ct.level);
  ASSERT_TRUE(mul_op.ok());
  Ciphertext lower = ct;
  ASSERT_TRUE(evaluator_->ModSwitchToNextInplace(&lower).ok());
  EXPECT_FALSE(
      evaluator_->MultiplyPlainInplace(&lower, mul_op.value()).ok());

  auto add_op = evaluator_->MakeAddOperand(pt, lower.level, lower.scale);
  ASSERT_TRUE(add_op.ok());
  Ciphertext wrong_scale = lower;
  wrong_scale.scale = lower.scale + 1;
  EXPECT_FALSE(
      evaluator_->AddPlainInplace(&wrong_scale, add_op.value()).ok());
}

// The cache must hand back the same prepared operand (same pointer) for
// the same key and produce ciphertexts identical to the uncached path.
TEST_F(EvaluatorHoistingTest, PlainOperandCacheReturnsStableIdenticalOperands) {
  PlainOperandCache cache;
  Plaintext pt = encoder_->EncodeScalar(5);
  Ciphertext ct = EncryptRamp();

  auto first = cache.MultiplyOperand(*evaluator_, /*tag=*/7, pt, ct.level);
  ASSERT_TRUE(first.ok());
  auto second = cache.MultiplyOperand(*evaluator_, /*tag=*/7, pt, ct.level);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value(), second.value());  // same cached entry
  EXPECT_EQ(cache.size(), 1u);

  Ciphertext cached = ct;
  ASSERT_TRUE(
      evaluator_->MultiplyPlainInplace(&cached, *first.value()).ok());
  Ciphertext uncached = ct;
  ASSERT_TRUE(evaluator_->MultiplyPlainInplace(&uncached, pt).ok());
  ExpectSameCiphertext(cached, uncached);

  // Distinct tags and levels are distinct entries; Clear empties the map.
  auto other = cache.MultiplyOperand(*evaluator_, /*tag=*/8, pt, ct.level);
  ASSERT_TRUE(other.ok());
  EXPECT_NE(first.value(), other.value());
  EXPECT_EQ(cache.size(), 2u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
}

}  // namespace
}  // namespace bgv
}  // namespace sknn
