// Bit-identity of the evaluator's rescales against the coefficient-form
// reference in rescale_reference.h: ModSwitchToNextInplace (NTT-domain),
// RelinearizeInplace and ApplyGaloisInplace (NTT-domain mod-down by the
// special prime) at every level, on the toy and bench rings, for 2- and
// 3-part ciphertexts, plus ciphertexts whose dropped limb puts the rounding
// correction on the centering boundary.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "bgv/context.h"
#include "bgv/encoder.h"
#include "bgv/encryptor.h"
#include "bgv/evaluator.h"
#include "bgv/keys.h"
#include "common/rng.h"
#include "rescale_reference.h"

namespace sknn {
namespace bgv {
namespace {

void ExpectSameCiphertext(const Ciphertext& got, const Ciphertext& want) {
  ASSERT_EQ(got.c.size(), want.c.size());
  EXPECT_EQ(got.level, want.level);
  EXPECT_EQ(got.scale, want.scale);
  for (size_t i = 0; i < got.c.size(); ++i) {
    EXPECT_TRUE(got.c[i] == want.c[i]) << "part " << i;
  }
}

class RescaleReferenceTest : public ::testing::TestWithParam<SecurityPreset> {
 protected:
  void SetUp() override {
    ctx_ = BgvContext::Create(BgvParams::Create(GetParam()).value()).value();
    rng_ = std::make_unique<Chacha20Rng>(uint64_t{2718});
    KeyGenerator keygen(ctx_, rng_.get());
    sk_ = keygen.GenerateSecretKey();
    pk_ = keygen.GeneratePublicKey(sk_);
    rk_ = keygen.GenerateRelinKeys(sk_);
    elts_ = {ctx_->GaloisEltForRotation(1), ctx_->GaloisEltForColumnSwap()};
    gk_ = keygen.GenerateGaloisKeys(sk_, elts_);
    evaluator_ = std::make_unique<Evaluator>(ctx_);
  }

  Ciphertext EncryptRandom() {
    std::vector<uint64_t> values(ctx_->n());
    for (uint64_t& v : values) v = rng_->UniformBelow(ctx_->t());
    BatchEncoder encoder(ctx_);
    Encryptor encryptor(ctx_, pk_, rng_.get());
    return encryptor.Encrypt(encoder.Encode(values).value()).value();
  }

  // A `parts`-part ciphertext at `level` with uniform residues, except
  // that the first coefficients of the last limb make the rounding
  // correction r = [last·t^{-1}]_q hit 0, 1, the centering boundary
  // floor(q/2) and its successor, and q-1.
  Ciphertext CraftedAtBoundary(size_t level, size_t parts) {
    const RnsBase& base = ctx_->key_base();
    const uint64_t q_last = base.modulus(level).value();
    const uint64_t t_mod = ctx_->t() % q_last;
    const uint64_t targets[] = {0, 1, q_last >> 1, (q_last >> 1) + 1,
                                q_last - 1};
    Ciphertext ct;
    ct.level = level;
    for (size_t k = 0; k < parts; ++k) {
      RnsPoly p = ZeroPoly(ctx_->n(), level + 1, /*ntt_form=*/false);
      for (size_t j = 0; j <= level; ++j) {
        std::vector<uint64_t> residues;
        rng_->SampleUniformMod(base.modulus(j).value(), ctx_->n(), &residues);
        std::copy(residues.begin(), residues.end(), p.comp(j));
      }
      for (size_t c = 0; c < std::size(targets); ++c) {
        p.comp(level)[c + 7 * k] = MulModSlow(targets[c], t_mod, q_last);
      }
      ToNttInplace(&p, base);
      ct.c.push_back(std::move(p));
    }
    return ct;
  }

  std::shared_ptr<const BgvContext> ctx_;
  std::unique_ptr<Chacha20Rng> rng_;
  SecretKey sk_;
  PublicKey pk_;
  RelinKeys rk_;
  GaloisKeys gk_;
  std::vector<uint64_t> elts_;
  std::unique_ptr<Evaluator> evaluator_;
};

TEST_P(RescaleReferenceTest, EveryRescaleMatchesReferenceAtEveryLevel) {
  Ciphertext ct = EncryptRandom();
  for (size_t level = ctx_->max_level();; --level) {
    SCOPED_TRACE("level " + std::to_string(level));
    ASSERT_EQ(ct.level, level);
    Ciphertext product = evaluator_->Multiply(ct, ct).value();

    Ciphertext relin = product;
    ASSERT_TRUE(evaluator_->RelinearizeInplace(&relin, rk_).ok());
    ExpectSameCiphertext(relin, ReferenceRelinearize(*ctx_, product, rk_));

    for (uint64_t elt : elts_) {
      SCOPED_TRACE("galois " + std::to_string(elt));
      Ciphertext rotated = ct;
      ASSERT_TRUE(evaluator_->ApplyGaloisInplace(&rotated, elt, gk_).ok());
      ExpectSameCiphertext(rotated,
                           ReferenceApplyGalois(*ctx_, ct, elt, gk_));
    }

    if (level == 0) break;
    for (const Ciphertext* in : {&ct, &product}) {
      SCOPED_TRACE(std::to_string(in->size()) + " parts");
      Ciphertext switched = *in;
      ASSERT_TRUE(evaluator_->ModSwitchToNextInplace(&switched).ok());
      ExpectSameCiphertext(switched, ReferenceModSwitchToNext(*ctx_, *in));
    }
    ASSERT_TRUE(evaluator_->ModSwitchToNextInplace(&ct).ok());
  }
}

TEST_P(RescaleReferenceTest, ModSwitchMatchesReferenceOnCenteringBoundary) {
  for (size_t level = 1; level <= ctx_->max_level(); ++level) {
    for (size_t parts : {2, 3}) {
      SCOPED_TRACE("level " + std::to_string(level) + ", " +
                   std::to_string(parts) + " parts");
      const Ciphertext ct = CraftedAtBoundary(level, parts);
      Ciphertext switched = ct;
      ASSERT_TRUE(evaluator_->ModSwitchToNextInplace(&switched).ok());
      ExpectSameCiphertext(switched, ReferenceModSwitchToNext(*ctx_, ct));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Rings, RescaleReferenceTest,
                         ::testing::Values(SecurityPreset::kToy,
                                           SecurityPreset::kBench),
                         [](const auto& info) {
                           return info.param == SecurityPreset::kToy
                                      ? std::string("Toy")
                                      : std::string("Bench");
                         });

}  // namespace
}  // namespace bgv
}  // namespace sknn
