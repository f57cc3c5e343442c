#include "bgv/serialization.h"

#include <gtest/gtest.h>

#include "bgv/decryptor.h"
#include "bgv/encoder.h"
#include "bgv/encryptor.h"
#include "bgv/evaluator.h"
#include "common/rng.h"

namespace sknn {
namespace bgv {
namespace {

class BgvSerializationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto params = BgvParams::CreateCustom(256, 20, 3, 45, 50);
    ASSERT_TRUE(params.ok());
    auto ctx = BgvContext::Create(params.value());
    ASSERT_TRUE(ctx.ok());
    ctx_ = ctx.value();
    rng_ = std::make_unique<Chacha20Rng>(uint64_t{5150});
    KeyGenerator keygen(ctx_, rng_.get());
    sk_ = keygen.GenerateSecretKey();
    pk_ = keygen.GeneratePublicKey(sk_);
    encoder_ = std::make_unique<BatchEncoder>(ctx_);
    encryptor_ = std::make_unique<Encryptor>(ctx_, pk_, rng_.get());
    decryptor_ = std::make_unique<Decryptor>(ctx_, sk_);
    evaluator_ = std::make_unique<Evaluator>(ctx_);
  }

  std::shared_ptr<const BgvContext> ctx_;
  std::unique_ptr<Chacha20Rng> rng_;
  SecretKey sk_;
  PublicKey pk_;
  std::unique_ptr<BatchEncoder> encoder_;
  std::unique_ptr<Encryptor> encryptor_;
  std::unique_ptr<Decryptor> decryptor_;
  std::unique_ptr<Evaluator> evaluator_;
};

TEST_F(BgvSerializationTest, CiphertextRoundtripDecrypts) {
  std::vector<uint64_t> v(ctx_->n());
  for (size_t i = 0; i < v.size(); ++i) v[i] = i % 1000;
  auto ct = encryptor_->Encrypt(encoder_->Encode(v).value()).value();
  ByteSink sink;
  WriteCiphertext(ct, &sink);
  ByteSource src(sink.TakeBytes());
  auto back = ReadCiphertext(&src);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(src.AtEnd());
  EXPECT_EQ(back->level, ct.level);
  EXPECT_EQ(back->scale, ct.scale);
  auto pt = decryptor_->Decrypt(back.value());
  ASSERT_TRUE(pt.ok());
  EXPECT_EQ(encoder_->Decode(pt.value()), v);
}

TEST_F(BgvSerializationTest, ModSwitchedCiphertextRoundtrip) {
  std::vector<uint64_t> v = {1, 2, 3};
  auto ct = encryptor_->Encrypt(encoder_->Encode(v).value()).value();
  ASSERT_TRUE(evaluator_->ModSwitchToLevelInplace(&ct, 0).ok());
  ByteSink sink;
  WriteCiphertext(ct, &sink);
  ByteSource src(sink.TakeBytes());
  auto back = ReadCiphertext(&src);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->scale, ct.scale);  // scale travels with the ciphertext
  auto pt = decryptor_->Decrypt(back.value());
  ASSERT_TRUE(pt.ok());
  auto decoded = encoder_->Decode(pt.value());
  EXPECT_EQ(decoded[0], 1u);
  EXPECT_EQ(decoded[2], 3u);
}

TEST_F(BgvSerializationTest, TruncatedCiphertextRejected) {
  auto ct = encryptor_->Encrypt(encoder_->EncodeScalar(1)).value();
  ByteSink sink;
  WriteCiphertext(ct, &sink);
  std::vector<uint8_t> bytes = sink.TakeBytes();
  bytes.resize(bytes.size() / 2);
  ByteSource src(std::move(bytes));
  EXPECT_FALSE(ReadCiphertext(&src).ok());
}

TEST_F(BgvSerializationTest, GarbageHeaderRejected) {
  ByteSink sink;
  sink.WriteU64(3);                  // level
  sink.WriteU64(1);                  // scale
  sink.WriteU64(99);                 // absurd size
  ByteSource src(sink.TakeBytes());
  EXPECT_FALSE(ReadCiphertext(&src).ok());
}

TEST_F(BgvSerializationTest, ImplausibleComponentCountRejected) {
  ByteSink sink;
  sink.WriteU64(256);  // n
  sink.WriteU8(1);     // ntt
  sink.WriteU64(1000);  // comps > 64
  ByteSource src(sink.TakeBytes());
  EXPECT_FALSE(ReadRnsPoly(&src).ok());
}

}  // namespace
}  // namespace bgv
}  // namespace sknn
