// Robustness of every deserializer against malformed input: random bytes,
// truncations of valid encodings, and bit flips must produce Status errors
// or harmless misparses — never crashes, hangs, or giant allocations.
// (Party A consumes bytes produced by Party B and vice versa; in the
// threat model those parties are honest-but-curious, but a production
// system still must not be crashable by a corrupted message.)

#include <gtest/gtest.h>

#include "bgv/context.h"
#include "bgv/encoder.h"
#include "bgv/encryptor.h"
#include "bgv/keys.h"
#include "bgv/serialization.h"
#include "bgv/symmetric.h"
#include "common/rng.h"
#include "net/faulty_link.h"
#include "net/frame.h"
#include "net/resilient_channel.h"

namespace sknn {
namespace bgv {
namespace {

class SerializationRobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto params = BgvParams::CreateCustom(256, 20, 3, 45, 50);
    ASSERT_TRUE(params.ok());
    ctx_ = BgvContext::Create(params.value()).value();
    rng_ = std::make_unique<Chacha20Rng>(uint64_t{31415});
    KeyGenerator keygen(ctx_, rng_.get());
    sk_ = keygen.GenerateSecretKey();
    pk_ = keygen.GeneratePublicKey(sk_);
    encoder_ = std::make_unique<BatchEncoder>(ctx_);
    encryptor_ = std::make_unique<Encryptor>(ctx_, pk_, rng_.get());
  }

  std::vector<uint8_t> ValidCiphertextBytes() {
    auto ct = encryptor_->Encrypt(encoder_->EncodeScalar(5)).value();
    ByteSink sink;
    WriteCiphertext(ct, &sink);
    return sink.TakeBytes();
  }

  std::shared_ptr<const BgvContext> ctx_;
  std::unique_ptr<Chacha20Rng> rng_;
  SecretKey sk_;
  PublicKey pk_;
  std::unique_ptr<BatchEncoder> encoder_;
  std::unique_ptr<Encryptor> encryptor_;
};

TEST_F(SerializationRobustnessTest, RandomBytesNeverCrashCiphertextReader) {
  for (int trial = 0; trial < 200; ++trial) {
    const size_t len = rng_->UniformBelow(256);
    std::vector<uint8_t> junk(len);
    rng_->FillBytes(junk.data(), len);
    ByteSource src(std::move(junk));
    auto result = ReadCiphertext(&src);  // must simply return, ok or not
    (void)result;
  }
}

// No process reads key material any more (every party derives its keys
// locally); what is left of the key-side readers is the seeded-ciphertext
// reader and the RNS-polynomial reader every key encoding was built from.
TEST_F(SerializationRobustnessTest, RandomBytesNeverCrashKeyReaders) {
  for (int trial = 0; trial < 100; ++trial) {
    const size_t len = rng_->UniformBelow(300);
    std::vector<uint8_t> junk(len);
    rng_->FillBytes(junk.data(), len);
    {
      ByteSource src(junk);
      (void)ReadRnsPoly(&src);
    }
    {
      ByteSource src(junk);
      (void)ReadSeededCiphertext(&src);
    }
  }
}

TEST_F(SerializationRobustnessTest, EveryTruncationOfValidCiphertextErrors) {
  std::vector<uint8_t> valid = ValidCiphertextBytes();
  // Sample truncation points across the buffer (checking all ~50k is slow).
  for (size_t cut = 0; cut < valid.size(); cut += 997) {
    std::vector<uint8_t> truncated(valid.begin(),
                                   valid.begin() + static_cast<long>(cut));
    ByteSource src(std::move(truncated));
    EXPECT_FALSE(ReadCiphertext(&src).ok()) << "cut at " << cut;
  }
}

TEST_F(SerializationRobustnessTest, LengthFieldCorruptionIsBounded) {
  // Blow up the claimed vector length: the reader must reject it instead
  // of attempting a giant allocation.
  std::vector<uint8_t> valid = ValidCiphertextBytes();
  // Bytes 16..24 hold the first RnsPoly's n field (level, scale, size come
  // first); overwrite with an absurd value.
  for (size_t pos : {size_t{16}, size_t{17}, size_t{40}}) {
    std::vector<uint8_t> corrupted = valid;
    for (size_t i = 0; i < 8 && pos + i < corrupted.size(); ++i) {
      corrupted[pos + i] = 0xff;
    }
    ByteSource src(std::move(corrupted));
    auto result = ReadCiphertext(&src);
    // Either a clean error or a (harmless) misparse -- never a crash.
    (void)result;
  }
}

TEST_F(SerializationRobustnessTest, ExtraTrailingBytesAreDetectable) {
  std::vector<uint8_t> valid = ValidCiphertextBytes();
  valid.push_back(0xab);
  ByteSource src(std::move(valid));
  auto ct = ReadCiphertext(&src);
  ASSERT_TRUE(ct.ok());
  EXPECT_FALSE(src.AtEnd());
  EXPECT_EQ(src.remaining(), 1u);
}

TEST_F(SerializationRobustnessTest, HugeLengthHeaderIsRejectedBeforeAlloc) {
  // An adversarial header promising the plausibility-check maxima
  // (n = 2^20 ring degree, 64 RNS components = 512 MB of coefficients) on
  // a near-empty buffer must be rejected by the remaining-bytes bound, not
  // answered with a giant allocation.
  ByteSink sink;
  sink.WriteU64(uint64_t{1} << 20);  // n: maximal plausible degree
  sink.WriteU8(0);                   // ntt flag
  sink.WriteU64(64);                 // comps: maximal plausible count
  ByteSource src(sink.TakeBytes());
  auto poly = ReadRnsPoly(&src);
  ASSERT_FALSE(poly.ok());
  EXPECT_EQ(poly.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(poly.status().message().find("remain"), std::string::npos)
      << poly.status();
}

// The four wire messages of PROTOCOL.md (1 query ct, 2 distance ct,
// 3 indicator — seeded form, 4 result ct), each framed and pushed through
// a FaultyLink injecting bit flips and truncations. The contract under
// fuzzing: the frame checksum rejects every corrupted delivery before the
// ciphertext parsers ever see the bytes, and intact deliveries decode to
// the original payload.
TEST_F(SerializationRobustnessTest, ProtocolMessagesSurviveFaultyLinkFuzz) {
  // Message payloads: real encodings of each protocol message type.
  std::vector<std::pair<net::MessageType, std::vector<uint8_t>>> messages;
  messages.emplace_back(net::MessageType::kQuery, ValidCiphertextBytes());
  messages.emplace_back(net::MessageType::kDistances, ValidCiphertextBytes());
  {
    Chacha20Rng seed_rng(uint64_t{999});
    SymmetricEncryptor sym(ctx_, sk_, &seed_rng);
    auto seeded = sym.EncryptSeeded(encoder_->EncodeScalar(3), /*level=*/0);
    ASSERT_TRUE(seeded.ok()) << seeded.status();
    ByteSink sink;
    WriteSeededCiphertext(seeded.value(), &sink);
    messages.emplace_back(net::MessageType::kIndicators, sink.TakeBytes());
  }
  messages.emplace_back(net::MessageType::kResults, ValidCiphertextBytes());

  net::FaultSpec spec;
  spec.flip = 0.3;
  spec.trunc = 0.2;
  net::RetryPolicy policy;
  policy.max_receive_polls = 2;

  int corrupted = 0;
  int delivered = 0;
  for (uint64_t round = 0; round < 50; ++round) {
    net::InMemoryLink raw;
    net::FaultyLink link(raw.a_endpoint(), raw.b_endpoint(), spec, spec,
                         round);
    net::ResilientChannel a(link.a_endpoint(), policy, round, "A");
    net::ResilientChannel b(link.b_endpoint(), policy, round + 1, "B");
    for (const auto& [type, payload] : messages) {
      ASSERT_TRUE(a.SendMessage(type, payload).ok());
      auto received = b.ReceiveMessage(type);
      if (!received.ok()) {
        // Lost or corrupt: must be a typed transient transport error.
        EXPECT_TRUE(received.status().IsTransient() ||
                    received.status().code() ==
                        StatusCode::kFailedPrecondition)
            << received.status();
        ++corrupted;
        // Drop whatever is left on the link and re-align both ends.
        while (raw.b_endpoint()->Receive().ok()) {
        }
        a.ResetEpoch();
        b.ResetEpoch();
        continue;
      }
      ++delivered;
      // Intact delivery: bit-identical payload, parsed by the matching
      // deserializer without error.
      EXPECT_EQ(received.value(), payload);
      ByteSource src(std::move(received).value());
      if (type == net::MessageType::kIndicators) {
        EXPECT_TRUE(ReadSeededCiphertext(&src).ok());
      } else {
        EXPECT_TRUE(ReadCiphertext(&src).ok());
      }
    }
  }
  // At 30%/20% rates the fuzz must exercise both outcomes heavily.
  EXPECT_GT(corrupted, 20);
  EXPECT_GT(delivered, 20);
}

}  // namespace
}  // namespace bgv
}  // namespace sknn
