// Tests for the split key-switching stack (DESIGN.md §3.2): the
// coefficient-form Galois chain, fold-vs-naive equivalence, constant
// addends, and digests pinning every evaluator output. The tests below assert polynomial
// equality, not just decode equality, wherever that invariant holds.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "bgv/context.h"
#include "bgv/decryptor.h"
#include "bgv/encoder.h"
#include "bgv/encryptor.h"
#include "bgv/evaluator.h"
#include "bgv/keys.h"
#include "bgv/serialization.h"
#include "bgv/symmetric.h"
#include "common/rng.h"
#include "common/serial.h"
#include "common/xxhash.h"
#include "core/client.h"
#include "core/deployment.h"
#include "core/exchange.h"
#include "core/party_a.h"
#include "core/party_b.h"
#include "data/generators.h"

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

// AddScalarInplace adds the constant straight into c0's NTT slots; it must
// equal adding the encoded scalar polynomial bit for bit, at every level,
// on fresh (scale 1) and mod-switched (scale != 1) ciphertexts.
TEST_F(EvaluatorHoistingTest, AddScalarMatchesEncodedScalarAtEveryLevel) {
  const uint64_t t = ctx_->t();
  const Ciphertext top = EncryptRamp();
  for (size_t level = 0; level <= ctx_->max_level(); ++level) {
    SCOPED_TRACE(level);
    Ciphertext switched = top;
    ASSERT_TRUE(evaluator_->ModSwitchToLevelInplace(&switched, level).ok());
    if (level < ctx_->max_level()) {
      ASSERT_NE(switched.scale, 1u);
    }
    auto fresh = encryptor_->EncryptAtLevel(encoder_->EncodeScalar(3), level);
    ASSERT_TRUE(fresh.ok());
    ASSERT_EQ(fresh->scale, 1u);
    for (const Ciphertext& ct : {fresh.value(), switched}) {
      for (uint64_t c : {uint64_t{0}, uint64_t{1}, t / 2, t - 1}) {
        SCOPED_TRACE(c);
        Ciphertext plain = ct;
        ASSERT_TRUE(
            evaluator_->AddPlainInplace(&plain, encoder_->EncodeScalar(c))
                .ok());
        Ciphertext scalar = ct;
        ASSERT_TRUE(evaluator_->AddScalarInplace(&scalar, c).ok());
        ExpectSameCiphertext(scalar, plain);
        EXPECT_EQ(scalar.noise_bits, plain.noise_bits);
      }
    }
  }
  Ciphertext ct = top;
  EXPECT_FALSE(evaluator_->AddScalarInplace(&ct, t).ok());
}

uint64_t Digest(const ByteSink& sink) {
  return Xxh64(sink.bytes().data(), sink.bytes().size(), 0);
}

// A ciphertext's wire bytes plus its noise estimate, so a digest pins both
// the polynomials and the noise model's bookkeeping.
void WritePinned(const Ciphertext& ct, ByteSink* sink) {
  WriteCiphertext(ct, sink);
  uint64_t noise_bits;
  std::memcpy(&noise_bits, &ct.noise_bits, sizeof(noise_bits));
  sink->WriteU64(noise_bits);
}

// Party A's protocol outputs for one query on the toy preset: the
// serialized distance ciphertexts (message 2) and results (message 4).
uint64_t PartyADigest(core::Layout layout, size_t threads) {
  core::ProtocolConfig cfg;
  cfg.layout = layout;
  cfg.preset = SecurityPreset::kToy;
  cfg.dims = layout == core::Layout::kPacked ? 3 : 2;
  cfg.k = layout == core::Layout::kPacked ? 3 : 2;
  cfg.poly_degree = 3;
  cfg.levels = cfg.MinimumLevels();
  cfg.threads = threads;
  const data::Dataset dataset = data::UniformDataset(
      layout == core::Layout::kPacked ? 600 : 40, cfg.dims, 15, 61);
  auto d = core::Deployment::Derive(cfg, dataset, 62, /*role_a=*/true);
  EXPECT_TRUE(d.ok()) << d.status();
  if (!d.ok()) return 0;
  core::PartyA a(d->ctx, cfg, d->layout, d->pk, d->relin, d->galois,
                 d->party_a_seed);
  EXPECT_TRUE(a.LoadEncryptedDatabase(d->encrypted_db).ok());
  core::PartyB b(d->ctx, cfg, d->layout, d->sk, d->pk, d->party_b_seed);
  core::Client client(d->ctx, cfg, d->layout, d->pk, d->sk, d->client_seed);
  auto query_ct = client.EncryptQuery(data::UniformQuery(cfg.dims, 15, 63));
  EXPECT_TRUE(query_ct.ok()) << query_ct.status();
  auto query = a.StartQuery(query_ct.value());
  EXPECT_TRUE(query.ok()) << query.status();
  if (!query.ok()) return 0;
  ByteSink sink;
  for (const Ciphertext& ct : (*query)->distances()) {
    const std::vector<uint8_t> bytes = core::CtToBytes(ct);
    sink.WriteBytes(bytes.data(), bytes.size());
  }
  auto k = b.FindNeighbours((*query)->distances(), cfg.k);
  EXPECT_TRUE(k.ok()) << k.status();
  EXPECT_TRUE((*query)->BeginReturnPhase(k.value()).ok());
  for (size_t j = 0; j < k.value(); ++j) {
    auto row = b.EmitIndicatorsCompressedForResult(j);
    EXPECT_TRUE(row.ok()) << row.status();
    for (size_t pos = 0; pos < row->size(); ++pos) {
      auto indicator = ExpandSeeded(*d->ctx, (*row)[pos]);
      EXPECT_TRUE(indicator.ok());
      EXPECT_TRUE((*query)->AbsorbIndicator(j, pos, indicator.value()).ok());
    }
  }
  auto results = core::FinalizeResults(k.value(), query->get());
  EXPECT_TRUE(results.ok()) << results.status();
  for (const std::vector<uint8_t>& bytes : results.value()) {
    sink.WriteBytes(bytes.data(), bytes.size());
  }
  return Digest(sink);
}

// Pins, bit for bit, Party A's protocol outputs (both layouts, inline and
// pooled) and every evaluator path that applies a plaintext, a constant or
// a Galois hop at the bench preset, so any change to a ciphertext, a noise
// estimate or a wire byte shows here.
TEST_F(EvaluatorHoistingTest, OutputsArePinned) {
  for (size_t threads : {size_t{1}, core::ProtocolConfig().threads}) {
    SCOPED_TRACE(threads);
    EXPECT_EQ(PartyADigest(core::Layout::kPacked, threads),
              0x9257caf10dccf412ull)
        << "packed";
    EXPECT_EQ(PartyADigest(core::Layout::kPerPoint, threads),
              0x4361c6e8606cd762ull)
        << "per-point";
  }

  auto params = BgvParams::Create(SecurityPreset::kBench, 4, 33);
  ASSERT_TRUE(params.ok());
  auto ctx = BgvContext::Create(params.value()).value();
  Chacha20Rng rng(uint64_t{99});
  KeyGenerator keygen(ctx, &rng);
  const SecretKey sk = keygen.GenerateSecretKey();
  const PublicKey pk = keygen.GeneratePublicKey(sk);
  const RelinKeys rk = keygen.GenerateRelinKeys(sk);
  const GaloisKeys gk = keygen.GeneratePowerOfTwoRotationKeys(sk);
  BatchEncoder encoder(ctx);
  Encryptor encryptor(ctx, pk, &rng);
  Evaluator ev(ctx);
  const uint64_t t = ctx->t();
  std::vector<uint64_t> slots(ctx->n());
  for (size_t i = 0; i < slots.size(); ++i) slots[i] = (i * 7919 + 3) % t;
  const Plaintext full = encoder.Encode(slots).value();
  const Ciphertext fresh = encryptor.Encrypt(full).value();
  // One level down the ciphertext carries a scale other than 1.
  Ciphertext lower = fresh;
  ASSERT_TRUE(ev.ModSwitchToNextInplace(&lower).ok());
  ASSERT_NE(lower.scale, 1u);

  ByteSink sink;
  Ciphertext ct = fresh;
  ASSERT_TRUE(ev.MultiplyPlainInplace(&ct, full).ok());
  WritePinned(ct, &sink);
  ct = lower;
  ASSERT_TRUE(ev.AddPlainInplace(&ct, full).ok());
  WritePinned(ct, &sink);
  for (uint64_t c : {uint64_t{0}, uint64_t{5}, t / 2, t - 1}) {
    ct = lower;
    ASSERT_TRUE(ev.AddPlainInplace(&ct, encoder.EncodeScalar(c)).ok());
    WritePinned(ct, &sink);
  }
  ct = fresh;
  ASSERT_TRUE(ev.FoldRowsInplace(&ct, 8, gk).ok());
  WritePinned(ct, &sink);
  const std::vector<uint64_t> hops = {ctx->GaloisEltForRotation(4),
                                      ctx->GaloisEltForColumnSwap(),
                                      ctx->GaloisEltForRotation(-2)};
  for (size_t h = 1; h <= hops.size(); ++h) {
    ct = lower;
    ASSERT_TRUE(ev.ApplyGaloisChainInplace(
                      &ct, {hops.begin(), hops.begin() + h}, gk)
                    .ok());
    WritePinned(ct, &sink);
  }
  ct = fresh;
  ASSERT_TRUE(ev.RotateRowsInplace(&ct, 1, gk).ok());
  WritePinned(ct, &sink);
  auto product = ev.Multiply(fresh, fresh);
  ASSERT_TRUE(product.ok());
  ct = std::move(product).value();
  ASSERT_TRUE(ev.RelinearizeInplace(&ct, rk).ok());
  WritePinned(ct, &sink);
  EXPECT_EQ(Digest(sink), 0xe4278ddecd0e30b6ull) << "bench evaluator";
}

}  // namespace
}  // namespace bgv
}  // namespace sknn
