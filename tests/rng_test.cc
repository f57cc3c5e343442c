#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "bgv/encoder.h"
#include "bgv/encryptor.h"
#include "bgv/keys.h"
#include "bgv/serialization.h"
#include "bgv/symmetric.h"
#include "common/serial.h"
#include "common/xxhash.h"

namespace sknn {
namespace {

std::array<uint32_t, 8> Rfc8439Key() {
  std::array<uint32_t, 8> key;
  for (uint32_t i = 0; i < 8; ++i) {
    // Key bytes 00 01 02 ... 1f, little-endian words.
    key[i] = (4 * i) | ((4 * i + 1) << 8) | ((4 * i + 2) << 16) |
             ((4 * i + 3) << 24);
  }
  return key;
}

// RFC 8439 section 2.3.2 test vector for the ChaCha20 block function.
TEST(ChaCha20Test, Rfc8439BlockVector) {
  const std::array<uint32_t, 8> key = Rfc8439Key();
  std::array<uint32_t, 3> nonce = {0x09000000u, 0x4a000000u, 0x00000000u};
  std::array<uint8_t, 64> block;
  ChaCha20Block(key, 1, nonce, &block);
  const uint8_t expected[64] = {
      0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd,
      0x1f, 0xa3, 0x20, 0x71, 0xc4, 0xc7, 0xd1, 0xf4, 0xc7, 0x33, 0xc0,
      0x68, 0x03, 0x04, 0x22, 0xaa, 0x9a, 0xc3, 0xd4, 0x6c, 0x4e, 0xd2,
      0x82, 0x64, 0x46, 0x07, 0x9f, 0xaa, 0x09, 0x14, 0xc2, 0xd7, 0x05,
      0xd9, 0x8b, 0x02, 0xa2, 0xb5, 0x12, 0x9c, 0xd1, 0xde, 0x16, 0x4e,
      0xb9, 0xcb, 0xd0, 0x83, 0xe8, 0xa2, 0x50, 0x3c, 0x4e};
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(block[static_cast<size_t>(i)], expected[i]) << "byte " << i;
  }
}

// Byte `i` of a block-major word buffer, in keystream (little-endian) order.
uint8_t KeystreamByte(const std::vector<uint32_t>& words, size_t i) {
  return static_cast<uint8_t>(words[i / 4] >> (8 * (i % 4)));
}

// RFC 8439 section 2.4.2: the two-block keystream that encrypts the
// "sunscreen" plaintext (counter 1), as the first two blocks of a batch.
TEST(ChaCha20Test, Rfc8439TwoBlockKeystream) {
  const uint8_t expected[114] = {
      0x22, 0x4f, 0x51, 0xf3, 0x40, 0x1b, 0xd9, 0xe1, 0x2f, 0xde, 0x27, 0x6f,
      0xb8, 0x63, 0x1d, 0xed, 0x8c, 0x13, 0x1f, 0x82, 0x3d, 0x2c, 0x06, 0xe2,
      0x7e, 0x4f, 0xca, 0xec, 0x9e, 0xf3, 0xcf, 0x78, 0x8a, 0x3b, 0x0a, 0xa3,
      0x72, 0x60, 0x0a, 0x92, 0xb5, 0x79, 0x74, 0xcd, 0xed, 0x2b, 0x93, 0x34,
      0x79, 0x4c, 0xba, 0x40, 0xc6, 0x3e, 0x34, 0xcd, 0xea, 0x21, 0x2c, 0x4c,
      0xf0, 0x7d, 0x41, 0xb7, 0x69, 0xa6, 0x74, 0x9f, 0x3f, 0x63, 0x0f, 0x41,
      0x22, 0xca, 0xfe, 0x28, 0xec, 0x4d, 0xc4, 0x7e, 0x26, 0xd4, 0x34, 0x6d,
      0x70, 0xb9, 0x8c, 0x73, 0xf3, 0xe9, 0xc5, 0x3a, 0xc4, 0x0c, 0x59, 0x45,
      0x39, 0x8b, 0x6e, 0xda, 0x1a, 0x83, 0x2c, 0x89, 0xc1, 0x67, 0xea, 0xcd,
      0x90, 0x1d, 0x7e, 0x2b, 0xf3, 0x63};
  const std::array<uint32_t, 3> nonce = {0x00000000u, 0x4a000000u, 0u};
  std::vector<uint32_t> words(16 * kChaCha20BatchBlocks);
  ChaCha20Blocks(Rfc8439Key(), 1, nonce, words.data());
  for (size_t i = 0; i < sizeof(expected); ++i) {
    ASSERT_EQ(KeystreamByte(words, i), expected[i]) << "byte " << i;
  }
}

// The last batch before the 32-bit counter wraps and the first one after
// it (counter 0, nonce[2] advanced, as Chacha20Rng::Refill continues) equal
// single blocks. No stream reaches the wrap in a test.
TEST(ChaCha20Test, BatchesAtCounterWrapMatchSingleBlocks) {
  const std::array<uint32_t, 8> key = Rfc8439Key();
  const uint32_t last = 0u - static_cast<uint32_t>(kChaCha20BatchBlocks);
  std::vector<uint32_t> words(2 * 16 * kChaCha20BatchBlocks);
  ChaCha20Blocks(key, last, {7u, 8u, 9u}, words.data());
  ChaCha20Blocks(key, 0, {7u, 8u, 10u}, words.data() + words.size() / 2);
  std::array<uint32_t, 3> nonce = {7u, 8u, 9u};
  uint32_t counter = last;
  for (size_t b = 0; b < 2 * kChaCha20BatchBlocks; ++b) {
    std::array<uint8_t, 64> block;
    ChaCha20Block(key, counter, nonce, &block);
    for (size_t i = 0; i < 64; ++i) {
      ASSERT_EQ(KeystreamByte(words, 64 * b + i), block[i])
          << "block " << b << " byte " << i;
    }
    if (++counter == 0) ++nonce[2];
  }
}

TEST(Chacha20RngTest, DeterministicForSameSeed) {
  Chacha20Rng a(uint64_t{12345});
  Chacha20Rng b(uint64_t{12345});
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Chacha20RngTest, DifferentSeedsDiffer) {
  Chacha20Rng a(uint64_t{1});
  Chacha20Rng b(uint64_t{2});
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Chacha20RngTest, DifferentStreamsDiffer) {
  Chacha20Rng a(uint64_t{1}, 0);
  Chacha20Rng b(uint64_t{1}, 1);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Chacha20RngTest, ForkProducesIndependentStream) {
  Chacha20Rng a(uint64_t{99});
  Chacha20Rng child = a.Fork(7);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == child.NextU64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Chacha20RngTest, UniformBelowStaysInRange) {
  Chacha20Rng rng(uint64_t{3});
  for (uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull, (1ull << 40)}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.UniformBelow(bound), bound);
    }
  }
}

TEST(Chacha20RngTest, UniformBelowZeroFailsItsCheck) {
  Chacha20Rng rng(uint64_t{3});
  EXPECT_DEATH(rng.UniformBelow(0), "Check failed");
}

TEST(Chacha20RngTest, UniformInRangeInclusive) {
  Chacha20Rng rng(uint64_t{4});
  bool hit_lo = false, hit_hi = false;
  for (int i = 0; i < 2000; ++i) {
    uint64_t v = rng.UniformInRange(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    if (v == 5) hit_lo = true;
    if (v == 8) hit_hi = true;
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(Chacha20RngTest, UniformBelowIsRoughlyUniform) {
  Chacha20Rng rng(uint64_t{5});
  constexpr uint64_t kBuckets = 16;
  constexpr int kSamples = 16000;
  std::array<int, kBuckets> counts{};
  for (int i = 0; i < kSamples; ++i) ++counts[rng.UniformBelow(kBuckets)];
  // Chi-square with 15 dof; 99.9% quantile ~ 37.7.
  double chi2 = 0;
  const double expected = static_cast<double>(kSamples) / kBuckets;
  for (int c : counts) {
    chi2 += (c - expected) * (c - expected) / expected;
  }
  EXPECT_LT(chi2, 37.7);
}

TEST(Chacha20RngTest, TernarySamplesOnlyThreeValues) {
  Chacha20Rng rng(uint64_t{6});
  const uint64_t q = 97;
  std::vector<uint64_t> v;
  rng.SampleTernary(q, 3000, &v);
  int minus = 0, zero = 0, plus = 0;
  for (uint64_t x : v) {
    ASSERT_TRUE(x == 0 || x == 1 || x == q - 1);
    if (x == 0) ++zero;
    if (x == 1) ++plus;
    if (x == q - 1) ++minus;
  }
  EXPECT_GT(zero, 800);
  EXPECT_GT(plus, 800);
  EXPECT_GT(minus, 800);
}

TEST(Chacha20RngTest, GaussianHasExpectedMoments) {
  Chacha20Rng rng(uint64_t{7});
  const double sigma = 3.2;
  std::vector<int64_t> v(20000);
  rng.SampleGaussianInto(GaussianTable(sigma), v.size(), v.data());
  double sum = 0, sumsq = 0;
  for (int64_t x : v) {
    const double c = static_cast<double>(x);
    EXPECT_LE(std::abs(c), 6 * sigma + 1);
    sum += c;
    sumsq += c * c;
  }
  double mean = sum / 20000;
  double var = sumsq / 20000 - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.15);
  EXPECT_NEAR(var, sigma * sigma, 0.8);
}

// Every prime of the toy and bench presets (data primes, special prime and
// the plaintext modulus t).
std::vector<uint64_t> PresetPrimes() {
  std::vector<uint64_t> primes;
  for (bgv::SecurityPreset preset :
       {bgv::SecurityPreset::kToy, bgv::SecurityPreset::kBench}) {
    auto params = bgv::BgvParams::Create(preset);
    EXPECT_TRUE(params.ok());
    primes.insert(primes.end(), params->data_primes.begin(),
                  params->data_primes.end());
    primes.push_back(params->special_prime);
    primes.push_back(params->plain_modulus);
  }
  return primes;
}

TEST(UniformModQTest, ReduceEqualsRemainderAndLimitIsTheRejectionBound) {
  std::vector<uint64_t> moduli = {1, 2, 3, 4, uint64_t{1} << 40,
                                  (uint64_t{1} << 62) - 57, UINT64_MAX};
  for (uint64_t q : PresetPrimes()) moduli.push_back(q);
  Chacha20Rng rng(uint64_t{314});
  for (uint64_t q : moduli) {
    const UniformModQ mod(q);
    // The rejection bound UniformBelow always used.
    ASSERT_EQ(mod.limit(), UINT64_MAX - (UINT64_MAX % q + 1) % q) << q;
    std::vector<uint64_t> words = {0, q - 1, q, 2 * q - 1, UINT64_MAX,
                                   mod.limit()};
    // The top copy of [0, q) below the limit: all of it for small q, its
    // two ends otherwise.
    const uint64_t top = mod.limit() - (q - 1);
    const uint64_t span = std::min<uint64_t>(q, 1 << 16);
    for (uint64_t i = 0; i < span; ++i) {
      words.push_back(top + i);
      words.push_back(mod.limit() - i);
    }
    for (int i = 0; i < 100000; ++i) words.push_back(rng.NextU64());
    for (uint64_t v : words) ASSERT_EQ(mod.Reduce(v), v % q) << v << " " << q;
  }
}

// The double-CDF binary search the Gaussian sampler used before its
// threshold table: the index of the first cdf entry >= r * 2^-53 * total.
int64_t ReferenceGaussian(double sigma, uint64_t r) {
  const int tail = static_cast<int>(std::ceil(6.0 * sigma));
  std::vector<double> cdf(static_cast<size_t>(2 * tail + 1));
  double acc = 0.0;
  for (int x = -tail; x <= tail; ++x) {
    acc += std::exp(-(static_cast<double>(x) * x) / (2.0 * sigma * sigma));
    cdf[static_cast<size_t>(x + tail)] = acc;
  }
  const double u = static_cast<double>(r) * 0x1.0p-53 * acc;
  size_t lo = 0, hi = cdf.size() - 1;
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (cdf[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return static_cast<int64_t>(lo) - tail;
}

TEST(GaussianTableTest, ThresholdsSampleWhatTheDoubleCdfSearchDoes) {
  constexpr uint64_t kR = uint64_t{1} << 53;
  for (double sigma : {3.2, 1.0, 0.4, 10.5}) {
    const GaussianTable table(sigma);
    EXPECT_EQ(table.tail(), static_cast<int64_t>(std::ceil(6.0 * sigma)));
    const std::vector<uint64_t>& th = table.thresholds();
    ASSERT_TRUE(std::is_sorted(th.begin(), th.end()));
    ASSERT_EQ(th.back(), kR);  // the top of the support is never exceeded
    for (size_t j = 0; j < th.size(); ++j) {
      for (uint64_t r : {th[j] - 1, th[j]}) {
        if (r >= kR) r = kR - 1;
        ASSERT_EQ(table.Sample(r), ReferenceGaussian(sigma, r))
            << "sigma " << sigma << " j " << j << " r " << r;
      }
    }
    EXPECT_EQ(table.Sample(0), -table.tail());
    EXPECT_EQ(table.Sample(kR - 1), table.tail());
  }
}

TEST(Chacha20RngTest, RandomPermutationIsPermutation) {
  Chacha20Rng rng(uint64_t{8});
  for (size_t n : {0ul, 1ul, 2ul, 10ul, 257ul}) {
    std::vector<size_t> p = rng.RandomPermutation(n);
    ASSERT_EQ(p.size(), n);
    std::set<size_t> seen(p.begin(), p.end());
    EXPECT_EQ(seen.size(), n);
    if (n > 0) {
      EXPECT_EQ(*seen.begin(), 0u);
      EXPECT_EQ(*seen.rbegin(), n - 1);
    }
  }
}

TEST(Chacha20RngTest, RandomPermutationCoversArrangements) {
  // All 6 permutations of 3 elements should appear over many draws.
  Chacha20Rng rng(uint64_t{9});
  std::map<std::vector<size_t>, int> counts;
  for (int i = 0; i < 1200; ++i) ++counts[rng.RandomPermutation(3)];
  EXPECT_EQ(counts.size(), 6u);
  for (const auto& [perm, count] : counts) {
    EXPECT_GT(count, 120) << "permutation unexpectedly rare";
  }
}

TEST(Chacha20RngTest, FillBytesMatchesStream) {
  Chacha20Rng a(uint64_t{10});
  Chacha20Rng b(uint64_t{10});
  std::vector<uint8_t> buf(100);
  a.FillBytes(buf.data(), buf.size());
  // Drawing the same bytes via repeated FillBytes in chunks must agree.
  std::vector<uint8_t> buf2(100);
  b.FillBytes(buf2.data(), 37);
  b.FillBytes(buf2.data() + 37, 63);
  EXPECT_EQ(buf, buf2);
}

uint64_t Digest(const ByteSink& sink) {
  return Xxh64(sink.bytes().data(), sink.bytes().size(), 0);
}

// Pins every sampler's output bit for bit: the keystream, the uniform,
// ternary and Gaussian draws, and the BGV keys and ciphertexts built from
// them. Any change to these digests changes transcripts and wire bytes.
TEST(Chacha20RngTest, SamplerOutputsArePinned) {
  const std::vector<uint64_t> primes = PresetPrimes();
  const uint64_t t = primes.back();

  {
    // Raw stream: words and byte runs at odd offsets and lengths, so reads
    // straddle and skip block boundaries.
    ByteSink sink;
    Chacha20Rng rng(uint64_t{2024}, /*stream_id=*/5);
    std::vector<uint8_t> bytes(1500);
    for (size_t i = 0; i < 600; ++i) {
      sink.WriteU64(rng.NextU64());
      const size_t len = (i * 37) % 131 + (i % 7 == 0 ? 700 : 0);
      rng.FillBytes(bytes.data(), len);
      sink.WriteBytes(bytes.data(), len);
      sink.WriteU32(rng.NextU32());
      if (i % 3 == 0) sink.WriteU32(rng.NextU32());
    }
    Chacha20Rng child = rng.Fork(9);
    for (int i = 0; i < 300; ++i) sink.WriteU64(child.NextU64());
    EXPECT_EQ(Digest(sink), 0x67bf6e8b819e8ca1ull) << "stream";
  }
  {
    ByteSink sink;
    Chacha20Rng rng(uint64_t{77});
    std::vector<uint64_t> bounds = {1, 2, 3, t};
    bounds.insert(bounds.end(), primes.begin(), primes.end());
    for (uint64_t bound : bounds) {
      for (int i = 0; i < 500; ++i) sink.WriteU64(rng.UniformBelow(bound));
    }
    for (size_t i : rng.RandomPermutation(1000)) sink.WriteU64(i);
    EXPECT_EQ(Digest(sink), 0x7827460765641e3bull) << "UniformBelow";
  }
  {
    ByteSink sink;
    Chacha20Rng rng(uint64_t{31337});
    const GaussianTable tables[] = {GaussianTable(3.2), GaussianTable(1.0),
                                    GaussianTable(10.5)};
    std::vector<uint64_t> v;
    std::vector<int64_t> signed_v(1000);
    for (uint64_t q : primes) {
      rng.SampleTernary(q, 1000, &v);
      sink.WriteU64Vector(v);
      for (const GaussianTable& table : tables) {
        rng.SampleGaussianInto(table, signed_v.size(), signed_v.data());
        v.resize(signed_v.size());
        for (size_t i = 0; i < v.size(); ++i) {
          const int64_t x = signed_v[i];
          v[i] = x >= 0 ? static_cast<uint64_t>(x)
                        : q - static_cast<uint64_t>(-x);
        }
        sink.WriteU64Vector(v);
      }
      v.assign(1001, 0);
      rng.SampleUniformModInto(q, v.size(), v.data());
      sink.WriteU64Vector(v);
    }
    EXPECT_EQ(Digest(sink), 0x928db24d30424bd0ull) << "samplers";
  }
  {
    // Toy-preset keygen and every encryption path.
    auto params = bgv::BgvParams::Create(bgv::SecurityPreset::kToy);
    ASSERT_TRUE(params.ok());
    auto ctx = bgv::BgvContext::Create(params.value());
    ASSERT_TRUE(ctx.ok());
    Chacha20Rng rng(uint64_t{4242});
    bgv::KeyGenerator keygen(ctx.value(), &rng);
    const bgv::SecretKey sk = keygen.GenerateSecretKey();
    const bgv::PublicKey pk = keygen.GeneratePublicKey(sk);
    const bgv::RelinKeys rk = keygen.GenerateRelinKeys(sk);
    ByteSink sink;
    bgv::WriteSecretKey(sk, &sink);
    bgv::WritePublicKey(pk, &sink);
    bgv::WriteRelinKeys(rk, &sink);
    bgv::BatchEncoder encoder(ctx.value());
    std::vector<uint64_t> slots(ctx.value()->n());
    for (size_t i = 0; i < slots.size(); ++i) slots[i] = (i * 7919) % t;
    auto pt = encoder.Encode(slots);
    ASSERT_TRUE(pt.ok());
    bgv::SymmetricEncryptor sym(ctx.value(), sk, &rng);
    bgv::Encryptor pk_enc(ctx.value(), pk, &rng);
    for (size_t level = 0; level <= ctx.value()->max_level(); ++level) {
      auto seeded = sym.EncryptSeeded(pt.value(), level);
      ASSERT_TRUE(seeded.ok());
      bgv::WriteSeededCiphertext(seeded.value(), &sink);
      auto expanded = bgv::ExpandSeeded(*ctx.value(), seeded.value());
      ASSERT_TRUE(expanded.ok());
      bgv::WriteCiphertext(expanded.value(), &sink);
      auto public_ct = pk_enc.EncryptAtLevel(pt.value(), level);
      ASSERT_TRUE(public_ct.ok());
      bgv::WriteCiphertext(public_ct.value(), &sink);
    }
    EXPECT_EQ(Digest(sink), 0x63848a4d49a46601ull) << "toy BGV";
  }
}

}  // namespace
}  // namespace sknn
