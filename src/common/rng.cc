#include "common/rng.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace sknn {
namespace {

// One quarter round on scalar words or on lanes of eight blocks' words
// (GCC/Clang vector extensions, lowered to whatever the baseline ISA has).
template <typename W>
inline void QuarterRound(W& a, W& b, W& c, W& d) {
  a += b;
  d ^= a;
  d = (d << 16) | (d >> 16);
  c += d;
  b ^= c;
  b = (b << 12) | (b >> 20);
  a += b;
  d ^= a;
  d = (d << 8) | (d >> 24);
  c += d;
  b ^= c;
  b = (b << 7) | (b >> 25);
}

// The 20 ChaCha20 rounds over a 16-word state, then the feed-forward add.
template <typename W>
inline void ChaChaCore(W (&x)[16]) {
  W working[16];
  for (int i = 0; i < 16; ++i) working[i] = x[i];
  for (int round = 0; round < 10; ++round) {
    QuarterRound(working[0], working[4], working[8], working[12]);
    QuarterRound(working[1], working[5], working[9], working[13]);
    QuarterRound(working[2], working[6], working[10], working[14]);
    QuarterRound(working[3], working[7], working[11], working[15]);
    QuarterRound(working[0], working[5], working[10], working[15]);
    QuarterRound(working[1], working[6], working[11], working[12]);
    QuarterRound(working[2], working[7], working[8], working[13]);
    QuarterRound(working[3], working[4], working[9], working[14]);
  }
  for (int i = 0; i < 16; ++i) x[i] += working[i];
}

constexpr uint32_t kChaChaConst[4] = {0x61707865u, 0x3320646eu, 0x79622d32u,
                                      0x6b206574u};

}  // namespace

void ChaCha20Block(const std::array<uint32_t, 8>& key, uint32_t counter,
                   const std::array<uint32_t, 3>& nonce,
                   std::array<uint8_t, 64>* out) {
  uint32_t x[16];
  for (int i = 0; i < 4; ++i) x[i] = kChaChaConst[i];
  for (int i = 0; i < 8; ++i) x[4 + i] = key[i];
  x[12] = counter;
  x[13] = nonce[0];
  x[14] = nonce[1];
  x[15] = nonce[2];
  ChaChaCore(x);
  std::memcpy(out->data(), x, sizeof(x));
}

// Lane b of every state word belongs to block counter + b.
void ChaCha20Blocks(const std::array<uint32_t, 8>& key, uint32_t counter,
                    const std::array<uint32_t, 3>& nonce, uint32_t* out) {
  constexpr size_t kLanes = kChaCha20BatchBlocks;
  static_assert(kLanes == 8, "the counter lanes below list eight offsets");
  SKNN_CHECK_LE(counter, UINT32_MAX - (kLanes - 1));
  typedef uint32_t Lanes __attribute__((vector_size(4 * kLanes)));
  Lanes x[16];
  for (int i = 0; i < 4; ++i) x[i] = Lanes{} + kChaChaConst[i];
  for (int i = 0; i < 8; ++i) x[4 + i] = Lanes{} + key[i];
  x[12] = Lanes{0, 1, 2, 3, 4, 5, 6, 7} + counter;
  x[13] = Lanes{} + nonce[0];
  x[14] = Lanes{} + nonce[1];
  x[15] = Lanes{} + nonce[2];
  ChaChaCore(x);
  for (size_t b = 0; b < kLanes; ++b) {
    for (size_t i = 0; i < 16; ++i) out[16 * b + i] = x[i][b];
  }
}

UniformModQ::UniformModQ(uint64_t q) : q_(q) {
  SKNN_CHECK_GE(q, 1u);
  m_ = UINT64_MAX / q;
  // [0, 2^64) holds m whole copies of [0, q) plus (2^64 - 1) - m*q + 1
  // spare words; when those spare words are themselves a whole copy (q
  // divides 2^64), every word is accepted.
  const uint64_t spare = UINT64_MAX - m_ * q;
  limit_ = spare == q - 1 ? UINT64_MAX : UINT64_MAX - spare - 1;
}

GaussianTable::GaussianTable(double sigma)
    : tail_(static_cast<int64_t>(std::ceil(6.0 * sigma))) {
  SKNN_CHECK_GT(sigma, 0.0);
  std::vector<double> cdf(static_cast<size_t>(2 * tail_ + 1));
  double acc = 0.0;
  for (int64_t x = -tail_; x <= tail_; ++x) {
    acc += std::exp(-(static_cast<double>(x) * x) / (2.0 * sigma * sigma));
    cdf[static_cast<size_t>(x + tail_)] = acc;
  }
  const double total = acc;
  // u(r) = r * 2^-53 * total never decreases as r grows, so "cdf[j] < u(r)"
  // holds exactly from the smallest such r on.
  constexpr uint64_t kNever = uint64_t{1} << 53;
  thresholds_.assign(std::bit_ceil(cdf.size()), kNever);
  for (size_t j = 0; j < cdf.size(); ++j) {
    uint64_t lo = 0, hi = kNever;
    while (lo < hi) {
      const uint64_t mid = lo + (hi - lo) / 2;
      if (cdf[j] < static_cast<double>(mid) * 0x1.0p-53 * total) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    thresholds_[j] = lo;
  }
}

Chacha20Rng::Chacha20Rng(const Seed& seed, uint64_t stream_id)
    : counter_(0), buffer_pos_(kBufferBytes) {
  for (int i = 0; i < 8; ++i) {
    key_[i] = static_cast<uint32_t>(seed[4 * i]) |
              (static_cast<uint32_t>(seed[4 * i + 1]) << 8) |
              (static_cast<uint32_t>(seed[4 * i + 2]) << 16) |
              (static_cast<uint32_t>(seed[4 * i + 3]) << 24);
  }
  nonce_[0] = static_cast<uint32_t>(stream_id);
  nonce_[1] = static_cast<uint32_t>(stream_id >> 32);
  nonce_[2] = 0;
}

Chacha20Rng::Chacha20Rng(uint64_t seed64, uint64_t stream_id)
    : counter_(0), buffer_pos_(kBufferBytes) {
  Seed seed{};
  for (int i = 0; i < 8; ++i) {
    seed[i] = static_cast<uint8_t>(seed64 >> (8 * i));
    // Spread the 64-bit seed with a fixed pattern so distinct small seeds
    // produce very different keys.
    seed[8 + i] = static_cast<uint8_t>((seed64 * 0x9e3779b97f4a7c15ull) >>
                                       (8 * i));
    seed[16 + i] = static_cast<uint8_t>((seed64 ^ 0xa5a5a5a5a5a5a5a5ull) >>
                                        (8 * i));
    seed[24 + i] = static_cast<uint8_t>(
        ((seed64 + 0x0123456789abcdefull) * 0xc2b2ae3d27d4eb4full) >> (8 * i));
  }
  *this = Chacha20Rng(seed, stream_id);
}

Chacha20Rng Chacha20Rng::Fork(uint64_t label) {
  Seed child_seed;
  FillBytes(child_seed.data(), child_seed.size());
  return Chacha20Rng(child_seed, label);
}

void Chacha20Rng::Refill() {
  ChaCha20Blocks(key_, counter_, nonce_, buffer_.data());
  counter_ += kChaCha20BatchBlocks;
  // 256 GiB of keystream consumed on one nonce: advance the nonce rather
  // than repeat blocks.
  if (counter_ == 0) ++nonce_[2];
  buffer_pos_ = 0;
}

void Chacha20Rng::SkipForWord(size_t bytes) {
  if (buffer_pos_ % kBlockBytes > kBlockBytes - bytes) {
    buffer_pos_ += kBlockBytes - buffer_pos_ % kBlockBytes;
  }
  if (buffer_pos_ >= kBufferBytes) Refill();
}

void Chacha20Rng::FillBytes(uint8_t* out, size_t len) {
  const uint8_t* stream = reinterpret_cast<const uint8_t*>(buffer_.data());
  size_t written = 0;
  while (written < len) {
    if (buffer_pos_ >= kBufferBytes) Refill();
    size_t take = std::min(kBufferBytes - buffer_pos_, len - written);
    std::memcpy(out + written, stream + buffer_pos_, take);
    buffer_pos_ += take;
    written += take;
  }
}

uint64_t Chacha20Rng::UniformBelow(uint64_t bound) {
  uint64_t v = 0;
  SampleUniformModInto(bound, 1, &v);
  return v;
}

uint64_t Chacha20Rng::UniformInRange(uint64_t lo, uint64_t hi) {
  SKNN_CHECK_LE(lo, hi);
  uint64_t span = hi - lo;
  if (span == UINT64_MAX) return NextU64();
  return lo + UniformBelow(span + 1);
}

double Chacha20Rng::NextDouble() {
  // 53 random mantissa bits.
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

void Chacha20Rng::SampleTernary(uint64_t q, size_t n,
                                std::vector<uint64_t>* out) {
  out->resize(n);
  SampleUniformModInto(3, n, out->data());
  for (uint64_t& r : *out) {
    if (r == 2) r = q - 1;  // {0,1,q-1} == {0,1,-1} mod q
  }
}

void Chacha20Rng::SampleGaussianInto(const GaussianTable& table, size_t n,
                                     int64_t* out) {
  for (size_t i = 0; i < n; ++i) out[i] = table.Sample(NextU64() >> 11);
}

void Chacha20Rng::SampleUniformMod(uint64_t q, size_t n,
                                   std::vector<uint64_t>* out) {
  out->resize(n);
  SampleUniformModInto(q, n, out->data());
}

void Chacha20Rng::SampleUniformModInto(uint64_t q, size_t n, uint64_t* out) {
  const UniformModQ mod(q);
  if (q == 1) {
    // The only residue; nothing is drawn.
    std::fill_n(out, n, 0);
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    uint64_t v = NextU64();
    while (v > mod.limit()) v = NextU64();
    out[i] = mod.Reduce(v);
  }
}

std::vector<size_t> Chacha20Rng::RandomPermutation(size_t n) {
  std::vector<size_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = i;
  for (size_t i = n; i > 1; --i) {
    size_t j = static_cast<size_t>(UniformBelow(i));
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

}  // namespace sknn
