#include "common/rng.h"

#include <cmath>
#include <cstring>

#include "common/logging.h"

namespace sknn {
namespace {

inline uint32_t Rotl32(uint32_t x, int n) {
  return (x << n) | (x >> (32 - n));
}

inline void QuarterRound(uint32_t& a, uint32_t& b, uint32_t& c, uint32_t& d) {
  a += b;
  d ^= a;
  d = Rotl32(d, 16);
  c += d;
  b ^= c;
  b = Rotl32(b, 12);
  a += b;
  d ^= a;
  d = Rotl32(d, 8);
  c += d;
  b ^= c;
  b = Rotl32(b, 7);
}

constexpr uint32_t kChaChaConst[4] = {0x61707865u, 0x3320646eu, 0x79622d32u,
                                      0x6b206574u};

}  // namespace

void ChaCha20Block(const std::array<uint32_t, 8>& key, uint32_t counter,
                   const std::array<uint32_t, 3>& nonce,
                   std::array<uint8_t, 64>* out) {
  uint32_t state[16];
  uint32_t working[16];
  state[0] = kChaChaConst[0];
  state[1] = kChaChaConst[1];
  state[2] = kChaChaConst[2];
  state[3] = kChaChaConst[3];
  for (int i = 0; i < 8; ++i) state[4 + i] = key[i];
  state[12] = counter;
  state[13] = nonce[0];
  state[14] = nonce[1];
  state[15] = nonce[2];
  std::memcpy(working, state, sizeof(state));
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
  for (int i = 0; i < 16; ++i) {
    uint32_t v = working[i] + state[i];
    (*out)[4 * i + 0] = static_cast<uint8_t>(v);
    (*out)[4 * i + 1] = static_cast<uint8_t>(v >> 8);
    (*out)[4 * i + 2] = static_cast<uint8_t>(v >> 16);
    (*out)[4 * i + 3] = static_cast<uint8_t>(v >> 24);
  }
}

Chacha20Rng::Chacha20Rng(const Seed& seed, uint64_t stream_id)
    : counter_(0), buffer_pos_(64) {
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
    : counter_(0), buffer_pos_(64) {
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
  ChaCha20Block(key_, counter_, nonce_, &buffer_);
  ++counter_;
  if (counter_ == 0) {
    // 256 GiB of keystream consumed on one nonce: advance the nonce rather
    // than repeat blocks.
    ++nonce_[2];
  }
  buffer_pos_ = 0;
}

uint64_t Chacha20Rng::NextU64() {
  if (buffer_pos_ + 8 > 64) Refill();
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | buffer_[buffer_pos_ + static_cast<size_t>(i)];
  }
  buffer_pos_ += 8;
  return v;
}

uint32_t Chacha20Rng::NextU32() {
  if (buffer_pos_ + 4 > 64) Refill();
  uint32_t v = static_cast<uint32_t>(buffer_[buffer_pos_]) |
               (static_cast<uint32_t>(buffer_[buffer_pos_ + 1]) << 8) |
               (static_cast<uint32_t>(buffer_[buffer_pos_ + 2]) << 16) |
               (static_cast<uint32_t>(buffer_[buffer_pos_ + 3]) << 24);
  buffer_pos_ += 4;
  return v;
}

void Chacha20Rng::FillBytes(uint8_t* out, size_t len) {
  size_t written = 0;
  while (written < len) {
    if (buffer_pos_ >= 64) Refill();
    size_t take = std::min<size_t>(64 - buffer_pos_, len - written);
    std::memcpy(out + written, buffer_.data() + buffer_pos_, take);
    buffer_pos_ += take;
    written += take;
  }
}

uint64_t Chacha20Rng::UniformBelow(uint64_t bound) {
  SKNN_CHECK_GE(bound, 1u);
  if (bound == 1) return 0;
  // Rejection sampling to avoid modulo bias.
  uint64_t limit = UINT64_MAX - (UINT64_MAX % bound + 1) % bound;
  for (;;) {
    uint64_t v = NextU64();
    if (v <= limit) return v % bound;
  }
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
  for (size_t i = 0; i < n; ++i) {
    uint64_t r = UniformBelow(3);
    (*out)[i] = (r == 2) ? q - 1 : r;  // {0,1,q-1} == {0,1,-1} mod q
  }
}

void Chacha20Rng::SampleGaussian(uint64_t q, double sigma, size_t n,
                                 std::vector<uint64_t>* out) {
  SKNN_CHECK_GT(sigma, 0.0);
  // Inverse-CDF table over the integer support [-tail, tail], tail = 6*sigma.
  const int tail = static_cast<int>(std::ceil(6.0 * sigma));
  std::vector<double> cdf(static_cast<size_t>(2 * tail + 1));
  double acc = 0.0;
  for (int x = -tail; x <= tail; ++x) {
    acc += std::exp(-(static_cast<double>(x) * x) / (2.0 * sigma * sigma));
    cdf[static_cast<size_t>(x + tail)] = acc;
  }
  const double total = acc;
  out->resize(n);
  for (size_t i = 0; i < n; ++i) {
    double u = NextDouble() * total;
    // Binary search for the first cdf entry >= u.
    size_t lo = 0, hi = cdf.size() - 1;
    while (lo < hi) {
      size_t mid = (lo + hi) / 2;
      if (cdf[mid] < u) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    int64_t x = static_cast<int64_t>(lo) - tail;
    (*out)[i] = (x >= 0) ? static_cast<uint64_t>(x)
                         : q - static_cast<uint64_t>(-x);
  }
}

void Chacha20Rng::SampleUniformMod(uint64_t q, size_t n,
                                   std::vector<uint64_t>* out) {
  out->resize(n);
  SampleUniformModInto(q, n, out->data());
}

void Chacha20Rng::SampleUniformModInto(uint64_t q, size_t n, uint64_t* out) {
  for (size_t i = 0; i < n; ++i) out[i] = UniformBelow(q);
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
