#ifndef SKNN_COMMON_RNG_H_
#define SKNN_COMMON_RNG_H_

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/u128.h"

// Deterministic cryptographic randomness for the whole project.
//
// The generator is the ChaCha20 stream cipher (RFC 8439) keyed with a
// 256-bit seed; the keystream is the random stream. Every experiment in the
// repository is reproducible because all randomness flows through explicitly
// seeded Chacha20Rng instances. On top of the raw stream we provide the
// samplers the lattice crypto needs: uniform residues, ternary secrets,
// discrete Gaussians, and Fisher-Yates permutations.

namespace sknn {

// Keystream words are little-endian (RFC 8439 §2.4); Chacha20Rng reads its
// word buffer as bytes, which is that keystream only on little-endian hosts.
static_assert(std::endian::native == std::endian::little,
              "Chacha20Rng assumes a little-endian host");

// ChaCha20 block function (exposed for test vectors). Generates one 64-byte
// keystream block for the given key, block counter and nonce.
void ChaCha20Block(const std::array<uint32_t, 8>& key, uint32_t counter,
                   const std::array<uint32_t, 3>& nonce,
                   std::array<uint8_t, 64>* out);

// Blocks per ChaCha20Blocks call, one per vector lane.
inline constexpr size_t kChaCha20BatchBlocks = 8;

// Keystream of the kChaCha20BatchBlocks blocks at counter, counter + 1, ...,
// computed lane-parallel, as 16 words per block (word j of block b at
// out[16 * b + j]). The batch must not wrap the 32-bit counter
// (counter <= 2^32 - kChaCha20BatchBlocks); Chacha20Rng only starts batches
// at multiples of kChaCha20BatchBlocks.
void ChaCha20Blocks(const std::array<uint32_t, 8>& key, uint32_t counter,
                    const std::array<uint32_t, 3>& nonce, uint32_t* out);

// `v mod q` for a fixed q >= 1 without a division per value, and the
// rejection limit that makes a reduced 64-bit word uniform in [0, q).
class UniformModQ {
 public:
  explicit UniformModQ(uint64_t q);

  // Words in [0, limit()] reduce uniformly: they hold a whole number of
  // copies of [0, q). UniformBelow rejects the rest.
  uint64_t limit() const { return limit_; }

  // Equals v % q for every 64-bit v: with m = floor((2^64 - 1) / q) the
  // quotient estimate is at most one short, so one subtraction corrects it.
  uint64_t Reduce(uint64_t v) const {
    const uint64_t r = v - MulHigh64(v, m_) * q_;
    return r >= q_ ? r - q_ : r;
  }

 private:
  uint64_t q_;
  uint64_t m_;
  uint64_t limit_;
};

// Inverse-CDF table of the centered discrete Gaussian of one sigma over the
// hard support [-tail, tail], tail = ceil(6 * sigma). A sample is drawn from
// a 53-bit uniform r as the number of thresholds T_j <= r, minus tail, where
// T_j is the smallest r with cdf[j] < r * 2^-53 * total. That equals the
// first index whose double CDF is >= r * 2^-53 * total, so the table samples
// what a binary search over the double CDF would.
class GaussianTable {
 public:
  explicit GaussianTable(double sigma);

  int64_t tail() const { return tail_; }
  // T_0 .. T_{2 tail}, padded to a power of two with 2^53 (never reached).
  const std::vector<uint64_t>& thresholds() const { return thresholds_; }

  // The sample for r in [0, 2^53): a branchless count of T_j <= r.
  int64_t Sample(uint64_t r) const {
    size_t pos = 0;
    for (size_t step = thresholds_.size() / 2; step > 0; step /= 2) {
      pos += thresholds_[pos + step - 1] <= r ? step : 0;
    }
    return static_cast<int64_t>(pos) - tail_;
  }

 private:
  int64_t tail_;
  std::vector<uint64_t> thresholds_;
};

// A deterministic CSPRNG backed by the ChaCha20 keystream.
//
// Copyable (copies continue the stream independently from the same state,
// which is occasionally useful in tests; production code should Fork()).
class Chacha20Rng {
 public:
  using Seed = std::array<uint8_t, 32>;

  // Constructs from a 256-bit seed and a stream id; distinct stream ids on
  // the same seed yield independent streams.
  explicit Chacha20Rng(const Seed& seed, uint64_t stream_id = 0);

  // Convenience: expand a 64-bit seed into a full Seed (for tests/benches).
  explicit Chacha20Rng(uint64_t seed64, uint64_t stream_id = 0);

  // Derives an independent generator; the child stream is a deterministic
  // function of this generator's state and the label.
  Chacha20Rng Fork(uint64_t label);

  // Uniform random 64-bit value.
  uint64_t NextU64() {
    uint64_t v;
    std::memcpy(&v, Take(sizeof(v)), sizeof(v));
    return v;
  }
  // Uniform random 32-bit value.
  uint32_t NextU32() {
    uint32_t v;
    std::memcpy(&v, Take(sizeof(v)), sizeof(v));
    return v;
  }
  // Fills `out` with random bytes.
  void FillBytes(uint8_t* out, size_t len);

  // Uniform value in [0, bound) with rejection sampling (bound >= 1).
  uint64_t UniformBelow(uint64_t bound);

  // Uniform value in [lo, hi] inclusive (lo <= hi).
  uint64_t UniformInRange(uint64_t lo, uint64_t hi);

  // Uniform double in [0, 1).
  double NextDouble();

  // Samples a ternary vector with entries in {-1, 0, 1} represented as
  // residues {q-1, 0, 1} modulo q.
  void SampleTernary(uint64_t q, size_t n, std::vector<uint64_t>* out);

  // Writes n samples of the centered discrete Gaussian that `table` holds
  // (tail cut at 6 sigma) as signed values, one 64-bit draw each.
  void SampleGaussianInto(const GaussianTable& table, size_t n, int64_t* out);

  // Samples a vector of uniform residues modulo q.
  void SampleUniformMod(uint64_t q, size_t n, std::vector<uint64_t>* out);

  // Same, writing into a caller-owned buffer of n words (e.g. one RNS
  // component of a flat RnsPoly). n calls of UniformBelow(q) draw the same
  // values from the same stream.
  void SampleUniformModInto(uint64_t q, size_t n, uint64_t* out);

  // Returns a uniformly random permutation of {0, 1, ..., n-1}.
  std::vector<size_t> RandomPermutation(size_t n);

 private:
  static constexpr size_t kBlockBytes = 64;
  static constexpr size_t kBufferBytes = kBlockBytes * kChaCha20BatchBlocks;

  // The next `bytes` (4 or 8) of the stream. A word never straddles two
  // 64-byte blocks: the rest of a block too short for it is skipped.
  const uint8_t* Take(size_t bytes) {
    if (buffer_pos_ % kBlockBytes > kBlockBytes - bytes ||
        buffer_pos_ >= kBufferBytes) {
      SkipForWord(bytes);
    }
    const uint8_t* p =
        reinterpret_cast<const uint8_t*>(buffer_.data()) + buffer_pos_;
    buffer_pos_ += bytes;
    return p;
  }
  void SkipForWord(size_t bytes);
  void Refill();

  std::array<uint32_t, 8> key_;
  std::array<uint32_t, 3> nonce_;
  uint32_t counter_;
  std::array<uint32_t, kBufferBytes / 4> buffer_{};
  size_t buffer_pos_;  // bytes of buffer_ consumed
};

}  // namespace sknn

#endif  // SKNN_COMMON_RNG_H_
