#ifndef SKNN_COMMON_RNG_H_
#define SKNN_COMMON_RNG_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

// Deterministic cryptographic randomness for the whole project.
//
// The generator is the ChaCha20 stream cipher (RFC 8439) keyed with a
// 256-bit seed; the keystream is the random stream. Every experiment in the
// repository is reproducible because all randomness flows through explicitly
// seeded Chacha20Rng instances. On top of the raw stream we provide the
// samplers the lattice crypto needs: uniform residues, ternary secrets,
// discrete Gaussians, and Fisher-Yates permutations.

namespace sknn {

// ChaCha20 block function (exposed for test vectors). Generates one 64-byte
// keystream block for the given key, block counter and nonce.
void ChaCha20Block(const std::array<uint32_t, 8>& key, uint32_t counter,
                   const std::array<uint32_t, 3>& nonce,
                   std::array<uint8_t, 64>* out);

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
  uint64_t NextU64();
  // Uniform random 32-bit value.
  uint32_t NextU32();
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

  // Samples a centered discrete Gaussian vector with standard deviation
  // `sigma` (tail cut at 6*sigma), entries reduced modulo q.
  void SampleGaussian(uint64_t q, double sigma, size_t n,
                      std::vector<uint64_t>* out);

  // Samples a vector of uniform residues modulo q.
  void SampleUniformMod(uint64_t q, size_t n, std::vector<uint64_t>* out);

  // Same, writing into a caller-owned buffer of n words (e.g. one RNS
  // component of a flat RnsPoly).
  void SampleUniformModInto(uint64_t q, size_t n, uint64_t* out);

  // Returns a uniformly random permutation of {0, 1, ..., n-1}.
  std::vector<size_t> RandomPermutation(size_t n);

 private:
  void Refill();

  std::array<uint32_t, 8> key_;
  std::array<uint32_t, 3> nonce_;
  uint32_t counter_;
  std::array<uint8_t, 64> buffer_;
  size_t buffer_pos_;
};

}  // namespace sknn

#endif  // SKNN_COMMON_RNG_H_
