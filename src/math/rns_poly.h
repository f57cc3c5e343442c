#ifndef SKNN_MATH_RNS_POLY_H_
#define SKNN_MATH_RNS_POLY_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/buffer_pool.h"
#include "common/status.h"
#include "common/statusor.h"
#include "math/mod_arith.h"
#include "math/ntt.h"

// Polynomials in R_Q = Z_Q[x]/(x^n + 1) with Q = q_0 * ... * q_{L} held in
// residue number system (RNS) form. All BGV arithmetic happens on this
// representation with 64-bit words only. Storage is a single contiguous
// n * num_components buffer (component-major), so the element-wise kernels
// traverse memory linearly and the whole polynomial is one allocation.

namespace sknn {

// An ordered set of RNS moduli for a fixed ring degree, with NTT tables per
// prime. Ciphertexts at level l use the first l+1 moduli of the base they
// were created under. Move-only: it owns lazily built caches shared by all
// users of the base.
class RnsBase {
 public:
  // Builds a base for ring degree n over the given primes (each must be an
  // NTT prime for n: q ≡ 1 mod 2n).
  static StatusOr<RnsBase> Create(size_t n, const std::vector<uint64_t>& primes);

  // Default-constructed bases are empty placeholders to be assigned from
  // Create(); using one is a programming error.
  RnsBase() = default;
  RnsBase(RnsBase&&) = default;
  RnsBase& operator=(RnsBase&&) = default;

  size_t n() const { return n_; }
  size_t size() const { return moduli_.size(); }
  const Modulus& modulus(size_t i) const { return moduli_[i]; }
  const NttTables& ntt(size_t i) const { return ntt_[i]; }
  const std::vector<Modulus>& moduli() const { return moduli_; }

  // Permutation table for the Galois automorphism x -> x^galois_elt
  // (galois_elt odd, < 2n) acting on coefficient-form polynomials: entry i
  // packs (target_index << 1) | negate for source coefficient i. The table
  // is modulus-independent (the negate bit stands for "negate mod q_c").
  // Built on first use and cached per element; thread-safe.
  const std::vector<uint32_t>& GaloisPermTable(uint64_t galois_elt) const;

  // Permutation table for the same automorphism acting on NTT-form
  // polynomials (negacyclic NTT in bit-reversed order): out[i] =
  // in[table[i]], a pure gather with no negations, valid for every prime of
  // the base. Built on first use and cached per element; thread-safe.
  const std::vector<uint32_t>& GaloisPermTableNtt(uint64_t galois_elt) const;

 private:
  struct GaloisCache {
    std::mutex mu;
    std::unordered_map<uint64_t, std::vector<uint32_t>> tables;
    std::unordered_map<uint64_t, std::vector<uint32_t>> ntt_tables;
  };

  size_t n_ = 0;
  std::vector<Modulus> moduli_;
  std::vector<NttTables> ntt_;
  std::unique_ptr<GaloisCache> galois_cache_;
};

// RNS polynomial: comp(i)[j] is coefficient j modulo prime i (or the NTT
// image when ntt_form). The number of components defines the level. The
// residues live in one flat n * num_components vector, component-major:
// comp(i) == data() + i * n().
class RnsPoly {
 public:
  RnsPoly() = default;
  // Allocates an all-zero polynomial with `components` RNS components. The
  // flat buffer comes from BufferPool (and returns there on destruction),
  // so steady-state temporaries never touch the heap — see
  // common/buffer_pool.h for the ownership rules and bgv.alloc.* metrics.
  RnsPoly(size_t n, size_t components, bool ntt_form)
      : n_(n),
        components_(components),
        ntt_form_(ntt_form),
        data_(BufferPool::AcquireZeroed(n * components)) {}

  ~RnsPoly() { BufferPool::Release(std::move(data_)); }

  RnsPoly(const RnsPoly& other)
      : n_(other.n_),
        components_(other.components_),
        ntt_form_(other.ntt_form_),
        data_(BufferPool::AcquireCopy(other.data_)) {}

  RnsPoly& operator=(const RnsPoly& other) {
    if (this != &other) {
      n_ = other.n_;
      components_ = other.components_;
      ntt_form_ = other.ntt_form_;
      if (data_.size() == other.data_.size()) {
        std::copy(other.data_.begin(), other.data_.end(), data_.begin());
      } else {
        BufferPool::Release(std::move(data_));
        data_ = BufferPool::AcquireCopy(other.data_);
      }
    }
    return *this;
  }

  // Moves steal the buffer (no pool round-trip); the source reverts to the
  // default-constructed empty state.
  RnsPoly(RnsPoly&& other) noexcept
      : n_(other.n_),
        components_(other.components_),
        ntt_form_(other.ntt_form_),
        data_(std::move(other.data_)) {
    other.n_ = 0;
    other.components_ = 0;
    other.ntt_form_ = false;
  }

  RnsPoly& operator=(RnsPoly&& other) noexcept {
    if (this != &other) {
      BufferPool::Release(std::move(data_));
      n_ = other.n_;
      components_ = other.components_;
      ntt_form_ = other.ntt_form_;
      data_ = std::move(other.data_);
      other.n_ = 0;
      other.components_ = 0;
      other.ntt_form_ = false;
    }
    return *this;
  }

  size_t n() const { return n_; }
  size_t num_components() const { return components_; }
  bool ntt_form() const { return ntt_form_; }
  void set_ntt_form(bool ntt_form) { ntt_form_ = ntt_form; }
  bool IsZero() const;

  // Residue vector of component i (n contiguous words).
  uint64_t* comp(size_t i) { return data_.data() + i * n_; }
  const uint64_t* comp(size_t i) const { return data_.data() + i * n_; }

  // The whole flat buffer (n * num_components words, component-major).
  uint64_t* data() { return data_.data(); }
  const uint64_t* data() const { return data_.data(); }
  const std::vector<uint64_t>& flat() const { return data_; }

  // A new polynomial holding the first `components` components (the
  // level-restriction every encrypt/decrypt path performs); one memcpy.
  RnsPoly Prefix(size_t components) const;

  friend bool operator==(const RnsPoly& a, const RnsPoly& b) {
    return a.n_ == b.n_ && a.components_ == b.components_ &&
           a.ntt_form_ == b.ntt_form_ && a.data_ == b.data_;
  }
  friend bool operator!=(const RnsPoly& a, const RnsPoly& b) {
    return !(a == b);
  }

 private:
  size_t n_ = 0;
  size_t components_ = 0;
  bool ntt_form_ = false;
  std::vector<uint64_t> data_;
};

// Allocates an all-zero polynomial with `components` RNS components.
RnsPoly ZeroPoly(size_t n, size_t components, bool ntt_form);

// In-place a += b. Shapes (n, component count, ntt form) must match.
void AddInplace(RnsPoly* a, const RnsPoly& b, const RnsBase& base);
// In-place a -= b.
void SubInplace(RnsPoly* a, const RnsPoly& b, const RnsBase& base);
// In-place a = -a.
void NegateInplace(RnsPoly* a, const RnsBase& base);
// Pointwise product c = a * b (both must be in NTT form).
RnsPoly MulPointwise(const RnsPoly& a, const RnsPoly& b, const RnsBase& base);
// In-place a *= b (NTT form).
void MulPointwiseInplace(RnsPoly* a, const RnsPoly& b, const RnsBase& base);
// In-place a += b * c (all NTT form); the fused op of key switching.
void AddMulInplace(RnsPoly* a, const RnsPoly& b, const RnsPoly& c,
                   const RnsBase& base);
// In-place multiply every component by a scalar (given reduced per prime).
void MulScalarInplace(RnsPoly* a, const std::vector<uint64_t>& scalar_per_prime,
                      const RnsBase& base);
// Converts to NTT form in place (no-op if already).
void ToNttInplace(RnsPoly* a, const RnsBase& base);
// Converts to coefficient form in place (no-op if already).
void FromNttInplace(RnsPoly* a, const RnsBase& base);

// Applies the Galois automorphism x -> x^galois_elt (odd, < 2n) to a
// coefficient-form polynomial using the base's cached permutation table.
RnsPoly ApplyGaloisCoeff(const RnsPoly& a, uint64_t galois_elt,
                         const RnsBase& base);

// Applies the same automorphism to an NTT-form polynomial as a pure slot
// permutation (no negations, no FromNtt/ToNtt round-trip): evaluation
// points of the negacyclic NTT are the primitive 2n-th roots ω^(2i+1), and
// x -> x^elt permutes them, so NTT(τ(a))[i] = NTT(a)[π(i)] with π cached in
// the base. This is what makes NTT-form rotations cheap.
RnsPoly ApplyGaloisNtt(const RnsPoly& a, uint64_t galois_elt,
                       const RnsBase& base);

}  // namespace sknn

#endif  // SKNN_MATH_RNS_POLY_H_
