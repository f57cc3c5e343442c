#ifndef SKNN_BGV_CONTEXT_H_
#define SKNN_BGV_CONTEXT_H_

#include <memory>
#include <vector>

#include "bgv/params.h"
#include "common/status.h"
#include "common/statusor.h"
#include "math/ntt.h"
#include "math/rns_poly.h"

// Precomputed tables shared by every BGV component: the RNS base with NTT
// tables per prime, the plaintext-space NTT for batching, the slot index
// map, modulus-switching constants, and key-switching constants.

namespace sknn {
namespace bgv {

class BgvContext {
 public:
  // Builds and validates a context; the returned object is immutable and
  // shared by encryptor/decryptor/evaluator instances.
  static StatusOr<std::shared_ptr<const BgvContext>> Create(
      const BgvParams& params);

  const BgvParams& params() const { return params_; }
  size_t n() const { return params_.n; }
  uint64_t t() const { return params_.plain_modulus; }
  const Modulus& plain_modulus() const { return plain_mod_; }

  // Number of data primes (levels run 0 .. num_data_primes()-1).
  size_t num_data_primes() const { return params_.data_primes.size(); }
  size_t max_level() const { return num_data_primes() - 1; }
  // Index of the special prime inside key_base().
  size_t special_index() const { return num_data_primes(); }

  // Full key RNS base: data primes followed by the special prime.
  const RnsBase& key_base() const { return key_base_; }
  // NTT tables for the plaintext modulus (batching).
  const NttTables& plain_ntt() const { return plain_ntt_; }

  // Batching layout: slot i of the value vector maps to coefficient
  // slot_index_map()[i] in the NTT-evaluation ordering.
  const std::vector<size_t>& slot_index_map() const { return slot_index_map_; }
  size_t row_size() const { return params_.n / 2; }

  // --- rescale constants (modulus switching and key switching) ---
  // Indexed by the dropped prime's key_base() index: data prime `dropped`
  // for a modulus switch, special_index() for key switching's mod-down;
  // j < dropped is a kept data prime. Each multiplicative constant comes
  // with a Shoup companion (`*_shoup`) for the rescale kernels.
  // t^{-1} mod key-base prime i (i <= special_index()).
  uint64_t t_inv_mod_q(size_t i) const { return t_inv_mod_q_[i]; }
  uint64_t t_inv_mod_q_shoup(size_t i) const { return t_inv_mod_q_shoup_[i]; }
  // q_dropped^{-1} mod q_j.
  uint64_t q_inv_mod_q(size_t dropped, size_t j) const {
    return q_inv_mod_q_[dropped][j];
  }
  uint64_t q_inv_mod_q_shoup(size_t dropped, size_t j) const {
    return q_inv_mod_q_shoup_[dropped][j];
  }
  // q_dropped mod q_j (signed-lift correction term).
  uint64_t q_mod_q(size_t dropped, size_t j) const {
    return q_mod_q_[dropped][j];
  }
  // t * q_dropped^{-1} mod q_j: the fused factor the rounding correction
  // multiplies by (out = a * q_inv - r * t_q_inv).
  uint64_t t_q_inv_mod_q(size_t dropped, size_t j) const {
    return t_q_inv_mod_q_[dropped][j];
  }
  uint64_t t_q_inv_mod_q_shoup(size_t dropped, size_t j) const {
    return t_q_inv_mod_q_shoup_[dropped][j];
  }
  // special mod q_j (the key generation payload factor): the special-prime
  // row of q_mod_q.
  uint64_t sp_mod_q(size_t j) const { return q_mod_q(special_index(), j); }
  // t mod q_i / t mod special.
  uint64_t t_mod_q(size_t i) const { return t_mod_q_[i]; }
  uint64_t t_mod_sp() const { return t_mod_sp_; }

  // q_i^{-1} mod t: the factor a modulus switch dropping q_i applies to the
  // ciphertext's scale.
  uint64_t q_inv_mod_t(size_t i) const { return q_inv_mod_t_[i]; }
  // Reference product of dropped primes q_{level+1..L} mod t (the scale a
  // top-level ciphertext acquires when switched straight down to `level`).
  uint64_t correction_mod_t(size_t level) const {
    return correction_mod_t_[level];
  }

  // --- Galois / rotation ---
  // Galois element realizing a cyclic row rotation by `step`
  // (step in (-row_size, row_size), nonzero).
  uint64_t GaloisEltForRotation(int step) const;
  // Galois element swapping the two slot rows.
  uint64_t GaloisEltForColumnSwap() const { return 2 * params_.n - 1; }

 private:
  BgvContext() = default;

  BgvParams params_;
  RnsBase key_base_;
  NttTables plain_ntt_;
  Modulus plain_mod_;
  std::vector<size_t> slot_index_map_;
  std::vector<uint64_t> t_inv_mod_q_;
  std::vector<uint64_t> t_inv_mod_q_shoup_;
  std::vector<std::vector<uint64_t>> q_inv_mod_q_;
  std::vector<std::vector<uint64_t>> q_inv_mod_q_shoup_;
  std::vector<std::vector<uint64_t>> q_mod_q_;
  std::vector<std::vector<uint64_t>> t_q_inv_mod_q_;
  std::vector<std::vector<uint64_t>> t_q_inv_mod_q_shoup_;
  std::vector<uint64_t> t_mod_q_;
  uint64_t t_mod_sp_ = 0;
  std::vector<uint64_t> q_inv_mod_t_;
  std::vector<uint64_t> correction_mod_t_;
};

}  // namespace bgv
}  // namespace sknn

#endif  // SKNN_BGV_CONTEXT_H_
