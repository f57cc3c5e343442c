#ifndef SKNN_BGV_EVALUATOR_H_
#define SKNN_BGV_EVALUATOR_H_

#include <memory>
#include <vector>

#include "bgv/ciphertext.h"
#include "bgv/context.h"
#include "bgv/keys.h"
#include "bgv/noise_model.h"
#include "common/status.h"
#include "common/statusor.h"

// Homomorphic operations on BGV ciphertexts.
//
// Levels: fresh ciphertexts sit at max_level(); every ct-ct multiplication
// should be followed by ModSwitchToNextInplace (MultiplyRelin does it).
// Binary operations equalize operand levels automatically by switching the
// higher one down.
//
// Key switching is split Halevi–Shoup style (DESIGN.md §3.2): the digit
// decomposition (lift + forward NTTs, the expensive half) is computed once
// per source polynomial and can be reused across every Galois key applied
// to it — the fold and rotation chains are built on that split.

namespace sknn {
namespace bgv {

class Evaluator {
 public:
  explicit Evaluator(std::shared_ptr<const BgvContext> ctx);

  // Static noise estimator sharing this evaluator's context. Every
  // primitive below updates its result's `noise_bits` through this model;
  // callers use it to read estimated budgets and emit thin-margin
  // warnings without the secret key.
  const NoiseModel& noise_model() const { return noise_; }

  // --- linear operations (no noise growth beyond addition) ---
  Status AddInplace(Ciphertext* a, const Ciphertext& b) const;
  Status SubInplace(Ciphertext* a, const Ciphertext& b) const;
  void NegateInplace(Ciphertext* a) const;
  // a += Enc(pt) without encryption (transparent addend).
  Status AddPlainInplace(Ciphertext* a, const Plaintext& pt) const;
  // a += the constant `scalar_mod_t` in every slot: bit-identical to
  // AddPlainInplace(a, EncodeScalar(scalar_mod_t)) without the lift and NTT
  // (the NTT of a constant polynomial is that constant in every slot).
  Status AddScalarInplace(Ciphertext* a, uint64_t scalar_mod_t) const;

  // --- multiplications ---
  // Tensor product; result has size 3 and must be relinearized before any
  // further multiplication. Operand levels are equalized.
  StatusOr<Ciphertext> Multiply(const Ciphertext& a, const Ciphertext& b) const;
  // Keyswitches the quadratic component back to size 2.
  Status RelinearizeInplace(Ciphertext* a, const RelinKeys& rk) const;
  // Multiply + relinearize + modulus switch (the common idiom).
  StatusOr<Ciphertext> MultiplyRelin(const Ciphertext& a, const Ciphertext& b,
                                     const RelinKeys& rk) const;
  // Slot-wise product with an encoded plaintext.
  Status MultiplyPlainInplace(Ciphertext* a, const Plaintext& pt) const;
  // Product with a scalar (constant polynomial): cheaper, noise grows by
  // |scalar| only.
  Status MultiplyScalarInplace(Ciphertext* a, uint64_t scalar_mod_t) const;

  // --- level management ---
  // Drops the last prime with t-preserving rounding, in the NTT domain:
  // per part, one inverse NTT of the dropped limb and one forward NTT of
  // the correction per kept limb (DESIGN.md §3.2).
  Status ModSwitchToNextInplace(Ciphertext* a) const;
  Status ModSwitchToLevelInplace(Ciphertext* a, size_t level) const;

  // --- rotations ---
  // Cyclically rotates both slot rows left by `step` (negative: right).
  Status RotateRowsInplace(Ciphertext* a, int step, const GaloisKeys& gk) const;
  // Swaps the two slot rows.
  Status RotateColumnsInplace(Ciphertext* a, const GaloisKeys& gk) const;
  // Applies an arbitrary Galois automorphism (a key for it must exist).
  Status ApplyGaloisInplace(Ciphertext* a, uint64_t galois_elt,
                            const GaloisKeys& gk) const;
  // Applies a sequence of automorphisms (all keys must exist; none
  // missing is checked before the ciphertext changes), one NTT-domain hop
  // each. The workhorse behind multi-hop rotations and Party A's
  // permute/absorb sweeps.
  Status ApplyGaloisChainInplace(Ciphertext* a,
                                 const std::vector<uint64_t>& galois_elts,
                                 const GaloisKeys& gk) const;
  // Sums an arbitrary contiguous power-of-two block: after this call every
  // slot j holds sum_{r<block} input[j+r] (within rows). Used for the
  // distance fold. Needs the rotation key of every power-of-two step below
  // `block`; when one is missing, returns kNotFound with `a` untouched.
  Status FoldRowsInplace(Ciphertext* a, size_t block, const GaloisKeys& gk) const;
  // Galois elements whose composition realizes a row rotation by `step`
  // (empty for step 0): the exact element when its key exists, else the
  // signed-digit (non-adjacent form) decomposition into ±2^i steps — the
  // keys GeneratePowerOfTwoRotationKeys makes — at most popcount(step)
  // hops. Lets callers splice rotations and column swaps into one
  // ApplyGaloisChainInplace call.
  std::vector<uint64_t> RotationGaloisElts(int step,
                                           const GaloisKeys& gk) const;

 private:
  // The hoisted half of a key switch: RNS digits of a polynomial lifted to
  // the extended base (the level's data primes + the special prime) and
  // NTT'd. digits[i] has level+2 components; component j lives mod key-base
  // prime j for j <= level and mod the special prime for j == level+1.
  // Reusable across keys because the decomposition only depends on the
  // source polynomial.
  struct KSwitchDigits {
    size_t level = 0;
    std::vector<RnsPoly> digits;
  };

  Status CheckCt(const Ciphertext& a) const;
  // Equalizes ciphertext levels by switching the higher one down.
  Status Equalize(Ciphertext* a, Ciphertext* b) const;
  // Rescales a's content so it carries b's scale factor (no-op when equal).
  Status MatchScale(Ciphertext* a, const Ciphertext& b) const;
  // The hoisted half of a key switch of `source` (NTT form, level+1
  // components): one inverse NTT per component, the digit lift, and the
  // forward NTTs of the off-diagonal digit components. The diagonal ones
  // (digit i mod prime i) are the source's NTT-form residues verbatim.
  KSwitchDigits DecomposeForKeySwitch(size_t level,
                                      const RnsPoly& source) const;
  // The cheap half: inner product of prepared digits against `ksk` with
  // lazy [0, 2q) accumulation, optional NTT-domain Galois permutation of
  // the digits (perm_ntt from RnsBase::GaloisPermTableNtt, may be null),
  // and the mod-down by the special prime, in the NTT domain: only the two
  // special-prime accumulators are inverse-transformed. Outputs have
  // level+1 components in NTT form.
  void KeySwitchInner(const KSwitchDigits& digits, const KSwitchKey& ksk,
                      const uint32_t* perm_ntt, RnsPoly* u0,
                      RnsPoly* u1) const;
  // The t-preserving rescale of key and modulus switching (DESIGN.md
  // §3.3): out = (in - lift(r)·t) / p on limbs 0..kept-1, r = [last·t^{-1}]_p.
  // limbs[0..kept) are the kept limbs (data primes 0..kept-1, NTT form,
  // may be lazy in [0, 2q)); limb `kept` is the dropped one, prime
  // key-base index `dropped`, in coefficient form; it is overwritten with
  // r. Each kept limb pays one forward NTT of the correction; `out` is in
  // NTT form.
  void RescaleInto(uint64_t* limbs, size_t kept, size_t dropped,
                   RnsPoly* out) const;

  std::shared_ptr<const BgvContext> ctx_;
  NoiseModel noise_;
};

}  // namespace bgv
}  // namespace sknn

#endif  // SKNN_BGV_EVALUATOR_H_
