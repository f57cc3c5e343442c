#ifndef SKNN_TESTS_NOISE_REFERENCE_H_
#define SKNN_TESTS_NOISE_REFERENCE_H_

// Reference decryption and exact noise budget, computed the slow way:
// every coefficient of v = c0 + c1·s (+ c2·s²) is CRT-reconstructed as a
// BigUint at every level, level 0 included. This is the algorithm
// Decryptor used before it read the budget off its own decryption; tests
// compare Decryptor::DecryptWithBudget against it.

#include <algorithm>
#include <vector>

#include "bgv/ciphertext.h"
#include "bgv/context.h"
#include "bgv/keys.h"
#include "math/bigint.h"
#include "math/mod_arith.h"
#include "math/rns_poly.h"

namespace sknn {
namespace bgv {

struct ReferenceDecryption {
  Plaintext plaintext;
  double budget_bits = 0.0;
};

inline ReferenceDecryption ReferenceDecrypt(const BgvContext& ctx,
                                            const SecretKey& sk,
                                            const Ciphertext& ct) {
  const RnsBase& base = ctx.key_base();
  const RnsPoly s = sk.s_ntt.Prefix(ct.level + 1);
  RnsPoly v = ct.c[0];
  RnsPoly s_power = s;
  for (size_t idx = 1; idx < ct.size(); ++idx) {
    AddMulInplace(&v, ct.c[idx], s_power, base);
    MulPointwiseInplace(&s_power, s, base);
  }
  FromNttInplace(&v, base);

  const uint64_t t = ctx.t();
  const uint64_t correction = InvModPrime(ct.scale % t, t);
  std::vector<uint64_t> moduli(ct.level + 1);
  for (size_t i = 0; i <= ct.level; ++i) moduli[i] = base.modulus(i).value();
  BigUint big_q(1);
  for (uint64_t q : moduli) big_q = BigUint::Mul(big_q, BigUint(q));
  const BigUint half_q = big_q.ShiftRight(1);

  ReferenceDecryption out;
  out.plaintext.coeffs.assign(ctx.n(), 0);
  size_t max_noise_bits = 0;
  std::vector<uint64_t> residues(moduli.size());
  for (size_t c = 0; c < ctx.n(); ++c) {
    for (size_t i = 0; i < moduli.size(); ++i) residues[i] = v.comp(i)[c];
    const BigUint value = BigUint::CrtReconstruct(residues, moduli);
    const bool negative = BigUint::Compare(value, half_q) > 0;
    const BigUint mag = negative ? BigUint::Sub(big_q, value) : value;
    // Plaintext: the residue of the centered value mod t.
    uint64_t raw;
    if (negative) {
      const uint64_t m = mag.ModU64(t);
      raw = m == 0 ? 0 : t - m;
    } else {
      raw = value.ModU64(t);
    }
    out.plaintext.coeffs[c] = ctx.plain_modulus().MulMod(raw, correction);
    // Noise: |v| minus the centered residue of |v| mod t.
    const uint64_t m_res = mag.ModU64(t);
    const BigUint noise_mag = m_res <= t / 2
                                  ? BigUint::Sub(mag, BigUint(m_res))
                                  : BigUint::Add(mag, BigUint(t - m_res));
    max_noise_bits = std::max(max_noise_bits, noise_mag.BitLength());
  }
  const double budget = static_cast<double>(big_q.BitLength()) - 1.0 -
                        static_cast<double>(max_noise_bits);
  out.budget_bits = budget > 0 ? budget : 0.0;
  return out;
}

}  // namespace bgv
}  // namespace sknn

#endif  // SKNN_TESTS_NOISE_REFERENCE_H_
