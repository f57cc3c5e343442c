#include "bgv/decryptor.h"

#include <algorithm>
#include <bit>
#include <cstdlib>

#include "common/logging.h"
#include "math/bigint.h"

namespace sknn {
namespace bgv {

Decryptor::Decryptor(std::shared_ptr<const BgvContext> ctx, SecretKey sk)
    : ctx_(std::move(ctx)), sk_(std::move(sk)) {}

RnsPoly Decryptor::DotWithSecret(const Ciphertext& ct) const {
  SKNN_CHECK_GE(ct.size(), 2u);
  const size_t comps = ct.level + 1;
  const RnsBase& base = ctx_->key_base();

  RnsPoly s_restricted = sk_.s_ntt.Prefix(comps);
  RnsPoly v = ct.c[0];
  SKNN_CHECK(v.ntt_form());
  RnsPoly s_power = s_restricted;
  for (size_t idx = 1; idx < ct.size(); ++idx) {
    AddMulInplace(&v, ct.c[idx], s_power, base);
    if (idx + 1 < ct.size()) {
      MulPointwiseInplace(&s_power, s_restricted, base);
    }
  }
  FromNttInplace(&v, base);
  return v;
}

StatusOr<Plaintext> Decryptor::Decrypt(const Ciphertext& ct) const {
  SKNN_ASSIGN_OR_RETURN(Decryption d, DecryptWithBudget(ct));
  return std::move(d.plaintext);
}

StatusOr<double> Decryptor::NoiseBudgetBits(const Ciphertext& ct) const {
  SKNN_ASSIGN_OR_RETURN(Decryption d, DecryptWithBudget(ct));
  return d.budget_bits;
}

StatusOr<Decryption> Decryptor::DecryptWithBudget(const Ciphertext& ct) const {
  if (ct.size() < 2) return InvalidArgumentError("ciphertext too small");
  if (ct.level > ctx_->max_level()) {
    return InvalidArgumentError("ciphertext level out of range");
  }
  RnsPoly v = DotWithSecret(ct);
  const uint64_t t = ctx_->t();
  const Modulus& t_mod = ctx_->plain_modulus();
  // Undo the tracked BGV correction factor: raw = scale * m.
  const uint64_t correction = InvModPrime(ct.scale % t, t);

  // v = m_hat + noise, m_hat the centered residue of v mod t; the budget
  // is bitlen(Q) - 1 - max bitlen(|noise|) over the coefficients.
  Decryption out;
  out.plaintext.coeffs.assign(ctx_->n(), 0);
  size_t q_bits = 0;
  size_t max_noise_bits = 0;
  if (ct.level == 0) {
    // Single prime: 64-bit arithmetic only.
    const uint64_t q0 = ctx_->key_base().modulus(0).value();
    q_bits = std::bit_width(q0);
    const uint64_t* v0 = v.comp(0);
    for (size_t c = 0; c < ctx_->n(); ++c) {
      const int64_t centered = CenterMod(v0[c], q0);
      const uint64_t raw = ToUnsignedMod(centered, t);
      const int64_t m_hat = static_cast<int64_t>(raw) -
                            (raw <= t / 2 ? 0 : static_cast<int64_t>(t));
      const uint64_t noise = std::abs(centered - m_hat);
      max_noise_bits = std::max<size_t>(max_noise_bits, std::bit_width(noise));
      out.plaintext.coeffs[c] = t_mod.MulMod(raw, correction);
    }
  } else {
    // Several primes: CRT reconstruction per coefficient.
    std::vector<uint64_t> moduli(ct.level + 1);
    for (size_t i = 0; i <= ct.level; ++i) {
      moduli[i] = ctx_->key_base().modulus(i).value();
    }
    BigUint big_q(1);
    for (uint64_t q : moduli) big_q = BigUint::Mul(big_q, BigUint(q));
    q_bits = big_q.BitLength();
    const BigUint half_q = big_q.ShiftRight(1);
    std::vector<uint64_t> residues(moduli.size());
    for (size_t c = 0; c < ctx_->n(); ++c) {
      for (size_t i = 0; i < moduli.size(); ++i) residues[i] = v.comp(i)[c];
      const BigUint value = BigUint::CrtReconstruct(residues, moduli);
      const bool negative = BigUint::Compare(value, half_q) > 0;
      const BigUint mag = negative ? BigUint::Sub(big_q, value) : value;
      // m_hat of v = -(m_hat of |v|) when v < 0, since t is odd.
      const uint64_t m_res = mag.ModU64(t);
      const BigUint noise = m_res <= t / 2
                                ? BigUint::Sub(mag, BigUint(m_res))
                                : BigUint::Add(mag, BigUint(t - m_res));
      max_noise_bits = std::max(max_noise_bits, noise.BitLength());
      const uint64_t raw = negative && m_res != 0 ? t - m_res : m_res;
      out.plaintext.coeffs[c] = t_mod.MulMod(raw, correction);
    }
  }
  const double budget = static_cast<double>(q_bits) - 1.0 -
                        static_cast<double>(max_noise_bits);
  out.budget_bits = budget > 0 ? budget : 0.0;
  return out;
}

}  // namespace bgv
}  // namespace sknn
