#ifndef SKNN_TESTS_RESCALE_REFERENCE_H_
#define SKNN_TESTS_RESCALE_REFERENCE_H_

// Reference modulus switching and key switching, computed the way the
// evaluator did before its rescale kernel: every limb goes back to
// coefficient form, a scalar loop divides by the dropped prime with
// t-preserving rounding (Barrett reduce of the correction, centered lift),
// and the result is forward-transformed. The constants are derived here,
// not read from BgvContext. Tests compare ModSwitchToNextInplace,
// RelinearizeInplace and ApplyGaloisInplace against these, bit for bit.

#include <utility>
#include <vector>

#include "bgv/ciphertext.h"
#include "bgv/context.h"
#include "bgv/keys.h"
#include "math/mod_arith.h"
#include "math/rns_poly.h"

namespace sknn {
namespace bgv {

// (in - lift([last·t^{-1}]_p)·t) / p on limbs 0..kept-1, with `in` in
// coefficient form: components 0..kept-1 over data primes q_0..q_{kept-1},
// component `kept` (the last) over the dropped prime p.
inline RnsPoly ReferenceRescale(const BgvContext& ctx, const RnsPoly& in,
                                uint64_t p) {
  const size_t n = ctx.n();
  const size_t kept = in.num_components() - 1;
  const uint64_t t = ctx.t();
  const uint64_t t_inv_p = InvModPrime(t % p, p);
  const uint64_t half = p >> 1;
  const uint64_t* last = in.comp(kept);
  RnsPoly out = ZeroPoly(n, kept, /*ntt_form=*/false);
  for (size_t j = 0; j < kept; ++j) {
    const Modulus& mod = ctx.key_base().modulus(j);
    const uint64_t q = mod.value();
    const uint64_t p_inv = InvModPrime(p % q, q);
    const uint64_t t_p_inv = mod.MulMod(t % q, p_inv);
    const uint64_t* a = in.comp(j);
    uint64_t* o = out.comp(j);
    for (size_t c = 0; c < n; ++c) {
      const uint64_t r = MulModSlow(last[c], t_inv_p, p);
      uint64_t rq = mod.Reduce(r);
      if (r > half) rq = SubMod(rq, p % q, q);
      o[c] = SubMod(mod.MulMod(a[c], p_inv), mod.MulMod(rq, t_p_inv), q);
    }
  }
  return out;
}

inline Ciphertext ReferenceModSwitchToNext(const BgvContext& ctx,
                                           const Ciphertext& ct) {
  const RnsBase& base = ctx.key_base();
  const uint64_t q_last = base.modulus(ct.level).value();
  Ciphertext out;
  out.level = ct.level - 1;
  out.scale = ctx.plain_modulus().MulMod(
      ct.scale, InvModPrime(q_last % ctx.t(), ctx.t()));
  for (const RnsPoly& part : ct.c) {
    RnsPoly coeff = part;
    FromNttInplace(&coeff, base);
    RnsPoly rescaled = ReferenceRescale(ctx, coeff, q_last);
    ToNttInplace(&rescaled, base);
    out.c.push_back(std::move(rescaled));
  }
  return out;
}

// Key-switches `target` (coefficient form, level+1 components) with `ksk`:
// RNS digits lifted to the data primes plus the special prime, forward
// NTT, optionally permuted by the NTT-domain Galois table `perm`, inner
// product with the key, inverse NTT of every accumulator, rescale by the
// special prime. Returns (u0, u1) in NTT form.
inline std::pair<RnsPoly, RnsPoly> ReferenceKeySwitch(const BgvContext& ctx,
                                                      const RnsPoly& target,
                                                      const KSwitchKey& ksk,
                                                      const uint32_t* perm) {
  const RnsBase& base = ctx.key_base();
  const size_t n = ctx.n();
  const size_t level = target.num_components() - 1;
  const size_t ext = level + 2;
  RnsPoly acc[2] = {ZeroPoly(n, ext, false), ZeroPoly(n, ext, false)};
  std::vector<uint64_t> digit(n), gathered(n);
  for (size_t i = 0; i <= level; ++i) {
    for (size_t j = 0; j < ext; ++j) {
      const size_t key_idx = j <= level ? j : ctx.special_index();
      const Modulus& mod = base.modulus(key_idx);
      for (size_t c = 0; c < n; ++c) digit[c] = mod.Reduce(target.comp(i)[c]);
      base.ntt(key_idx).ForwardNtt(digit.data());
      for (size_t c = 0; c < n; ++c) {
        gathered[c] = perm == nullptr ? digit[c] : digit[perm[c]];
      }
      const RnsPoly* key[2] = {&ksk.digits[i].first, &ksk.digits[i].second};
      for (int k = 0; k < 2; ++k) {
        uint64_t* a = acc[k].comp(j);
        const uint64_t* kv = key[k]->comp(key_idx);
        for (size_t c = 0; c < n; ++c) {
          a[c] = AddMod(a[c], mod.MulMod(gathered[c], kv[c]), mod.value());
        }
      }
    }
  }
  RnsPoly u[2];
  for (int k = 0; k < 2; ++k) {
    for (size_t j = 0; j < ext; ++j) {
      const size_t key_idx = j <= level ? j : ctx.special_index();
      base.ntt(key_idx).InverseNtt(acc[k].comp(j));
    }
    u[k] = ReferenceRescale(ctx, acc[k], ctx.params().special_prime);
    ToNttInplace(&u[k], base);
  }
  return {std::move(u[0]), std::move(u[1])};
}

inline Ciphertext ReferenceRelinearize(const BgvContext& ctx,
                                       const Ciphertext& ct,
                                       const RelinKeys& rk) {
  const RnsBase& base = ctx.key_base();
  RnsPoly d2 = ct.c[2];
  FromNttInplace(&d2, base);
  auto [u0, u1] = ReferenceKeySwitch(ctx, d2, rk.key, nullptr);
  Ciphertext out = ct;
  out.c.pop_back();
  AddInplace(&out.c[0], u0, base);
  AddInplace(&out.c[1], u1, base);
  return out;
}

inline Ciphertext ReferenceApplyGalois(const BgvContext& ctx,
                                       const Ciphertext& ct,
                                       uint64_t galois_elt,
                                       const GaloisKeys& gk) {
  const RnsBase& base = ctx.key_base();
  RnsPoly c1 = ct.c[1];
  FromNttInplace(&c1, base);
  auto [u0, u1] =
      ReferenceKeySwitch(ctx, c1, gk.keys.at(galois_elt),
                         base.GaloisPermTableNtt(galois_elt).data());
  Ciphertext out = ct;
  out.c[0] = ApplyGaloisNtt(ct.c[0], galois_elt, base);
  AddInplace(&out.c[0], u0, base);
  out.c[1] = std::move(u1);
  return out;
}

}  // namespace bgv
}  // namespace sknn

#endif  // SKNN_TESTS_RESCALE_REFERENCE_H_
