#include "math/mod_arith.h"
#include "math/simd/kernels.h"

// Portable scalar kernels. These are the reference semantics: the AVX2 and
// AVX-512 tables must match them bit for bit (enforced by the equality
// sweeps in ntt_test and simd_kernels_test). The loops are verbatim the
// pre-dispatch hot loops of ntt.cc / rns_poly.cc / evaluator.cc.

namespace sknn {
namespace simd {
namespace {

void NttForwardScalar(const NttArgs& args, uint64_t* a) {
  const size_t n = args.n;
  const uint64_t q = args.q;
  const uint64_t two_q = q << 1;
  size_t t = n;
  for (size_t m = 1; m < n; m <<= 1) {
    t >>= 1;
    for (size_t i = 0; i < m; ++i) {
      const uint64_t s = args.psi_rev[m + i];
      const uint64_t s_shoup = args.psi_rev_shoup[m + i];
      uint64_t* __restrict x = a + 2 * i * t;
      uint64_t* __restrict y = x + t;
      for (size_t j = 0; j < t; ++j) {
        uint64_t u = x[j];
        if (u >= two_q) u -= two_q;
        const uint64_t v = MulModShoupLazy(y[j], s, s_shoup, q);
        x[j] = u + v;
        y[j] = u + two_q - v;
      }
    }
  }
  for (size_t j = 0; j < n; ++j) {
    uint64_t v = a[j];
    if (v >= two_q) v -= two_q;
    if (v >= q) v -= q;
    a[j] = v;
  }
}

void NttInverseScalar(const NttArgs& args, uint64_t* a) {
  const size_t n = args.n;
  const uint64_t q = args.q;
  const uint64_t two_q = q << 1;
  size_t t = 1;
  for (size_t m = n; m > 2; m >>= 1) {
    size_t j1 = 0;
    const size_t h = m >> 1;
    for (size_t i = 0; i < h; ++i) {
      const uint64_t s = args.psi_inv_rev[h + i];
      const uint64_t s_shoup = args.psi_inv_rev_shoup[h + i];
      uint64_t* __restrict x = a + j1;
      uint64_t* __restrict y = x + t;
      for (size_t j = 0; j < t; ++j) {
        const uint64_t u = x[j];
        const uint64_t v = y[j];
        uint64_t s0 = u + v;
        if (s0 >= two_q) s0 -= two_q;
        x[j] = s0;
        y[j] = MulModShoupLazy(u + two_q - v, s, s_shoup, q);
      }
      j1 += 2 * t;
    }
    t <<= 1;
  }
  uint64_t* __restrict x = a;
  uint64_t* __restrict y = a + t;
  for (size_t j = 0; j < t; ++j) {
    const uint64_t u = x[j];
    const uint64_t v = y[j];
    const uint64_t r0 = MulModShoupLazy(u + v, args.n_inv, args.n_inv_shoup, q);
    const uint64_t r1 = MulModShoupLazy(u + two_q - v, args.psi_inv_n_scaled,
                                        args.psi_inv_n_scaled_shoup, q);
    x[j] = r0 >= q ? r0 - q : r0;
    y[j] = r1 >= q ? r1 - q : r1;
  }
}

void ModAddScalar(uint64_t* a, const uint64_t* b, size_t n, uint64_t q) {
  for (size_t i = 0; i < n; ++i) {
    const uint64_t s = a[i] + b[i];
    a[i] = s >= q ? s - q : s;
  }
}

void ModSubScalar(uint64_t* a, const uint64_t* b, size_t n, uint64_t q) {
  for (size_t i = 0; i < n; ++i) {
    a[i] = SubMod(a[i], b[i], q);
  }
}

void ModNegScalar(uint64_t* a, size_t n, uint64_t q) {
  for (size_t i = 0; i < n; ++i) {
    a[i] = NegMod(a[i], q);
  }
}

// Barrett product mirroring Modulus::ReduceU128 exactly; kept local so the
// kernel depends only on the raw ratio words handed in by the caller.
inline uint64_t BarrettMulMod(uint64_t a, uint64_t b, uint64_t q,
                              uint64_t ratio_hi, uint64_t ratio_lo) {
  const uint128_t x = Mul64To128(a, b);
  const uint64_t x_lo = Low64(x);
  const uint64_t x_hi = High64(x);
  uint64_t tmp1;
  const uint64_t carry = MulHigh64(x_lo, ratio_lo);
  uint128_t prod = Mul64To128(x_lo, ratio_hi);
  const uint64_t tmp2 = Low64(prod);
  const uint64_t tmp3 = High64(prod);
  uint128_t sum = static_cast<uint128_t>(tmp2) + carry;
  tmp1 = Low64(sum);
  const uint64_t carry2 = High64(sum);
  prod = Mul64To128(x_hi, ratio_lo);
  sum = static_cast<uint128_t>(Low64(prod)) + tmp1;
  const uint64_t carry3 = High64(sum);
  tmp1 = High64(prod);
  const uint64_t q_hat = x_hi * ratio_hi + tmp3 + carry2 + tmp1 + carry3;
  uint64_t r = x_lo - q_hat * q;
  while (r >= q) r -= q;
  return r;
}

void ModMulScalar(uint64_t* a, const uint64_t* b, size_t n, uint64_t q,
                  uint64_t ratio_hi, uint64_t ratio_lo) {
  for (size_t i = 0; i < n; ++i) {
    a[i] = BarrettMulMod(a[i], b[i], q, ratio_hi, ratio_lo);
  }
}

void ModAddMulScalar(uint64_t* a, const uint64_t* b, const uint64_t* c,
                     size_t n, uint64_t q, uint64_t ratio_hi,
                     uint64_t ratio_lo) {
  for (size_t i = 0; i < n; ++i) {
    a[i] = AddMod(a[i], BarrettMulMod(b[i], c[i], q, ratio_hi, ratio_lo), q);
  }
}

void ModMulScalarConst(uint64_t* a, size_t n, uint64_t s, uint64_t s_shoup,
                       uint64_t q) {
  for (size_t i = 0; i < n; ++i) {
    a[i] = MulModShoup(a[i], s, s_shoup, q);
  }
}

void FusedMacScalar(uint64_t* acc0, uint64_t* acc1, const uint64_t* d,
                    const uint32_t* perm, const uint64_t* kb,
                    const uint64_t* kb_shoup, const uint64_t* ka,
                    const uint64_t* ka_shoup, size_t n, uint64_t q) {
  const uint64_t two_q = q << 1;
  if (perm == nullptr) {
    for (size_t c = 0; c < n; ++c) {
      const uint64_t dc = d[c];
      const uint64_t s0 = acc0[c] + MulModShoupLazy(dc, kb[c], kb_shoup[c], q);
      const uint64_t s1 = acc1[c] + MulModShoupLazy(dc, ka[c], ka_shoup[c], q);
      acc0[c] = s0 >= two_q ? s0 - two_q : s0;
      acc1[c] = s1 >= two_q ? s1 - two_q : s1;
    }
  } else {
    for (size_t c = 0; c < n; ++c) {
      const uint64_t dc = d[perm[c]];
      const uint64_t s0 = acc0[c] + MulModShoupLazy(dc, kb[c], kb_shoup[c], q);
      const uint64_t s1 = acc1[c] + MulModShoupLazy(dc, ka[c], ka_shoup[c], q);
      acc0[c] = s0 >= two_q ? s0 - two_q : s0;
      acc1[c] = s1 >= two_q ? s1 - two_q : s1;
    }
  }
}

// Shoup by the operand 1 (companion floor(2^64 / q)) reduces any 64-bit
// value exactly, so r mod q needs no Barrett and no division per element,
// whether p is above or below q.
void RescaleLiftScalar(uint64_t* dst, const uint64_t* r, size_t n, uint64_t p,
                       uint64_t p_mod_q, uint64_t q) {
  const uint64_t half = p >> 1;
  const uint64_t one_shoup = ShoupPrecompute(1, q);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t v = MulModShoup(r[i], 1, one_shoup, q);
    dst[i] = SubMod(v, r[i] > half ? p_mod_q : 0, q);
  }
}

// Both Shoup products stay lazy in [0, 2q): lhs + 2q - rhs lies in
// (0, 4q) < 2^64, and two conditional subtracts reduce it.
void RescaleCombineScalar(uint64_t* x, const uint64_t* a, size_t n, uint64_t q,
                          uint64_t p_inv, uint64_t p_inv_shoup,
                          uint64_t t_p_inv, uint64_t t_p_inv_shoup) {
  const uint64_t two_q = q << 1;
  for (size_t i = 0; i < n; ++i) {
    uint64_t v = MulModShoupLazy(a[i], p_inv, p_inv_shoup, q) + two_q -
                 MulModShoupLazy(x[i], t_p_inv, t_p_inv_shoup, q);
    if (v >= two_q) v -= two_q;
    if (v >= q) v -= q;
    x[i] = v;
  }
}

const KernelTable kScalarTable = {
    /*name=*/"scalar",
    /*ntt_forward=*/NttForwardScalar,
    /*ntt_inverse=*/NttInverseScalar,
    /*mod_add=*/ModAddScalar,
    /*mod_sub=*/ModSubScalar,
    /*mod_neg=*/ModNegScalar,
    /*mod_mul=*/ModMulScalar,
    /*mod_add_mul=*/ModAddMulScalar,
    /*mod_mul_scalar=*/ModMulScalarConst,
    /*fused_mac=*/FusedMacScalar,
    /*rescale_lift=*/RescaleLiftScalar,
    /*rescale_combine=*/RescaleCombineScalar,
};

}  // namespace

const KernelTable* ScalarKernels() { return &kScalarTable; }

}  // namespace simd
}  // namespace sknn
