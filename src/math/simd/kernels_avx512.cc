#include "math/simd/kernels.h"

// AVX-512 kernels: 8 lanes of 64-bit residues per vector. Requires F
// (arithmetic, gathers) and DQ (vpmullq for low-64 products); compiled
// with -mavx512f -mavx512dq for this file only and dispatched behind
// CPUID checks for both features. The high-64 product still uses 32-bit
// vpmuludq partials (no 64-bit widening multiply exists below IFMA), but
// mask registers replace the AVX2 sign-flip compares and vpmullq replaces
// the 3-multiply low-word emulation. Arithmetic is bit-identical to the
// scalar table.

#if defined(SKNN_HAVE_AVX512) && defined(__AVX512F__) && defined(__AVX512DQ__)

#include <immintrin.h>

#include "math/mod_arith.h"

namespace sknn {
namespace simd {
namespace {

inline __m512i Set1(uint64_t v) {
  return _mm512_set1_epi64(static_cast<long long>(v));
}

// x >= m ? x - m : x, per lane.
inline __m512i CondSub(__m512i x, __m512i m) {
  const __mmask8 ge = _mm512_cmpge_epu64_mask(x, m);
  return _mm512_mask_sub_epi64(x, ge, x, m);
}

// High 64 bits of the 128-bit product, per lane.
inline __m512i MulHi64(__m512i a, __m512i b) {
  const __m512i a_hi = _mm512_srli_epi64(a, 32);
  const __m512i b_hi = _mm512_srli_epi64(b, 32);
  const __m512i ll = _mm512_mul_epu32(a, b);
  const __m512i hl = _mm512_mul_epu32(a_hi, b);
  const __m512i lh = _mm512_mul_epu32(a, b_hi);
  const __m512i hh = _mm512_mul_epu32(a_hi, b_hi);
  const __m512i lo_mask = Set1(0xffffffffull);
  const __m512i cross = _mm512_add_epi64(hl, _mm512_srli_epi64(ll, 32));
  const __m512i cross2 =
      _mm512_add_epi64(lh, _mm512_and_si512(cross, lo_mask));
  return _mm512_add_epi64(
      hh, _mm512_add_epi64(_mm512_srli_epi64(cross, 32),
                           _mm512_srli_epi64(cross2, 32)));
}

// MulModShoupLazy per lane, result in [0, 2q).
inline __m512i ShoupLazy(__m512i x, __m512i s, __m512i s_shoup, __m512i qv) {
  const __m512i hi = MulHi64(x, s_shoup);
  return _mm512_sub_epi64(_mm512_mullo_epi64(x, s),
                          _mm512_mullo_epi64(hi, qv));
}

// 0/1 per lane where the add `sum = addend + other` carried out of 64 bits.
inline __m512i CarryOut(__m512i addend, __m512i sum) {
  const __mmask8 lt = _mm512_cmplt_epu64_mask(sum, addend);
  return _mm512_maskz_set1_epi64(lt, 1);
}

// Barrett (a*b) mod q mirroring Modulus::ReduceU128 lane-wise; r < 3q
// before the two conditional subtracts (see the AVX2 twin for the bound).
inline __m512i BarrettMulMod(__m512i av, __m512i bv, __m512i qv, __m512i rhi,
                             __m512i rlo) {
  const __m512i x_hi = MulHi64(av, bv);
  const __m512i x_lo = _mm512_mullo_epi64(av, bv);
  const __m512i carry = MulHi64(x_lo, rlo);
  const __m512i p_hi = MulHi64(x_lo, rhi);
  const __m512i p_lo = _mm512_mullo_epi64(x_lo, rhi);
  const __m512i sum = _mm512_add_epi64(p_lo, carry);
  const __m512i carry2 = CarryOut(p_lo, sum);
  const __m512i p2_hi = MulHi64(x_hi, rlo);
  const __m512i p2_lo = _mm512_mullo_epi64(x_hi, rlo);
  const __m512i sum2 = _mm512_add_epi64(p2_lo, sum);
  const __m512i carry3 = CarryOut(p2_lo, sum2);
  const __m512i q_hat = _mm512_add_epi64(
      _mm512_mullo_epi64(x_hi, rhi),
      _mm512_add_epi64(_mm512_add_epi64(p_hi, carry2),
                       _mm512_add_epi64(p2_hi, carry3)));
  __m512i r = _mm512_sub_epi64(x_lo, _mm512_mullo_epi64(q_hat, qv));
  r = CondSub(r, qv);
  r = CondSub(r, qv);
  return r;
}

inline __m512i Load(const uint64_t* p) { return _mm512_loadu_si512(p); }

inline void Store(uint64_t* p, __m512i v) { _mm512_storeu_si512(p, v); }

constexpr size_t kWidth = 8;

void NttForwardAvx512(const NttArgs& args, uint64_t* a) {
  const size_t n = args.n;
  const uint64_t q = args.q;
  const uint64_t two_q = q << 1;
  const __m512i qv = Set1(q);
  const __m512i two_qv = Set1(two_q);
  size_t t = n;
  for (size_t m = 1; m < n; m <<= 1) {
    t >>= 1;
    if (t >= kWidth) {
      for (size_t i = 0; i < m; ++i) {
        const __m512i sv = Set1(args.psi_rev[m + i]);
        const __m512i sshv = Set1(args.psi_rev_shoup[m + i]);
        uint64_t* x = a + 2 * i * t;
        uint64_t* y = x + t;
        for (size_t j = 0; j < t; j += kWidth) {
          const __m512i u = CondSub(Load(x + j), two_qv);
          const __m512i v = ShoupLazy(Load(y + j), sv, sshv, qv);
          Store(x + j, _mm512_add_epi64(u, v));
          Store(y + j, _mm512_sub_epi64(_mm512_add_epi64(u, two_qv), v));
        }
      }
    } else {
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
  }
  size_t j = 0;
  for (; j + kWidth <= n; j += kWidth) {
    __m512i v = Load(a + j);
    v = CondSub(v, two_qv);
    v = CondSub(v, qv);
    Store(a + j, v);
  }
  for (; j < n; ++j) {
    uint64_t v = a[j];
    if (v >= two_q) v -= two_q;
    if (v >= q) v -= q;
    a[j] = v;
  }
}

void NttInverseAvx512(const NttArgs& args, uint64_t* a) {
  const size_t n = args.n;
  const uint64_t q = args.q;
  const uint64_t two_q = q << 1;
  const __m512i qv = Set1(q);
  const __m512i two_qv = Set1(two_q);
  size_t t = 1;
  for (size_t m = n; m > 2; m >>= 1) {
    size_t j1 = 0;
    const size_t h = m >> 1;
    if (t >= kWidth) {
      for (size_t i = 0; i < h; ++i) {
        const __m512i sv = Set1(args.psi_inv_rev[h + i]);
        const __m512i sshv = Set1(args.psi_inv_rev_shoup[h + i]);
        uint64_t* x = a + j1;
        uint64_t* y = x + t;
        for (size_t j = 0; j < t; j += kWidth) {
          const __m512i u = Load(x + j);
          const __m512i v = Load(y + j);
          Store(x + j, CondSub(_mm512_add_epi64(u, v), two_qv));
          const __m512i diff =
              _mm512_sub_epi64(_mm512_add_epi64(u, two_qv), v);
          Store(y + j, ShoupLazy(diff, sv, sshv, qv));
        }
        j1 += 2 * t;
      }
    } else {
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
    }
    t <<= 1;
  }
  uint64_t* x = a;
  uint64_t* y = a + t;
  const __m512i n_inv_v = Set1(args.n_inv);
  const __m512i n_inv_sh_v = Set1(args.n_inv_shoup);
  const __m512i pis_v = Set1(args.psi_inv_n_scaled);
  const __m512i pis_sh_v = Set1(args.psi_inv_n_scaled_shoup);
  size_t j = 0;
  for (; j + kWidth <= t; j += kWidth) {
    const __m512i u = Load(x + j);
    const __m512i v = Load(y + j);
    const __m512i r0 =
        ShoupLazy(_mm512_add_epi64(u, v), n_inv_v, n_inv_sh_v, qv);
    const __m512i r1 = ShoupLazy(
        _mm512_sub_epi64(_mm512_add_epi64(u, two_qv), v), pis_v, pis_sh_v, qv);
    Store(x + j, CondSub(r0, qv));
    Store(y + j, CondSub(r1, qv));
  }
  for (; j < t; ++j) {
    const uint64_t u = x[j];
    const uint64_t v = y[j];
    const uint64_t r0 = MulModShoupLazy(u + v, args.n_inv, args.n_inv_shoup, q);
    const uint64_t r1 = MulModShoupLazy(u + two_q - v, args.psi_inv_n_scaled,
                                        args.psi_inv_n_scaled_shoup, q);
    x[j] = r0 >= q ? r0 - q : r0;
    y[j] = r1 >= q ? r1 - q : r1;
  }
}

void ModAddAvx512(uint64_t* a, const uint64_t* b, size_t n, uint64_t q) {
  const __m512i qv = Set1(q);
  size_t i = 0;
  for (; i + kWidth <= n; i += kWidth) {
    Store(a + i, CondSub(_mm512_add_epi64(Load(a + i), Load(b + i)), qv));
  }
  for (; i < n; ++i) {
    const uint64_t s = a[i] + b[i];
    a[i] = s >= q ? s - q : s;
  }
}

void ModSubAvx512(uint64_t* a, const uint64_t* b, size_t n, uint64_t q) {
  const __m512i qv = Set1(q);
  size_t i = 0;
  for (; i + kWidth <= n; i += kWidth) {
    const __m512i av = Load(a + i);
    const __m512i bv = Load(b + i);
    const __mmask8 lt = _mm512_cmplt_epu64_mask(av, bv);
    const __m512i d = _mm512_sub_epi64(av, bv);
    Store(a + i, _mm512_mask_add_epi64(d, lt, d, qv));
  }
  for (; i < n; ++i) a[i] = SubMod(a[i], b[i], q);
}

void ModNegAvx512(uint64_t* a, size_t n, uint64_t q) {
  const __m512i qv = Set1(q);
  size_t i = 0;
  for (; i + kWidth <= n; i += kWidth) {
    const __m512i av = Load(a + i);
    const __mmask8 nonzero = _mm512_test_epi64_mask(av, av);
    Store(a + i, _mm512_maskz_sub_epi64(nonzero, qv, av));
  }
  for (; i < n; ++i) a[i] = NegMod(a[i], q);
}

void ModMulAvx512(uint64_t* a, const uint64_t* b, size_t n, uint64_t q,
                  uint64_t ratio_hi, uint64_t ratio_lo) {
  const __m512i qv = Set1(q);
  const __m512i rhi = Set1(ratio_hi);
  const __m512i rlo = Set1(ratio_lo);
  const Modulus mod(q);
  size_t i = 0;
  for (; i + kWidth <= n; i += kWidth) {
    Store(a + i, BarrettMulMod(Load(a + i), Load(b + i), qv, rhi, rlo));
  }
  for (; i < n; ++i) a[i] = mod.MulMod(a[i], b[i]);
}

void ModAddMulAvx512(uint64_t* a, const uint64_t* b, const uint64_t* c,
                     size_t n, uint64_t q, uint64_t ratio_hi,
                     uint64_t ratio_lo) {
  const __m512i qv = Set1(q);
  const __m512i rhi = Set1(ratio_hi);
  const __m512i rlo = Set1(ratio_lo);
  const Modulus mod(q);
  size_t i = 0;
  for (; i + kWidth <= n; i += kWidth) {
    const __m512i prod = BarrettMulMod(Load(b + i), Load(c + i), qv, rhi, rlo);
    Store(a + i, CondSub(_mm512_add_epi64(Load(a + i), prod), qv));
  }
  for (; i < n; ++i) a[i] = AddMod(a[i], mod.MulMod(b[i], c[i]), q);
}

void ModMulScalarAvx512(uint64_t* a, size_t n, uint64_t s, uint64_t s_shoup,
                        uint64_t q) {
  const __m512i qv = Set1(q);
  const __m512i sv = Set1(s);
  const __m512i sshv = Set1(s_shoup);
  size_t i = 0;
  for (; i + kWidth <= n; i += kWidth) {
    Store(a + i, CondSub(ShoupLazy(Load(a + i), sv, sshv, qv), qv));
  }
  for (; i < n; ++i) a[i] = MulModShoup(a[i], s, s_shoup, q);
}

void FusedMacAvx512(uint64_t* acc0, uint64_t* acc1, const uint64_t* d,
                    const uint32_t* perm, const uint64_t* kb,
                    const uint64_t* kb_shoup, const uint64_t* ka,
                    const uint64_t* ka_shoup, size_t n, uint64_t q) {
  const uint64_t two_q = q << 1;
  const __m512i qv = Set1(q);
  const __m512i two_qv = Set1(two_q);
  size_t c = 0;
  for (; c + kWidth <= n; c += kWidth) {
    __m512i dv;
    if (perm == nullptr) {
      dv = Load(d + c);
    } else {
      const __m256i idx =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(perm + c));
      dv = _mm512_i32gather_epi64(idx, d, 8);
    }
    const __m512i t0 = ShoupLazy(dv, Load(kb + c), Load(kb_shoup + c), qv);
    const __m512i t1 = ShoupLazy(dv, Load(ka + c), Load(ka_shoup + c), qv);
    Store(acc0 + c, CondSub(_mm512_add_epi64(Load(acc0 + c), t0), two_qv));
    Store(acc1 + c, CondSub(_mm512_add_epi64(Load(acc1 + c), t1), two_qv));
  }
  for (; c < n; ++c) {
    const uint64_t dc = perm == nullptr ? d[c] : d[perm[c]];
    const uint64_t s0 = acc0[c] + MulModShoupLazy(dc, kb[c], kb_shoup[c], q);
    const uint64_t s1 = acc1[c] + MulModShoupLazy(dc, ka[c], ka_shoup[c], q);
    acc0[c] = s0 >= two_q ? s0 - two_q : s0;
    acc1[c] = s1 >= two_q ? s1 - two_q : s1;
  }
}

// Shoup by 1 (companion floor(2^64 / q)) reduces r exactly: the product
// r·1 is r itself, so only the quotient estimate needs a multiply.
void RescaleLiftAvx512(uint64_t* dst, const uint64_t* r, size_t n, uint64_t p,
                       uint64_t p_mod_q, uint64_t q) {
  const __m512i qv = Set1(q);
  const __m512i halfv = Set1(p >> 1);
  const __m512i pmqv = Set1(p_mod_q);
  const __m512i one_shoup = Set1(ShoupPrecompute(1, q));
  size_t i = 0;
  for (; i + kWidth <= n; i += kWidth) {
    const __m512i rv = Load(r + i);
    const __m512i v = CondSub(
        _mm512_sub_epi64(rv, _mm512_mullo_epi64(MulHi64(rv, one_shoup), qv)),
        qv);
    const __m512i sub =
        _mm512_maskz_mov_epi64(_mm512_cmpgt_epu64_mask(rv, halfv), pmqv);
    const __m512i d = _mm512_sub_epi64(v, sub);
    Store(dst + i,
          _mm512_mask_add_epi64(d, _mm512_cmplt_epu64_mask(v, sub), d, qv));
  }
  if (i < n) {
    ScalarKernels()->rescale_lift(dst + i, r + i, n - i, p, p_mod_q, q);
  }
}

void RescaleCombineAvx512(uint64_t* x, const uint64_t* a, size_t n, uint64_t q,
                          uint64_t p_inv, uint64_t p_inv_shoup,
                          uint64_t t_p_inv, uint64_t t_p_inv_shoup) {
  const __m512i qv = Set1(q);
  const __m512i two_qv = Set1(q << 1);
  const __m512i pinv = Set1(p_inv);
  const __m512i pinv_sh = Set1(p_inv_shoup);
  const __m512i tpinv = Set1(t_p_inv);
  const __m512i tpinv_sh = Set1(t_p_inv_shoup);
  size_t i = 0;
  for (; i + kWidth <= n; i += kWidth) {
    const __m512i lhs = ShoupLazy(Load(a + i), pinv, pinv_sh, qv);
    const __m512i rhs = ShoupLazy(Load(x + i), tpinv, tpinv_sh, qv);
    const __m512i v = _mm512_sub_epi64(_mm512_add_epi64(lhs, two_qv), rhs);
    Store(x + i, CondSub(CondSub(v, two_qv), qv));
  }
  if (i < n) {
    ScalarKernels()->rescale_combine(x + i, a + i, n - i, q, p_inv,
                                     p_inv_shoup, t_p_inv, t_p_inv_shoup);
  }
}

const KernelTable kAvx512Table = {
    /*name=*/"avx512",
    /*ntt_forward=*/NttForwardAvx512,
    /*ntt_inverse=*/NttInverseAvx512,
    /*mod_add=*/ModAddAvx512,
    /*mod_sub=*/ModSubAvx512,
    /*mod_neg=*/ModNegAvx512,
    /*mod_mul=*/ModMulAvx512,
    /*mod_add_mul=*/ModAddMulAvx512,
    /*mod_mul_scalar=*/ModMulScalarAvx512,
    /*fused_mac=*/FusedMacAvx512,
    /*rescale_lift=*/RescaleLiftAvx512,
    /*rescale_combine=*/RescaleCombineAvx512,
};

}  // namespace

const KernelTable* Avx512Kernels() { return &kAvx512Table; }

}  // namespace simd
}  // namespace sknn

#else  // !SKNN_HAVE_AVX512

namespace sknn {
namespace simd {

const KernelTable* Avx512Kernels() { return nullptr; }

}  // namespace simd
}  // namespace sknn

#endif  // SKNN_HAVE_AVX512
