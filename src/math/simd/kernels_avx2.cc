#include "math/simd/kernels.h"

// AVX2 kernels: 4 lanes of 64-bit residues per vector. Compiled with
// -mavx2 for this file only (see src/math/CMakeLists.txt); only ever
// called after the dispatcher has checked CPUID. When the toolchain lacks
// -mavx2 the table getter returns null and dispatch skips the level.
//
// 64×64 products are built from 32-bit vpmuludq partials; conditional
// subtracts use the sign-flip trick for unsigned 64-bit compares (values
// reach 4q < 2^64, so signed compares would be wrong for q near 2^62).
// Every kernel reproduces the scalar arithmetic exactly — same partial
// products, same carries, same correction order — so results are
// bit-identical to the scalar table.

#if defined(SKNN_HAVE_AVX2) && defined(__AVX2__)

#include <immintrin.h>

#include "math/mod_arith.h"

namespace sknn {
namespace simd {
namespace {

inline __m256i Set1(uint64_t v) {
  return _mm256_set1_epi64x(static_cast<long long>(v));
}

// All-ones lanes where a > b as unsigned 64-bit.
inline __m256i CmpGtU64(__m256i a, __m256i b) {
  const __m256i sign = Set1(uint64_t{1} << 63);
  return _mm256_cmpgt_epi64(_mm256_xor_si256(a, sign),
                            _mm256_xor_si256(b, sign));
}

// x >= m ? x - m : x, per lane.
inline __m256i CondSub(__m256i x, __m256i m) {
  const __m256i t = _mm256_sub_epi64(x, m);
  const __m256i lt = CmpGtU64(m, x);
  return _mm256_add_epi64(t, _mm256_and_si256(m, lt));
}

// High 64 bits of the 128-bit product, per lane. Four vpmuludq partials;
// vpmuludq reads only the low 32 bits of each lane, so explicit masking is
// needed just where a partial feeds an addition.
inline __m256i MulHi64(__m256i a, __m256i b) {
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i b_hi = _mm256_srli_epi64(b, 32);
  const __m256i ll = _mm256_mul_epu32(a, b);
  const __m256i hl = _mm256_mul_epu32(a_hi, b);
  const __m256i lh = _mm256_mul_epu32(a, b_hi);
  const __m256i hh = _mm256_mul_epu32(a_hi, b_hi);
  const __m256i lo_mask = Set1(0xffffffffull);
  // cross = hl + (ll >> 32): <= (2^32-1)^2 + 2^32-1 < 2^64, no overflow.
  const __m256i cross = _mm256_add_epi64(hl, _mm256_srli_epi64(ll, 32));
  const __m256i cross2 =
      _mm256_add_epi64(lh, _mm256_and_si256(cross, lo_mask));
  return _mm256_add_epi64(
      hh, _mm256_add_epi64(_mm256_srli_epi64(cross, 32),
                           _mm256_srli_epi64(cross2, 32)));
}

// Low 64 bits of the product, per lane.
inline __m256i MulLo64(__m256i a, __m256i b) {
  const __m256i ll = _mm256_mul_epu32(a, b);
  const __m256i hl = _mm256_mul_epu32(_mm256_srli_epi64(a, 32), b);
  const __m256i lh = _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32));
  const __m256i cross = _mm256_add_epi64(hl, lh);
  return _mm256_add_epi64(ll, _mm256_slli_epi64(cross, 32));
}

// Full 128-bit product split into hi/lo words, per lane.
inline void Mul128(__m256i a, __m256i b, __m256i* hi, __m256i* lo) {
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i b_hi = _mm256_srli_epi64(b, 32);
  const __m256i ll = _mm256_mul_epu32(a, b);
  const __m256i hl = _mm256_mul_epu32(a_hi, b);
  const __m256i lh = _mm256_mul_epu32(a, b_hi);
  const __m256i hh = _mm256_mul_epu32(a_hi, b_hi);
  const __m256i lo_mask = Set1(0xffffffffull);
  const __m256i cross = _mm256_add_epi64(hl, _mm256_srli_epi64(ll, 32));
  const __m256i cross2 =
      _mm256_add_epi64(lh, _mm256_and_si256(cross, lo_mask));
  *hi = _mm256_add_epi64(
      hh, _mm256_add_epi64(_mm256_srli_epi64(cross, 32),
                           _mm256_srli_epi64(cross2, 32)));
  // x_lo = (ll & mask) | (low32(cross2) << 32): bits [32, 64) of the
  // product are low32(ll>>32 + hl + lh) = low32(cross2).
  *lo = _mm256_add_epi64(_mm256_and_si256(ll, lo_mask),
                         _mm256_slli_epi64(cross2, 32));
}

// MulModShoupLazy per lane: x * s - MulHigh64(x, s_shoup) * q, in [0, 2q)
// for reduced s (any 64-bit x).
inline __m256i ShoupLazy(__m256i x, __m256i s, __m256i s_shoup, __m256i qv) {
  const __m256i hi = MulHi64(x, s_shoup);
  return _mm256_sub_epi64(MulLo64(x, s), MulLo64(hi, qv));
}

// 0/1 per lane where sum < addend (i.e. the 64-bit add carried out).
inline __m256i CarryOut(__m256i addend, __m256i sum) {
  return _mm256_srli_epi64(CmpGtU64(addend, sum), 63);
}

// Barrett (a*b) mod q mirroring Modulus::ReduceU128 lane-wise. q_hat
// underestimates the true quotient by at most 2 (full 2^128/q ratio), so
// r < 3q and two conditional subtracts fully reduce — identical to the
// scalar correction loop.
inline __m256i BarrettMulMod(__m256i av, __m256i bv, __m256i qv, __m256i rhi,
                             __m256i rlo) {
  __m256i x_hi, x_lo;
  Mul128(av, bv, &x_hi, &x_lo);
  const __m256i carry = MulHi64(x_lo, rlo);
  __m256i p_hi, p_lo;
  Mul128(x_lo, rhi, &p_hi, &p_lo);  // tmp3 = p_hi, tmp2 = p_lo
  const __m256i sum = _mm256_add_epi64(p_lo, carry);
  const __m256i carry2 = CarryOut(p_lo, sum);
  __m256i p2_hi, p2_lo;
  Mul128(x_hi, rlo, &p2_hi, &p2_lo);
  const __m256i sum2 = _mm256_add_epi64(p2_lo, sum);
  const __m256i carry3 = CarryOut(p2_lo, sum2);
  const __m256i q_hat = _mm256_add_epi64(
      MulLo64(x_hi, rhi),
      _mm256_add_epi64(_mm256_add_epi64(p_hi, carry2),
                       _mm256_add_epi64(p2_hi, carry3)));
  __m256i r = _mm256_sub_epi64(x_lo, MulLo64(q_hat, qv));
  r = CondSub(r, qv);
  r = CondSub(r, qv);
  return r;
}

inline __m256i Load(const uint64_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

inline void Store(uint64_t* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

constexpr size_t kWidth = 4;

void NttForwardAvx2(const NttArgs& args, uint64_t* a) {
  const size_t n = args.n;
  const uint64_t q = args.q;
  const uint64_t two_q = q << 1;
  const __m256i qv = Set1(q);
  const __m256i two_qv = Set1(two_q);
  size_t t = n;
  for (size_t m = 1; m < n; m <<= 1) {
    t >>= 1;
    if (t >= kWidth) {
      for (size_t i = 0; i < m; ++i) {
        const __m256i sv = Set1(args.psi_rev[m + i]);
        const __m256i sshv = Set1(args.psi_rev_shoup[m + i]);
        uint64_t* x = a + 2 * i * t;
        uint64_t* y = x + t;
        for (size_t j = 0; j < t; j += kWidth) {
          const __m256i u = CondSub(Load(x + j), two_qv);
          const __m256i v = ShoupLazy(Load(y + j), sv, sshv, qv);
          Store(x + j, _mm256_add_epi64(u, v));
          Store(y + j,
                _mm256_sub_epi64(_mm256_add_epi64(u, two_qv), v));
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
    __m256i v = Load(a + j);
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

void NttInverseAvx2(const NttArgs& args, uint64_t* a) {
  const size_t n = args.n;
  const uint64_t q = args.q;
  const uint64_t two_q = q << 1;
  const __m256i qv = Set1(q);
  const __m256i two_qv = Set1(two_q);
  size_t t = 1;
  for (size_t m = n; m > 2; m >>= 1) {
    size_t j1 = 0;
    const size_t h = m >> 1;
    if (t >= kWidth) {
      for (size_t i = 0; i < h; ++i) {
        const __m256i sv = Set1(args.psi_inv_rev[h + i]);
        const __m256i sshv = Set1(args.psi_inv_rev_shoup[h + i]);
        uint64_t* x = a + j1;
        uint64_t* y = x + t;
        for (size_t j = 0; j < t; j += kWidth) {
          const __m256i u = Load(x + j);
          const __m256i v = Load(y + j);
          Store(x + j, CondSub(_mm256_add_epi64(u, v), two_qv));
          const __m256i diff =
              _mm256_sub_epi64(_mm256_add_epi64(u, two_qv), v);
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
  // Last stage (m == 2): fold in n^{-1}, fully reduce.
  uint64_t* x = a;
  uint64_t* y = a + t;
  const __m256i n_inv_v = Set1(args.n_inv);
  const __m256i n_inv_sh_v = Set1(args.n_inv_shoup);
  const __m256i pis_v = Set1(args.psi_inv_n_scaled);
  const __m256i pis_sh_v = Set1(args.psi_inv_n_scaled_shoup);
  size_t j = 0;
  for (; j + kWidth <= t; j += kWidth) {
    const __m256i u = Load(x + j);
    const __m256i v = Load(y + j);
    const __m256i r0 =
        ShoupLazy(_mm256_add_epi64(u, v), n_inv_v, n_inv_sh_v, qv);
    const __m256i r1 = ShoupLazy(
        _mm256_sub_epi64(_mm256_add_epi64(u, two_qv), v), pis_v, pis_sh_v, qv);
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

void ModAddAvx2(uint64_t* a, const uint64_t* b, size_t n, uint64_t q) {
  const __m256i qv = Set1(q);
  size_t i = 0;
  for (; i + kWidth <= n; i += kWidth) {
    Store(a + i, CondSub(_mm256_add_epi64(Load(a + i), Load(b + i)), qv));
  }
  for (; i < n; ++i) {
    const uint64_t s = a[i] + b[i];
    a[i] = s >= q ? s - q : s;
  }
}

void ModSubAvx2(uint64_t* a, const uint64_t* b, size_t n, uint64_t q) {
  const __m256i qv = Set1(q);
  size_t i = 0;
  for (; i + kWidth <= n; i += kWidth) {
    const __m256i av = Load(a + i);
    const __m256i bv = Load(b + i);
    const __m256i d = _mm256_sub_epi64(av, bv);
    const __m256i lt = CmpGtU64(bv, av);
    Store(a + i, _mm256_add_epi64(d, _mm256_and_si256(qv, lt)));
  }
  for (; i < n; ++i) a[i] = SubMod(a[i], b[i], q);
}

void ModNegAvx2(uint64_t* a, size_t n, uint64_t q) {
  const __m256i qv = Set1(q);
  const __m256i zero = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + kWidth <= n; i += kWidth) {
    const __m256i av = Load(a + i);
    const __m256i is_zero = _mm256_cmpeq_epi64(av, zero);
    Store(a + i, _mm256_andnot_si256(is_zero, _mm256_sub_epi64(qv, av)));
  }
  for (; i < n; ++i) a[i] = NegMod(a[i], q);
}

void ModMulAvx2(uint64_t* a, const uint64_t* b, size_t n, uint64_t q,
                uint64_t ratio_hi, uint64_t ratio_lo) {
  const __m256i qv = Set1(q);
  const __m256i rhi = Set1(ratio_hi);
  const __m256i rlo = Set1(ratio_lo);
  const Modulus mod(q);
  size_t i = 0;
  for (; i + kWidth <= n; i += kWidth) {
    Store(a + i, BarrettMulMod(Load(a + i), Load(b + i), qv, rhi, rlo));
  }
  for (; i < n; ++i) a[i] = mod.MulMod(a[i], b[i]);
}

void ModAddMulAvx2(uint64_t* a, const uint64_t* b, const uint64_t* c, size_t n,
                   uint64_t q, uint64_t ratio_hi, uint64_t ratio_lo) {
  const __m256i qv = Set1(q);
  const __m256i rhi = Set1(ratio_hi);
  const __m256i rlo = Set1(ratio_lo);
  const Modulus mod(q);
  size_t i = 0;
  for (; i + kWidth <= n; i += kWidth) {
    const __m256i prod = BarrettMulMod(Load(b + i), Load(c + i), qv, rhi, rlo);
    Store(a + i, CondSub(_mm256_add_epi64(Load(a + i), prod), qv));
  }
  for (; i < n; ++i) a[i] = AddMod(a[i], mod.MulMod(b[i], c[i]), q);
}

void ModMulScalarAvx2(uint64_t* a, size_t n, uint64_t s, uint64_t s_shoup,
                      uint64_t q) {
  const __m256i qv = Set1(q);
  const __m256i sv = Set1(s);
  const __m256i sshv = Set1(s_shoup);
  size_t i = 0;
  for (; i + kWidth <= n; i += kWidth) {
    Store(a + i, CondSub(ShoupLazy(Load(a + i), sv, sshv, qv), qv));
  }
  for (; i < n; ++i) a[i] = MulModShoup(a[i], s, s_shoup, q);
}

void FusedMacAvx2(uint64_t* acc0, uint64_t* acc1, const uint64_t* d,
                  const uint32_t* perm, const uint64_t* kb,
                  const uint64_t* kb_shoup, const uint64_t* ka,
                  const uint64_t* ka_shoup, size_t n, uint64_t q) {
  const uint64_t two_q = q << 1;
  const __m256i qv = Set1(q);
  const __m256i two_qv = Set1(two_q);
  size_t c = 0;
  for (; c + kWidth <= n; c += kWidth) {
    __m256i dv;
    if (perm == nullptr) {
      dv = Load(d + c);
    } else {
      const __m128i idx =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(perm + c));
      dv = _mm256_i32gather_epi64(reinterpret_cast<const long long*>(d), idx,
                                  8);
    }
    const __m256i t0 = ShoupLazy(dv, Load(kb + c), Load(kb_shoup + c), qv);
    const __m256i t1 = ShoupLazy(dv, Load(ka + c), Load(ka_shoup + c), qv);
    Store(acc0 + c, CondSub(_mm256_add_epi64(Load(acc0 + c), t0), two_qv));
    Store(acc1 + c, CondSub(_mm256_add_epi64(Load(acc1 + c), t1), two_qv));
  }
  for (; c < n; ++c) {
    const uint64_t dc = perm == nullptr ? d[c] : d[perm[c]];
    const uint64_t s0 = acc0[c] + MulModShoupLazy(dc, kb[c], kb_shoup[c], q);
    const uint64_t s1 = acc1[c] + MulModShoupLazy(dc, ka[c], ka_shoup[c], q);
    acc0[c] = s0 >= two_q ? s0 - two_q : s0;
    acc1[c] = s1 >= two_q ? s1 - two_q : s1;
  }
}

// No vector form of the rescale kernels: built from 32-bit vpmuludq
// partials, an AVX2 version timed no faster than the scalar loop with its
// native 64-bit multiplies, so this table runs the scalar code.
void RescaleLiftAvx2(uint64_t* dst, const uint64_t* r, size_t n, uint64_t p,
                     uint64_t p_mod_q, uint64_t q) {
  ScalarKernels()->rescale_lift(dst, r, n, p, p_mod_q, q);
}

void RescaleCombineAvx2(uint64_t* x, const uint64_t* a, size_t n, uint64_t q,
                        uint64_t p_inv, uint64_t p_inv_shoup, uint64_t t_p_inv,
                        uint64_t t_p_inv_shoup) {
  ScalarKernels()->rescale_combine(x, a, n, q, p_inv, p_inv_shoup, t_p_inv,
                                   t_p_inv_shoup);
}

const KernelTable kAvx2Table = {
    /*name=*/"avx2",
    /*ntt_forward=*/NttForwardAvx2,
    /*ntt_inverse=*/NttInverseAvx2,
    /*mod_add=*/ModAddAvx2,
    /*mod_sub=*/ModSubAvx2,
    /*mod_neg=*/ModNegAvx2,
    /*mod_mul=*/ModMulAvx2,
    /*mod_add_mul=*/ModAddMulAvx2,
    /*mod_mul_scalar=*/ModMulScalarAvx2,
    /*fused_mac=*/FusedMacAvx2,
    /*rescale_lift=*/RescaleLiftAvx2,
    /*rescale_combine=*/RescaleCombineAvx2,
};

}  // namespace

const KernelTable* Avx2Kernels() { return &kAvx2Table; }

}  // namespace simd
}  // namespace sknn

#else  // !SKNN_HAVE_AVX2

namespace sknn {
namespace simd {

const KernelTable* Avx2Kernels() { return nullptr; }

}  // namespace simd
}  // namespace sknn

#endif  // SKNN_HAVE_AVX2
