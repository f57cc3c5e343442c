#include "math/simd/kernels.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.h"
#include "math/mod_arith.h"
#include "math/ntt.h"
#include "math/prime.h"

// Unit tests for the runtime-dispatched SIMD kernel tables: every compiled
// table must be fully populated, agree bit-for-bit with the scalar table on
// every kernel (including lengths that are not multiples of the vector
// width, so the scalar tails run), and the SKNN_SIMD override must select
// exactly the requested level.

namespace sknn {
namespace simd {
namespace {

// Lengths chosen to straddle the vector widths (4 for AVX2, 8 for AVX-512):
// shorter than a vector, exact multiples, and odd tails.
const size_t kLengths[] = {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 100, 257};

std::vector<const KernelTable*> CompiledTables() {
  std::vector<const KernelTable*> tables;
  for (const KernelTable* t :
       {ScalarKernels(), Avx2Kernels(), Avx512Kernels()}) {
    if (t != nullptr) tables.push_back(t);
  }
  return tables;
}

TEST(SimdDispatchTest, EveryCompiledTableIsFullyPopulated) {
  for (const KernelTable* t : CompiledTables()) {
    ASSERT_NE(t->name, nullptr);
    SCOPED_TRACE(t->name);
    EXPECT_NE(t->ntt_forward, nullptr);
    EXPECT_NE(t->ntt_inverse, nullptr);
    EXPECT_NE(t->mod_add, nullptr);
    EXPECT_NE(t->mod_sub, nullptr);
    EXPECT_NE(t->mod_neg, nullptr);
    EXPECT_NE(t->mod_mul, nullptr);
    EXPECT_NE(t->mod_add_mul, nullptr);
    EXPECT_NE(t->mod_mul_scalar, nullptr);
    EXPECT_NE(t->fused_mac, nullptr);
    EXPECT_NE(t->rescale_lift, nullptr);
    EXPECT_NE(t->rescale_combine, nullptr);
  }
}

TEST(SimdDispatchTest, ScalarIsAlwaysAvailable) {
  EXPECT_TRUE(IsaAvailable(Isa::kScalar));
  ASSERT_NE(ScalarKernels(), nullptr);
  std::vector<Isa> levels = AvailableIsaLevels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), Isa::kScalar);
  // Levels are ordered narrow to wide and each one really is available.
  for (size_t i = 0; i < levels.size(); ++i) {
    EXPECT_TRUE(IsaAvailable(levels[i])) << IsaName(levels[i]);
    if (i > 0) {
      EXPECT_LT(static_cast<int>(levels[i - 1]), static_cast<int>(levels[i]));
    }
  }
}

TEST(SimdDispatchTest, ForceIsaSelectsRequestedTable) {
  for (Isa isa : AvailableIsaLevels()) {
    ASSERT_TRUE(ForceIsa(isa).ok()) << IsaName(isa);
    EXPECT_EQ(ActiveIsa(), isa);
    EXPECT_STREQ(ActiveKernels().name, IsaName(isa));
  }
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    if (!IsaAvailable(isa)) {
      EXPECT_FALSE(ForceIsa(isa).ok()) << IsaName(isa);
    }
  }
  ResetIsaFromEnv();
}

class ScopedEnv {
 public:
  explicit ScopedEnv(const char* name) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) {
      had_old_ = true;
      old_ = old;
    }
  }
  ~ScopedEnv() {
    if (had_old_) {
      setenv(name_, old_.c_str(), /*overwrite=*/1);
    } else {
      unsetenv(name_);
    }
    ResetIsaFromEnv();
  }
  void Set(const char* value) { setenv(name_, value, /*overwrite=*/1); }
  void Unset() { unsetenv(name_); }

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

TEST(SimdDispatchTest, EnvOverrideSelectsLevel) {
  ScopedEnv env("SKNN_SIMD");

  env.Set("scalar");
  ResetIsaFromEnv();
  EXPECT_EQ(ActiveIsa(), Isa::kScalar);

  if (IsaAvailable(Isa::kAvx2)) {
    env.Set("avx2");
    ResetIsaFromEnv();
    EXPECT_EQ(ActiveIsa(), Isa::kAvx2);
  }
  if (IsaAvailable(Isa::kAvx512)) {
    env.Set("avx512");
    ResetIsaFromEnv();
    EXPECT_EQ(ActiveIsa(), Isa::kAvx512);
  }

  // Unknown values warn and fall back to the widest available level.
  env.Set("sse9000");
  ResetIsaFromEnv();
  EXPECT_EQ(ActiveIsa(), AvailableIsaLevels().back());

  // No override: widest available.
  env.Unset();
  ResetIsaFromEnv();
  EXPECT_EQ(ActiveIsa(), AvailableIsaLevels().back());
}

TEST(SimdDispatchTest, EnvOverrideBeatsForceOnReset) {
  ScopedEnv env("SKNN_SIMD");
  env.Set("scalar");
  ResetIsaFromEnv();
  ASSERT_EQ(ActiveIsa(), Isa::kScalar);
  ASSERT_TRUE(ForceIsa(AvailableIsaLevels().back()).ok());
  ResetIsaFromEnv();
  EXPECT_EQ(ActiveIsa(), Isa::kScalar);
}

// Element-wise kernel equality: each compiled table against the scalar
// reference, on random reduced inputs, for every length in kLengths.
class SimdKernelEqualityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // 60-bit prime: the widest the lazy pipeline admits, so the vector
    // arithmetic has no headroom to hide overflow bugs.
    auto primes = GenerateNttPrimes(60, 2 * 1024, 1);
    ASSERT_TRUE(primes.ok()) << primes.status();
    q_ = primes.value()[0];
    mod_ = std::make_unique<Modulus>(q_);
  }

  std::vector<uint64_t> Random(size_t n, uint64_t bound, uint64_t seed) {
    Chacha20Rng rng(seed);
    std::vector<uint64_t> v;
    rng.SampleUniformMod(bound, n, &v);
    return v;
  }

  uint64_t q_ = 0;
  std::unique_ptr<Modulus> mod_;
};

TEST_F(SimdKernelEqualityTest, ElementwiseKernelsMatchScalar) {
  const KernelTable* scalar = ScalarKernels();
  for (const KernelTable* t : CompiledTables()) {
    if (t == scalar) continue;
    SCOPED_TRACE(t->name);
    for (size_t n : kLengths) {
      SCOPED_TRACE("n=" + std::to_string(n));
      const std::vector<uint64_t> a0 = Random(n, q_, 11 * n + 1);
      const std::vector<uint64_t> b = Random(n, q_, 11 * n + 2);
      const std::vector<uint64_t> c = Random(n, q_, 11 * n + 3);

      std::vector<uint64_t> want, got;

      want = a0;
      scalar->mod_add(want.data(), b.data(), n, q_);
      got = a0;
      t->mod_add(got.data(), b.data(), n, q_);
      EXPECT_EQ(got, want) << "mod_add";

      want = a0;
      scalar->mod_sub(want.data(), b.data(), n, q_);
      got = a0;
      t->mod_sub(got.data(), b.data(), n, q_);
      EXPECT_EQ(got, want) << "mod_sub";

      want = a0;
      scalar->mod_neg(want.data(), n, q_);
      got = a0;
      t->mod_neg(got.data(), n, q_);
      EXPECT_EQ(got, want) << "mod_neg";

      want = a0;
      scalar->mod_mul(want.data(), b.data(), n, q_, mod_->ratio_hi(),
                      mod_->ratio_lo());
      got = a0;
      t->mod_mul(got.data(), b.data(), n, q_, mod_->ratio_hi(),
                 mod_->ratio_lo());
      EXPECT_EQ(got, want) << "mod_mul";

      want = a0;
      scalar->mod_add_mul(want.data(), b.data(), c.data(), n, q_,
                          mod_->ratio_hi(), mod_->ratio_lo());
      got = a0;
      t->mod_add_mul(got.data(), b.data(), c.data(), n, q_, mod_->ratio_hi(),
                     mod_->ratio_lo());
      EXPECT_EQ(got, want) << "mod_add_mul";

      const uint64_t s = b[0];
      const uint64_t s_shoup = ShoupPrecompute(s, q_);
      want = a0;
      scalar->mod_mul_scalar(want.data(), n, s, s_shoup, q_);
      got = a0;
      t->mod_mul_scalar(got.data(), n, s, s_shoup, q_);
      EXPECT_EQ(got, want) << "mod_mul_scalar";
    }
  }
}

TEST_F(SimdKernelEqualityTest, ElementwiseKernelsMatchScalarAtExtremes) {
  // All-(q-1) operands: the largest reduced inputs, so every internal sum
  // and product sits at its bound.
  const KernelTable* scalar = ScalarKernels();
  for (const KernelTable* t : CompiledTables()) {
    if (t == scalar) continue;
    SCOPED_TRACE(t->name);
    for (size_t n : kLengths) {
      const std::vector<uint64_t> max_in(n, q_ - 1);
      std::vector<uint64_t> want, got;

      want = max_in;
      scalar->mod_add(want.data(), max_in.data(), n, q_);
      got = max_in;
      t->mod_add(got.data(), max_in.data(), n, q_);
      EXPECT_EQ(got, want) << "mod_add n=" << n;

      want = max_in;
      scalar->mod_mul(want.data(), max_in.data(), n, q_, mod_->ratio_hi(),
                      mod_->ratio_lo());
      got = max_in;
      t->mod_mul(got.data(), max_in.data(), n, q_, mod_->ratio_hi(),
                 mod_->ratio_lo());
      EXPECT_EQ(got, want) << "mod_mul n=" << n;

      std::vector<uint64_t> zero(n, 0);
      want = max_in;
      scalar->mod_sub(want.data(), zero.data(), n, q_);
      got = max_in;
      t->mod_sub(got.data(), zero.data(), n, q_);
      EXPECT_EQ(got, want) << "mod_sub n=" << n;

      want = zero;
      scalar->mod_neg(want.data(), n, q_);
      got = zero;
      t->mod_neg(got.data(), n, q_);
      EXPECT_EQ(got, want) << "mod_neg(0) n=" << n;
    }
  }
}

TEST_F(SimdKernelEqualityTest, FusedMacMatchesScalar) {
  const KernelTable* scalar = ScalarKernels();
  const uint64_t two_q = 2 * q_;
  for (const KernelTable* t : CompiledTables()) {
    if (t == scalar) continue;
    SCOPED_TRACE(t->name);
    for (size_t n : kLengths) {
      SCOPED_TRACE("n=" + std::to_string(n));
      // Accumulators start anywhere in the lazy [0, 2q) domain; the gather
      // source d and key components kb/ka are reduced.
      const std::vector<uint64_t> acc0_init = Random(n, two_q, 13 * n + 1);
      const std::vector<uint64_t> acc1_init = Random(n, two_q, 13 * n + 2);
      const std::vector<uint64_t> d = Random(n, q_, 13 * n + 3);
      const std::vector<uint64_t> kb = Random(n, q_, 13 * n + 4);
      const std::vector<uint64_t> ka = Random(n, q_, 13 * n + 5);
      std::vector<uint64_t> kb_shoup(n), ka_shoup(n);
      for (size_t i = 0; i < n; ++i) {
        kb_shoup[i] = ShoupPrecompute(kb[i], q_);
        ka_shoup[i] = ShoupPrecompute(ka[i], q_);
      }
      // A nontrivial permutation (reversal) standing in for the Galois
      // gather of a rotation.
      std::vector<uint32_t> perm(n);
      for (size_t i = 0; i < n; ++i) {
        perm[i] = static_cast<uint32_t>(n - 1 - i);
      }

      const uint32_t* gathers[] = {nullptr, perm.data()};
      for (const uint32_t* p : gathers) {
        std::vector<uint64_t> want0 = acc0_init, want1 = acc1_init;
        scalar->fused_mac(want0.data(), want1.data(), d.data(), p, kb.data(),
                          kb_shoup.data(), ka.data(), ka_shoup.data(), n, q_);
        std::vector<uint64_t> got0 = acc0_init, got1 = acc1_init;
        t->fused_mac(got0.data(), got1.data(), d.data(), p, kb.data(),
                     kb_shoup.data(), ka.data(), ka_shoup.data(), n, q_);
        EXPECT_EQ(got0, want0) << (p ? "perm" : "identity") << " acc0";
        EXPECT_EQ(got1, want1) << (p ? "perm" : "identity") << " acc1";
        // The lazy invariant must hold on output: everything < 2q.
        for (size_t i = 0; i < n; ++i) {
          ASSERT_LT(got0[i], two_q);
          ASSERT_LT(got1[i], two_q);
        }
      }
    }
  }
}

// The rescale kernels on every table, scalar included, against an
// independent per-element formula (CenterMod lift, hardware-division
// products) and against scalar: a dropped prime above the kept one (the
// 60-bit special prime over 58-bit data primes) and below it, corrections
// on the centering boundary, lazy inputs in [q, 2q), odd tails.
TEST_F(SimdKernelEqualityTest, RescaleKernelsMatchReferenceAndScalar) {
  const uint64_t p60 = q_;
  auto data = GenerateNttPrimes(58, 2 * 1024, 2);
  ASSERT_TRUE(data.ok()) << data.status();
  const uint64_t q58a = data.value()[0];
  const uint64_t q58b = data.value()[1];
  const uint64_t t = 65537;
  struct Drop {
    uint64_t p;  // dropped prime
    uint64_t q;  // kept prime
  };
  const Drop drops[] = {{p60, q58a}, {q58a, p60}, {q58b, q58a}};
  const KernelTable* scalar = ScalarKernels();
  for (const Drop& drop : drops) {
    const uint64_t p = drop.p;
    const uint64_t q = drop.q;
    SCOPED_TRACE("p=" + std::to_string(p) + " q=" + std::to_string(q));
    const uint64_t p_inv = InvModPrime(p % q, q);
    const uint64_t t_p_inv = MulModSlow(t, p_inv, q);
    const uint64_t p_inv_shoup = ShoupPrecompute(p_inv, q);
    const uint64_t t_p_inv_shoup = ShoupPrecompute(t_p_inv, q);
    const uint64_t boundary[] = {0, 1, p >> 1, (p >> 1) + 1, p - 1};
    for (size_t n : kLengths) {
      SCOPED_TRACE("n=" + std::to_string(n));
      std::vector<uint64_t> r = Random(n, p, 17 * n + 1);
      std::vector<uint64_t> a = Random(n, 2 * q, 17 * n + 2);
      for (size_t i = 0; i < n; ++i) {
        if (i % 2 == 0) r[i] = boundary[(i / 2) % std::size(boundary)];
        if (i % 3 == 0) a[i] = q + a[i] % q;  // lazy, in [q, 2q)
      }
      a[n - 1] = 2 * q - 1;
      std::vector<uint64_t> want_lift(n), want(n);
      for (size_t i = 0; i < n; ++i) {
        want_lift[i] = ToUnsignedMod(CenterMod(r[i], p), q);
        want[i] = SubMod(MulModSlow(a[i] % q, p_inv, q),
                         MulModSlow(want_lift[i], t_p_inv, q), q);
      }
      std::vector<uint64_t> scalar_got(n);
      scalar->rescale_lift(scalar_got.data(), r.data(), n, p, p % q, q);
      scalar->rescale_combine(scalar_got.data(), a.data(), n, q, p_inv,
                              p_inv_shoup, t_p_inv, t_p_inv_shoup);
      for (const KernelTable* table : CompiledTables()) {
        SCOPED_TRACE(table->name);
        std::vector<uint64_t> got(n);
        table->rescale_lift(got.data(), r.data(), n, p, p % q, q);
        EXPECT_EQ(got, want_lift) << "rescale_lift";
        table->rescale_combine(got.data(), a.data(), n, q, p_inv, p_inv_shoup,
                               t_p_inv, t_p_inv_shoup);
        EXPECT_EQ(got, want) << "rescale_combine";
        EXPECT_EQ(got, scalar_got) << "against scalar";
      }
    }
  }
}

TEST_F(SimdKernelEqualityTest, NttKernelsMatchScalarDirectCall) {
  // Direct table-to-table comparison (no dispatch): complements the
  // ForceIsa-based sweep in ntt_test by proving the per-ISA entry points
  // agree even when invoked outside the dispatcher.
  const size_t n = 1024;
  auto tables = NttTables::Create(n, q_);
  ASSERT_TRUE(tables.ok()) << tables.status();
  const NttArgs args = tables->KernelArgs();
  const KernelTable* scalar = ScalarKernels();
  const std::vector<uint64_t> input = Random(n, q_, 999);

  std::vector<uint64_t> fwd_ref = input;
  scalar->ntt_forward(args, fwd_ref.data());
  std::vector<uint64_t> inv_ref = fwd_ref;
  scalar->ntt_inverse(args, inv_ref.data());
  EXPECT_EQ(inv_ref, input);

  for (const KernelTable* t : CompiledTables()) {
    if (t == scalar) continue;
    SCOPED_TRACE(t->name);
    std::vector<uint64_t> fwd = input;
    t->ntt_forward(args, fwd.data());
    EXPECT_EQ(fwd, fwd_ref);
    std::vector<uint64_t> inv = fwd_ref;
    t->ntt_inverse(args, inv.data());
    EXPECT_EQ(inv, inv_ref);
  }
}

}  // namespace
}  // namespace simd
}  // namespace sknn
