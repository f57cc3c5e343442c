#include "math/rns_poly.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "math/prime.h"

namespace sknn {
namespace {

class RnsPolyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const size_t n = 64;
    auto primes = GenerateNttPrimes(40, 2 * n, 3);
    ASSERT_TRUE(primes.ok());
    auto base = RnsBase::Create(n, primes.value());
    ASSERT_TRUE(base.ok());
    base_ = std::make_unique<RnsBase>(std::move(base).value());
  }

  RnsPoly RandomPoly(uint64_t seed, bool ntt_form = false) {
    Chacha20Rng rng(seed);
    RnsPoly p = ZeroPoly(base_->n(), base_->size(), ntt_form);
    for (size_t i = 0; i < base_->size(); ++i) {
      rng.SampleUniformModInto(base_->modulus(i).value(), base_->n(),
                               p.comp(i));
    }
    return p;
  }

  std::unique_ptr<RnsBase> base_;
};

TEST_F(RnsPolyTest, ZeroPolyIsZero) {
  RnsPoly p = ZeroPoly(base_->n(), base_->size(), false);
  EXPECT_TRUE(p.IsZero());
  EXPECT_EQ(p.num_components(), 3u);
}

TEST_F(RnsPolyTest, StorageIsOneContiguousAllocation) {
  RnsPoly p = RandomPoly(99);
  // The whole polynomial is a single n * num_components buffer, component-
  // major: comp(i) is an alias into data() at offset i * n.
  EXPECT_EQ(p.flat().size(), p.n() * p.num_components());
  EXPECT_EQ(p.data(), p.flat().data());
  for (size_t i = 0; i < p.num_components(); ++i) {
    EXPECT_EQ(p.comp(i), p.data() + i * p.n()) << "component " << i;
  }
  // Component views tile the buffer exactly: writing through comp(i) is
  // visible at the corresponding flat offset.
  for (size_t i = 0; i < p.num_components(); ++i) {
    p.comp(i)[3] = 17 + i;
    EXPECT_EQ(p.flat()[i * p.n() + 3], 17 + i);
  }
}

TEST_F(RnsPolyTest, PrefixCopiesLeadingComponents) {
  RnsPoly p = RandomPoly(42, /*ntt_form=*/true);
  RnsPoly two = p.Prefix(2);
  EXPECT_EQ(two.n(), p.n());
  EXPECT_EQ(two.num_components(), 2u);
  EXPECT_TRUE(two.ntt_form());
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(std::equal(two.comp(i), two.comp(i) + two.n(), p.comp(i)));
  }
}

TEST_F(RnsPolyTest, AddThenSubtractIsIdentity) {
  RnsPoly a = RandomPoly(1);
  RnsPoly b = RandomPoly(2);
  RnsPoly original = a;
  AddInplace(&a, b, *base_);
  SubInplace(&a, b, *base_);
  EXPECT_EQ(a, original);
}

TEST_F(RnsPolyTest, NegateTwiceIsIdentity) {
  RnsPoly a = RandomPoly(3);
  RnsPoly original = a;
  NegateInplace(&a, *base_);
  NegateInplace(&a, *base_);
  EXPECT_EQ(a, original);
}

TEST_F(RnsPolyTest, AddOwnNegationIsZero) {
  RnsPoly a = RandomPoly(4);
  RnsPoly b = a;
  NegateInplace(&b, *base_);
  AddInplace(&a, b, *base_);
  EXPECT_TRUE(a.IsZero());
}

TEST_F(RnsPolyTest, NttRoundtrip) {
  RnsPoly a = RandomPoly(5);
  RnsPoly original = a;
  ToNttInplace(&a, *base_);
  EXPECT_TRUE(a.ntt_form());
  FromNttInplace(&a, *base_);
  EXPECT_FALSE(a.ntt_form());
  EXPECT_EQ(a, original);
}

TEST_F(RnsPolyTest, MulPointwiseMatchesNaivePerPrime) {
  RnsPoly a = RandomPoly(6);
  RnsPoly b = RandomPoly(7);
  RnsPoly a_coeff = a, b_coeff = b;
  ToNttInplace(&a, *base_);
  ToNttInplace(&b, *base_);
  RnsPoly c = MulPointwise(a, b, *base_);
  FromNttInplace(&c, *base_);
  for (size_t i = 0; i < base_->size(); ++i) {
    // NaiveNegacyclicMultiply wants owning vectors; the result compare
    // reads the component in place.
    std::vector<uint64_t> av(a_coeff.comp(i), a_coeff.comp(i) + a_coeff.n());
    std::vector<uint64_t> bv(b_coeff.comp(i), b_coeff.comp(i) + b_coeff.n());
    std::vector<uint64_t> expected;
    NaiveNegacyclicMultiply(av, bv, base_->modulus(i).value(), &expected);
    EXPECT_TRUE(std::equal(c.comp(i), c.comp(i) + c.n(), expected.begin(),
                           expected.end()))
        << "prime index " << i;
  }
}

TEST_F(RnsPolyTest, AddMulAccumulates) {
  RnsPoly a = RandomPoly(8, true);
  RnsPoly b = RandomPoly(9, true);
  RnsPoly c = RandomPoly(10, true);
  RnsPoly expected = a;
  RnsPoly bc = MulPointwise(b, c, *base_);
  AddInplace(&expected, bc, *base_);
  AddMulInplace(&a, b, c, *base_);
  EXPECT_EQ(a, expected);
}

TEST_F(RnsPolyTest, MulScalarMatchesRepeatedAdd) {
  RnsPoly a = RandomPoly(11);
  RnsPoly tripled = ZeroPoly(base_->n(), base_->size(), false);
  for (int i = 0; i < 3; ++i) AddInplace(&tripled, a, *base_);
  std::vector<uint64_t> three(base_->size(), 3);
  MulScalarInplace(&a, three, *base_);
  EXPECT_EQ(a, tripled);
}

TEST_F(RnsPolyTest, GaloisIdentityElement) {
  RnsPoly a = RandomPoly(12);
  RnsPoly out = ApplyGaloisCoeff(a, 1, *base_);
  EXPECT_EQ(out, a);
}

TEST_F(RnsPolyTest, GaloisComposition) {
  // Applying g then h equals applying g*h mod 2n.
  const uint64_t two_n = 2 * base_->n();
  RnsPoly a = RandomPoly(13);
  const uint64_t g = 3, h = 5;
  RnsPoly gh = ApplyGaloisCoeff(ApplyGaloisCoeff(a, g, *base_), h, *base_);
  RnsPoly direct = ApplyGaloisCoeff(a, (g * h) % two_n, *base_);
  EXPECT_EQ(gh, direct);
}

TEST_F(RnsPolyTest, GaloisPreservesConstantTerm) {
  RnsPoly a = ZeroPoly(base_->n(), base_->size(), false);
  for (size_t i = 0; i < base_->size(); ++i) a.comp(i)[0] = 7;
  RnsPoly out = ApplyGaloisCoeff(a, 3, *base_);
  for (size_t i = 0; i < base_->size(); ++i) {
    EXPECT_EQ(out.comp(i)[0], 7u);
  }
}

TEST_F(RnsPolyTest, GaloisIsRingHomomorphismOnProducts) {
  // tau(a*b) == tau(a) * tau(b)
  RnsPoly a = RandomPoly(14);
  RnsPoly b = RandomPoly(15);
  const uint64_t g = 2 * base_->n() - 1;

  RnsPoly an = a, bn = b;
  ToNttInplace(&an, *base_);
  ToNttInplace(&bn, *base_);
  RnsPoly ab = MulPointwise(an, bn, *base_);
  FromNttInplace(&ab, *base_);
  RnsPoly tau_ab = ApplyGaloisCoeff(ab, g, *base_);

  RnsPoly ta = ApplyGaloisCoeff(a, g, *base_);
  RnsPoly tb = ApplyGaloisCoeff(b, g, *base_);
  ToNttInplace(&ta, *base_);
  ToNttInplace(&tb, *base_);
  RnsPoly prod = MulPointwise(ta, tb, *base_);
  FromNttInplace(&prod, *base_);

  EXPECT_EQ(tau_ab, prod);
}

TEST_F(RnsPolyTest, GaloisNttMatchesCoeffDomainGalois) {
  // NTT-domain automorphism (pure slot permutation) must agree with the
  // coefficient-domain reference composed with the NTT on both sides, for
  // every odd Galois element. This is the identity the hoisted key-switch
  // path relies on.
  const size_t two_n = 2 * base_->n();
  RnsPoly a = RandomPoly(77);
  for (uint64_t elt = 3; elt < two_n; elt += 2) {
    RnsPoly expect = ApplyGaloisCoeff(a, elt, *base_);
    ToNttInplace(&expect, *base_);
    RnsPoly a_ntt = a;
    ToNttInplace(&a_ntt, *base_);
    RnsPoly got = ApplyGaloisNtt(a_ntt, elt, *base_);
    ASSERT_EQ(got, expect) << "elt=" << elt;
  }
}

TEST_F(RnsPolyTest, GaloisNttIdentityElement) {
  RnsPoly a = RandomPoly(78, /*ntt_form=*/true);
  EXPECT_EQ(ApplyGaloisNtt(a, 1, *base_), a);
}

TEST_F(RnsPolyTest, GaloisPermTableMatchesDirectComputation) {
  const size_t n = base_->n();
  const uint64_t two_n = 2 * n;
  for (uint64_t elt : {uint64_t{3}, uint64_t{5}, two_n - 1}) {
    const std::vector<uint32_t>& table = base_->GaloisPermTable(elt);
    ASSERT_EQ(table.size(), n);
    for (size_t i = 0; i < n; ++i) {
      const uint64_t target = (static_cast<uint64_t>(i) * elt) % two_n;
      const uint32_t expected = target < n
                                    ? static_cast<uint32_t>(target << 1)
                                    : static_cast<uint32_t>(
                                          ((target - n) << 1) | 1);
      EXPECT_EQ(table[i], expected) << "elt=" << elt << " i=" << i;
    }
    // Second lookup hits the cache and must return the same table.
    EXPECT_EQ(&base_->GaloisPermTable(elt), &table);
  }
}

}  // namespace
}  // namespace sknn
