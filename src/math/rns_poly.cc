#include "math/rns_poly.h"

#include <cstring>

#include "common/logging.h"
#include "math/simd/kernels.h"

namespace sknn {

StatusOr<RnsBase> RnsBase::Create(size_t n,
                                  const std::vector<uint64_t>& primes) {
  if (primes.empty()) return InvalidArgumentError("RnsBase needs >= 1 prime");
  RnsBase base;
  base.n_ = n;
  base.moduli_.reserve(primes.size());
  base.ntt_.reserve(primes.size());
  for (uint64_t q : primes) {
    SKNN_ASSIGN_OR_RETURN(NttTables tables, NttTables::Create(n, q));
    base.moduli_.emplace_back(q);
    base.ntt_.push_back(std::move(tables));
  }
  base.galois_cache_ = std::make_unique<GaloisCache>();
  return base;
}

const std::vector<uint32_t>& RnsBase::GaloisPermTable(
    uint64_t galois_elt) const {
  SKNN_CHECK_EQ(galois_elt & 1, 1u);
  const uint64_t two_n = 2 * static_cast<uint64_t>(n_);
  SKNN_CHECK_LT(galois_elt, two_n);
  GaloisCache* cache = galois_cache_.get();
  {
    std::lock_guard<std::mutex> lock(cache->mu);
    auto it = cache->tables.find(galois_elt);
    if (it != cache->tables.end()) return it->second;
  }
  // x^i -> x^(i * elt mod 2n), with x^(n + k) = -x^k. Walk i * elt mod 2n
  // incrementally to avoid the per-element multiply + modulo.
  std::vector<uint32_t> table(n_);
  uint64_t target = 0;
  for (size_t i = 0; i < n_; ++i) {
    if (target < n_) {
      table[i] = static_cast<uint32_t>(target << 1);
    } else {
      table[i] = static_cast<uint32_t>(((target - n_) << 1) | 1);
    }
    target += galois_elt;
    if (target >= two_n) target -= two_n;
  }
  std::lock_guard<std::mutex> lock(cache->mu);
  // Unordered_map references to mapped values stay valid across rehash, so
  // handing out a reference under concurrent insertion is safe.
  return cache->tables.emplace(galois_elt, std::move(table)).first->second;
}

const std::vector<uint32_t>& RnsBase::GaloisPermTableNtt(
    uint64_t galois_elt) const {
  SKNN_CHECK_EQ(galois_elt & 1, 1u);
  const uint64_t two_n = 2 * static_cast<uint64_t>(n_);
  SKNN_CHECK_LT(galois_elt, two_n);
  GaloisCache* cache = galois_cache_.get();
  {
    std::lock_guard<std::mutex> lock(cache->mu);
    auto it = cache->ntt_tables.find(galois_elt);
    if (it != cache->ntt_tables.end()) return it->second;
  }
  // NTT slot i (bit-reversed order) holds the evaluation at the primitive
  // 2n-th root psi^(2*rev(i)+1). tau(a)(y) = a(y^elt), so slot i of
  // NTT(tau(a)) is a(psi^((2*rev(i)+1)*elt mod 2n)) — i.e. the input slot
  // whose exponent is that product. No sign flips: the automorphism
  // permutes the evaluation points, it never leaves the root set.
  int log_n = 0;
  while ((size_t{1} << log_n) < n_) ++log_n;
  std::vector<uint32_t> table(n_);
  for (size_t i = 0; i < n_; ++i) {
    const uint64_t rev = ReverseBits(static_cast<uint64_t>(i), log_n);
    const uint64_t exponent = ((2 * rev + 1) * galois_elt) & (two_n - 1);
    table[i] = static_cast<uint32_t>(ReverseBits((exponent - 1) >> 1, log_n));
  }
  std::lock_guard<std::mutex> lock(cache->mu);
  return cache->ntt_tables.emplace(galois_elt, std::move(table)).first->second;
}

bool RnsPoly::IsZero() const {
  for (uint64_t v : data_) {
    if (v != 0) return false;
  }
  return true;
}

RnsPoly RnsPoly::Prefix(size_t components) const {
  SKNN_CHECK_LE(components, components_);
  RnsPoly out;
  out.n_ = n_;
  out.components_ = components;
  out.ntt_form_ = ntt_form_;
  out.data_ = BufferPool::Acquire(components * n_);
  std::memcpy(out.data_.data(), data_.data(),
              components * n_ * sizeof(uint64_t));
  return out;
}

RnsPoly ZeroPoly(size_t n, size_t components, bool ntt_form) {
  return RnsPoly(n, components, ntt_form);
}

namespace {
void CheckShapes(const RnsPoly& a, const RnsPoly& b) {
  SKNN_CHECK_EQ(a.n(), b.n());
  SKNN_CHECK_EQ(a.num_components(), b.num_components());
  SKNN_CHECK_EQ(a.ntt_form(), b.ntt_form());
}
}  // namespace

void AddInplace(RnsPoly* a, const RnsPoly& b, const RnsBase& base) {
  CheckShapes(*a, b);
  const size_t n = a->n();
  const simd::KernelTable& kernels = simd::ActiveKernels();
  for (size_t i = 0; i < a->num_components(); ++i) {
    kernels.mod_add(a->comp(i), b.comp(i), n, base.modulus(i).value());
  }
}

void SubInplace(RnsPoly* a, const RnsPoly& b, const RnsBase& base) {
  CheckShapes(*a, b);
  const size_t n = a->n();
  const simd::KernelTable& kernels = simd::ActiveKernels();
  for (size_t i = 0; i < a->num_components(); ++i) {
    kernels.mod_sub(a->comp(i), b.comp(i), n, base.modulus(i).value());
  }
}

void NegateInplace(RnsPoly* a, const RnsBase& base) {
  const size_t n = a->n();
  const simd::KernelTable& kernels = simd::ActiveKernels();
  for (size_t i = 0; i < a->num_components(); ++i) {
    kernels.mod_neg(a->comp(i), n, base.modulus(i).value());
  }
}

RnsPoly MulPointwise(const RnsPoly& a, const RnsPoly& b, const RnsBase& base) {
  RnsPoly out = a;
  MulPointwiseInplace(&out, b, base);
  return out;
}

void MulPointwiseInplace(RnsPoly* a, const RnsPoly& b, const RnsBase& base) {
  CheckShapes(*a, b);
  SKNN_CHECK(a->ntt_form());
  const size_t n = a->n();
  const simd::KernelTable& kernels = simd::ActiveKernels();
  for (size_t i = 0; i < a->num_components(); ++i) {
    const Modulus& mod = base.modulus(i);
    kernels.mod_mul(a->comp(i), b.comp(i), n, mod.value(), mod.ratio_hi(),
                    mod.ratio_lo());
  }
}

void AddMulInplace(RnsPoly* a, const RnsPoly& b, const RnsPoly& c,
                   const RnsBase& base) {
  CheckShapes(b, c);
  SKNN_CHECK_EQ(a->num_components(), b.num_components());
  SKNN_CHECK(a->ntt_form() && b.ntt_form());
  const size_t n = a->n();
  const simd::KernelTable& kernels = simd::ActiveKernels();
  for (size_t i = 0; i < a->num_components(); ++i) {
    const Modulus& mod = base.modulus(i);
    kernels.mod_add_mul(a->comp(i), b.comp(i), c.comp(i), n, mod.value(),
                        mod.ratio_hi(), mod.ratio_lo());
  }
}

void MulScalarInplace(RnsPoly* a,
                      const std::vector<uint64_t>& scalar_per_prime,
                      const RnsBase& base) {
  SKNN_CHECK_GE(scalar_per_prime.size(), a->num_components());
  const size_t n = a->n();
  const simd::KernelTable& kernels = simd::ActiveKernels();
  for (size_t i = 0; i < a->num_components(); ++i) {
    const uint64_t q = base.modulus(i).value();
    const uint64_t s = scalar_per_prime[i];
    kernels.mod_mul_scalar(a->comp(i), n, s, ShoupPrecompute(s, q), q);
  }
}

void ToNttInplace(RnsPoly* a, const RnsBase& base) {
  if (a->ntt_form()) return;
  for (size_t i = 0; i < a->num_components(); ++i) {
    base.ntt(i).ForwardNtt(a->comp(i));
  }
  a->set_ntt_form(true);
}

void FromNttInplace(RnsPoly* a, const RnsBase& base) {
  if (!a->ntt_form()) return;
  for (size_t i = 0; i < a->num_components(); ++i) {
    base.ntt(i).InverseNtt(a->comp(i));
  }
  a->set_ntt_form(false);
}

RnsPoly ApplyGaloisCoeff(const RnsPoly& a, uint64_t galois_elt,
                         const RnsBase& base) {
  SKNN_CHECK(!a.ntt_form());
  const size_t n = a.n();
  const std::vector<uint32_t>& table = base.GaloisPermTable(galois_elt);
  RnsPoly out(n, a.num_components(), /*ntt_form=*/false);
  for (size_t c = 0; c < a.num_components(); ++c) {
    const uint64_t q = base.modulus(c).value();
    const uint64_t* __restrict src = a.comp(c);
    uint64_t* __restrict dst = out.comp(c);
    for (size_t i = 0; i < n; ++i) {
      const uint32_t e = table[i];
      const uint64_t v = src[i];
      dst[e >> 1] = (e & 1) == 0 ? v : (v == 0 ? 0 : q - v);
    }
  }
  return out;
}

RnsPoly ApplyGaloisNtt(const RnsPoly& a, uint64_t galois_elt,
                       const RnsBase& base) {
  SKNN_CHECK(a.ntt_form());
  const size_t n = a.n();
  const std::vector<uint32_t>& table = base.GaloisPermTableNtt(galois_elt);
  const uint32_t* __restrict perm = table.data();
  RnsPoly out(n, a.num_components(), /*ntt_form=*/true);
  for (size_t c = 0; c < a.num_components(); ++c) {
    const uint64_t* __restrict src = a.comp(c);
    uint64_t* __restrict dst = out.comp(c);
    for (size_t i = 0; i < n; ++i) dst[i] = src[perm[i]];
  }
  return out;
}

}  // namespace sknn
