#include "bgv/evaluator.h"

#include <cstring>

#include "bgv/sampling.h"
#include "common/buffer_pool.h"
#include "common/logging.h"
#include "common/metrics_registry.h"
#include "math/simd/kernels.h"

namespace sknn {
namespace bgv {

// Always-on primitive-op counters: one relaxed atomic add per call against
// a cached registry handle (see common/metrics_registry.h taxonomy).
#define SKNN_COUNT_EVALUATOR_OP(op)                                      \
  do {                                                                   \
    static MetricsRegistry::Counter* counter =                           \
        MetricsRegistry::Global().GetCounter("bgv.evaluator." op);       \
    counter->Increment();                                                \
  } while (0)

Evaluator::Evaluator(std::shared_ptr<const BgvContext> ctx)
    : ctx_(std::move(ctx)), noise_(*ctx_) {}

Status Evaluator::CheckCt(const Ciphertext& a) const {
  if (a.size() < 2) return InvalidArgumentError("ciphertext too small");
  if (a.level > ctx_->max_level()) {
    return InvalidArgumentError("ciphertext level out of range");
  }
  if (a.num_components() != a.level + 1) {
    return InternalError("ciphertext level/component mismatch");
  }
  if (a.c[0].n() != ctx_->n()) {
    return InvalidArgumentError(
        "ciphertext ring degree does not match this evaluator's context");
  }
  return Status::Ok();
}

Status Evaluator::Equalize(Ciphertext* a, Ciphertext* b) const {
  while (a->level > b->level) SKNN_RETURN_IF_ERROR(ModSwitchToNextInplace(a));
  while (b->level > a->level) SKNN_RETURN_IF_ERROR(ModSwitchToNextInplace(b));
  return Status::Ok();
}

Status Evaluator::MatchScale(Ciphertext* a, const Ciphertext& b) const {
  if (a->scale == b.scale) return Status::Ok();
  // Multiply a by (scale_b / scale_a) mod t so both carry scale_b.
  const Modulus& t_mod = ctx_->plain_modulus();
  const uint64_t ratio =
      t_mod.MulMod(b.scale, InvModPrime(a->scale, ctx_->t()));
  SKNN_RETURN_IF_ERROR(MultiplyScalarInplace(a, ratio));
  // MultiplyScalarInplace scaled the content, not the tracked factor.
  a->scale = b.scale;
  return Status::Ok();
}

Status Evaluator::AddInplace(Ciphertext* a, const Ciphertext& b) const {
  SKNN_COUNT_EVALUATOR_OP("add");
  SKNN_RETURN_IF_ERROR(CheckCt(*a));
  SKNN_RETURN_IF_ERROR(CheckCt(b));
  Ciphertext b_copy;
  const Ciphertext* rhs = &b;
  if (a->level != b.level) {
    b_copy = b;
    SKNN_RETURN_IF_ERROR(Equalize(a, &b_copy));
    rhs = &b_copy;
  }
  if (a->size() != rhs->size()) {
    return InvalidArgumentError("ciphertext size mismatch in Add");
  }
  SKNN_RETURN_IF_ERROR(MatchScale(a, *rhs));
  for (size_t i = 0; i < a->size(); ++i) {
    sknn::AddInplace(&a->c[i], rhs->c[i], ctx_->key_base());
  }
  a->noise_bits = noise_.Add(a->noise_bits, rhs->noise_bits);
  return Status::Ok();
}

Status Evaluator::SubInplace(Ciphertext* a, const Ciphertext& b) const {
  SKNN_COUNT_EVALUATOR_OP("sub");
  SKNN_RETURN_IF_ERROR(CheckCt(*a));
  SKNN_RETURN_IF_ERROR(CheckCt(b));
  Ciphertext b_copy;
  const Ciphertext* rhs = &b;
  if (a->level != b.level) {
    b_copy = b;
    SKNN_RETURN_IF_ERROR(Equalize(a, &b_copy));
    rhs = &b_copy;
  }
  if (a->size() != rhs->size()) {
    return InvalidArgumentError("ciphertext size mismatch in Sub");
  }
  SKNN_RETURN_IF_ERROR(MatchScale(a, *rhs));
  for (size_t i = 0; i < a->size(); ++i) {
    sknn::SubInplace(&a->c[i], rhs->c[i], ctx_->key_base());
  }
  a->noise_bits = noise_.Add(a->noise_bits, rhs->noise_bits);
  return Status::Ok();
}

void Evaluator::NegateInplace(Ciphertext* a) const {
  for (RnsPoly& p : a->c) sknn::NegateInplace(&p, ctx_->key_base());
}

Status Evaluator::AddPlainInplace(Ciphertext* a, const Plaintext& pt) const {
  SKNN_COUNT_EVALUATOR_OP("add_plain");
  SKNN_RETURN_IF_ERROR(CheckCt(*a));
  if (pt.coeffs.size() != ctx_->n()) {
    return InvalidArgumentError("plaintext degree mismatch");
  }
  // Scale the addend by the ciphertext's correction factor so that it
  // lands on the plaintext with weight one after decryption.
  std::vector<uint64_t> coeffs = pt.coeffs;
  if (a->scale != 1) {
    const Modulus& t_mod = ctx_->plain_modulus();
    for (uint64_t& c : coeffs) c = t_mod.MulMod(c, a->scale);
  }
  RnsPoly m = LiftPlainCentered(*ctx_, coeffs, a->level + 1);
  ToNttInplace(&m, ctx_->key_base());
  sknn::AddInplace(&a->c[0], m, ctx_->key_base());
  a->noise_bits = noise_.AddPlain(a->noise_bits);
  return Status::Ok();
}

Status Evaluator::AddScalarInplace(Ciphertext* a, uint64_t scalar_mod_t) const {
  SKNN_COUNT_EVALUATOR_OP("add_plain");
  SKNN_RETURN_IF_ERROR(CheckCt(*a));
  if (scalar_mod_t >= ctx_->t()) {
    return InvalidArgumentError("scalar exceeds plaintext modulus");
  }
  // The constant's lift, scale-corrected as in AddPlainInplace, is the
  // same centered value in every NTT slot of every prime.
  const int64_t centered = CenterMod(
      ctx_->plain_modulus().MulMod(scalar_mod_t, a->scale), ctx_->t());
  const size_t n = ctx_->n();
  for (size_t i = 0; i <= a->level; ++i) {
    const uint64_t q = ctx_->key_base().modulus(i).value();
    const uint64_t v = ToUnsignedMod(centered, q);
    uint64_t* __restrict c0 = a->c[0].comp(i);
    for (size_t c = 0; c < n; ++c) c0[c] = AddMod(c0[c], v, q);
  }
  a->noise_bits = noise_.AddPlain(a->noise_bits);
  return Status::Ok();
}

StatusOr<Ciphertext> Evaluator::Multiply(const Ciphertext& a,
                                         const Ciphertext& b) const {
  SKNN_COUNT_EVALUATOR_OP("multiply");
  SKNN_RETURN_IF_ERROR(CheckCt(a));
  SKNN_RETURN_IF_ERROR(CheckCt(b));
  if (a.size() != 2 || b.size() != 2) {
    return InvalidArgumentError("Multiply requires size-2 ciphertexts");
  }
  // Copy an operand only when Equalize would actually mod-switch it; the
  // common same-level case reads both inputs in place.
  const Ciphertext* x = &a;
  const Ciphertext* y = &b;
  Ciphertext switched;
  if (a.level != b.level) {
    if (a.level > b.level) {
      switched = a;
      SKNN_RETURN_IF_ERROR(ModSwitchToLevelInplace(&switched, b.level));
      x = &switched;
    } else {
      switched = b;
      SKNN_RETURN_IF_ERROR(ModSwitchToLevelInplace(&switched, a.level));
      y = &switched;
    }
  }
  const RnsBase& base = ctx_->key_base();
  Ciphertext out;
  out.level = x->level;
  out.scale = ctx_->plain_modulus().MulMod(x->scale, y->scale);
  RnsPoly d0 = MulPointwise(x->c[0], y->c[0], base);
  RnsPoly d1 = MulPointwise(x->c[0], y->c[1], base);
  AddMulInplace(&d1, x->c[1], y->c[0], base);
  RnsPoly d2 = MulPointwise(x->c[1], y->c[1], base);
  out.c.push_back(std::move(d0));
  out.c.push_back(std::move(d1));
  out.c.push_back(std::move(d2));
  out.noise_bits = noise_.Multiply(x->noise_bits, y->noise_bits);
  return out;
}

Evaluator::KSwitchDigits Evaluator::DecomposeForKeySwitch(
    size_t level, const RnsPoly& source) const {
  SKNN_CHECK(source.ntt_form());
  SKNN_CHECK_EQ(source.num_components(), level + 1);
  const size_t n = ctx_->n();
  const size_t ext = level + 2;
  const size_t sp_key_idx = ctx_->special_index();
  const RnsBase& base = ctx_->key_base();
  RnsPoly target = source;
  FromNttInplace(&target, base);

  KSwitchDigits out;
  out.level = level;
  out.digits.reserve(level + 1);
  for (size_t i = 0; i <= level; ++i) {
    // Lift digit i (integers < q_i) into every extended-base prime. Primes
    // at least as large as q_i take the residues verbatim. The diagonal
    // component (j == i) equals the source's own residues mod q_i, so it
    // is copied pre-transformed and its forward NTT below is skipped.
    RnsPoly digit(n, ext, /*ntt_form=*/false);
    const uint64_t qi = base.modulus(i).value();
    const uint64_t* __restrict d = target.comp(i);
    for (size_t j = 0; j < ext; ++j) {
      const size_t key_idx = (j <= level) ? j : sp_key_idx;
      uint64_t* __restrict dst = digit.comp(j);
      if (key_idx == i) {
        std::memcpy(dst, source.comp(i), n * sizeof(uint64_t));
      } else if (base.modulus(key_idx).value() >= qi) {
        std::memcpy(dst, d, n * sizeof(uint64_t));
      } else {
        const Modulus& mod = base.modulus(key_idx);
        for (size_t c = 0; c < n; ++c) dst[c] = mod.Reduce(d[c]);
      }
    }
    out.digits.push_back(std::move(digit));
  }

  // Forward NTT of the (level+1)*(level+1) off-diagonal digit components —
  // the expensive half of a key switch, shared across every key the
  // digits are later multiplied against.
  for (size_t i = 0; i <= level; ++i) {
    for (size_t j = 0; j < ext; ++j) {
      if (j == i) continue;  // already NTT form
      const size_t key_idx = (j <= level) ? j : sp_key_idx;
      base.ntt(key_idx).ForwardNtt(out.digits[i].comp(j));
    }
    out.digits[i].set_ntt_form(true);
  }
  return out;
}

void Evaluator::KeySwitchInner(const KSwitchDigits& digits,
                               const KSwitchKey& ksk,
                               const uint32_t* perm_ntt, RnsPoly* u0,
                               RnsPoly* u1) const {
  const size_t level = digits.level;
  const size_t n = ctx_->n();
  const size_t ext = level + 2;
  const size_t sp_key_idx = ctx_->special_index();
  const RnsBase& base = ctx_->key_base();
  SKNN_CHECK_EQ(ksk.digits.size(), ctx_->num_data_primes());
  const KSwitchKey::ShoupTables& shoup = ksk.GetShoupTables(base);

  // MAC loop with deferred reduction. Bound argument (DESIGN.md §3.2):
  // every q is below 2^62 (NttTables::Create rejects larger), each
  // MulModShoupLazy term is in [0, 2q), the accumulator invariant is
  // [0, 2q), so term + accumulator < 4q < 2^64 never wraps and one
  // conditional subtract of 2q per step restores the invariant.
  BufferPool::Scoped acc0_buf(ext * n), acc1_buf(ext * n);
  std::vector<uint64_t>& acc0 = acc0_buf.vector();
  std::vector<uint64_t>& acc1 = acc1_buf.vector();
  const simd::KernelTable& kernels = simd::ActiveKernels();
  for (size_t i = 0; i <= level; ++i) {
    const RnsPoly& kb = ksk.digits[i].first;
    const RnsPoly& ka = ksk.digits[i].second;
    const std::vector<uint64_t>& kb_shoup = shoup.digits[i].first;
    const std::vector<uint64_t>& ka_shoup = shoup.digits[i].second;
    for (size_t j = 0; j < ext; ++j) {
      const size_t key_idx = (j <= level) ? j : sp_key_idx;
      const uint64_t q = base.modulus(key_idx).value();
      const uint64_t* __restrict dg = digits.digits[i].comp(j);
      const uint64_t* __restrict kbv = kb.comp(key_idx);
      const uint64_t* __restrict kav = ka.comp(key_idx);
      const uint64_t* __restrict kbs = kb_shoup.data() + key_idx * n;
      const uint64_t* __restrict kas = ka_shoup.data() + key_idx * n;
      uint64_t* __restrict a0 = acc0.data() + j * n;
      uint64_t* __restrict a1 = acc1.data() + j * n;
      // The fused MAC runs through the SIMD dispatch table; a non-null
      // perm_ntt folds the NTT-domain automorphism into the gather, so a
      // rotation permutes the digits instead of re-decomposing.
      kernels.fused_mac(a0, a1, dg, perm_ntt, kbv, kbs, kav, kas, n, q);
    }
  }

  // Mod-down by the special prime in the NTT domain: only its two
  // accumulators are inverse-transformed (InverseNtt's lazy butterflies
  // take the [0, 2q) accumulators and fully reduce); the data-prime
  // accumulators feed the combine kernel as they are.
  base.ntt(sp_key_idx).InverseNtt(acc0.data() + (level + 1) * n);
  base.ntt(sp_key_idx).InverseNtt(acc1.data() + (level + 1) * n);
  RescaleInto(acc0.data(), level + 1, sp_key_idx, u0);
  RescaleInto(acc1.data(), level + 1, sp_key_idx, u1);
}

void Evaluator::RescaleInto(uint64_t* limbs, size_t kept, size_t dropped,
                            RnsPoly* out) const {
  const size_t n = ctx_->n();
  const RnsBase& base = ctx_->key_base();
  const simd::KernelTable& kernels = simd::ActiveKernels();
  const uint64_t p = base.modulus(dropped).value();
  uint64_t* r = limbs + kept * n;
  kernels.mod_mul_scalar(r, n, ctx_->t_inv_mod_q(dropped),
                         ctx_->t_inv_mod_q_shoup(dropped), p);
  *out = ZeroPoly(n, kept, /*ntt_form=*/true);
  for (size_t j = 0; j < kept; ++j) {
    const uint64_t q = base.modulus(j).value();
    uint64_t* o = out->comp(j);
    kernels.rescale_lift(o, r, n, p, ctx_->q_mod_q(dropped, j), q);
    base.ntt(j).ForwardNtt(o);
    kernels.rescale_combine(o, limbs + j * n, n, q,
                            ctx_->q_inv_mod_q(dropped, j),
                            ctx_->q_inv_mod_q_shoup(dropped, j),
                            ctx_->t_q_inv_mod_q(dropped, j),
                            ctx_->t_q_inv_mod_q_shoup(dropped, j));
  }
}

Status Evaluator::RelinearizeInplace(Ciphertext* a,
                                     const RelinKeys& rk) const {
  SKNN_COUNT_EVALUATOR_OP("relinearize");
  if (a->size() != 3) {
    return InvalidArgumentError("Relinearize requires a size-3 ciphertext");
  }
  RnsPoly u0, u1;
  KeySwitchInner(DecomposeForKeySwitch(a->level, a->c[2]), rk.key,
                 /*perm_ntt=*/nullptr, &u0, &u1);
  sknn::AddInplace(&a->c[0], u0, ctx_->key_base());
  sknn::AddInplace(&a->c[1], u1, ctx_->key_base());
  a->c.pop_back();
  a->noise_bits = noise_.KeySwitch(a->noise_bits, a->level);
  return Status::Ok();
}

StatusOr<Ciphertext> Evaluator::MultiplyRelin(const Ciphertext& a,
                                              const Ciphertext& b,
                                              const RelinKeys& rk) const {
  SKNN_ASSIGN_OR_RETURN(Ciphertext out, Multiply(a, b));
  SKNN_RETURN_IF_ERROR(RelinearizeInplace(&out, rk));
  if (out.level > 0) {
    SKNN_RETURN_IF_ERROR(ModSwitchToNextInplace(&out));
  }
  return out;
}

Status Evaluator::MultiplyPlainInplace(Ciphertext* a,
                                       const Plaintext& pt) const {
  SKNN_COUNT_EVALUATOR_OP("multiply_plain");
  SKNN_RETURN_IF_ERROR(CheckCt(*a));
  if (pt.coeffs.size() != ctx_->n()) {
    return InvalidArgumentError("plaintext degree mismatch");
  }
  if (pt.IsZero()) {
    return InvalidArgumentError(
        "multiplying by the zero plaintext produces a transparent "
        "ciphertext; subtract instead");
  }
  RnsPoly m = LiftPlainCentered(*ctx_, pt.coeffs, a->level + 1);
  ToNttInplace(&m, ctx_->key_base());
  for (RnsPoly& p : a->c) MulPointwiseInplace(&p, m, ctx_->key_base());
  a->noise_bits = noise_.MultiplyPlain(a->noise_bits);
  return Status::Ok();
}

Status Evaluator::MultiplyScalarInplace(Ciphertext* a,
                                        uint64_t scalar_mod_t) const {
  SKNN_COUNT_EVALUATOR_OP("multiply_scalar");
  SKNN_RETURN_IF_ERROR(CheckCt(*a));
  if (scalar_mod_t >= ctx_->t()) {
    return InvalidArgumentError("scalar exceeds plaintext modulus");
  }
  if (scalar_mod_t == 0) {
    return InvalidArgumentError("scalar multiply by zero is transparent");
  }
  const int64_t centered = CenterMod(scalar_mod_t, ctx_->t());
  const size_t comps = a->level + 1;
  std::vector<uint64_t> per_prime(comps);
  for (size_t i = 0; i < comps; ++i) {
    per_prime[i] =
        ToUnsignedMod(centered, ctx_->key_base().modulus(i).value());
  }
  for (RnsPoly& p : a->c) {
    MulScalarInplace(&p, per_prime, ctx_->key_base());
  }
  a->noise_bits = noise_.MultiplyScalar(a->noise_bits, scalar_mod_t);
  return Status::Ok();
}

Status Evaluator::ModSwitchToNextInplace(Ciphertext* a) const {
  SKNN_COUNT_EVALUATOR_OP("mod_switch");
  SKNN_RETURN_IF_ERROR(CheckCt(*a));
  if (a->level == 0) {
    return FailedPreconditionError("already at the lowest level");
  }
  // In the NTT domain: only the dropped limb is inverse-transformed, and
  // its lifted correction is forward-transformed into each kept limb. (A
  // coefficient-form part, which a frame may carry, is transformed first;
  // the rescale commutes with the NTT, so the result is the same.)
  const RnsBase& base = ctx_->key_base();
  for (RnsPoly& p : a->c) {
    ToNttInplace(&p, base);
    base.ntt(a->level).InverseNtt(p.comp(a->level));
    RnsPoly out;
    RescaleInto(p.data(), a->level, a->level, &out);
    p = std::move(out);
  }
  a->noise_bits = noise_.ModSwitch(a->noise_bits, a->level, a->size());
  a->scale = ctx_->plain_modulus().MulMod(a->scale, ctx_->q_inv_mod_t(a->level));
  a->level -= 1;
  return Status::Ok();
}

Status Evaluator::ModSwitchToLevelInplace(Ciphertext* a, size_t level) const {
  if (level > a->level) {
    return InvalidArgumentError("cannot mod switch upward");
  }
  while (a->level > level) {
    SKNN_RETURN_IF_ERROR(ModSwitchToNextInplace(a));
  }
  return Status::Ok();
}

Status Evaluator::ApplyGaloisInplace(Ciphertext* a, uint64_t galois_elt,
                                     const GaloisKeys& gk) const {
  SKNN_COUNT_EVALUATOR_OP("galois_automorphism");
  SKNN_RETURN_IF_ERROR(CheckCt(*a));
  if (a->size() != 2) {
    return InvalidArgumentError("ApplyGalois requires a size-2 ciphertext");
  }
  auto it = gk.keys.find(galois_elt);
  if (it == gk.keys.end()) {
    return NotFoundError("missing Galois key for element " +
                         std::to_string(galois_elt));
  }
  // NTT-domain automorphism: c0 is permuted in place (no round-trip), and
  // c1's automorphism is fused into the key-switch inner product as a
  // permuted gather of its digits (decompose commutes with tau, so the
  // permuted digits are a valid decomposition of tau(c1)).
  const RnsBase& base = ctx_->key_base();
  RnsPoly u0, u1;
  KeySwitchInner(DecomposeForKeySwitch(a->level, a->c[1]), it->second,
                 base.GaloisPermTableNtt(galois_elt).data(), &u0, &u1);
  sknn::AddInplace(&u0, ApplyGaloisNtt(a->c[0], galois_elt, base), base);
  a->c[0] = std::move(u0);
  a->c[1] = std::move(u1);
  a->noise_bits = noise_.KeySwitch(a->noise_bits, a->level);
  return Status::Ok();
}

Status Evaluator::ApplyGaloisChainInplace(
    Ciphertext* a, const std::vector<uint64_t>& galois_elts,
    const GaloisKeys& gk) const {
  // Validate every key before mutating the ciphertext; each hop checks
  // the ciphertext before changing it.
  for (uint64_t elt : galois_elts) {
    if (!gk.Has(elt)) {
      return NotFoundError("missing Galois key for element " +
                           std::to_string(elt));
    }
  }
  // Hop by hop in the NTT domain. With the NTT-domain mod-down a hop costs
  // the same NTT count as a coefficient-form one (DESIGN.md §3.2), so
  // carrying the chain in coefficient form would only add conversions.
  for (uint64_t elt : galois_elts) {
    SKNN_RETURN_IF_ERROR(ApplyGaloisInplace(a, elt, gk));
  }
  return Status::Ok();
}

std::vector<uint64_t> Evaluator::RotationGaloisElts(
    int step, const GaloisKeys& gk) const {
  const size_t row = ctx_->row_size();
  step = static_cast<int>(((step % static_cast<int>(row)) +
                           static_cast<int>(row)) %
                          static_cast<int>(row));
  if (step == 0) return {};
  // Prefer the exact key; decompose into signed power-of-two keys
  // otherwise. The non-adjacent form has the fewest nonzero digits of any
  // signed-binary form (never more than popcount(step)); a top digit of
  // +row is a full-row rotation, the identity, so it costs no hop.
  const uint64_t elt = ctx_->GaloisEltForRotation(step);
  if (gk.Has(elt)) return {elt};
  std::vector<uint64_t> elts;
  for (int bit = 0, rest = step; rest != 0; ++bit, rest >>= 1) {
    if ((rest & 1) == 0) continue;
    const int digit = (rest & 3) == 1 ? 1 : -1;
    rest -= digit;
    if ((size_t{1} << bit) < row) {
      elts.push_back(ctx_->GaloisEltForRotation(digit * (1 << bit)));
    }
  }
  return elts;
}

Status Evaluator::RotateRowsInplace(Ciphertext* a, int step,
                                    const GaloisKeys& gk) const {
  if (step == 0) return Status::Ok();
  return ApplyGaloisChainInplace(a, RotationGaloisElts(step, gk), gk);
}

Status Evaluator::RotateColumnsInplace(Ciphertext* a,
                                       const GaloisKeys& gk) const {
  return ApplyGaloisInplace(a, ctx_->GaloisEltForColumnSwap(), gk);
}

Status Evaluator::FoldRowsInplace(Ciphertext* a, size_t block,
                                  const GaloisKeys& gk) const {
  if (block == 0 || (block & (block - 1)) != 0) {
    return InvalidArgumentError("fold block must be a power of two");
  }
  if (block > ctx_->row_size()) {
    return InvalidArgumentError("fold block exceeds row size");
  }
  // Every stage needs its power-of-two step key (the standard set), so
  // validate them all before mutating the ciphertext.
  for (size_t step = 1; step < block; step <<= 1) {
    const uint64_t elt = ctx_->GaloisEltForRotation(static_cast<int>(step));
    if (!gk.Has(elt)) {
      return NotFoundError("missing Galois key for element " +
                           std::to_string(elt));
    }
  }
  // Each stage adds one Galois hop of the running sum to it
  // (a += tau_step(a)); the first hop checks the ciphertext before `a`
  // changes.
  for (size_t step = 1; step < block; step <<= 1) {
    Ciphertext rotated = *a;
    SKNN_RETURN_IF_ERROR(ApplyGaloisInplace(
        &rotated, ctx_->GaloisEltForRotation(static_cast<int>(step)), gk));
    SKNN_RETURN_IF_ERROR(AddInplace(a, rotated));
  }
  return Status::Ok();
}

}  // namespace bgv
}  // namespace sknn
