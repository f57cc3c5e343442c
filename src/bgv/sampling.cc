#include "bgv/sampling.h"

#include "common/logging.h"

namespace sknn {
namespace bgv {
namespace {

// Builds an RNS polynomial from one vector of signed values. Values below
// q in magnitude (all noise and centered plaintext values) map with a
// compare; only larger ones take a division.
RnsPoly FromSigned(const BgvContext& ctx, size_t components,
                   const std::vector<int64_t>& values) {
  RnsPoly p = ZeroPoly(ctx.n(), components, /*ntt_form=*/false);
  for (size_t i = 0; i < components; ++i) {
    const uint64_t q = ctx.key_base().modulus(i).value();
    uint64_t* comp = p.comp(i);
    for (size_t j = 0; j < ctx.n(); ++j) {
      const int64_t x = values[j];
      const uint64_t u = static_cast<uint64_t>(x);
      if (x >= 0 && u < q) {
        comp[j] = u;
      } else if (x < 0 && 0 - u < q) {
        comp[j] = q + u;  // q - |x|, mod 2^64
      } else {
        comp[j] = ToUnsignedMod(x, q);
      }
    }
  }
  return p;
}

}  // namespace

RnsPoly SampleUniformPoly(const BgvContext& ctx, size_t components,
                          Chacha20Rng* rng) {
  RnsPoly p = ZeroPoly(ctx.n(), components, /*ntt_form=*/true);
  for (size_t i = 0; i < components; ++i) {
    rng->SampleUniformModInto(ctx.key_base().modulus(i).value(), ctx.n(),
                              p.comp(i));
  }
  return p;
}

RnsPoly SampleTernaryPoly(const BgvContext& ctx, size_t components,
                          Chacha20Rng* rng) {
  std::vector<uint64_t> draws(ctx.n());
  rng->SampleUniformModInto(3, draws.size(), draws.data());
  std::vector<int64_t> values(ctx.n());
  for (size_t j = 0; j < ctx.n(); ++j) {
    values[j] = static_cast<int64_t>(draws[j]) - 1;
  }
  return FromSigned(ctx, components, values);
}

RnsPoly SampleGaussianPoly(const BgvContext& ctx, size_t components,
                           Chacha20Rng* rng) {
  std::vector<int64_t> values(ctx.n());
  static const GaussianTable table(kNoiseSigma);
  rng->SampleGaussianInto(table, values.size(), values.data());
  return FromSigned(ctx, components, values);
}

RnsPoly LiftPlainCentered(const BgvContext& ctx,
                          const std::vector<uint64_t>& coeffs_mod_t,
                          size_t components) {
  SKNN_CHECK_EQ(coeffs_mod_t.size(), ctx.n());
  const uint64_t t = ctx.t();
  std::vector<int64_t> values(ctx.n());
  for (size_t j = 0; j < ctx.n(); ++j) {
    SKNN_CHECK_LT(coeffs_mod_t[j], t);
    values[j] = CenterMod(coeffs_mod_t[j], t);
  }
  return FromSigned(ctx, components, values);
}

}  // namespace bgv
}  // namespace sknn
