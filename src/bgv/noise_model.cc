#include "bgv/noise_model.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "bgv/sampling.h"
#include "common/logging.h"
#include "common/metrics_registry.h"

namespace sknn {
namespace bgv {
namespace {

// log2(2^a + 2^b) without overflow, stable for far-apart magnitudes.
double LogAdd(double a, double b) {
  const double hi = std::max(a, b);
  const double lo = std::min(a, b);
  if (hi - lo > 60.0) return hi;
  return hi + std::log2(1.0 + std::exp2(lo - hi));
}

bool Untracked(double bits) { return bits < 0.0; }

// Registered at process start rather than at the first warning: an
// OPERATIONS.md alert watches it, so a healthy process exports it at 0.
MetricsRegistry::Counter* const thin_margin_warnings =
    MetricsRegistry::Global().GetCounter("bgv.noise.thin_margin_warnings");

}  // namespace

NoiseModel::NoiseModel(const BgvContext& ctx) {
  const double n = static_cast<double>(ctx.n());
  t_ = ctx.t();
  log_n_ = std::log2(n);
  log_t_ = std::log2(static_cast<double>(t_));
  // The sampler's threshold table has hard support [-B, B]; see
  // GaussianTable in common/rng.h.
  log_b_ = std::log2(std::ceil(6.0 * kNoiseSigma));
  log_sp_ =
      std::log2(static_cast<double>(
          ctx.key_base().modulus(ctx.special_index()).value()));
  log_q_.resize(ctx.num_data_primes());
  log_qmax_.resize(ctx.num_data_primes());
  double acc = 0.0;
  double qmax = 0.0;
  for (size_t i = 0; i < ctx.num_data_primes(); ++i) {
    const double qi =
        std::log2(static_cast<double>(ctx.key_base().modulus(i).value()));
    acc += qi;
    qmax = std::max(qmax, qi);
    log_q_[i] = acc;
    log_qmax_[i] = qmax;
  }
  // Public key: v = m + t*(e_pk*u + e0 + e1*s), ternary u,s, gaussian
  // errors |e| <= B: N <= t*B*(2n+1).
  fresh_pk_bits_ = log_t_ + log_b_ + std::log2(2.0 * n + 1.0);
  // Symmetric: v = m + t*e: N <= t*B.
  fresh_sym_bits_ = log_t_ + log_b_;
}

double NoiseModel::EstimatedBudgetBits(const Ciphertext& ct) const {
  if (!ct.noise_tracked()) return kNoiseUntracked;
  const double budget = LogQ(ct.level) - 1.0 - ct.noise_bits;
  return budget > 0.0 ? budget : 0.0;
}

double NoiseModel::Add(double a, double b) const {
  if (Untracked(a) || Untracked(b)) return kNoiseUntracked;
  // N1 + N2 plus up to t for re-centering the message sum.
  return LogAdd(LogAdd(a, b), log_t_);
}

double NoiseModel::AddPlain(double a) const {
  if (Untracked(a)) return kNoiseUntracked;
  return LogAdd(a, log_t_);
}

double NoiseModel::Multiply(double a, double b) const {
  if (Untracked(a) || Untracked(b)) return kNoiseUntracked;
  // v3 = v1*v2 (ring product): ||v3|| <= n*(t/2 + N1)*(t/2 + N2), plus t/2
  // re-centering the product message.
  const double half_t = log_t_ - 1.0;
  return LogAdd(log_n_ + LogAdd(a, half_t) + LogAdd(b, half_t), half_t);
}

double NoiseModel::MultiplyPlain(double a) const {
  if (Untracked(a)) return kNoiseUntracked;
  const double half_t = log_t_ - 1.0;
  return LogAdd(log_n_ + half_t + LogAdd(a, half_t), half_t);
}

double NoiseModel::MultiplyScalar(double a, uint64_t scalar_mod_t) const {
  if (Untracked(a)) return kNoiseUntracked;
  // Coefficient-wise product by the centered lift c of the scalar:
  // |c| * (N + t/2) + t/2. Multiplying by zero annihilates the noise.
  uint64_t mag = scalar_mod_t;
  if (mag > t_ / 2) mag = t_ - mag;
  if (mag == 0) return 0.0;
  const double half_t = log_t_ - 1.0;
  return LogAdd(std::log2(static_cast<double>(mag)) + LogAdd(a, half_t),
                half_t);
}

double NoiseModel::KeySwitch(double a, size_t level) const {
  if (Untracked(a)) return kNoiseUntracked;
  // Hybrid key switching over level+1 digits: each digit |d_j| <= q_j/2
  // multiplies a key poly with gaussian error, divided by the special
  // prime P on the way down, plus the t-preserving rounding of size-2
  // results: n*t*B*(level+1)*q_max/(2P) + (t/2)*(1 + n). The 1/2 on the
  // first term is dropped (digits bounded by q_j, not q_j/2) for safety
  // against the special-prime rounding interplay.
  const double digits = std::log2(static_cast<double>(level + 1));
  const double term1 =
      log_n_ + log_t_ + log_b_ + digits + log_qmax_[level] - log_sp_;
  const double term2 = log_t_ - 1.0 + std::log2(1.0 + std::exp2(log_n_));
  return LogAdd(a, LogAdd(term1, term2));
}

double NoiseModel::ModSwitch(double a, size_t level_from,
                             size_t ct_size) const {
  if (Untracked(a)) return kNoiseUntracked;
  const double log_q_dropped =
      log_q_[level_from] - (level_from == 0 ? 0.0 : log_q_[level_from - 1]);
  // Scaled-down noise plus rounding (t/2)*sum_{i<size} n^i: the delta
  // correction is bounded by t*q_drop/2 per component and components meet
  // powers of s with ||s^i||-expansion n^i.
  double powers = 1.0;
  double n_pow = 1.0;
  for (size_t i = 1; i < ct_size; ++i) {
    n_pow *= std::exp2(log_n_);
    powers += n_pow;
  }
  const double rounding = log_t_ - 1.0 + std::log2(powers);
  return LogAdd(a - log_q_dropped, rounding);
}

void NoiseModel::WarnIfThin(const Ciphertext& ct, const char* where) const {
  const double budget = EstimatedBudgetBits(ct);
  if (budget < 0.0 || budget >= kThinMarginBits) return;
  thin_margin_warnings->Increment();
  // One log line per site, not per ciphertext: a k*n indicator sweep near
  // the margin would otherwise flood stderr.
  static std::atomic<uint64_t> logged{0};
  if (logged.fetch_add(1, std::memory_order_relaxed) < 8) {
    SKNN_LOG_WARNING << "thin noise margin at " << where << ": estimated "
                     << budget << " bits remaining (level " << ct.level
                     << ", noise " << ct.noise_bits << " bits)";
  }
}

}  // namespace bgv
}  // namespace sknn
