#ifndef SKNN_MATH_SIMD_KERNELS_H_
#define SKNN_MATH_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"

// Runtime-dispatched SIMD kernels for the NTT butterflies and the
// element-wise RNS loops (DESIGN.md §3.3).
//
// Every kernel has three implementations — portable scalar, AVX2, and
// AVX-512 (F+DQ) — selected once per process from CPUID, overridable with
// the environment variable `SKNN_SIMD=scalar|avx2|avx512` (testing) or
// `ForceIsa` (benchmarks). All implementations are bit-identical: the
// vector lanes run the exact same lazy-reduction arithmetic as the scalar
// code (forward butterflies in [0, 4q), inverse in [0, 2q), Shoup and
// Barrett multiplies mirrored operation for operation), so the choice of
// ISA can never change a ciphertext. Tails shorter than the vector width
// fall back to scalar inside each kernel; callers never need to pad.

namespace sknn {
namespace simd {

// Instruction-set level of a kernel table, ordered narrow to wide.
enum class Isa : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

const char* IsaName(Isa isa);

// Twiddle tables and constants of one NTT prime, passed by the owning
// NttTables. Pointers reference the table's storage and must outlive the
// call.
struct NttArgs {
  size_t n = 0;
  uint64_t q = 0;
  const uint64_t* psi_rev = nullptr;
  const uint64_t* psi_rev_shoup = nullptr;
  const uint64_t* psi_inv_rev = nullptr;
  const uint64_t* psi_inv_rev_shoup = nullptr;
  uint64_t n_inv = 0;
  uint64_t n_inv_shoup = 0;
  uint64_t psi_inv_n_scaled = 0;
  uint64_t psi_inv_n_scaled_shoup = 0;
};

// One fully-populated implementation set. Members must all be non-null in
// every registered table — asserted by `simd_kernels_test` and the
// `simd_dispatch_check` source guard, so a kernel added here cannot
// silently miss an ISA.
struct KernelTable {
  const char* name;

  // In-place forward negacyclic NTT, Harvey lazy reduction: butterflies
  // stay in [0, 4q), one final pass reduces to [0, q).
  void (*ntt_forward)(const NttArgs& args, uint64_t* a);
  // In-place inverse NTT: stages stay in [0, 2q), n^{-1} folded into the
  // last stage, output fully reduced.
  void (*ntt_inverse)(const NttArgs& args, uint64_t* a);

  // a[i] = (a[i] + b[i]) mod q. Inputs reduced.
  void (*mod_add)(uint64_t* a, const uint64_t* b, size_t n, uint64_t q);
  // a[i] = (a[i] - b[i]) mod q. Inputs reduced.
  void (*mod_sub)(uint64_t* a, const uint64_t* b, size_t n, uint64_t q);
  // a[i] = (-a[i]) mod q. Input reduced.
  void (*mod_neg)(uint64_t* a, size_t n, uint64_t q);
  // a[i] = (a[i] * b[i]) mod q, Barrett with the modulus' 128-bit ratio
  // (ratio = floor(2^128 / q), split hi/lo). Inputs reduced.
  void (*mod_mul)(uint64_t* a, const uint64_t* b, size_t n, uint64_t q,
                  uint64_t ratio_hi, uint64_t ratio_lo);
  // a[i] = (a[i] + b[i] * c[i]) mod q, same Barrett product.
  void (*mod_add_mul)(uint64_t* a, const uint64_t* b, const uint64_t* c,
                      size_t n, uint64_t q, uint64_t ratio_hi,
                      uint64_t ratio_lo);
  // a[i] = (a[i] * s) mod q with the Shoup companion of the constant s.
  void (*mod_mul_scalar)(uint64_t* a, size_t n, uint64_t s, uint64_t s_shoup,
                         uint64_t q);
  // The fused key-switch MAC (Evaluator::KeySwitchInner):
  //   acc0[i] += d[perm[i]] * kb[i];  acc1[i] += d[perm[i]] * ka[i]
  // with per-element Shoup companions kb_shoup/ka_shoup and lazy [0, 2q)
  // accumulators (terms land in [0, 2q), acc + term < 4q < 2^64, one
  // conditional subtract of 2q restores the invariant). `perm` may be null
  // for the identity gather (plain relinearization); non-null fuses the
  // NTT-domain Galois automorphism of a rotation.
  void (*fused_mac)(uint64_t* acc0, uint64_t* acc1, const uint64_t* d,
                    const uint32_t* perm, const uint64_t* kb,
                    const uint64_t* kb_shoup, const uint64_t* ka,
                    const uint64_t* ka_shoup, size_t n, uint64_t q);

  // The t-preserving rescale by a dropped prime p: key switching's
  // mod-down by the special prime and modulus switching's drop of the last
  // data prime (Evaluator, DESIGN.md §3.3). For kept prime q,
  //   out = (a - lift(r)·t) / p = a·p^{-1} - lift(r)·(t·p^{-1})  (mod q),
  // where r = [last·t^{-1}]_p is the dropped limb's correction. Two steps,
  // because the NTT-domain callers forward-transform lift(r) between them
  // (the correction is linear mod q, so it commutes with the NTT). The
  // AVX2 table runs the scalar code here (no 64-bit vector multiply).
  //
  // rescale_lift: dst[i] = r[i] lifted centered from Z_p into Z_q, i.e.
  // r[i] mod q when r[i] <= p/2 (p >> 1), else (r[i] - p) mod q. Input
  // r[i] in [0, p); p_mod_q = p mod q; p may be larger or smaller than q.
  void (*rescale_lift)(uint64_t* dst, const uint64_t* r, size_t n, uint64_t p,
                       uint64_t p_mod_q, uint64_t q);
  // rescale_combine: x[i] = (a[i]·p_inv - x[i]·t_p_inv) mod q, with the
  // Shoup companions of p_inv = p^{-1} and t_p_inv = t·p^{-1} mod q. a[i]
  // may be lazy in [0, 2q) (the key-switch accumulators); x[i] holds
  // lift(r), reduced; the output is reduced.
  void (*rescale_combine)(uint64_t* x, const uint64_t* a, size_t n, uint64_t q,
                          uint64_t p_inv, uint64_t p_inv_shoup,
                          uint64_t t_p_inv, uint64_t t_p_inv_shoup);
};

// The table selected for this process: the widest ISA the CPU and build
// support, unless overridden by SKNN_SIMD or ForceIsa. Cheap (one relaxed
// atomic load after first use).
const KernelTable& ActiveKernels();
Isa ActiveIsa();

// True when `isa` was compiled in AND the running CPU supports it.
// kScalar is always available.
bool IsaAvailable(Isa isa);

// Every available level, narrow to wide (always contains kScalar). What
// the equality sweeps and dispatch benches iterate.
std::vector<Isa> AvailableIsaLevels();

// Overrides the active table (tests/benches). Fails with
// InvalidArgumentError when the level is not available on this
// CPU/build. Thread-safe, takes effect for subsequent kernel calls.
Status ForceIsa(Isa isa);

// Re-reads SKNN_SIMD and recomputes the default choice (drops any
// ForceIsa override). An unavailable or unknown value logs a warning and
// falls back to the widest available level.
void ResetIsaFromEnv();

// Per-ISA table getters (null when the level is not compiled in). Exposed
// for the dispatch-coverage test; normal callers go through
// ActiveKernels().
const KernelTable* ScalarKernels();
const KernelTable* Avx2Kernels();
const KernelTable* Avx512Kernels();

}  // namespace simd
}  // namespace sknn

#endif  // SKNN_MATH_SIMD_KERNELS_H_
