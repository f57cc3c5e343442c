// Micro-benchmarks of the substrate operations (google-benchmark): NTT,
// BGV primitive operations, Paillier, and bignum kernels. These are the
// per-operation costs behind every figure; useful for regression tracking
// and for translating the figure shapes to other hardware.

#include <benchmark/benchmark.h>

#include <vector>

#include "bgv/context.h"
#include "common/buffer_pool.h"
#include "bgv/decryptor.h"
#include "bgv/encoder.h"
#include "bgv/encryptor.h"
#include "bgv/evaluator.h"
#include "bgv/keys.h"
#include "bgv/sampling.h"
#include "bgv/symmetric.h"
#include "common/metrics_registry.h"
#include "common/rng.h"
#include "crypto/paillier.h"
#include "math/bigint.h"
#include "math/ntt.h"
#include "math/prime.h"
#include "math/mod_arith.h"
#include "math/rns_poly.h"
#include "math/simd/kernels.h"
#include "core/session.h"
#include "data/generators.h"
#include "net/frame.h"

namespace {

using namespace sknn;  // NOLINT

// ---------- NTT ----------

void BM_NttForward(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto primes = GenerateNttPrimes(58, 2 * n, 1);
  auto tables = NttTables::Create(n, primes.value()[0]);
  Chacha20Rng rng(uint64_t{1});
  std::vector<uint64_t> a;
  rng.SampleUniformMod(primes.value()[0], n, &a);
  for (auto _ : state) {
    tables->ForwardNtt(&a);
    benchmark::DoNotOptimize(a.data());
  }
}
BENCHMARK(BM_NttForward)->Arg(1024)->Arg(4096)->Arg(8192);

void BM_NttInverse(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto primes = GenerateNttPrimes(58, 2 * n, 1);
  auto tables = NttTables::Create(n, primes.value()[0]);
  Chacha20Rng rng(uint64_t{2});
  std::vector<uint64_t> a;
  rng.SampleUniformMod(primes.value()[0], n, &a);
  for (auto _ : state) {
    tables->InverseNtt(&a);
    benchmark::DoNotOptimize(a.data());
  }
}
BENCHMARK(BM_NttInverse)->Arg(1024)->Arg(4096)->Arg(8192);

// ---------- SIMD dispatch (per-ISA NTT timings; the dispatched default is
// what BM_NttForward/BM_NttInverse above measure) ----------

// One forward+inverse pair per iteration under a pinned kernel table, so
// the scalar/AVX2/AVX-512 series are directly comparable. Unavailable
// levels (narrower build, older CPU) report zero iterations rather than
// polluting the series with dispatched results.
void NttDispatchBench(benchmark::State& state, simd::Isa isa) {
  if (!simd::IsaAvailable(isa)) {
    state.SkipWithError("ISA not available on this CPU/build");
    return;
  }
  const size_t n = static_cast<size_t>(state.range(0));
  auto primes = GenerateNttPrimes(58, 2 * n, 1);
  auto tables = NttTables::Create(n, primes.value()[0]);
  Chacha20Rng rng(uint64_t{21});
  std::vector<uint64_t> a;
  rng.SampleUniformMod(primes.value()[0], n, &a);
  simd::ForceIsa(isa).ok();
  for (auto _ : state) {
    tables->ForwardNtt(&a);
    tables->InverseNtt(&a);
    benchmark::DoNotOptimize(a.data());
  }
  simd::ResetIsaFromEnv();
}

void BM_NttDispatchScalar(benchmark::State& state) {
  NttDispatchBench(state, simd::Isa::kScalar);
}
BENCHMARK(BM_NttDispatchScalar)->Arg(1024)->Arg(4096)->Arg(8192);

void BM_NttDispatchAvx2(benchmark::State& state) {
  NttDispatchBench(state, simd::Isa::kAvx2);
}
BENCHMARK(BM_NttDispatchAvx2)->Arg(1024)->Arg(4096)->Arg(8192);

void BM_NttDispatchAvx512(benchmark::State& state) {
  NttDispatchBench(state, simd::Isa::kAvx512);
}
BENCHMARK(BM_NttDispatchAvx512)->Arg(1024)->Arg(4096)->Arg(8192);

// One rescale of a limb (lift + combine) under a pinned kernel table: the
// 60-bit special prime dropped onto a 58-bit data prime, lazy input, as in
// key switching's mod-down.
void RescaleDispatchBench(benchmark::State& state, simd::Isa isa) {
  if (!simd::IsaAvailable(isa)) {
    state.SkipWithError("ISA not available on this CPU/build");
    return;
  }
  const size_t n = static_cast<size_t>(state.range(0));
  const uint64_t p = GenerateNttPrimes(60, 2 * n, 1).value()[0];
  const uint64_t q = GenerateNttPrimes(58, 2 * n, 1).value()[0];
  const uint64_t p_inv = InvModPrime(p % q, q);
  const uint64_t t_p_inv = MulModSlow(65537, p_inv, q);
  Chacha20Rng rng(uint64_t{23});
  std::vector<uint64_t> r, a, out(n);
  rng.SampleUniformMod(p, n, &r);
  rng.SampleUniformMod(2 * q, n, &a);
  simd::ForceIsa(isa).ok();
  const simd::KernelTable& kernels = simd::ActiveKernels();
  for (auto _ : state) {
    kernels.rescale_lift(out.data(), r.data(), n, p, p % q, q);
    kernels.rescale_combine(out.data(), a.data(), n, q, p_inv,
                            ShoupPrecompute(p_inv, q), t_p_inv,
                            ShoupPrecompute(t_p_inv, q));
    benchmark::DoNotOptimize(out.data());
  }
  simd::ResetIsaFromEnv();
}

void BM_RescaleDispatchScalar(benchmark::State& state) {
  RescaleDispatchBench(state, simd::Isa::kScalar);
}
BENCHMARK(BM_RescaleDispatchScalar)->Arg(1024)->Arg(4096)->Arg(8192);

void BM_RescaleDispatchAvx512(benchmark::State& state) {
  RescaleDispatchBench(state, simd::Isa::kAvx512);
}
BENCHMARK(BM_RescaleDispatchAvx512)->Arg(1024)->Arg(4096)->Arg(8192);

// The fused key-switch MAC (both accumulators, Shoup-multiplied key
// columns), with and without the Galois gather — the inner loop of
// relinearization and (with perm) rotations.
void FusedMacBench(benchmark::State& state, bool with_perm) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto primes = GenerateNttPrimes(58, 2 * n, 1);
  const uint64_t q = primes.value()[0];
  Chacha20Rng rng(uint64_t{22});
  std::vector<uint64_t> acc0, acc1, d, kb, ka;
  rng.SampleUniformMod(q, n, &acc0);
  rng.SampleUniformMod(q, n, &acc1);
  rng.SampleUniformMod(q, n, &d);
  rng.SampleUniformMod(q, n, &kb);
  rng.SampleUniformMod(q, n, &ka);
  std::vector<uint64_t> kb_shoup(n), ka_shoup(n);
  for (size_t i = 0; i < n; ++i) {
    kb_shoup[i] = ShoupPrecompute(kb[i], q);
    ka_shoup[i] = ShoupPrecompute(ka[i], q);
  }
  std::vector<uint32_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = static_cast<uint32_t>(n - 1 - i);
  const simd::KernelTable& kernels = simd::ActiveKernels();
  for (auto _ : state) {
    kernels.fused_mac(acc0.data(), acc1.data(), d.data(),
                      with_perm ? perm.data() : nullptr, kb.data(),
                      kb_shoup.data(), ka.data(), ka_shoup.data(), n, q);
    benchmark::DoNotOptimize(acc0.data());
    benchmark::DoNotOptimize(acc1.data());
  }
}

void BM_FusedMacKernel(benchmark::State& state) {
  FusedMacBench(state, /*with_perm=*/false);
}
BENCHMARK(BM_FusedMacKernel)->Arg(1024)->Arg(4096)->Arg(8192);

void BM_FusedMacKernelGather(benchmark::State& state) {
  FusedMacBench(state, /*with_perm=*/true);
}
BENCHMARK(BM_FusedMacKernelGather)->Arg(1024)->Arg(4096)->Arg(8192);

// Per-component RNS fixture for the element-wise kernels: three 58-bit
// data primes, the shape of the kBench modulus chain hot path.
struct RnsFixture {
  RnsBase base;
  RnsPoly a, b;

  explicit RnsFixture(size_t n) {
    auto primes = GenerateNttPrimes(58, 2 * n, 3);
    base = RnsBase::Create(n, primes.value()).value();
    Chacha20Rng rng(uint64_t{3});
    a = ZeroPoly(n, base.size(), true);
    b = ZeroPoly(n, base.size(), true);
    for (size_t i = 0; i < base.size(); ++i) {
      rng.SampleUniformModInto(base.modulus(i).value(), n, a.comp(i));
      rng.SampleUniformModInto(base.modulus(i).value(), n, b.comp(i));
    }
  }
};

void BM_RnsMulPointwise(benchmark::State& state) {
  RnsFixture f(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    MulPointwiseInplace(&f.a, f.b, f.base);
    benchmark::DoNotOptimize(f.a.data());
  }
}
BENCHMARK(BM_RnsMulPointwise)->Arg(1024)->Arg(4096)->Arg(8192);

// One iteration applies a fixed batch of automorphisms (the first powers
// of the rotation generator 3; tables cached on first use). A single
// automorphism takes ~4 us at n=1024, too short a sample for the min-of-N
// regression gate to be stable; the batch takes tens of us.
constexpr size_t kGaloisBatch = 8;

void BM_RnsGaloisApply(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  RnsFixture f(n);
  f.a.set_ntt_form(false);
  std::vector<uint64_t> elts;
  for (uint64_t elt = 3; elts.size() < kGaloisBatch; elt = elt * 3 % (2 * n)) {
    elts.push_back(elt);
  }
  for (auto _ : state) {
    for (uint64_t elt : elts) {
      RnsPoly out = ApplyGaloisCoeff(f.a, elt, f.base);
      benchmark::DoNotOptimize(out.data());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kGaloisBatch));
}
BENCHMARK(BM_RnsGaloisApply)->Arg(1024)->Arg(4096)->Arg(8192);

// ---------- BGV fixture ----------

struct BgvFixture {
  std::shared_ptr<const bgv::BgvContext> ctx;
  std::unique_ptr<Chacha20Rng> rng;
  bgv::SecretKey sk;
  bgv::PublicKey pk;
  bgv::RelinKeys rk;
  bgv::GaloisKeys gk;
  std::unique_ptr<bgv::BatchEncoder> encoder;
  std::unique_ptr<bgv::Encryptor> encryptor;
  std::unique_ptr<bgv::Decryptor> decryptor;
  std::unique_ptr<bgv::Evaluator> evaluator;
  bgv::Ciphertext ct_a, ct_b;

  explicit BgvFixture(size_t n_pow) {
    auto preset = n_pow == 1024   ? bgv::SecurityPreset::kToy
                  : n_pow == 4096 ? bgv::SecurityPreset::kBench
                                  : bgv::SecurityPreset::kDefault;
    auto params = bgv::BgvParams::Create(preset, 4, 33);
    ctx = bgv::BgvContext::Create(params.value()).value();
    rng = std::make_unique<Chacha20Rng>(uint64_t{7});
    bgv::KeyGenerator keygen(ctx, rng.get());
    sk = keygen.GenerateSecretKey();
    pk = keygen.GeneratePublicKey(sk);
    rk = keygen.GenerateRelinKeys(sk);
    gk = keygen.GeneratePowerOfTwoRotationKeys(sk);
    encoder = std::make_unique<bgv::BatchEncoder>(ctx);
    encryptor = std::make_unique<bgv::Encryptor>(ctx, pk, rng.get());
    decryptor = std::make_unique<bgv::Decryptor>(ctx, sk);
    evaluator = std::make_unique<bgv::Evaluator>(ctx);
    std::vector<uint64_t> v(ctx->n());
    for (auto& x : v) x = rng->UniformBelow(1 << 10);
    auto pt = encoder->Encode(v);
    ct_a = encryptor->Encrypt(pt.value()).value();
    ct_b = encryptor->Encrypt(pt.value()).value();
  }
};

void BM_BgvEncrypt(benchmark::State& state) {
  BgvFixture f(static_cast<size_t>(state.range(0)));
  auto pt = f.encoder->EncodeScalar(123);
  for (auto _ : state) {
    auto ct = f.encryptor->Encrypt(pt);
    benchmark::DoNotOptimize(ct);
  }
}
BENCHMARK(BM_BgvEncrypt)->Arg(1024)->Arg(4096);

void BM_BgvDecryptLevel0(benchmark::State& state) {
  BgvFixture f(static_cast<size_t>(state.range(0)));
  bgv::Ciphertext ct = f.ct_a;
  f.evaluator->ModSwitchToLevelInplace(&ct, 0).ok();
  for (auto _ : state) {
    auto pt = f.decryptor->Decrypt(ct);
    benchmark::DoNotOptimize(pt);
  }
}
BENCHMARK(BM_BgvDecryptLevel0)->Arg(1024)->Arg(4096);

// Party B's exact noise read: at level 0 it comes out of the same 64-bit
// pass as the decryption, so it should time like BM_BgvDecryptLevel0.
void BM_BgvNoiseBudgetLevel0(benchmark::State& state) {
  BgvFixture f(static_cast<size_t>(state.range(0)));
  bgv::Ciphertext ct = f.ct_a;
  f.evaluator->ModSwitchToLevelInplace(&ct, 0).ok();
  for (auto _ : state) {
    auto budget = f.decryptor->NoiseBudgetBits(ct);
    benchmark::DoNotOptimize(budget);
  }
}
BENCHMARK(BM_BgvNoiseBudgetLevel0)->Arg(1024)->Arg(4096);

void BM_BgvMultiplyRelin(benchmark::State& state) {
  BgvFixture f(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto ct = f.evaluator->MultiplyRelin(f.ct_a, f.ct_b, f.rk);
    benchmark::DoNotOptimize(ct);
  }
}
BENCHMARK(BM_BgvMultiplyRelin)->Arg(1024)->Arg(4096);

// ---------- Key-switch path (tracked like the NTT: rotation-heavy ops
// dominate the protocol's distance phase, so each kernel gets its own
// series in BENCH_microops.json) ----------

void BM_Relinearize(benchmark::State& state) {
  BgvFixture f(static_cast<size_t>(state.range(0)));
  auto prod = f.evaluator->Multiply(f.ct_a, f.ct_b).value();
  for (auto _ : state) {
    bgv::Ciphertext ct = prod;
    f.evaluator->RelinearizeInplace(&ct, f.rk).ok();
    benchmark::DoNotOptimize(ct);
  }
}
BENCHMARK(BM_Relinearize)->Arg(1024)->Arg(4096)->Arg(8192);

void BM_RotateRows(benchmark::State& state) {
  BgvFixture f(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    bgv::Ciphertext ct = f.ct_a;
    f.evaluator->RotateRowsInplace(&ct, 1, f.gk).ok();
    benchmark::DoNotOptimize(ct);
  }
}
BENCHMARK(BM_RotateRows)->Arg(1024)->Arg(4096)->Arg(8192);

void BM_FoldRows(benchmark::State& state) {
  BgvFixture f(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    bgv::Ciphertext ct = f.ct_a;
    f.evaluator->FoldRowsInplace(&ct, 8, f.gk).ok();
    benchmark::DoNotOptimize(ct);
  }
}
BENCHMARK(BM_FoldRows)->Arg(1024)->Arg(4096)->Arg(8192);

void BM_BgvModSwitch(benchmark::State& state) {
  BgvFixture f(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    bgv::Ciphertext ct = f.ct_a;
    f.evaluator->ModSwitchToNextInplace(&ct).ok();
    benchmark::DoNotOptimize(ct);
  }
}
BENCHMARK(BM_BgvModSwitch)->Arg(1024)->Arg(4096);

// ---------- Sampling (ChaCha20 keystream and the samplers on it) ----------

// The first data prime of the preset BgvFixture uses for ring degree n.
uint64_t PresetPrime(size_t n) {
  auto params = bgv::BgvParams::Create(
      n == 1024 ? bgv::SecurityPreset::kToy : bgv::SecurityPreset::kBench, 4,
      33);
  return params.value().data_primes[0];
}

void BM_ChaCha20Keystream(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Chacha20Rng rng(uint64_t{11});
  for (auto _ : state) {
    uint64_t acc = 0;
    for (size_t i = 0; i < n; ++i) acc ^= rng.NextU64();
    benchmark::DoNotOptimize(acc);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * n * 8));
}
BENCHMARK(BM_ChaCha20Keystream)->Arg(1024)->Arg(4096);

void BM_SampleUniformMod(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const uint64_t q = PresetPrime(n);
  Chacha20Rng rng(uint64_t{12});
  std::vector<uint64_t> out(n);
  for (auto _ : state) {
    rng.SampleUniformModInto(q, n, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SampleUniformMod)->Arg(1024)->Arg(4096);

void BM_SampleGaussian(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const GaussianTable table(bgv::kNoiseSigma);
  Chacha20Rng rng(uint64_t{13});
  std::vector<int64_t> out(n);
  for (auto _ : state) {
    rng.SampleGaussianInto(table, n, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SampleGaussian)->Arg(1024)->Arg(4096);

// Party B's indicator encryption: seeded symmetric encryption at level 1.
void BM_EncryptSeeded(benchmark::State& state) {
  BgvFixture f(static_cast<size_t>(state.range(0)));
  bgv::SymmetricEncryptor sym(f.ctx, f.sk, f.rng.get());
  auto pt = f.encoder->EncodeScalar(1);
  for (auto _ : state) {
    auto seeded = sym.EncryptSeeded(pt, 1);
    benchmark::DoNotOptimize(seeded);
  }
}
BENCHMARK(BM_EncryptSeeded)->Arg(1024)->Arg(4096);

// Party A's side of it: re-deriving c1 from the seed.
void BM_ExpandSeeded(benchmark::State& state) {
  BgvFixture f(static_cast<size_t>(state.range(0)));
  bgv::SymmetricEncryptor sym(f.ctx, f.sk, f.rng.get());
  const bgv::SeededCiphertext seeded =
      sym.EncryptSeeded(f.encoder->EncodeScalar(1), 1).value();
  for (auto _ : state) {
    auto ct = bgv::ExpandSeeded(*f.ctx, seeded);
    benchmark::DoNotOptimize(ct);
  }
}
BENCHMARK(BM_ExpandSeeded)->Arg(1024)->Arg(4096);

// ---------- Paillier ----------

void BM_PaillierEncrypt(benchmark::State& state) {
  Chacha20Rng rng(uint64_t{9});
  auto kp = paillier::GeneratePaillierKeys(
      static_cast<size_t>(state.range(0)), &rng);
  paillier::PaillierEncryptor enc(kp->pk, &rng);
  for (auto _ : state) {
    auto ct = enc.EncryptU64(12345);
    benchmark::DoNotOptimize(ct);
  }
}
BENCHMARK(BM_PaillierEncrypt)->Arg(256)->Arg(512)->Arg(1024);

void BM_PaillierDecrypt(benchmark::State& state) {
  Chacha20Rng rng(uint64_t{10});
  auto kp = paillier::GeneratePaillierKeys(
      static_cast<size_t>(state.range(0)), &rng);
  paillier::PaillierEncryptor enc(kp->pk, &rng);
  paillier::PaillierDecryptor dec(kp->pk, kp->sk);
  auto ct = enc.EncryptU64(12345).value();
  for (auto _ : state) {
    auto pt = dec.Decrypt(ct);
    benchmark::DoNotOptimize(pt);
  }
}
BENCHMARK(BM_PaillierDecrypt)->Arg(256)->Arg(512)->Arg(1024);

// ---------- bignum ----------

void BM_BigUintModMul(benchmark::State& state) {
  Chacha20Rng rng(uint64_t{11});
  const size_t bits = static_cast<size_t>(state.range(0));
  BigUint m = BigUint::RandomBits(bits, &rng);
  if (!m.IsOdd()) m = BigUint::Add(m, BigUint(1));
  MontgomeryCtx ctx(m);
  BigUint a = ctx.ToMont(BigUint::RandomBelow(m, &rng));
  BigUint b = ctx.ToMont(BigUint::RandomBelow(m, &rng));
  for (auto _ : state) {
    auto c = ctx.MulMont(a, b);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_BigUintModMul)->Arg(512)->Arg(1024)->Arg(2048);

void BM_BigUintModExp(benchmark::State& state) {
  Chacha20Rng rng(uint64_t{12});
  const size_t bits = static_cast<size_t>(state.range(0));
  BigUint m = BigUint::RandomBits(bits, &rng);
  if (!m.IsOdd()) m = BigUint::Add(m, BigUint(1));
  MontgomeryCtx ctx(m);
  BigUint base = BigUint::RandomBelow(m, &rng);
  BigUint e = BigUint::RandomBits(bits, &rng);
  for (auto _ : state) {
    auto c = ctx.PowMod(base, e);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_BigUintModExp)->Arg(512)->Arg(1024);

// Transport framing (net/frame.h): header build + XXH64 over the payload.
// Payload sizes bracket the real wire messages (a toy ciphertext is ~4 KB,
// bench-preset ones hundreds of KB).
void BM_FrameEncode(benchmark::State& state) {
  Chacha20Rng rng(uint64_t{13});
  std::vector<uint8_t> payload(static_cast<size_t>(state.range(0)));
  rng.FillBytes(payload.data(), payload.size());
  uint64_t seq = 0;
  for (auto _ : state) {
    auto wire = net::EncodeFrame(net::MessageType::kDistances, seq++, payload);
    benchmark::DoNotOptimize(wire);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(payload.size()));
}
BENCHMARK(BM_FrameEncode)->Arg(4096)->Arg(65536)->Arg(1 << 20);

void BM_FrameDecode(benchmark::State& state) {
  Chacha20Rng rng(uint64_t{14});
  std::vector<uint8_t> payload(static_cast<size_t>(state.range(0)));
  rng.FillBytes(payload.data(), payload.size());
  const auto wire = net::EncodeFrame(net::MessageType::kDistances, 7, payload);
  for (auto _ : state) {
    auto copy = wire;  // DecodeFrame consumes its buffer
    auto frame = net::DecodeFrame(std::move(copy));
    benchmark::DoNotOptimize(frame);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(payload.size()));
}
BENCHMARK(BM_FrameDecode)->Arg(4096)->Arg(65536)->Arg(1 << 20);

// ---------- allocation telemetry ----------

// End-to-end toy query with the buffer-pool counters surfaced as bench
// counters: `pool_requests` is buffers drawn per query, `heap_allocs` is
// how many of those missed the pool (the ISSUE acceptance is a >= 10x drop
// versus pre-pool, where every request was a heap allocation). The fixture
// runs one warm-up query so the series reports the steady state.
void BM_QueryAllocations(benchmark::State& state) {
  core::ProtocolConfig cfg;
  cfg.k = 3;
  cfg.poly_degree = 2;
  cfg.coord_bits = 4;
  cfg.dims = 2;
  cfg.layout = core::Layout::kPacked;
  cfg.preset = bgv::SecurityPreset::kToy;
  cfg.plain_bits = 33;
  cfg.threads = 1;
  cfg.levels = cfg.MinimumLevels();
  const data::Dataset dataset = data::UniformDataset(16, 2, 15, 42);
  auto session = core::SecureKnnSession::Create(cfg, dataset, 7);
  if (!session.ok()) {
    state.SkipWithError("session creation failed");
    return;
  }
  const std::vector<uint64_t> query = data::UniformQuery(2, 15, 11);
  (*session)->RunQuery(query).ok();  // warm the pool

  auto* hits = MetricsRegistry::Global().GetCounter("bgv.alloc.pool_hits");
  auto* misses = MetricsRegistry::Global().GetCounter("bgv.alloc.pool_misses");
  const uint64_t hits0 = hits->value();
  const uint64_t misses0 = misses->value();
  for (auto _ : state) {
    auto result = (*session)->RunQuery(query);
    benchmark::DoNotOptimize(result);
  }
  const double iters = static_cast<double>(state.iterations());
  const double heap = static_cast<double>(misses->value() - misses0) / iters;
  const double requests =
      static_cast<double>(hits->value() - hits0) / iters + heap;
  state.counters["pool_requests"] = requests;
  state.counters["heap_allocs"] = heap;
}
BENCHMARK(BM_QueryAllocations)->Arg(1024)->Unit(benchmark::kMillisecond);

// MetricsRegistry::Histogram::Record — the per-event price of the
// always-on latency/size telemetry (TraceSpan completion calls it up to
// three times per span). The budget is ~50 ns/op: a handful of relaxed
// atomic adds plus a CAS-max, no locks, no allocation. The arg is a
// representative recorded value (also keeps it in the /1024$ smoke
// filter).
void BM_HistogramRecord(benchmark::State& state) {
  MetricsRegistry registry;
  MetricsRegistry::Histogram* h = registry.GetHistogram("bench.latency_ns");
  uint64_t v = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    h->Record(v);
    // Cheap LCG walk so buckets vary like real latencies do.
    v = v * 6364136223846793005ull + 1442695040888963407ull;
    v >>= 40;  // keep values in a plausible ns range
    benchmark::DoNotOptimize(h);
  }
}
BENCHMARK(BM_HistogramRecord)->Arg(1024);

}  // namespace

// Writes only the console table unless --benchmark_out= is given, so an
// ad-hoc run cannot overwrite the committed BENCH_microops.json baseline
// (tools/check_bench_regression.py passes its own output file).
BENCHMARK_MAIN();
