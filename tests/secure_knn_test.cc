#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <string>

#include "bgv/decryptor.h"
#include "bgv/encoder.h"
#include "bgv/encryptor.h"
#include "bgv/symmetric.h"
#include "common/metrics_registry.h"
#include "core/exchange.h"
#include "core/server.h"
#include "core/session.h"
#include "data/generators.h"
#include "knn/knn.h"
#include "noise_reference.h"

// End-to-end tests of the secure k-NN protocol: exactness against the
// plaintext reference on both layouts, edge cases, metrics, and the
// structural security properties (one round, fresh masks, permutation).

namespace sknn {
namespace core {
namespace {

ProtocolConfig SmallConfig(Layout layout) {
  ProtocolConfig cfg;
  cfg.k = 3;
  cfg.poly_degree = 2;
  cfg.coord_bits = 4;
  cfg.dims = 2;
  cfg.layout = layout;
  cfg.preset = bgv::SecurityPreset::kToy;  // n=1024: fast tests
  cfg.plain_bits = 33;
  cfg.threads = 1;
  cfg.levels = cfg.MinimumLevels();
  return cfg;
}

// Sorted squared distances of the returned points (the protocol's output
// order and tie choices are implementation-defined; distance multisets are
// the correct invariant).
std::vector<uint64_t> SortedDistances(
    const std::vector<std::vector<uint64_t>>& points,
    const std::vector<uint64_t>& query) {
  std::vector<uint64_t> out;
  for (const auto& p : points) {
    uint64_t sum = 0;
    for (size_t j = 0; j < query.size(); ++j) {
      uint64_t d = p[j] > query[j] ? p[j] - query[j] : query[j] - p[j];
      sum += d * d;
    }
    out.push_back(sum);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<uint64_t> ReferenceDistances(const data::Dataset& data,
                                         const std::vector<uint64_t>& query,
                                         size_t k) {
  auto ref = knn::PlaintextKnn(data, query, k);
  EXPECT_TRUE(ref.ok());
  std::vector<uint64_t> out;
  for (const auto& nb : ref.value()) out.push_back(nb.squared_distance);
  std::sort(out.begin(), out.end());
  return out;
}

bool IsDatasetPoint(const data::Dataset& data,
                    const std::vector<uint64_t>& p) {
  for (size_t i = 0; i < data.num_points(); ++i) {
    if (data.point(i) == p) return true;
  }
  return false;
}

struct E2EParam {
  Layout layout;
  size_t n;
  size_t dims;
  size_t k;
  size_t poly_degree;
};

class SecureKnnE2ETest : public ::testing::TestWithParam<E2EParam> {};

TEST_P(SecureKnnE2ETest, MatchesPlaintextKnn) {
  const E2EParam p = GetParam();
  ProtocolConfig cfg = SmallConfig(p.layout);
  cfg.dims = p.dims;
  cfg.k = p.k;
  cfg.poly_degree = p.poly_degree;
  cfg.levels = cfg.MinimumLevels();
  data::Dataset dataset =
      data::UniformDataset(p.n, p.dims, (1u << cfg.coord_bits) - 1, 42);
  auto session = SecureKnnSession::Create(cfg, dataset, 7);
  ASSERT_TRUE(session.ok()) << session.status();

  for (uint64_t qseed : {1ull, 2ull}) {
    std::vector<uint64_t> query =
        data::UniformQuery(p.dims, (1u << cfg.coord_bits) - 1, qseed);
    auto result = (*session)->RunQuery(query);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->neighbours.size(), std::min(p.k, p.n));
    // Every returned point is a real dataset point.
    for (const auto& pt : result->neighbours) {
      EXPECT_TRUE(IsDatasetPoint(dataset, pt));
    }
    // Exactness: distance multiset equals plaintext k-NN.
    EXPECT_EQ(SortedDistances(result->neighbours, query),
              ReferenceDistances(dataset, query, p.k));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, SecureKnnE2ETest,
    ::testing::Values(
        E2EParam{Layout::kPerPoint, 12, 2, 3, 2},
        E2EParam{Layout::kPerPoint, 20, 5, 4, 1},
        E2EParam{Layout::kPerPoint, 8, 3, 8, 2},   // k == n
        E2EParam{Layout::kPerPoint, 6, 1, 2, 2},   // 1-dimensional
        E2EParam{Layout::kPacked, 12, 2, 3, 2},
        E2EParam{Layout::kPacked, 700, 2, 5, 2},   // multiple units + padding
        E2EParam{Layout::kPacked, 64, 7, 4, 2},    // non-pow2 dims
        E2EParam{Layout::kPacked, 1030, 3, 3, 2},  // > one unit, pads
        E2EParam{Layout::kPacked, 33, 2, 1, 1}),   // k=1, degree-1 mask
    [](const auto& info) {
      const E2EParam& p = info.param;
      return std::string(p.layout == Layout::kPerPoint ? "PerPoint"
                                                       : "Packed") +
             "_n" + std::to_string(p.n) + "_d" + std::to_string(p.dims) +
             "_k" + std::to_string(p.k) + "_D" +
             std::to_string(p.poly_degree);
    });

TEST(SecureKnnTest, KLargerThanNClamps) {
  ProtocolConfig cfg = SmallConfig(Layout::kPacked);
  cfg.k = 50;
  data::Dataset dataset = data::UniformDataset(5, 2, 15, 1);
  auto session = SecureKnnSession::Create(cfg, dataset, 2);
  ASSERT_TRUE(session.ok()) << session.status();
  auto result = (*session)->RunQuery({3, 3});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->k, 5u);
  EXPECT_EQ(result->neighbours.size(), 5u);
}

TEST(SecureKnnTest, SingleRoundTripBetweenParties) {
  ProtocolConfig cfg = SmallConfig(Layout::kPacked);
  data::Dataset dataset = data::UniformDataset(40, 2, 15, 3);
  auto session = SecureKnnSession::Create(cfg, dataset, 4);
  ASSERT_TRUE(session.ok());
  auto result = (*session)->RunQuery({1, 2});
  ASSERT_TRUE(result.ok());
  // The paper's headline: exactly one round of communication. Our link
  // counts direction flips; one A->B burst + one B->A burst = 2 flips.
  EXPECT_EQ(result->ab_link.rounds, 2u);
  EXPECT_GT(result->ab_link.bytes_a_to_b, 0u);
  EXPECT_GT(result->ab_link.bytes_b_to_a, 0u);
}

TEST(SecureKnnTest, OpCountsMatchTableOne) {
  // Table 1 row "ours": O(n) decryptions at B, O(nk) encryptions at B.
  ProtocolConfig cfg = SmallConfig(Layout::kPerPoint);
  cfg.k = 3;
  const size_t n = 10;
  data::Dataset dataset = data::UniformDataset(n, 2, 15, 5);
  auto session = SecureKnnSession::Create(cfg, dataset, 6);
  ASSERT_TRUE(session.ok());
  auto result = (*session)->RunQuery({7, 7});
  ASSERT_TRUE(result.ok());
  // Per-point layout: exactly n decryptions and n*k indicator encryptions.
  EXPECT_EQ(result->party_b_ops.decryptions, n);
  EXPECT_EQ(result->party_b_ops.encryptions, n * cfg.k);
  // Party A: O(n*(k + d + D)) homomorphic work, no encryptions, and no
  // decryptions anywhere outside B/client.
  EXPECT_EQ(result->party_a_ops.encryptions, 0u);
  EXPECT_EQ(result->party_a_ops.decryptions, 0u);
  EXPECT_GE(result->party_a_ops.he_multiplications, n * (1 + cfg.k));
  EXPECT_EQ(result->client_ops.decryptions, cfg.k);
}

TEST(SecureKnnTest, MaskRefreshedPerQuery) {
  ProtocolConfig cfg = SmallConfig(Layout::kPacked);
  data::Dataset dataset = data::UniformDataset(30, 2, 15, 8);
  auto session = SecureKnnSession::Create(cfg, dataset, 9);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE((*session)->RunQuery({1, 1}).ok());
  auto coeffs1 = (*session)->party_a().last_mask()->coefficients();
  ASSERT_TRUE((*session)->RunQuery({1, 1}).ok());
  auto coeffs2 = (*session)->party_a().last_mask()->coefficients();
  EXPECT_NE(coeffs1, coeffs2);
}

TEST(SecureKnnTest, SamePointTwiceObservedDifferentlyByB) {
  // Search-pattern hiding: issuing the identical query twice must present
  // Party B with different masked values (fresh polynomial + permutation).
  ProtocolConfig cfg = SmallConfig(Layout::kPacked);
  data::Dataset dataset = data::UniformDataset(50, 2, 15, 10);
  auto session = SecureKnnSession::Create(cfg, dataset, 11);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE((*session)->RunQuery({4, 9}).ok());
  auto seen1 = (*session)->party_b().observed_masked_values();
  ASSERT_TRUE((*session)->RunQuery({4, 9}).ok());
  auto seen2 = (*session)->party_b().observed_masked_values();
  EXPECT_NE(seen1, seen2);
}

TEST(SecureKnnTest, MaskedValuesAreNotTrueDistances) {
  ProtocolConfig cfg = SmallConfig(Layout::kPerPoint);
  data::Dataset dataset = data::UniformDataset(15, 2, 15, 12);
  auto session = SecureKnnSession::Create(cfg, dataset, 13);
  ASSERT_TRUE(session.ok());
  std::vector<uint64_t> query = {2, 3};
  ASSERT_TRUE((*session)->RunQuery(query).ok());
  // B observed n masked values; none equal any true squared distance
  // except with negligible probability (coefficients are > 1).
  std::set<uint64_t> true_distances;
  for (size_t i = 0; i < dataset.num_points(); ++i) {
    true_distances.insert(data::SquaredDistance(dataset, i, query));
  }
  size_t collisions = 0;
  for (uint64_t v : (*session)->party_b().observed_masked_values()) {
    if (true_distances.count(v)) ++collisions;
  }
  EXPECT_EQ(collisions, 0u);
}

TEST(SecureKnnTest, EquidistantPointsReturnValidSet) {
  // Four corners at identical distance from the centre query: any k of the
  // tied points is exact; the distance multiset must still match.
  ProtocolConfig cfg = SmallConfig(Layout::kPacked);
  cfg.k = 2;
  data::Dataset dataset(4, 2);
  dataset.set(0, 0, 0);
  dataset.set(0, 1, 0);
  dataset.set(1, 0, 0);
  dataset.set(1, 1, 10);
  dataset.set(2, 0, 10);
  dataset.set(2, 1, 0);
  dataset.set(3, 0, 10);
  dataset.set(3, 1, 10);
  auto session = SecureKnnSession::Create(cfg, dataset, 14);
  ASSERT_TRUE(session.ok());
  auto result = (*session)->RunQuery({5, 5});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(SortedDistances(result->neighbours, {5, 5}),
            ReferenceDistances(dataset, {5, 5}, 2));
}

TEST(SecureKnnTest, DeterministicWithSameSeed) {
  ProtocolConfig cfg = SmallConfig(Layout::kPacked);
  data::Dataset dataset = data::UniformDataset(25, 2, 15, 15);
  auto s1 = SecureKnnSession::Create(cfg, dataset, 99);
  auto s2 = SecureKnnSession::Create(cfg, dataset, 99);
  ASSERT_TRUE(s1.ok() && s2.ok());
  auto r1 = (*s1)->RunQuery({8, 8});
  auto r2 = (*s2)->RunQuery({8, 8});
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(r1->neighbours, r2->neighbours);
}

TEST(SecureKnnTest, RejectsOutOfRangeData) {
  ProtocolConfig cfg = SmallConfig(Layout::kPacked);
  data::Dataset dataset = data::UniformDataset(10, 2, 100, 16);  // > 2^4
  EXPECT_FALSE(SecureKnnSession::Create(cfg, dataset, 17).ok());
}

TEST(SecureKnnTest, RejectsOutOfRangeQuery) {
  ProtocolConfig cfg = SmallConfig(Layout::kPacked);
  data::Dataset dataset = data::UniformDataset(10, 2, 15, 18);
  auto session = SecureKnnSession::Create(cfg, dataset, 19);
  ASSERT_TRUE(session.ok());
  EXPECT_FALSE((*session)->RunQuery({1000, 0}).ok());
  EXPECT_FALSE((*session)->RunQuery({1, 2, 3}).ok());
}

TEST(SecureKnnTest, SetupReportPopulated) {
  ProtocolConfig cfg = SmallConfig(Layout::kPacked);
  data::Dataset dataset = data::UniformDataset(20, 2, 15, 20);
  auto session = SecureKnnSession::Create(cfg, dataset, 21);
  ASSERT_TRUE(session.ok());
  const SetupReport& report = (*session)->setup_report();
  EXPECT_GT(report.encrypted_db_bytes, 0u);
  EXPECT_GT(report.evaluation_key_bytes, 0u);
  EXPECT_GT(report.owner_ops.encryptions, 0u);
  EXPECT_GT(report.estimated_security_bits, 0.0);
}

TEST(SecureKnnTest, SeededIndicatorsHalveTheReturnLeg) {
  // Party B's seed-compressed symmetric indicators must yield the exact
  // answer while the B->A leg carries at most 5/9 of the bytes the k·u
  // indicators would take as full public-key ciphertexts (a >= 1.8x
  // saving). The indicator matrix dominates the leg, and a seeded
  // indicator is half a full ciphertext plus its 32-byte seed and a frame
  // header, so the measured ratio sits just over 1/2.
  data::Dataset dataset = data::UniformDataset(30, 2, 15, 77);
  ProtocolConfig cfg = SmallConfig(Layout::kPacked);
  auto session = SecureKnnSession::Create(cfg, dataset, 5);
  ASSERT_TRUE(session.ok());
  auto r = (*session)->RunQuery({4, 4});
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(SortedDistances(r->neighbours, {4, 4}),
            ReferenceDistances(dataset, {4, 4}, cfg.k));

  auto d = Deployment::Derive(cfg, dataset, 5, /*role_a=*/false);
  ASSERT_TRUE(d.ok()) << d.status();
  Chacha20Rng rng(uint64_t{5});
  bgv::Encryptor encryptor(d->ctx, d->pk, &rng);
  bgv::BatchEncoder encoder(d->ctx);
  auto fresh =
      encryptor.EncryptAtLevel(encoder.EncodeScalar(0), cfg.indicator_level);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  const uint64_t full_bytes =
      r->k * d->layout.num_units() * CtToBytes(fresh.value()).size();
  EXPECT_LE(r->ab_link.bytes_b_to_a * 9, full_bytes * 5)
      << "b_to_a bytes: seeded=" << r->ab_link.bytes_b_to_a
      << " full=" << full_bytes;
}

// Everything a query's thread count could perturb: the serialized
// payloads of messages 2 and 4, both parties' op counts, and the answer.
struct Transcript {
  std::vector<std::vector<uint8_t>> distances;
  std::vector<std::vector<uint8_t>> results;
  std::string a_ops;
  std::string b_ops;
  std::vector<std::vector<uint64_t>> neighbours;
  double retrieve_budget = 0;  // the bgv.noise.party_a.retrieve gauge
};

// Algorithm 3 between the parties, no transport: B's seeded indicator
// rows, expanded and absorbed by A, then A's serialized results.
StatusOr<std::vector<std::vector<uint8_t>>> RunReturnPhase(
    const bgv::BgvContext& ctx, size_t k, PartyB* b, PartyA::Query* query) {
  SKNN_RETURN_IF_ERROR(query->BeginReturnPhase(k));
  for (size_t j = 0; j < k; ++j) {
    SKNN_ASSIGN_OR_RETURN(std::vector<bgv::SeededCiphertext> row,
                          b->EmitIndicatorsCompressedForResult(j));
    for (size_t pos = 0; pos < row.size(); ++pos) {
      SKNN_ASSIGN_OR_RETURN(bgv::Ciphertext indicator,
                            bgv::ExpandSeeded(ctx, row[pos]));
      SKNN_RETURN_IF_ERROR(query->AbsorbIndicator(j, pos, indicator));
    }
  }
  return FinalizeResults(k, query);
}

// Runs one query through the parties of `d` with `threads` workers each,
// driving the phases directly (no transport) so the test sees the exact
// ciphertexts the wire would carry.
void RunWithThreads(const Deployment& d, size_t threads,
                    const std::vector<uint64_t>& point, Transcript* out) {
  ProtocolConfig cfg = d.config;
  cfg.threads = threads;
  PartyA a(d.ctx, cfg, d.layout, d.pk, d.relin, d.galois, d.party_a_seed);
  ASSERT_TRUE(a.LoadEncryptedDatabase(d.encrypted_db).ok());
  PartyB b(d.ctx, cfg, d.layout, d.sk, d.pk, d.party_b_seed);
  Client client(d.ctx, cfg, d.layout, d.pk, d.sk, d.client_seed);
  auto query_ct = client.EncryptQuery(point);
  ASSERT_TRUE(query_ct.ok()) << query_ct.status();
  auto query = a.StartQuery(query_ct.value());
  ASSERT_TRUE(query.ok()) << query.status();
  for (const bgv::Ciphertext& ct : (*query)->distances()) {
    out->distances.push_back(CtToBytes(ct));
  }
  auto k = b.FindNeighbours((*query)->distances(), cfg.k);
  ASSERT_TRUE(k.ok()) << k.status();
  auto results = RunReturnPhase(*d.ctx, k.value(), &b, query->get());
  ASSERT_TRUE(results.ok()) << results.status();
  out->results = std::move(results).value();
  for (const std::vector<uint8_t>& bytes : out->results) {
    auto ct = CtFromBytes(bytes);
    ASSERT_TRUE(ct.ok()) << ct.status();
    auto neighbour = client.DecryptNeighbour(ct.value());
    ASSERT_TRUE(neighbour.ok()) << neighbour.status();
    out->neighbours.push_back(std::move(neighbour).value());
  }
  out->a_ops = (*query)->ops().DebugString();
  out->b_ops = b.ops().DebugString();
  out->retrieve_budget = MetricsRegistry::Global()
                             .GetGauge("bgv.noise.party_a.retrieve")
                             ->value();
}

// Per-unit RNG forks make a query a pure function of the party seeds: the
// default pools (one thread per core, on A's distance units and results
// and B's indicator rows) must reproduce the inline run byte for byte.
TEST(SecureKnnTest, MultiThreadedPartyAMatchesSingleThreaded) {
  struct Case {
    Layout layout;
    size_t n;
    size_t dims;
    size_t k;
  };
  // Packed: 600 points at d' = 4 fill three units of the toy ring. k = 9
  // gives A's results batch more results than a 4- or 8-thread pool.
  for (const Case& c : {Case{Layout::kPacked, 600, 3, 3},
                        Case{Layout::kPacked, 600, 3, 9},
                        Case{Layout::kPerPoint, 40, 2, 2}}) {
    SCOPED_TRACE(std::string(LayoutName(c.layout)) + " k=" +
                 std::to_string(c.k));
    data::Dataset dataset = data::UniformDataset(c.n, c.dims, 15, 22);
    ProtocolConfig cfg = SmallConfig(c.layout);
    cfg.dims = c.dims;
    cfg.k = c.k;
    auto d = Deployment::Derive(cfg, dataset, 23, /*role_a=*/true);
    ASSERT_TRUE(d.ok()) << d.status();
    ASSERT_GT(d->layout.num_units(), 1u);
    const std::vector<uint64_t> point = data::UniformQuery(c.dims, 15, 24);
    Transcript inline_run, pooled_run;
    RunWithThreads(*d, 1, point, &inline_run);
    RunWithThreads(*d, ProtocolConfig().threads, point, &pooled_run);
    EXPECT_EQ(inline_run.distances, pooled_run.distances);
    EXPECT_EQ(inline_run.results, pooled_run.results);
    EXPECT_EQ(inline_run.a_ops, pooled_run.a_ops);
    EXPECT_EQ(inline_run.b_ops, pooled_run.b_ops);
    EXPECT_EQ(inline_run.neighbours, pooled_run.neighbours);
    EXPECT_EQ(inline_run.retrieve_budget, pooled_run.retrieve_budget);
    EXPECT_EQ(SortedDistances(pooled_run.neighbours, point),
              ReferenceDistances(dataset, point, c.k));
  }
}

// Query::ComputeDistances runs Algorithm 1 under the query's transform
// with a fresh additive mask: for the ciphertext StartQuery got, every
// payload slot (masked distance or padding sentinel) decrypts to the same
// value in every unit, and the slots around them do not.
TEST(SecureKnnTest, ComputeDistancesKeepsTransformRedrawsAdditiveMask) {
  for (Layout layout : {Layout::kPacked, Layout::kPerPoint}) {
    SCOPED_TRACE(LayoutName(layout));
    data::Dataset dataset = data::UniformDataset(
        layout == Layout::kPacked ? 600 : 12, 3, 15, 41);
    ProtocolConfig cfg = SmallConfig(layout);
    cfg.dims = 3;
    auto d = Deployment::Derive(cfg, dataset, 42, /*role_a=*/true);
    ASSERT_TRUE(d.ok()) << d.status();
    ASSERT_GT(d->layout.num_units(), 1u);
    PartyA a(d->ctx, cfg, d->layout, d->pk, d->relin, d->galois,
             d->party_a_seed);
    ASSERT_TRUE(a.LoadEncryptedDatabase(d->encrypted_db).ok());
    Client client(d->ctx, cfg, d->layout, d->pk, d->sk, d->client_seed);
    auto query_ct = client.EncryptQuery(data::UniformQuery(3, 15, 43));
    ASSERT_TRUE(query_ct.ok()) << query_ct.status();
    auto query = a.StartQuery(query_ct.value());
    ASSERT_TRUE(query.ok()) << query.status();
    auto again = (*query)->ComputeDistances(query_ct.value());
    ASSERT_TRUE(again.ok()) << again.status();
    ASSERT_EQ(again->size(), d->layout.num_units());

    bgv::Decryptor decryptor(d->ctx, d->sk);
    bgv::BatchEncoder encoder(d->ctx);
    auto slots_of = [&](const bgv::Ciphertext& ct) {
      auto pt = decryptor.Decrypt(ct);
      EXPECT_TRUE(pt.ok()) << pt.status();
      return pt.ok() ? encoder.Decode(pt.value()) : std::vector<uint64_t>();
    };
    for (size_t pos = 0; pos < again->size(); ++pos) {
      SCOPED_TRACE(pos);
      std::vector<uint64_t> first = slots_of((*query)->distances()[pos]);
      std::vector<uint64_t> second = slots_of((*again)[pos]);
      ASSERT_EQ(first.size(), second.size());
      for (size_t p = 0; p < d->layout.payloads_per_unit(); ++p) {
        const size_t slot = d->layout.PayloadSlot(p);
        EXPECT_EQ(first[slot], second[slot]) << "payload " << p;
        first[slot] = second[slot] = 0;
      }
      EXPECT_NE(first, second);
    }
  }
}

// OpCounts::rotations counts key switches: a block rotation without an
// exact Galois key is a chain of power-of-two hops, one key switch each.
TEST(SecureKnnTest, RotationCountMatchesGaloisKeySwitches) {
  data::Dataset dataset = data::UniformDataset(600, 3, 15, 31);
  ProtocolConfig cfg = SmallConfig(Layout::kPacked);
  cfg.dims = 3;
  auto session = SecureKnnSession::Create(cfg, dataset, 32);
  ASSERT_TRUE(session.ok()) << session.status();
  MetricsRegistry::Counter* galois = MetricsRegistry::Global().GetCounter(
      "bgv.evaluator.galois_automorphism");
  for (uint64_t q = 0; q < 3; ++q) {
    const uint64_t before = galois->value();
    auto result = (*session)->RunQuery({q, 2 * q, 7});
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->party_a_ops.rotations, galois->value() - before);
  }
}

// Algorithm 3 applies the query's transform to the database once per
// query: every key switch of the return phase is a transform hop the query
// counts in ops().rotations, and there are as many for k = 1 as for k = 5
// (none is spent per indicator).
TEST(SecureKnnTest, ReturnPhaseKeySwitchesDoNotGrowWithK) {
  data::Dataset dataset = data::UniformDataset(600, 3, 15, 61);
  ProtocolConfig cfg = SmallConfig(Layout::kPacked);
  cfg.dims = 3;
  auto d = Deployment::Derive(cfg, dataset, 62, /*role_a=*/true);
  ASSERT_TRUE(d.ok()) << d.status();
  ASSERT_GT(d->layout.num_units(), 1u);
  const std::vector<uint64_t> point = data::UniformQuery(3, 15, 63);
  MetricsRegistry::Counter* galois = MetricsRegistry::Global().GetCounter(
      "bgv.evaluator.galois_automorphism");
  std::vector<uint64_t> key_switches;
  for (size_t k : {size_t{1}, size_t{5}}) {
    SCOPED_TRACE(k);
    PartyA a(d->ctx, cfg, d->layout, d->pk, d->relin, d->galois,
             d->party_a_seed);
    ASSERT_TRUE(a.LoadEncryptedDatabase(d->encrypted_db).ok());
    PartyB b(d->ctx, cfg, d->layout, d->sk, d->pk, d->party_b_seed);
    Client client(d->ctx, cfg, d->layout, d->pk, d->sk, d->client_seed);
    auto query_ct = client.EncryptQuery(point);
    ASSERT_TRUE(query_ct.ok()) << query_ct.status();
    auto query = a.StartQuery(query_ct.value());
    ASSERT_TRUE(query.ok()) << query.status();
    auto k_eff = b.FindNeighbours((*query)->distances(), k);
    ASSERT_TRUE(k_eff.ok()) << k_eff.status();
    const uint64_t galois_before = galois->value();
    const uint64_t rotations_before = (*query)->ops().rotations;
    auto results = RunReturnPhase(*d->ctx, k_eff.value(), &b, query->get());
    ASSERT_TRUE(results.ok()) << results.status();
    key_switches.push_back(galois->value() - galois_before);
    EXPECT_EQ(key_switches.back(),
              (*query)->ops().rotations - rotations_before);
    std::vector<std::vector<uint64_t>> neighbours;
    for (const std::vector<uint8_t>& bytes : results.value()) {
      auto ct = CtFromBytes(bytes);
      ASSERT_TRUE(ct.ok()) << ct.status();
      auto neighbour = client.DecryptNeighbour(ct.value());
      ASSERT_TRUE(neighbour.ok()) << neighbour.status();
      neighbours.push_back(std::move(neighbour).value());
    }
    EXPECT_EQ(SortedDistances(neighbours, point),
              ReferenceDistances(dataset, point, k));
  }
  EXPECT_GT(key_switches[0], 0u);
  EXPECT_EQ(key_switches[0], key_switches[1]);
}

// The cancel hook StartQuery receives also guards the return phase's
// database transform: a query cancelled after its distances were sent
// stops before any unit's Galois chain.
TEST(SecureKnnTest, CancelledQuerySkipsTheReturnPhaseTransform) {
  data::Dataset dataset = data::UniformDataset(600, 3, 15, 61);
  ProtocolConfig cfg = SmallConfig(Layout::kPacked);
  cfg.dims = 3;
  auto d = Deployment::Derive(cfg, dataset, 62, /*role_a=*/true);
  ASSERT_TRUE(d.ok()) << d.status();
  ASSERT_GT(d->layout.num_units(), 1u);
  PartyA a(d->ctx, cfg, d->layout, d->pk, d->relin, d->galois,
           d->party_a_seed);
  ASSERT_TRUE(a.LoadEncryptedDatabase(d->encrypted_db).ok());
  Client client(d->ctx, cfg, d->layout, d->pk, d->sk, d->client_seed);
  auto query_ct = client.EncryptQuery(data::UniformQuery(3, 15, 63));
  ASSERT_TRUE(query_ct.ok()) << query_ct.status();
  std::atomic<bool> expired{false};
  auto query = a.StartQuery(query_ct.value(), [&expired]() -> Status {
    return expired.load() ? DeadlineExceededError("deadline passed")
                          : Status::Ok();
  });
  ASSERT_TRUE(query.ok()) << query.status();
  expired = true;
  MetricsRegistry::Counter* galois = MetricsRegistry::Global().GetCounter(
      "bgv.evaluator.galois_automorphism");
  const uint64_t galois_before = galois->value();
  const Status status = (*query)->BeginReturnPhase(3);
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded) << status;
  EXPECT_EQ(galois->value(), galois_before);
}

// FinalizeResults checks every result before it consumes any: with the
// last row never absorbed it fails without relinearizing the others, and
// result 0 can still be finalized afterwards.
TEST(SecureKnnTest, FinalizeResultsChecksEveryResultFirst) {
  data::Dataset dataset = data::UniformDataset(600, 3, 15, 61);
  ProtocolConfig cfg = SmallConfig(Layout::kPacked);
  cfg.dims = 3;
  auto d = Deployment::Derive(cfg, dataset, 62, /*role_a=*/true);
  ASSERT_TRUE(d.ok()) << d.status();
  PartyA a(d->ctx, cfg, d->layout, d->pk, d->relin, d->galois,
           d->party_a_seed);
  ASSERT_TRUE(a.LoadEncryptedDatabase(d->encrypted_db).ok());
  PartyB b(d->ctx, cfg, d->layout, d->sk, d->pk, d->party_b_seed);
  Client client(d->ctx, cfg, d->layout, d->pk, d->sk, d->client_seed);
  auto query_ct = client.EncryptQuery(data::UniformQuery(3, 15, 63));
  ASSERT_TRUE(query_ct.ok()) << query_ct.status();
  auto query = a.StartQuery(query_ct.value());
  ASSERT_TRUE(query.ok()) << query.status();
  auto k = b.FindNeighbours((*query)->distances(), cfg.k);
  ASSERT_TRUE(k.ok()) << k.status();
  ASSERT_GT(k.value(), 1u);
  ASSERT_TRUE((*query)->BeginReturnPhase(k.value()).ok());
  for (size_t j = 0; j + 1 < k.value(); ++j) {
    auto row = b.EmitIndicatorsCompressedForResult(j);
    ASSERT_TRUE(row.ok()) << row.status();
    for (size_t pos = 0; pos < row->size(); ++pos) {
      auto indicator = bgv::ExpandSeeded(*d->ctx, (*row)[pos]);
      ASSERT_TRUE(indicator.ok()) << indicator.status();
      ASSERT_TRUE((*query)->AbsorbIndicator(j, pos, indicator.value()).ok());
    }
  }
  const uint64_t relins_before = (*query)->ops().relinearizations;
  auto results = FinalizeResults(k.value(), query->get());
  EXPECT_EQ(results.status().code(), StatusCode::kFailedPrecondition)
      << results.status();
  EXPECT_EQ((*query)->ops().relinearizations, relins_before);
  auto first = (*query)->FinalizeResult(0);
  EXPECT_TRUE(first.ok()) << first.status();
}

// The retrieve-side estimate (`bgv.noise.party_a.retrieve`) is a lower
// bound on what the client really has left: on a packed bench-preset
// query with a nonzero estimate, every result ciphertext's exact budget
// (measured with the secret key) is at least the estimate.
TEST(SecureKnnTest, RetrieveNoiseEstimateBoundsExactBudget) {
  ProtocolConfig cfg;
  cfg.preset = bgv::SecurityPreset::kBench;
  cfg.layout = Layout::kPacked;
  cfg.dims = 4;
  cfg.k = 20;
  cfg.levels = cfg.MinimumLevels();
  data::Dataset dataset = data::UniformDataset(2048, 4, 15, 71);
  auto d = Deployment::Derive(cfg, dataset, 72, /*role_a=*/true);
  ASSERT_TRUE(d.ok()) << d.status();
  ASSERT_GT(d->layout.num_units(), 1u);
  PartyA a(d->ctx, cfg, d->layout, d->pk, d->relin, d->galois,
           d->party_a_seed);
  ASSERT_TRUE(a.LoadEncryptedDatabase(d->encrypted_db).ok());
  PartyB b(d->ctx, cfg, d->layout, d->sk, d->pk, d->party_b_seed);
  Client client(d->ctx, cfg, d->layout, d->pk, d->sk, d->client_seed);
  const std::vector<uint64_t> point = data::UniformQuery(4, 15, 73);
  auto query_ct = client.EncryptQuery(point);
  ASSERT_TRUE(query_ct.ok()) << query_ct.status();
  auto query = a.StartQuery(query_ct.value());
  ASSERT_TRUE(query.ok()) << query.status();
  auto k = b.FindNeighbours((*query)->distances(), cfg.k);
  ASSERT_TRUE(k.ok()) << k.status();
  auto results = RunReturnPhase(*d->ctx, k.value(), &b, query->get());
  ASSERT_TRUE(results.ok()) << results.status();
  const double estimate = MetricsRegistry::Global()
                              .GetGauge("bgv.noise.party_a.retrieve")
                              ->value();
  ASSERT_GT(estimate, 0.0);
  bgv::Decryptor decryptor(d->ctx, d->sk);
  double min_exact = -1;
  std::vector<std::vector<uint64_t>> neighbours;
  for (const std::vector<uint8_t>& bytes : results.value()) {
    auto ct = CtFromBytes(bytes);
    ASSERT_TRUE(ct.ok()) << ct.status();
    auto exact = decryptor.NoiseBudgetBits(ct.value());
    ASSERT_TRUE(exact.ok()) << exact.status();
    EXPECT_GE(exact.value(), estimate);
    if (min_exact < 0 || exact.value() < min_exact) min_exact = exact.value();
    auto neighbour = client.DecryptNeighbour(ct.value());
    ASSERT_TRUE(neighbour.ok()) << neighbour.status();
    neighbours.push_back(std::move(neighbour).value());
  }
  EXPECT_EQ(SortedDistances(neighbours, point),
            ReferenceDistances(dataset, point, cfg.k));
  // The client's own decryptions publish the same minimum.
  const double client_exact =
      MetricsRegistry::Global()
          .GetGauge("bgv.noise.client.exact_result_budget")
          ->value();
  EXPECT_EQ(client_exact, min_exact);
  EXPECT_GE(client_exact, estimate);
  // Both readings land in --gtest_output=xml, for tracking the margin.
  RecordProperty("retrieve_estimate_bits", std::to_string(estimate));
  RecordProperty("retrieve_exact_min_bits", std::to_string(min_exact));
}

// The live noise contract on Party B's side: after FindNeighbours, the
// exact gauge is the minimum of the BigUint reference budget over every
// unit B decrypted, and the estimated `party_a.permute` gauge never
// exceeds it. Packed (several units) and per-point layouts.
TEST(SecureKnnTest, PartyBExactBudgetIsMinimumOverEveryUnit) {
  struct Case {
    Layout layout;
    size_t points;
    size_t dims;
  };
  for (const Case& c : {Case{Layout::kPacked, 600, 3},
                        Case{Layout::kPerPoint, 12, 2}}) {
    SCOPED_TRACE(c.layout == Layout::kPacked ? "packed" : "per-point");
    ProtocolConfig cfg = SmallConfig(c.layout);
    cfg.dims = c.dims;
    // One level above the minimum: at the minimum the worst-case estimate
    // sits at its floor of 0 bits, and the check below would be vacuous.
    cfg.levels = cfg.MinimumLevels() + 1;
    data::Dataset dataset = data::UniformDataset(c.points, c.dims, 15, 81);
    auto d = Deployment::Derive(cfg, dataset, 82, /*role_a=*/true);
    ASSERT_TRUE(d.ok()) << d.status();
    ASSERT_GE(d->layout.num_units(), 2u);
    PartyA a(d->ctx, cfg, d->layout, d->pk, d->relin, d->galois,
             d->party_a_seed);
    ASSERT_TRUE(a.LoadEncryptedDatabase(d->encrypted_db).ok());
    PartyB b(d->ctx, cfg, d->layout, d->sk, d->pk, d->party_b_seed);
    Client client(d->ctx, cfg, d->layout, d->pk, d->sk, d->client_seed);
    MetricsRegistry& registry = MetricsRegistry::Global();
    MetricsRegistry::Gauge* exact =
        registry.GetGauge("bgv.noise.party_b.exact_distance_budget");
    MetricsRegistry::Gauge* permute =
        registry.GetGauge("bgv.noise.party_a.permute");
    exact->Set(-1);
    permute->Set(-1);
    auto query_ct = client.EncryptQuery(data::UniformQuery(c.dims, 15, 83));
    ASSERT_TRUE(query_ct.ok()) << query_ct.status();
    auto query = a.StartQuery(query_ct.value());
    ASSERT_TRUE(query.ok()) << query.status();
    const std::vector<bgv::Ciphertext>& units = (*query)->distances();
    ASSERT_TRUE(b.FindNeighbours(units, cfg.k).ok());
    double min_reference = -1;
    for (const bgv::Ciphertext& unit : units) {
      const double budget =
          bgv::ReferenceDecrypt(*d->ctx, d->sk, unit).budget_bits;
      if (min_reference < 0 || budget < min_reference) min_reference = budget;
    }
    EXPECT_GT(min_reference, 0.0);
    EXPECT_EQ(exact->value(), min_reference);
    EXPECT_GT(permute->value(), 0.0);
    EXPECT_GE(exact->value(), permute->value());
  }
}

}  // namespace
}  // namespace core
}  // namespace sknn
