#include "extensions/secure_kmeans.h"

#include "core/deployment.h"

namespace sknn {
namespace extensions {
namespace {

// Level of the oblivious-sum phase. It multiplies and then folds with
// ~log2(slots) rotations; level 2 leaves enough budget for both (level 1
// would only survive the multiplication).
constexpr size_t kSumLevel = 2;

// Assigns a point to its nearest centroid index (strict <, ties to the
// lowest index) given its k distance values.
size_t ArgMin(const std::vector<uint64_t>& values) {
  size_t best = 0;
  for (size_t c = 1; c < values.size(); ++c) {
    if (values[c] < values[best]) best = c;
  }
  return best;
}

}  // namespace

StatusOr<std::unique_ptr<SecureKMeans>> SecureKMeans::Create(
    const KMeansConfig& config, const data::Dataset& dataset) {
  if (config.num_clusters < 1) {
    return InvalidArgumentError("need at least one cluster");
  }
  if (config.num_clusters > dataset.num_points()) {
    return InvalidArgumentError("more clusters than points");
  }

  // Same pipeline depth as the packed k-NN layout; the return phase runs
  // at kSumLevel.
  core::ProtocolConfig pcfg;
  pcfg.k = config.num_clusters;
  pcfg.dims = config.dims;
  pcfg.coord_bits = config.coord_bits;
  pcfg.poly_degree = config.poly_degree;
  pcfg.layout = core::Layout::kPacked;
  pcfg.preset = config.preset;
  pcfg.levels = pcfg.MinimumLevels();
  pcfg.indicator_level = kSumLevel;
  SKNN_ASSIGN_OR_RETURN(
      core::Deployment deployment,
      core::Deployment::Derive(pcfg, dataset, config.seed, /*role_a=*/true));

  // Cluster coordinate sums must fit the plaintext space.
  const uint64_t max_coord = (uint64_t{1} << config.coord_bits) - 1;
  if (static_cast<uint64_t>(dataset.num_points()) * max_coord >=
      deployment.ctx->t()) {
    return InvalidArgumentError(
        "plaintext modulus too small for cluster coordinate sums");
  }

  auto km = std::unique_ptr<SecureKMeans>(new SecureKMeans());
  km->config_ = config;
  km->dataset_ = dataset;
  km->ctx_ = deployment.ctx;
  km->layout_ = deployment.layout;
  km->gk_ = deployment.galois;
  km->rng_ = std::make_unique<Chacha20Rng>(deployment.client_seed);
  km->encoder_ = std::make_unique<bgv::BatchEncoder>(km->ctx_);
  km->encryptor_ = std::make_unique<bgv::Encryptor>(km->ctx_, deployment.pk,
                                                     km->rng_.get());
  km->decryptor_ = std::make_unique<bgv::Decryptor>(km->ctx_, deployment.sk);
  km->evaluator_ = std::make_unique<bgv::Evaluator>(km->ctx_);
  km->party_a_ = std::make_unique<core::PartyA>(
      km->ctx_, pcfg, km->layout_, deployment.pk, std::move(deployment.relin),
      std::move(deployment.galois), deployment.party_a_seed);
  SKNN_RETURN_IF_ERROR(
      km->party_a_->LoadEncryptedDatabase(std::move(deployment.encrypted_db)));
  return km;
}

Status SecureKMeans::Iterate(std::vector<std::vector<uint64_t>>* centroids,
                             std::vector<size_t>* sizes) {
  const size_t k = config_.num_clusters;
  const size_t units = layout_.num_units();
  const size_t ppu = layout_.payloads_per_unit();
  const uint64_t t = ctx_->t();

  // The client encrypts each centroid in the replicated query layout;
  // Party A computes its masked distances. One Query per iteration: every
  // centroid shares its mask (values stay comparable across centroids)
  // and its transform. masked[c][pos] is the distance unit for centroid c
  // at transformed position pos.
  std::unique_ptr<core::PartyA::Query> query;
  std::vector<std::vector<bgv::Ciphertext>> masked(k);
  for (size_t c = 0; c < k; ++c) {
    SKNN_ASSIGN_OR_RETURN(
        bgv::Plaintext centroid_pt,
        encoder_->Encode(layout_.EncodeQuery((*centroids)[c])));
    SKNN_ASSIGN_OR_RETURN(bgv::Ciphertext centroid_ct,
                          encryptor_->Encrypt(centroid_pt));
    b_ops_.encryptions += 1;  // client-side, attributed to the key holder
    if (c == 0) {
      SKNN_ASSIGN_OR_RETURN(query, party_a_->StartQuery(centroid_ct));
      masked[c] = query->distances();
    } else {
      SKNN_ASSIGN_OR_RETURN(masked[c], query->ComputeDistances(centroid_ct));
    }
  }

  // Party B: decrypt, assign each (transformed) point to its nearest
  // centroid; padding payloads show the sentinel for every centroid.
  std::vector<std::vector<std::vector<uint64_t>>> indicators(
      k, std::vector<std::vector<uint64_t>>(
             units, std::vector<uint64_t>(ctx_->n(), 0)));
  std::vector<size_t> cluster_sizes(k, 0);
  for (size_t pos = 0; pos < units; ++pos) {
    std::vector<std::vector<uint64_t>> per_centroid(k);
    for (size_t c = 0; c < k; ++c) {
      SKNN_ASSIGN_OR_RETURN(bgv::Plaintext pt,
                            decryptor_->Decrypt(masked[c][pos]));
      b_ops_.decryptions += 1;
      per_centroid[c] = encoder_->Decode(pt);
    }
    for (size_t p = 0; p < ppu; ++p) {
      const size_t slot = layout_.PayloadSlot(p);
      std::vector<uint64_t> values(k);
      bool all_sentinel = true;
      for (size_t c = 0; c < k; ++c) {
        values[c] = per_centroid[c][slot];
        if (values[c] != t - 1) all_sentinel = false;
      }
      if (all_sentinel) continue;  // padding payload
      const size_t assigned = ArgMin(values);
      ++cluster_sizes[assigned];
      const std::vector<uint64_t> block = layout_.IndicatorSlots(p);
      for (size_t s = 0; s < block.size(); ++s) {
        if (block[s]) indicators[assigned][pos][s] = 1;
      }
    }
  }

  // Party B encrypts the per-cluster indicator units; Party A absorbs
  // them into the per-cluster sums against its transformed database, then
  // folds every block onto block 0 (dimension-aligned strides) and merges
  // the two rows, so where the transform put a point does not matter.
  SKNN_RETURN_IF_ERROR(query->BeginReturnPhase(k));
  for (size_t c = 0; c < k; ++c) {
    for (size_t pos = 0; pos < units; ++pos) {
      SKNN_ASSIGN_OR_RETURN(bgv::Plaintext ind_pt,
                            encoder_->Encode(indicators[c][pos]));
      SKNN_ASSIGN_OR_RETURN(bgv::Ciphertext ind_ct,
                            encryptor_->EncryptAtLevel(ind_pt, kSumLevel));
      b_ops_.encryptions += 1;
      SKNN_RETURN_IF_ERROR(query->AbsorbIndicator(c, pos, ind_ct));
    }
  }
  std::vector<std::vector<uint64_t>> sums(
      k, std::vector<uint64_t>(config_.dims, 0));
  for (size_t c = 0; c < k; ++c) {
    SKNN_ASSIGN_OR_RETURN(bgv::Ciphertext acc, query->RelinearizedSum(c));
    for (size_t step = layout_.padded_dims(); step < layout_.row_size();
         step <<= 1) {
      bgv::Ciphertext rotated = acc;
      SKNN_RETURN_IF_ERROR(evaluator_->RotateRowsInplace(
          &rotated, static_cast<int>(step), gk_));
      SKNN_RETURN_IF_ERROR(evaluator_->AddInplace(&acc, rotated));
      a_ops_.rotations += 1;
      a_ops_.he_additions += 1;
    }
    {
      bgv::Ciphertext swapped = acc;
      SKNN_RETURN_IF_ERROR(evaluator_->RotateColumnsInplace(&swapped, gk_));
      SKNN_RETURN_IF_ERROR(evaluator_->AddInplace(&acc, swapped));
      a_ops_.rotations += 1;
      a_ops_.he_additions += 1;
    }
    a_ops_.mod_switches += acc.level;
    SKNN_RETURN_IF_ERROR(evaluator_->ModSwitchToLevelInplace(&acc, 0));
    // Client decrypts the sums from block 0 of row 0.
    SKNN_ASSIGN_OR_RETURN(bgv::Plaintext pt, decryptor_->Decrypt(acc));
    b_ops_.decryptions += 1;
    const std::vector<uint64_t> slots = encoder_->Decode(pt);
    for (size_t j = 0; j < config_.dims; ++j) sums[c][j] = slots[j];
  }
  a_ops_ += query->ops();

  // Client: next centroids = floor(sum / size); empty clusters persist.
  for (size_t c = 0; c < k; ++c) {
    if (cluster_sizes[c] == 0) continue;
    for (size_t j = 0; j < config_.dims; ++j) {
      (*centroids)[c][j] = sums[c][j] / cluster_sizes[c];
    }
  }
  *sizes = cluster_sizes;
  return Status::Ok();
}

StatusOr<KMeansResult> SecureKMeans::Run(
    std::vector<std::vector<uint64_t>> initial_centroids) {
  std::vector<std::vector<uint64_t>> centroids = std::move(initial_centroids);
  if (centroids.empty()) {
    for (size_t c = 0; c < config_.num_clusters; ++c) {
      centroids.push_back(dataset_.point(c));
    }
  }
  if (centroids.size() != config_.num_clusters) {
    return InvalidArgumentError("wrong number of initial centroids");
  }
  for (const auto& c : centroids) {
    if (c.size() != config_.dims) {
      return InvalidArgumentError("centroid dimensionality mismatch");
    }
  }
  KMeansResult result;
  std::vector<size_t> sizes(config_.num_clusters, 0);
  for (size_t it = 0; it < config_.iterations; ++it) {
    std::vector<std::vector<uint64_t>> before = centroids;
    SKNN_RETURN_IF_ERROR(Iterate(&centroids, &sizes));
    ++result.iterations_run;
    if (centroids == before) break;  // converged
  }
  result.centroids = std::move(centroids);
  result.sizes = std::move(sizes);
  result.party_a_ops = a_ops_;
  result.party_b_ops = b_ops_;
  return result;
}

std::vector<std::vector<uint64_t>> SecureKMeans::ReferenceLloyd(
    const data::Dataset& dataset,
    std::vector<std::vector<uint64_t>> centroids, size_t iterations,
    std::vector<size_t>* final_sizes) {
  const size_t k = centroids.size();
  std::vector<size_t> sizes(k, 0);
  for (size_t it = 0; it < iterations; ++it) {
    std::vector<std::vector<uint64_t>> sums(
        k, std::vector<uint64_t>(dataset.dims(), 0));
    sizes.assign(k, 0);
    for (size_t i = 0; i < dataset.num_points(); ++i) {
      std::vector<uint64_t> distances(k);
      for (size_t c = 0; c < k; ++c) {
        distances[c] = data::SquaredDistance(dataset, i, centroids[c]);
      }
      const size_t assigned = ArgMin(distances);
      ++sizes[assigned];
      for (size_t j = 0; j < dataset.dims(); ++j) {
        sums[assigned][j] += dataset.at(i, j);
      }
    }
    std::vector<std::vector<uint64_t>> next = centroids;
    for (size_t c = 0; c < k; ++c) {
      if (sizes[c] == 0) continue;
      for (size_t j = 0; j < dataset.dims(); ++j) {
        next[c][j] = sums[c][j] / sizes[c];
      }
    }
    if (next == centroids) break;
    centroids = std::move(next);
  }
  if (final_sizes != nullptr) *final_sizes = sizes;
  return centroids;
}

}  // namespace extensions
}  // namespace sknn
