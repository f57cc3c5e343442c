#ifndef SKNN_EXTENSIONS_SECURE_KMEANS_H_
#define SKNN_EXTENSIONS_SECURE_KMEANS_H_

#include <memory>
#include <vector>

#include "bgv/context.h"
#include "bgv/decryptor.h"
#include "bgv/encoder.h"
#include "bgv/encryptor.h"
#include "bgv/evaluator.h"
#include "bgv/keys.h"
#include "common/rng.h"
#include "core/layout.h"
#include "core/metrics.h"
#include "core/party_a.h"
#include "data/dataset.h"

// Secure k-means clustering over encrypted data — the extension the paper
// names as future work ("we plan to extend our work to other data mining
// algorithms, including k-Means"). Built from the same ingredients as the
// k-NN protocol, in the same two-cloud model:
//
// Each Lloyd iteration:
//   1. The client encrypts the current centroids (replicated slot layout).
//   2. Party A (core::PartyA, the k-NN protocol's own Algorithm 1) runs
//      one Query per iteration: StartQuery for the first centroid, then
//      Query::ComputeDistances for the others. Every centroid of the
//      iteration therefore shares one fresh monotone mask (so Party B can
//      compare them) and one fresh transform — unit permutation plus
//      per-unit block rotation and row swap.
//   3. Party B decrypts, assigns every (transformed) point to its nearest
//      centroid, and returns per-cluster encrypted indicator units.
//   4. Party A absorbs the indicators into per-cluster encrypted sums (the
//      return phase of Algorithm 3, against its transformed database),
//      relinearizes them and folds each sum's blocks onto block 0; Party B
//      reveals only the cluster sizes.
//   5. The client decrypts the sums and derives the next integer centroids
//      (floor division; empty clusters keep their centroid).
//
// Key material, the encrypted database and every party's RNG seed come
// from core::Deployment at KMeansConfig::seed, the derivation the k-NN
// session uses. k-means plays the client and Party B in one process; both
// roles draw from one stream forked from the deployment's client seed.
//
// Leakage beyond the k-NN protocol (documented): Party B learns, within
// one iteration, which transformed positions share a nearest centroid
// (the partition structure) and the cluster sizes. The transform is
// redrawn every iteration, so positions cannot be linked across
// iterations. The final centroids are exact: they equal the plaintext
// Lloyd iteration with identical integer rounding, which is what the
// tests assert.

namespace sknn {
namespace extensions {

struct KMeansConfig {
  size_t num_clusters = 2;
  size_t iterations = 5;
  int coord_bits = 4;
  size_t poly_degree = 2;
  size_t dims = 2;
  bgv::SecurityPreset preset = bgv::SecurityPreset::kToy;
  uint64_t seed = 1;
};

struct KMeansResult {
  // Final centroids (integer coordinates).
  std::vector<std::vector<uint64_t>> centroids;
  // Cluster sizes after the final assignment.
  std::vector<size_t> sizes;
  size_t iterations_run = 0;
  core::OpCounts party_a_ops;
  core::OpCounts party_b_ops;
};

class SecureKMeans {
 public:
  static StatusOr<std::unique_ptr<SecureKMeans>> Create(
      const KMeansConfig& config, const data::Dataset& dataset);

  // Runs Lloyd iterations from the given initial centroids (defaults to
  // the first num_clusters dataset points when empty). Stops early when
  // centroids are stable.
  StatusOr<KMeansResult> Run(
      std::vector<std::vector<uint64_t>> initial_centroids = {});

  // Plaintext reference with the identical update rule (floor division,
  // ties to the lowest centroid index); used by tests and examples to
  // verify exactness.
  static std::vector<std::vector<uint64_t>> ReferenceLloyd(
      const data::Dataset& dataset,
      std::vector<std::vector<uint64_t>> centroids, size_t iterations,
      std::vector<size_t>* final_sizes = nullptr);

 private:
  SecureKMeans() = default;

  // One secure iteration: returns the next centroids and cluster sizes.
  Status Iterate(std::vector<std::vector<uint64_t>>* centroids,
                 std::vector<size_t>* sizes);

  KMeansConfig config_;
  data::Dataset dataset_;
  std::shared_ptr<const bgv::BgvContext> ctx_;
  core::SlotLayout layout_;
  std::unique_ptr<Chacha20Rng> rng_;
  bgv::GaloisKeys gk_;
  std::unique_ptr<bgv::BatchEncoder> encoder_;
  std::unique_ptr<bgv::Encryptor> encryptor_;
  std::unique_ptr<bgv::Decryptor> decryptor_;
  std::unique_ptr<bgv::Evaluator> evaluator_;
  std::unique_ptr<core::PartyA> party_a_;
  core::OpCounts a_ops_;
  core::OpCounts b_ops_;
};

}  // namespace extensions
}  // namespace sknn

#endif  // SKNN_EXTENSIONS_SECURE_KMEANS_H_
