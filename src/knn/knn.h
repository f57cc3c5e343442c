#ifndef SKNN_KNN_KNN_H_
#define SKNN_KNN_KNN_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "data/dataset.h"

// Plaintext exact k-NN: the correctness reference for both secure
// protocols, plus the streaming top-k selection that Party B runs on
// decrypted masked distances (Algorithm 2 of the paper).

namespace sknn {
namespace knn {

struct Neighbor {
  size_t index;
  uint64_t squared_distance;
};

// Exact k nearest neighbours by squared Euclidean distance, ties broken by
// lower index (deterministic). k is clamped to the dataset size.
StatusOr<std::vector<Neighbor>> PlaintextKnn(const data::Dataset& data,
                                             const std::vector<uint64_t>& query,
                                             size_t k);

// The exactness criterion: OK iff the sorted multiset of squared distances
// from `neighbours` to `query` equals that of PlaintextKnn(data, query, k).
// Equidistant points are interchangeable, so distances are compared. A
// mismatch is kInternal (a wrong answer is a bug) listing both multisets.
Status CheckExact(const data::Dataset& data,
                  const std::vector<uint64_t>& query, size_t k,
                  const std::vector<std::vector<uint64_t>>& neighbours);

// Streaming selection of the k smallest values (paper's Algorithm 2: scan
// with a size-k window replacing the current maximum). Returns the indices
// of the k smallest values in `values`, in the order the algorithm emits
// them. Ties resolve to the earliest-seen value, matching the paper's
// strict `<` comparison.
std::vector<size_t> SelectKSmallest(const std::vector<uint64_t>& values,
                                    size_t k);

}  // namespace knn
}  // namespace sknn

#endif  // SKNN_KNN_KNN_H_
