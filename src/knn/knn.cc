#include "knn/knn.h"

#include <algorithm>
#include <string>

namespace sknn {
namespace knn {

StatusOr<std::vector<Neighbor>> PlaintextKnn(const data::Dataset& data,
                                             const std::vector<uint64_t>& query,
                                             size_t k) {
  if (query.size() != data.dims()) {
    return InvalidArgumentError("query dimension mismatch");
  }
  if (k == 0) return InvalidArgumentError("k must be positive");
  k = std::min(k, data.num_points());
  std::vector<Neighbor> all(data.num_points());
  for (size_t i = 0; i < data.num_points(); ++i) {
    all[i] = {i, data::SquaredDistance(data, i, query)};
  }
  std::partial_sort(all.begin(), all.begin() + static_cast<long>(k), all.end(),
                    [](const Neighbor& a, const Neighbor& b) {
                      if (a.squared_distance != b.squared_distance) {
                        return a.squared_distance < b.squared_distance;
                      }
                      return a.index < b.index;
                    });
  all.resize(k);
  return all;
}

namespace {

std::string Join(const std::vector<uint64_t>& values) {
  std::string out;
  for (uint64_t v : values) {
    out += (out.empty() ? "" : ", ") + std::to_string(v);
  }
  return "{" + out + "}";
}

}  // namespace

Status CheckExact(const data::Dataset& data,
                  const std::vector<uint64_t>& query, size_t k,
                  const std::vector<std::vector<uint64_t>>& neighbours) {
  SKNN_ASSIGN_OR_RETURN(std::vector<Neighbor> expected,
                        PlaintextKnn(data, query, k));
  std::vector<uint64_t> want, got;
  for (const Neighbor& nb : expected) want.push_back(nb.squared_distance);
  for (const auto& p : neighbours) {
    if (p.size() != query.size()) {
      return InternalError("answer point has the wrong dimension");
    }
    got.push_back(0);
    for (size_t j = 0; j < query.size(); ++j) {
      const uint64_t diff =
          p[j] > query[j] ? p[j] - query[j] : query[j] - p[j];
      got.back() += diff * diff;
    }
  }
  std::sort(want.begin(), want.end());
  std::sort(got.begin(), got.end());
  if (got == want) return Status::Ok();
  return InternalError("answer is not the exact k-NN: squared distances " +
                       Join(got) + " vs brute force " + Join(want));
}

std::vector<size_t> SelectKSmallest(const std::vector<uint64_t>& values,
                                    size_t k) {
  k = std::min(k, values.size());
  if (k == 0) return {};
  std::vector<uint64_t> nn(k);
  std::vector<size_t> nn_index(k);
  for (size_t i = 0; i < k; ++i) {
    nn[i] = values[i];
    nn_index[i] = i;
  }
  for (size_t i = k; i < values.size(); ++i) {
    // Find the current maximum in the window.
    size_t max_pos = 0;
    for (size_t j = 1; j < k; ++j) {
      if (nn[j] > nn[max_pos]) max_pos = j;
    }
    if (values[i] < nn[max_pos]) {
      nn[max_pos] = values[i];
      nn_index[max_pos] = i;
    }
  }
  return nn_index;
}

}  // namespace knn
}  // namespace sknn
