#ifndef SKNN_CORE_METRICS_H_
#define SKNN_CORE_METRICS_H_

#include <cstdint>
#include <sstream>
#include <string>

#include "common/metrics_registry.h"

// Operation counters shared by the new protocol and the baseline. These
// regenerate the computational-overhead columns of the paper's Table 1
// from actual executions. OpCounts remains the per-party
// aggregate carried in QueryResult; ExportTo maps it into the named
// MetricsRegistry taxonomy (core.<party>.<op>) for trace/JSON output.

namespace sknn {
namespace core {

struct OpCounts {
  uint64_t he_multiplications = 0;  // ciphertext-ciphertext products
  uint64_t he_plain_ops = 0;        // plaintext/scalar mult-add on ciphertexts
  uint64_t he_additions = 0;
  uint64_t rotations = 0;
  uint64_t relinearizations = 0;
  uint64_t mod_switches = 0;
  uint64_t encryptions = 0;
  uint64_t decryptions = 0;

  uint64_t total_homomorphic() const {
    return he_multiplications + he_plain_ops + he_additions + rotations +
           relinearizations + mod_switches;
  }

  OpCounts& operator+=(const OpCounts& o) {
    he_multiplications += o.he_multiplications;
    he_plain_ops += o.he_plain_ops;
    he_additions += o.he_additions;
    rotations += o.rotations;
    relinearizations += o.relinearizations;
    mod_switches += o.mod_switches;
    encryptions += o.encryptions;
    decryptions += o.decryptions;
    return *this;
  }

  // Adds these counts into `registry` under `prefix` (e.g. prefix
  // "core.party_a" yields counters "core.party_a.he_multiplications", ...).
  void ExportTo(MetricsRegistry* registry, const std::string& prefix) const {
    auto add = [&](const char* name, uint64_t v) {
      if (v != 0) registry->GetCounter(prefix + "." + name)->Add(v);
    };
    add("he_multiplications", he_multiplications);
    add("he_plain_ops", he_plain_ops);
    add("he_additions", he_additions);
    add("rotations", rotations);
    add("relinearizations", relinearizations);
    add("mod_switches", mod_switches);
    add("encryptions", encryptions);
    add("decryptions", decryptions);
  }

  std::string DebugString() const {
    std::ostringstream os;
    os << "OpCounts{mult=" << he_multiplications
       << ", plain=" << he_plain_ops << ", add=" << he_additions
       << ", rot=" << rotations << ", relin=" << relinearizations
       << ", modswitch=" << mod_switches << ", enc=" << encryptions
       << ", dec=" << decryptions << "}";
    return os.str();
  }
};

}  // namespace core
}  // namespace sknn

#endif  // SKNN_CORE_METRICS_H_
