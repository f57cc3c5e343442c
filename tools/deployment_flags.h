#ifndef SKNN_TOOLS_DEPLOYMENT_FLAGS_H_
#define SKNN_TOOLS_DEPLOYMENT_FLAGS_H_

// Command-line parsing shared by sknn_cli and sknn_server_{a,b}: the
// --key=value flag reader and the deployment flags. A client and both
// servers derive their deployment from these flags, and the handshake
// fingerprint rejects any mismatch, so the three binaries read them here
// and nowhere else.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "bgv/params.h"
#include "core/protocol_config.h"
#include "data/dataset.h"
#include "data/generators.h"

namespace sknn {
namespace tools {

// Minimal --key=value flag reader; a bare --key reads as "true".
class Flags {
 public:
  // With `has_command`, the first non-flag argument is the subcommand and
  // is skipped here (flags may appear on either side of it). Any other
  // non-flag argument is reported and ignored.
  Flags(int argc, char** argv, bool has_command) {
    bool seen_command = !has_command;
    for (int i = 1; i < argc; ++i) {
      const char* a = argv[i];
      if (std::strncmp(a, "--", 2) != 0) {
        if (!seen_command) {
          seen_command = true;
          continue;
        }
        std::fprintf(stderr, "ignoring stray argument %s\n", a);
        continue;
      }
      const char* eq = std::strchr(a, '=');
      if (eq == nullptr) {
        values_[std::string(a + 2)] = "true";
      } else {
        values_[std::string(a + 2, static_cast<size_t>(eq - a - 2))] =
            std::string(eq + 1);
      }
    }
  }

  uint64_t U64(const char* key, uint64_t def) const {
    auto it = values_.find(key);
    return it == values_.end() ? def : std::strtoull(it->second.c_str(),
                                                     nullptr, 10);
  }
  std::string Str(const char* key, const char* def) const {
    auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
  }

 private:
  std::map<std::string, std::string> values_;
};

inline bgv::SecurityPreset PresetFromString(const std::string& s) {
  if (s == "bench") return bgv::SecurityPreset::kBench;
  if (s == "default") return bgv::SecurityPreset::kDefault;
  if (s == "paranoid") return bgv::SecurityPreset::kParanoid;
  if (s != "toy") std::fprintf(stderr, "unknown preset '%s', using toy\n",
                               s.c_str());
  return bgv::SecurityPreset::kToy;
}

struct DeploymentFlags {
  std::string dataset_name;
  data::Dataset dataset;
  core::ProtocolConfig config;
  uint64_t seed = 1;
};

// The dataset, protocol config and seed named by --n --d --k --coord-bits
// --degree --seed --dataset --preset --layout --threads.
// `threads` is per process and stays out of the fingerprint.
inline DeploymentFlags ParseDeploymentFlags(const Flags& flags) {
  DeploymentFlags out;
  out.seed = flags.U64("seed", 1);
  out.dataset_name = flags.Str("dataset", "uniform");
  core::ProtocolConfig& cfg = out.config;
  cfg.dims = flags.U64("d", 2);
  cfg.coord_bits = static_cast<int>(flags.U64("coord-bits", 4));
  const size_t n = flags.U64("n", 100);
  if (out.dataset_name == "cancer") {
    cfg.dims = 32;
    out.dataset = data::SimulatedCervicalCancer(out.seed)
                      .QuantizeToBits(cfg.coord_bits);
  } else if (out.dataset_name == "credit") {
    cfg.dims = 23;
    out.dataset = data::SimulatedCreditCard(out.seed, n)
                      .QuantizeToBits(cfg.coord_bits);
  } else {
    out.dataset = data::UniformDataset(
        n, cfg.dims, (uint64_t{1} << cfg.coord_bits) - 1, out.seed);
  }
  cfg.k = flags.U64("k", 5);
  cfg.poly_degree = flags.U64("degree", 2);
  cfg.layout = flags.Str("layout", "packed") == std::string("per-point")
                   ? core::Layout::kPerPoint
                   : core::Layout::kPacked;
  cfg.preset = PresetFromString(flags.Str("preset", "toy"));
  cfg.levels = cfg.MinimumLevels();
  cfg.threads = flags.U64("threads", 0);
  return out;
}

}  // namespace tools
}  // namespace sknn

#endif  // SKNN_TOOLS_DEPLOYMENT_FLAGS_H_
