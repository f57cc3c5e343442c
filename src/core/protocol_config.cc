#include "core/protocol_config.h"

#include <sstream>

namespace sknn {
namespace core {

const char* LayoutName(Layout layout) {
  switch (layout) {
    case Layout::kPerPoint:
      return "per-point";
    case Layout::kPacked:
      return "packed";
  }
  return "unknown";
}

size_t ProtocolConfig::MinimumLevels() const {
  // One level each for: the distance squaring, every extra Horner degree,
  // the mask/rotation stage (level 1) and transport (level 0); packed mode
  // additionally spends one on the garbage/padding selector.
  size_t needed = 1 + (poly_degree - 1) + 2;
  if (layout == Layout::kPacked) needed += 1;
  return needed;
}

StatusOr<bgv::BgvParams> ProtocolConfig::MakeBgvParams() const {
  SKNN_RETURN_IF_ERROR(Validate());
  return bgv::BgvParams::Create(preset, levels, plain_bits);
}

Status ProtocolConfig::Validate() const {
  if (k == 0) return InvalidArgumentError("k must be positive");
  if (dims == 0) return InvalidArgumentError("dims must be positive");
  if (poly_degree == 0) {
    return InvalidArgumentError("masking polynomial degree must be >= 1");
  }
  if (coord_bits < 1 || coord_bits > 30) {
    return InvalidArgumentError("coord_bits must be in [1, 30]");
  }
  if (levels < MinimumLevels()) {
    return InvalidArgumentError(
        "not enough levels for the distance + masking pipeline (need " +
        std::to_string(MinimumLevels()) + " for this layout/degree)");
  }
  if (indicator_level < 1 || indicator_level >= levels) {
    return InvalidArgumentError("indicator_level must be in [1, levels)");
  }
  return Status::Ok();
}

std::string ProtocolConfig::DebugString() const {
  // In bgv::SecurityPreset order.
  static constexpr const char* kPresets[] = {"toy", "bench", "default",
                                             "paranoid"};
  std::ostringstream os;
  os << "ProtocolConfig{k=" << k << ", D=" << poly_degree
     << ", coord_bits=" << coord_bits << ", dims=" << dims
     << ", layout=" << LayoutName(layout)
     << ", preset=" << kPresets[static_cast<int>(preset)]
     << ", levels=" << levels
     << ", plain_bits=" << plain_bits
     << ", indicator_level=" << indicator_level << "}";
  return os.str();
}

}  // namespace core
}  // namespace sknn
