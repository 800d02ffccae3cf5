#include "merlin/design.h"

#include <sstream>

#include "support/error.h"

namespace s2fa::merlin {

const char* PipelineModeName(PipelineMode mode) {
  switch (mode) {
    case PipelineMode::kOff: return "off";
    case PipelineMode::kOn: return "on";
    case PipelineMode::kFlatten: return "flatten";
  }
  S2FA_UNREACHABLE("bad pipeline mode");
}

std::string DesignConfig::ToString() const {
  std::ostringstream oss;
  oss << "{";
  bool first = true;
  for (const auto& [id, cfg] : loops) {
    if (!first) oss << ", ";
    first = false;
    oss << "L" << id << ": tile=" << cfg.tile << " par=" << cfg.parallel
        << " pipe=" << PipelineModeName(cfg.pipeline);
  }
  for (const auto& [name, bits] : buffer_bits) {
    if (!first) oss << ", ";
    first = false;
    oss << name << ": " << bits << "b";
  }
  oss << "}";
  return oss.str();
}

}  // namespace s2fa::merlin
