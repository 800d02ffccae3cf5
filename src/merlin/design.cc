#include "merlin/design.h"

#include <algorithm>
#include <cstring>
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

namespace {

template <typename T>
char* Put(char* out, T value) {
  std::memcpy(out, &value, sizeof(T));
  return out + sizeof(T);
}

}  // namespace

std::string ConfigKey(const DesignConfig& config) {
  std::size_t size = 4 + config.loops.size() * (4 + 8 + 8 + 1);
  for (const auto& [name, bits] : config.buffer_bits) size += name.size() + 5;
  std::string key(size, '\0');
  char* out = Put(key.data(), static_cast<std::uint32_t>(config.loops.size()));
  for (const auto& [id, loop] : config.loops) {
    out = Put(out, static_cast<std::int32_t>(id));
    out = Put(out, static_cast<std::int64_t>(loop.tile));
    out = Put(out, static_cast<std::int64_t>(loop.parallel));
    out = Put(out, static_cast<std::uint8_t>(loop.pipeline));
  }
  for (const auto& [name, bits] : config.buffer_bits) {
    out = std::copy_n(name.c_str(), name.size() + 1, out);  // and its NUL
    out = Put(out, static_cast<std::int32_t>(bits));
  }
  return key;
}

}  // namespace s2fa::merlin
