// Design point representation (paper Table 1).
//
// A DesignConfig assigns a value to every factor of the design space:
//   * per interface buffer: bit-width b = 2^n with 16 <= b <= 512;
//   * per loop: tiling factor, coarse/fine-grained parallel (unroll)
//     factor, and pipeline mode {off, on, flatten}.
// Loop factors are keyed by the loop ids of the *untransformed* kernel; the
// Merlin transform materializes them.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace s2fa::merlin {

enum class PipelineMode { kOff, kOn, kFlatten };

const char* PipelineModeName(PipelineMode mode);

struct LoopConfig {
  std::int64_t tile = 1;      // 1 = no tiling; otherwise divides trip count
  std::int64_t parallel = 1;  // unroll factor, 1..trip
  PipelineMode pipeline = PipelineMode::kOff;

  friend bool operator==(const LoopConfig&, const LoopConfig&) = default;
};

struct DesignConfig {
  std::map<int, LoopConfig> loops;            // by original loop id
  std::map<std::string, int> buffer_bits;     // interface buffer -> bits

  friend bool operator==(const DesignConfig&, const DesignConfig&) = default;

  std::string ToString() const;
};

}  // namespace s2fa::merlin
