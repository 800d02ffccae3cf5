// Seed generation (paper §4.3.2).
//
// Two seeds per partition:
//   * performance-driven: pipeline every loop, parallel factor 32, buffer
//     bit-width 512 — may fail synthesis, but slashes iterations when it
//     doesn't;
//   * area-driven (conservative): everything off/minimal — guaranteed-ish
//     feasible, so the learner starts inside the feasible region.
// Each desired value is projected onto the nearest value the partition
// still allows.
#pragma once

#include "tuner/driver.h"
#include "tuner/space.h"

namespace s2fa::dse {

// The performance-driven seed's desired parallel factor and bit-width.
inline constexpr std::int64_t kPerformanceParallel = 32;
inline constexpr std::int64_t kPerformanceBits = 512;

// Builds the seed within `space` (which may be a partition sub-space).
tuner::SeedPoint MakePerformanceSeed(const tuner::DesignSpace& space);
tuner::SeedPoint MakeAreaSeed(const tuner::DesignSpace& space);

}  // namespace s2fa::dse
