#include "dse/seeds.h"

#include <algorithm>
#include <cstdlib>

#include "merlin/design.h"
#include "support/error.h"

namespace s2fa::dse {

namespace {

using tuner::DesignSpace;
using tuner::Factor;
using tuner::FactorKind;
using tuner::Point;

// Index of the allowed value closest to `desired`. Equidistant values are
// resolved toward the LOWER value — cheaper in area and never worse for
// feasibility — instead of whichever the factor's value ordering happened
// to put first.
std::size_t NearestIndex(const Factor& factor, std::int64_t desired) {
  S2FA_CHECK(!factor.values.empty(), "factor with no values");
  std::size_t best = 0;
  std::int64_t best_dist = std::llabs(factor.values[0] - desired);
  for (std::size_t i = 1; i < factor.values.size(); ++i) {
    std::int64_t dist = std::llabs(factor.values[i] - desired);
    if (dist < best_dist ||
        (dist == best_dist && factor.values[i] < factor.values[best])) {
      best_dist = dist;
      best = i;
    }
  }
  return best;
}

}  // namespace

tuner::SeedPoint MakePerformanceSeed(const DesignSpace& space) {
  Point p(space.num_factors(), 0);
  for (std::size_t i = 0; i < space.num_factors(); ++i) {
    const Factor& f = space.factors[i];
    switch (f.kind) {
      case FactorKind::kLoopTile:
        p[i] = NearestIndex(f, 1);  // no tiling; parallelism does the work
        break;
      case FactorKind::kLoopParallel:
        p[i] = NearestIndex(f, kPerformanceParallel);
        break;
      case FactorKind::kLoopPipeline:
        p[i] = NearestIndex(
            f, static_cast<std::int64_t>(merlin::PipelineMode::kOn));
        break;
      case FactorKind::kBufferBits:
        p[i] = NearestIndex(f, kPerformanceBits);
        break;
    }
  }
  return {p, "performance-driven"};
}

tuner::SeedPoint MakeAreaSeed(const DesignSpace& space) {
  Point p(space.num_factors(), 0);
  for (std::size_t i = 0; i < space.num_factors(); ++i) {
    const Factor& f = space.factors[i];
    switch (f.kind) {
      case FactorKind::kLoopTile:
      case FactorKind::kLoopParallel:
        p[i] = NearestIndex(f, 1);
        break;
      case FactorKind::kLoopPipeline:
        p[i] = NearestIndex(
            f, static_cast<std::int64_t>(merlin::PipelineMode::kOff));
        break;
      case FactorKind::kBufferBits:
        // The minimum width the partition allows (element width if free).
        p[i] = NearestIndex(f, 0);
        break;
    }
  }
  return {p, "area-driven"};
}

}  // namespace s2fa::dse
