// Design-space model (paper Table 1 + §4.1).
//
// The space is a cross product of discrete factors:
//   * per loop: tiling factor (divisors of the trip count), parallel
//     (unroll) factor (powers of two up to the trip count), pipeline mode
//     {off, on, flatten};
//   * per interface buffer: bit-width (powers of two, element width..512).
//
// A Point assigns one value index per factor. Factor *dependencies* are
// deliberately preserved rather than pruned (paper §4.2 Impediment 2):
// e.g. a parallel factor larger than the tile factor is illegal and
// evaluates as infeasible, and flatten on an outer loop invalidates inner
// factors — learning algorithms must cope, which is exactly what the S2FA
// partitioning is designed to help with.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "kir/kernel.h"
#include "merlin/design.h"
#include "support/rng.h"

namespace s2fa::tuner {

enum class FactorKind { kLoopTile, kLoopParallel, kLoopPipeline, kBufferBits };

struct Factor {
  std::string name;   // e.g. "L0.tile", "in_1.bits"
  FactorKind kind = FactorKind::kLoopTile;
  int loop_id = -1;               // for loop factors
  std::string buffer;             // for buffer factors
  std::vector<std::int64_t> values;  // ordered candidate values

  std::size_t size() const { return values.size(); }
};

// One design point: a value index per factor (parallel arrays with
// DesignSpace::factors).
using Point = std::vector<std::size_t>;

class DesignSpace {
 public:
  std::vector<Factor> factors;

  std::size_t num_factors() const { return factors.size(); }

  // log10 of the number of points in the full cross product.
  double Log10Cardinality() const;

  // Translates a point into a Merlin design config (may be illegal — the
  // evaluator reports such points infeasible).
  merlin::DesignConfig ToConfig(const Point& point) const;

  // Uniformly random point.
  Point RandomPoint(Rng& rng) const;

  // Returns a copy of `point` with `num_mutations` factors re-rolled.
  Point Mutate(const Point& point, Rng& rng, int num_mutations = 1) const;

  // Index of the factor named `name`; throws if absent.
  std::size_t FactorIndex(const std::string& name) const;

  void ValidatePoint(const Point& point) const;
};

struct SpaceOptions {
  int max_bits = 512;
  // Cap on enumerated tile divisors per loop; falls back to powers of two
  // when a trip count has more divisors than this.
  int max_tile_values = 24;
};

// Builds the Table-1 space for a compiled kernel by analyzing its loop
// tree and interface buffers (the ROSE/polyhedral step of §4.1).
DesignSpace BuildDesignSpace(const kir::Kernel& kernel,
                             const SpaceOptions& options = {});

}  // namespace s2fa::tuner
