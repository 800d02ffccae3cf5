#include "tuner/space.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "support/error.h"

namespace s2fa::tuner {

double DesignSpace::Log10Cardinality() const {
  double log10 = 0;
  for (const auto& f : factors) {
    log10 += std::log10(static_cast<double>(f.values.size()));
  }
  return log10;
}

merlin::DesignConfig DesignSpace::ToConfig(const Point& point) const {
  ValidatePoint(point);
  merlin::DesignConfig config;
  for (std::size_t i = 0; i < factors.size(); ++i) {
    const Factor& f = factors[i];
    const std::int64_t value = f.values[point[i]];
    switch (f.kind) {
      case FactorKind::kLoopTile:
        config.loops[f.loop_id].tile = value;
        break;
      case FactorKind::kLoopParallel:
        config.loops[f.loop_id].parallel = value;
        break;
      case FactorKind::kLoopPipeline:
        config.loops[f.loop_id].pipeline =
            static_cast<merlin::PipelineMode>(value);
        break;
      case FactorKind::kBufferBits:
        config.buffer_bits[f.buffer] = static_cast<int>(value);
        break;
    }
  }
  return config;
}

Point DesignSpace::RandomPoint(Rng& rng) const {
  Point p(factors.size());
  for (std::size_t i = 0; i < factors.size(); ++i) {
    p[i] = rng.NextIndex(factors[i].values.size());
  }
  return p;
}

Point DesignSpace::Mutate(const Point& point, Rng& rng,
                          int num_mutations) const {
  ValidatePoint(point);
  S2FA_REQUIRE(num_mutations >= 1, "need at least one mutation");
  Point p = point;
  for (int m = 0; m < num_mutations; ++m) {
    std::size_t f = rng.NextIndex(factors.size());
    p[f] = rng.NextIndex(factors[f].values.size());
  }
  return p;
}

std::size_t DesignSpace::FactorIndex(const std::string& name) const {
  for (std::size_t i = 0; i < factors.size(); ++i) {
    if (factors[i].name == name) return i;
  }
  std::ostringstream oss;
  oss << "no factor named " << name << "; available factors:";
  if (factors.empty()) {
    oss << " (none)";
  } else {
    for (std::size_t i = 0; i < factors.size(); ++i) {
      oss << (i == 0 ? " " : ", ") << factors[i].name;
    }
  }
  throw InvalidArgument(oss.str());
}

void DesignSpace::ValidatePoint(const Point& point) const {
  S2FA_REQUIRE(point.size() == factors.size(),
               "point has " << point.size() << " coordinates, space has "
                            << factors.size());
  for (std::size_t i = 0; i < factors.size(); ++i) {
    S2FA_REQUIRE(point[i] < factors[i].values.size(),
                 "coordinate " << i << " out of range");
  }
}

namespace {

std::vector<std::int64_t> TileValues(std::int64_t trip, int max_values) {
  std::vector<std::int64_t> divisors{1};
  for (std::int64_t d = 2; d < trip; ++d) {
    if (trip % d == 0) divisors.push_back(d);
  }
  if (static_cast<int>(divisors.size()) <= max_values) return divisors;
  std::vector<std::int64_t> pow2{1};
  for (std::int64_t d = 2; d < trip; d *= 2) {
    if (trip % d == 0) pow2.push_back(d);
  }
  return pow2;
}

std::vector<std::int64_t> ParallelValues(std::int64_t trip) {
  std::vector<std::int64_t> values;
  for (std::int64_t u = 1; u < trip; u *= 2) values.push_back(u);
  values.push_back(trip);  // full unroll
  return values;
}

std::vector<std::int64_t> BitValues(int element_bits, int max_bits) {
  std::vector<std::int64_t> values;
  for (int b = element_bits; b <= max_bits; b *= 2) values.push_back(b);
  return values;
}

}  // namespace

DesignSpace BuildDesignSpace(const kir::Kernel& kernel,
                             const SpaceOptions& options) {
  kernel.Validate();
  DesignSpace space;
  for (const kir::Stmt* loop : kernel.Loops()) {
    const std::string prefix = "L" + std::to_string(loop->loop_id());
    Factor tile;
    tile.name = prefix + ".tile";
    tile.kind = FactorKind::kLoopTile;
    tile.loop_id = loop->loop_id();
    tile.values = TileValues(loop->trip_count(), options.max_tile_values);
    space.factors.push_back(std::move(tile));

    Factor par;
    par.name = prefix + ".parallel";
    par.kind = FactorKind::kLoopParallel;
    par.loop_id = loop->loop_id();
    par.values = ParallelValues(loop->trip_count());
    space.factors.push_back(std::move(par));

    Factor pipe;
    pipe.name = prefix + ".pipeline";
    pipe.kind = FactorKind::kLoopPipeline;
    pipe.loop_id = loop->loop_id();
    pipe.values = {static_cast<std::int64_t>(merlin::PipelineMode::kOff),
                   static_cast<std::int64_t>(merlin::PipelineMode::kOn),
                   static_cast<std::int64_t>(merlin::PipelineMode::kFlatten)};
    space.factors.push_back(std::move(pipe));
  }
  for (const auto& buf : kernel.buffers) {
    if (buf.kind == kir::BufferKind::kLocal) continue;
    Factor bits;
    bits.name = buf.name + ".bits";
    bits.kind = FactorKind::kBufferBits;
    bits.buffer = buf.name;
    bits.values = BitValues(buf.element.bit_width(), options.max_bits);
    space.factors.push_back(std::move(bits));
  }
  return space;
}

}  // namespace s2fa::tuner
