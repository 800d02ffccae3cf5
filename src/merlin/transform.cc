#include "merlin/transform.h"

#include <algorithm>

#include "kir/analysis.h"
#include "obs/obs.h"
#include "support/error.h"

namespace s2fa::merlin {

namespace {

using kir::Expr;
using kir::ExprPtr;
using kir::Stmt;
using kir::StmtPtr;

bool IsPowerOfTwo(int v) { return v > 0 && (v & (v - 1)) == 0; }

// The loop with `id` among `loops`, or nullptr.
Stmt* LoopWithId(const std::vector<Stmt*>& loops, int id) {
  for (Stmt* loop : loops) {
    if (loop->loop_id() == id) return loop;
  }
  return nullptr;
}

// The legality rules, once. Walks every rule of `config` against a
// kernel's loop trip counts and buffers and calls `report(message)` for
// each violation, where `message` is a thunk that renders the violation
// text; rendering is left to the caller, so the bool form never builds a
// string. `report` returns whether to go on; the walk returns false if it
// was stopped.
template <typename Report>
bool WalkRules(std::span<const LoopTrip> loops,
               std::span<const kir::Buffer> buffers,
               const DesignConfig& config, Report&& report) {
  for (const auto& [id, cfg] : config.loops) {
    const auto loop = std::find_if(
        loops.begin(), loops.end(),
        [id](const LoopTrip& l) { return l.id == id; });
    if (loop == loops.end()) {
      if (!report([&] { return "no loop with id " + std::to_string(id); }))
        return false;
      continue;
    }
    const std::int64_t trip = loop->trip;
    if (cfg.tile < 1) {
      if (!report([&] {
            return "L" + std::to_string(id) + ": tile factor " +
                   std::to_string(cfg.tile) + " < 1";
          }))
        return false;
    } else if (cfg.tile > 1 && (cfg.tile >= trip || trip % cfg.tile != 0)) {
      if (!report([&] {
            return "L" + std::to_string(id) + ": tile factor " +
                   std::to_string(cfg.tile) +
                   " must divide the trip count " + std::to_string(trip) +
                   " and be smaller than it";
          }))
        return false;
    }
    if (cfg.parallel < 1 || cfg.parallel > trip) {
      if (!report([&] {
            return "L" + std::to_string(id) + ": parallel factor " +
                   std::to_string(cfg.parallel) + " outside [1, " +
                   std::to_string(trip) + "]";
          }))
        return false;
    }
    if (cfg.tile > 1 && cfg.parallel > cfg.tile) {
      if (!report([&] {
            return "L" + std::to_string(id) +
                   ": parallel factor exceeds the point-loop trip (tile "
                   "factor)";
          }))
        return false;
    }
  }
  for (const auto& [name, bits] : config.buffer_bits) {
    const auto buf = std::find_if(
        buffers.begin(), buffers.end(),
        [&name](const kir::Buffer& b) { return b.name == name; });
    if (buf == buffers.end()) {
      if (!report([&] { return "no buffer named " + name; })) return false;
      continue;
    }
    if (buf->kind == kir::BufferKind::kLocal) {
      if (!report([&] {
            return "buffer " + name +
                   " is on-chip; bit-width applies to interface buffers";
          }))
        return false;
      continue;
    }
    if (!IsPowerOfTwo(bits) || bits < buf->element.bit_width() ||
        bits > 512) {
      if (!report([&] {
            return "buffer " + name + ": bit-width " + std::to_string(bits) +
                   " must be a power of two in [element width, 512]";
          }))
        return false;
    }
  }
  return true;
}

std::vector<LoopTrip> LoopTrips(const kir::Kernel& kernel) {
  std::vector<LoopTrip> trips;
  for (const Stmt* loop : kernel.Loops()) {
    trips.push_back({loop->loop_id(), loop->trip_count()});
  }
  return trips;
}

}  // namespace

bool IsLegalConfig(std::span<const LoopTrip> loops,
                   std::span<const kir::Buffer> buffers,
                   const DesignConfig& config) {
  return WalkRules(loops, buffers, config, [](auto&&) { return false; });
}

bool IsLegalConfig(const kir::Kernel& kernel, const DesignConfig& config) {
  return IsLegalConfig(LoopTrips(kernel), kernel.buffers, config);
}

std::vector<std::string> ValidateConfig(const kir::Kernel& kernel,
                                        const DesignConfig& config) {
  std::vector<std::string> errors;
  WalkRules(LoopTrips(kernel), kernel.buffers, config, [&](auto&& message) {
    errors.push_back(message());
    return true;
  });
  return errors;
}

TransformResult ApplyDesign(const kir::Kernel& kernel,
                            const DesignConfig& config) {
  S2FA_SPAN("merlin.apply");
  S2FA_COUNT("merlin.applies", 1);
  S2FA_COUNT("merlin.factors_applied",
             static_cast<std::int64_t>(config.loops.size() +
                                       config.buffer_bits.size()));
  if (!IsLegalConfig(kernel, config)) {
    S2FA_COUNT("merlin.rejected_configs", 1);
    const std::vector<std::string> violations = ValidateConfig(kernel, config);
    throw InvalidArgument("illegal design config: " + violations.front() +
                          (violations.size() > 1
                               ? " (+" + std::to_string(violations.size() - 1) +
                                     " more)"
                               : ""));
  }

  TransformResult result;
  result.kernel = kernel.Clone();
  kir::Kernel& k = result.kernel;
  int next_loop_id = k.MaxLoopId() + 1;

  // Interface bit-widths.
  for (auto& buf : k.buffers) {
    auto it = config.buffer_bits.find(buf.name);
    if (it != config.buffer_bits.end()) {
      buf.interface_bits = it->second;
    } else if (buf.kind != kir::BufferKind::kLocal) {
      buf.interface_bits = buf.element.bit_width();  // area-conservative
    }
  }

  // Loop factors. Tiling first (it creates the point loops the parallel
  // factors land on), one original loop at a time. Tiling morphs a loop in
  // place and keeps its body's statements, so the original loops found
  // here stay valid (and keep their ids) throughout.
  const std::vector<Stmt*> loops = k.Loops();
  for (const auto& [id, cfg] : config.loops) {
    Stmt* loop = LoopWithId(loops, id);
    S2FA_CHECK(loop != nullptr, "validated loop disappeared");
    Stmt* target = loop;  // loop receiving parallel pragma

    if (cfg.tile > 1) {
      const std::int64_t trip = loop->trip_count();
      const std::int64_t tiles = trip / cfg.tile;
      const std::string var = loop->loop_var();
      const std::string tile_var = var + "_t";
      const std::string point_var = var + "_p";
      // Re-derive the original index inside the body: v = v_t*tile + v_p.
      StmtPtr body = loop->body();
      auto derived = Expr::Binary(
          kir::BinaryOp::kAdd,
          Expr::Binary(kir::BinaryOp::kMul,
                       Expr::Var(tile_var, kir::Type::Int()),
                       Expr::IntLit(cfg.tile)),
          Expr::Var(point_var, kir::Type::Int()));
      kir::RewriteAllExprs(body, [&](const ExprPtr& e) {
        return kir::SubstituteVar(e, var, derived);
      });
      StmtPtr point_loop =
          Stmt::For(next_loop_id++, point_var, cfg.tile, body);
      point_loop->set_is_reduction(loop->is_reduction());
      point_loop->pragmas().tile = kir::LoopPragmas::Tile::kPointLoop;
      point_loop->pragmas().tile_factor = cfg.tile;
      // The original Stmt object morphs into the tile loop (keeps id).
      Stmt tile_loop = *Stmt::For(loop->loop_id(), tile_var, tiles,
                                  Stmt::Block({point_loop}));
      tile_loop.set_inserted_by_template(loop->inserted_by_template());
      tile_loop.pragmas().tile = kir::LoopPragmas::Tile::kTileLoop;
      tile_loop.pragmas().tile_factor = cfg.tile;
      *loop = tile_loop;
      target = point_loop.get();
    }

    if (cfg.parallel > 1) target->pragmas().parallel = cfg.parallel;
    if (cfg.pipeline != PipelineMode::kOff) {
      loop->pragmas().pipeline = cfg.pipeline == PipelineMode::kFlatten
                                     ? kir::LoopPragmas::Pipeline::kFlatten
                                     : kir::LoopPragmas::Pipeline::kOn;
    }
    if (target->is_reduction() &&
        (cfg.parallel > 1 || cfg.pipeline != PipelineMode::kOff)) {
      // Partial-sum tree (rotating accumulators when not unrolled) so the
      // reduction pipelines at II 1 instead of the add-chain latency.
      target->pragmas().tree_reduction = true;
    }
  }

  // Flatten invalidation pass: every loop nested under a flattened loop is
  // fully unrolled; its own factors are overridden (Impediment 2).
  for (Stmt* loop : k.Loops()) {
    if (PipelineModeOf(*loop) != PipelineMode::kFlatten) continue;
    for (Stmt* sub : kir::CollectLoops(loop->body())) {
      kir::LoopPragmas& pragmas = sub->pragmas();
      const std::optional<std::int64_t> before = pragmas.parallel;
      pragmas.parallel = sub->trip_count();
      pragmas.pipeline = kir::LoopPragmas::Pipeline::kAbsent;
      if (sub->is_reduction()) pragmas.tree_reduction = true;
      if (before && *before != sub->trip_count()) {
        result.notes.push_back(
            "L" + std::to_string(sub->loop_id()) +
            ": parallel factor overridden by flatten on ancestor L" +
            std::to_string(loop->loop_id()));
      }
    }
  }

  k.Validate();
  return result;
}

std::int64_t ParallelFactorOf(const kir::Stmt& loop) {
  return loop.pragmas().parallel.value_or(1);
}

PipelineMode PipelineModeOf(const kir::Stmt& loop) {
  switch (loop.pragmas().pipeline) {
    case kir::LoopPragmas::Pipeline::kAbsent: return PipelineMode::kOff;
    case kir::LoopPragmas::Pipeline::kOn: return PipelineMode::kOn;
    case kir::LoopPragmas::Pipeline::kFlatten: return PipelineMode::kFlatten;
  }
  S2FA_UNREACHABLE("bad pipeline pragma");
}

bool HasTreeReduction(const kir::Stmt& loop) {
  return loop.pragmas().tree_reduction;
}

}  // namespace s2fa::merlin
