// The Merlin code-transformation library (paper §3.2, [9][10]).
//
// Two jobs: the legality rules of a DesignConfig, and ApplyDesign, which
// materializes a config as a transformed kernel for kir::EmitC (the best
// design of an exploration, serving registration, the CLI, the benches).
// The DSE does not materialize the designs it scores: hls::DesignView
// (hls/view.h) reads the same pragmas as an overlay on the untransformed
// kernel, and the view's property test holds the two to identical HLS
// estimates.
//
// ApplyDesign:
//   * loop tiling is a structural rewrite (L splits into a tile loop that
//     keeps L's id and a new point loop; body indices are re-derived), so
//     the emitted C has real loops with real trip counts;
//   * parallel/pipeline/tree-reduction become typed pragmas on the loop
//     (kir::LoopPragmas: integers and enums, not strings) printed as
//     `#pragma ACCEL ...` lines — mirroring how the real Merlin compiler
//     passes directives to the vendor HLS;
//   * `flatten` pipelining marks every nested sub-loop fully unrolled,
//     which *invalidates* those loops' own factors (the paper's
//     Impediment 2);
//   * interface buffer bit-widths are recorded on the buffers.
//
// Transformed kernels remain functionally equivalent to their source —
// enforced by tests via the IR evaluator.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "kir/kernel.h"
#include "merlin/design.h"

namespace s2fa::merlin {

struct TransformResult {
  kir::Kernel kernel;
  // Factors silently adjusted or ignored (e.g. sub-loop factors invalidated
  // by a flatten on an ancestor).
  std::vector<std::string> notes;
};

// All legality checks walk the same rules (transform.cc) against a
// kernel's loop trip counts and buffers.
//
// IsLegalConfig stops at the first violation and builds no message: the
// form for hot paths that only need the verdict.
bool IsLegalConfig(const kir::Kernel& kernel, const DesignConfig& config);

// One loop as the legality rules see it.
struct LoopTrip {
  int id = 0;
  std::int64_t trip = 0;
};
// IsLegalConfig against a loop table gathered once (hls::DesignBase), so a
// hot path checks each config without walking the kernel.
bool IsLegalConfig(std::span<const LoopTrip> loops,
                   std::span<const kir::Buffer> buffers,
                   const DesignConfig& config);

// ValidateConfig returns an empty vector when legal; otherwise one message
// per violation.
std::vector<std::string> ValidateConfig(const kir::Kernel& kernel,
                                        const DesignConfig& config);

// Materializes the config as a transformed kernel. Throws
// InvalidArgument, naming the first violation, if the config is illegal.
TransformResult ApplyDesign(const kir::Kernel& kernel,
                            const DesignConfig& config);

// --- pragma readers of a transformed loop ---

// Unroll factor of a transformed loop (1 when absent).
std::int64_t ParallelFactorOf(const kir::Stmt& loop);
// Pipeline mode of a transformed loop (kOff when absent).
PipelineMode PipelineModeOf(const kir::Stmt& loop);
// True if the loop's reduction is rewritten as a balanced tree.
bool HasTreeReduction(const kir::Stmt& loop);

}  // namespace s2fa::merlin
