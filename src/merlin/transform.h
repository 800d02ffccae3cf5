// The Merlin code-transformation library (paper §3.2, [9][10]).
//
// Applies a DesignConfig to a kernel:
//   * loop tiling is a structural rewrite (L splits into a tile loop that
//     keeps L's id and a new point loop; body indices are re-derived), so
//     downstream consumers see real loops with real trip counts;
//   * parallel/pipeline/tree-reduction become typed pragmas on the loop
//     (kir::LoopPragmas: integers and enums, not strings) consumed by the
//     HLS estimator and printed as `#pragma ACCEL ...` lines — mirroring
//     how the real Merlin compiler passes directives to the vendor HLS;
//   * `flatten` pipelining marks every nested sub-loop fully unrolled,
//     which *invalidates* those loops' own factors (the paper's
//     Impediment 2);
//   * interface buffer bit-widths are recorded on the buffers.
//
// Transformed kernels remain functionally equivalent to their source —
// enforced by tests via the IR evaluator.
#pragma once

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

// Both legality checks walk the same rules (transform.cc) against
// `kernel`'s loop/buffer inventory.
//
// IsLegalConfig stops at the first violation and builds no message: the
// form for hot paths that only need the verdict.
bool IsLegalConfig(const kir::Kernel& kernel, const DesignConfig& config);
// ValidateConfig returns an empty vector when legal; otherwise one message
// per violation.
std::vector<std::string> ValidateConfig(const kir::Kernel& kernel,
                                        const DesignConfig& config);

// Applies the config. Throws InvalidArgument, naming the first violation,
// if the config is illegal.
TransformResult ApplyDesign(const kir::Kernel& kernel,
                            const DesignConfig& config);

// --- pragma readers (used by the HLS estimator) ---

// Unroll factor of a transformed loop (1 when absent).
std::int64_t ParallelFactorOf(const kir::Stmt& loop);
// Pipeline mode of a transformed loop (kOff when absent).
PipelineMode PipelineModeOf(const kir::Stmt& loop);
// True if the loop's reduction is rewritten as a balanced tree.
bool HasTreeReduction(const kir::Stmt& loop);

}  // namespace s2fa::merlin
