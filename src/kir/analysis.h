// Kernel IR analyses.
//
// These stand in for the ROSE/polyhedral analyses the paper uses for design
// space identification (§4.1): loop hierarchy, trip counts, operation
// censuses, and loop-carried-dependence (recurrence) detection. Because the
// s2fa programming model restricts kernels to constant trip counts and
// affine single-variable indices, exact answers are computable without a
// full polyhedral model.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "kir/kernel.h"

namespace s2fa::kir {

// ------------------------------------------------------------ loop tree

struct LoopTreeNode {
  const Stmt* loop = nullptr;
  int depth = 0;                       // 0 = outermost
  std::vector<LoopTreeNode> children;  // directly nested loops
};

struct LoopTree {
  std::vector<LoopTreeNode> roots;

  // Total number of loops.
  std::size_t size() const;
  // Maximum nesting depth (0 for a single non-nested loop; -1 if empty).
  int max_depth() const;
  // Flattened pre-order nodes.
  std::vector<const LoopTreeNode*> PreOrder() const;
  // Node for `loop_id`, or nullptr.
  const LoopTreeNode* Find(int loop_id) const;
};

LoopTree BuildLoopTree(const Kernel& kernel);

// ------------------------------------------------------------ op census

struct OpCounts {
  int int_alu = 0;       // add/sub/logic/shift/compare on ints
  int int_mul = 0;
  int int_div = 0;
  int fp_add = 0;        // float/double add/sub/min/max/compare
  int fp_mul = 0;
  int fp_div = 0;
  int exp_like = 0;      // exp/log/pow
  int sqrt_like = 0;     // sqrt
  int mem_read = 0;      // ArrayRef loads
  int mem_write = 0;     // ArrayRef stores
  std::map<std::string, int> buffer_reads;   // per-buffer loads
  std::map<std::string, int> buffer_writes;  // per-buffer stores

  OpCounts& operator+=(const OpCounts& other);
  int TotalCompute() const {
    return int_alu + int_mul + int_div + fp_add + fp_mul + fp_div +
           exp_like + sqrt_like;
  }
};

// Counts operations in one expression tree (reads counted; the root of an
// assignment LHS is a write and must be counted by the caller).
OpCounts CountExprOps(const ExprPtr& expr);

// Counts one iteration of straight-line statements in `stmt`, excluding
// nested loops (the HLS scheduler composes loop levels itself).
OpCounts CountStraightLineOps(const Stmt& stmt);

// Counts everything under `stmt` including nested loop bodies, with each
// nested body multiplied by its trip count. This is the total dynamic work
// of one execution of `stmt`.
OpCounts CountTotalOps(const Stmt& stmt);

// ----------------------------------------------------------- recurrence

// Loop-carried dependence summary for one loop.
struct LoopRecurrence {
  bool carried = false;
  // RHS expressions on the carried cycle: the initiation interval of a
  // pipelined loop cannot be smaller than the latency of the longest one.
  std::vector<ExprPtr> cycle_exprs;
  // Names of the carried scalars/buffers (diagnostics).
  std::vector<std::string> carriers;
};

// True if every assignment to scalar `carrier` inside `loop`'s body has the
// associative-reduction shape `carrier = carrier op X` with op in
// {+, *, min, max} and `carrier` not occurring inside X — the precondition
// for Merlin's tree-reduction rewrite. Chains like `s = (s + a) * b` are
// first-order recurrences, not reductions, and must keep their serial II.
bool IsAssociativeReduction(const Stmt& loop, const std::string& carrier);

// Detects loop-carried dependences of `loop`:
//   - a scalar assigned in the body and also read, unless declared inside
//     the body (loop-private temporaries) — the accumulator pattern;
//   - a buffer written at one index expression and read at a syntactically
//     different one — the stencil/wavefront pattern (e.g. Smith-Waterman).
//     Only assignments count: their right-hand sides and the index of a
//     buffer store are reads, declaration initializers and if conditions
//     are not. Indices are compared as printed text, so `i + 1` and `1 + i`
//     differ, and a differing index counts whether or not it depends on a
//     loop variable.
// Scalar carriers come first, in the order of the first assignment reading
// them (alphabetically within one assignment), then buffers in the order
// of their first carried store; `cycle_exprs` holds the right-hand sides of
// every store to a scalar carrier in body order, then of each buffer
// carrier's first carried store.
LoopRecurrence AnalyzeRecurrence(const Stmt& loop);

// ----------------------------------------------------- expression depth

// Height of the expression tree counting only compute nodes (used for
// critical-path latency estimates).
int ExprDepth(const ExprPtr& expr);

}  // namespace s2fa::kir
