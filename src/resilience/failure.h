// Failure taxonomy for black-box design-point evaluations (AutoDSE's
// "unreliable oracle" view of the HLS tool, applied to our Merlin+SDx
// stand-in).
//
// An evaluation can fail three ways, and the resilience layer treats them
// differently from a *legitimately infeasible* design (illegal factor
// combination, resource overflow), which is a valid answer and never
// retried:
//   * kCrash         — the evaluator threw (the HLS job died);
//   * kTimeout       — the evaluation blew its per-point deadline on the
//                      simulated clock;
//   * kGarbageResult — the evaluator returned, but the outcome is
//                      self-contradictory (NaN/negative cost, a "feasible"
//                      design with infinite cost, a nonsensical synthesis
//                      time) and cannot be trusted.
#pragma once

#include <functional>

#include "tuner/driver.h"

namespace s2fa::resilience {

enum class FailureKind { kNone, kCrash, kTimeout, kGarbageResult };

const char* FailureKindName(FailureKind kind);

// True when `outcome` is internally inconsistent and must be discarded.
// A clean infeasible outcome (feasible=false, infinite cost, sane
// eval_minutes) is NOT garbage.
bool GarbageOutcome(const tuner::EvalOutcome& outcome);

// An EvalFn that also sees which attempt (0 = first try) is asking — the
// hook fault injection and retry-aware evaluators share.
using AttemptEvalFn =
    std::function<tuner::EvalOutcome(const merlin::DesignConfig&, int)>;

// Lifts a plain EvalFn (attempt-oblivious) into an AttemptEvalFn.
AttemptEvalFn IgnoreAttempt(tuner::EvalFn fn);

}  // namespace s2fa::resilience
