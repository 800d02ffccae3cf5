// Deterministic fault injection for evaluation black boxes.
//
// A FaultPlan decides, purely from (seed, design config, attempt index),
// whether an evaluation attempt crashes, times out, or returns garbage.
// Because the decision is a stateless hash, the same run replays the same
// faults regardless of thread scheduling or call order — which is what
// makes every failure mode unit-testable and keeps a fault-injected DSE
// bit-for-bit reproducible. A point that fails on attempt 0 can still
// succeed on attempt 1: each (config, attempt) pair rolls independently.
#pragma once

#include <cstdint>
#include <string>

#include "resilience/failure.h"
#include "support/error.h"

namespace s2fa::resilience {

// Thrown by an injected kCrash (distinct from real evaluator errors so
// tests can tell them apart; the resilience layer treats both as kCrash).
class InjectedCrash : public Error {
 public:
  explicit InjectedCrash(const std::string& what) : Error(what) {}
};

struct FaultPlanOptions {
  double crash_rate = 0;    // P(attempt throws)
  double timeout_rate = 0;  // P(attempt returns eval_minutes = infinity)
  double garbage_rate = 0;  // P(attempt returns a NaN-cost outcome)
  std::uint64_t seed = 0x5EEDFA17ULL;
};

class FaultPlan {
 public:
  FaultPlan() = default;  // inactive: every attempt passes through
  explicit FaultPlan(FaultPlanOptions options);

  bool active() const;

  // The fault (or kNone) this plan injects for `key` on `attempt`.
  FailureKind Decide(const std::string& key, int attempt) const;

  // Wraps `inner`: each attempt first consults Decide (keyed off the
  // config's ToString), then falls through to the real evaluator.
  AttemptEvalFn Instrument(tuner::EvalFn inner) const;

 private:
  FaultPlanOptions options_;
};

namespace detail {

// Uniform in [0, 1) hashed from (seed, key, attempt) — stateless, shared
// by fault decisions and backoff jitter so both replay deterministically.
double HashRoll(std::uint64_t seed, const std::string& key, int attempt);

}  // namespace detail

}  // namespace s2fa::resilience
