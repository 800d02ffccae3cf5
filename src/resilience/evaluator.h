// ResilientEvaluator: wraps a black-box evaluation so that one bad design
// point can never take down a partition thread.
//
// Per evaluation it enforces:
//   * a per-point deadline on the simulated clock: an attempt whose
//     eval_minutes exceeds it is killed and charged exactly the deadline;
//   * bounded retries with exponential backoff and deterministic jitter
//     (hashed from seed + config + attempt, so reruns replay identically);
//   * failure classification (kCrash / kTimeout / kGarbageResult) — a
//     legitimately infeasible design is a valid answer and is never
//     retried;
//   * a circuit breaker: after kBreakerThreshold consecutive points whose
//     retries all failed, the next kBreakerCooldown calls short-circuit
//     to an infeasible outcome at a token cost, then one half-open probe
//     decides between closing and re-tripping;
//   * graceful degradation: when retries are exhausted the caller gets a
//     clean infeasible outcome (cost = kInfeasibleCost) charged with all
//     the time the failures burned — the search continues, it just paid.
//
// All failure handling is charged to the simulated clock, so a
// fault-injected DSE remains deterministic and comparable to a fault-free
// one. The breaker makes the evaluator stateful, so it evaluates one point
// at a time: concurrent callers are serialized and its decisions follow
// call order. A caller that needs a reproducible run calls it in a fixed
// order; the DSE calls each scope's evaluator from one thread, in proposal
// order.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>

#include "resilience/failure.h"

namespace s2fa::resilience {

// The retry schedule and the breaker. Each has a single value in use, so
// they are constants, not options. Backoff before retry k (k >= 1) is
// min(kBackoffBaseMinutes * kBackoffMultiplier^(k-1), kBackoffMaxMinutes),
// scaled by a deterministic jitter in [1 - kBackoffJitter, 1 + kBackoffJitter].
inline constexpr double kBackoffBaseMinutes = 0.5;
inline constexpr double kBackoffMultiplier = 2.0;
inline constexpr double kBackoffMaxMinutes = 8.0;
inline constexpr double kBackoffJitter = 0.25;
inline constexpr double kCrashChargeMinutes = 1.0;  // a crashed attempt
inline constexpr int kBreakerThreshold = 4;  // consecutive exhausted points
inline constexpr int kBreakerCooldown = 8;   // calls short-circuited while open
inline constexpr double kShortCircuitMinutes = 0.05;  // a short-circuited call

struct ResilienceOptions {
  int max_retries = 2;             // attempts per point = 1 + max_retries
  double deadline_minutes = 60.0;  // per-point simulated deadline ("minutes
                                   // to an hour", paper §4.3.3)
  std::uint64_t seed = 1;          // jitter stream
};

// The jittered backoff before retry `retry` (>= 1) of the config whose
// ToString() is `key`, for an evaluator seeded with `seed`.
double BackoffMinutes(std::uint64_t seed, const std::string& key, int retry);

struct ResilienceStats {
  std::size_t calls = 0;       // Evaluate() invocations
  std::size_t attempts = 0;    // inner evaluations actually started
  std::size_t successes = 0;   // calls that returned a trusted outcome
  std::size_t crashes = 0;
  std::size_t timeouts = 0;
  std::size_t garbage = 0;
  std::size_t retries = 0;     // backoff-then-retry transitions
  std::size_t exhausted = 0;   // calls degraded to kInfeasibleCost
  std::size_t breaker_trips = 0;
  std::size_t short_circuits = 0;  // calls answered by an open breaker
  double backoff_minutes = 0;      // total simulated backoff charged

  void Merge(const ResilienceStats& other);
};

class ResilientEvaluator {
 public:
  // `scope` labels log lines and obs metrics (e.g. the partition name).
  // A plain tuner::EvalFn is lifted with IgnoreAttempt.
  ResilientEvaluator(AttemptEvalFn inner, ResilienceOptions options,
                     std::string scope = "eval");

  // Never throws for evaluator failures: degraded outcomes are infeasible.
  tuner::EvalOutcome Evaluate(const merlin::DesignConfig& config);

  // Adapter for APIs that take a plain EvalFn. The evaluator must outlive
  // the returned function.
  tuner::EvalFn AsEvalFn();

  ResilienceStats stats() const;
  bool breaker_open() const;

 private:
  // One attempt; classifies failures, never throws. Fills `charge` with
  // the simulated minutes the attempt burned when it failed.
  tuner::EvalOutcome Attempt(const merlin::DesignConfig& config, int attempt,
                             FailureKind* failure, double* charge);

  AttemptEvalFn inner_;
  ResilienceOptions options_;
  std::string scope_;

  // Held for a whole Evaluate call: one point at a time.
  mutable std::mutex mutex_;
  ResilienceStats stats_;
  int consecutive_exhausted_ = 0;
  int breaker_remaining_ = 0;  // > 0: open, this many short-circuits left
  bool half_open_ = false;     // next call is the probe
};

}  // namespace s2fa::resilience
