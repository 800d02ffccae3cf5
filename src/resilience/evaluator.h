// ResilientEvaluator: wraps a black-box tuner::EvalFn so that one bad
// design point can never take down a partition thread.
//
// Per evaluation it enforces:
//   * a per-point deadline on the simulated clock (an attempt whose
//     eval_minutes exceeds it is killed and charged exactly the deadline),
//     plus an optional wall-clock watchdog that runs the attempt on a small
//     ThreadPool and abandons it when real time runs out;
//   * bounded retries with exponential backoff and deterministic jitter
//     (hashed from seed + config + attempt, so reruns replay identically);
//   * failure classification (kCrash / kTimeout / kGarbageResult) — a
//     legitimately infeasible design is a valid answer and is never
//     retried;
//   * a circuit breaker: after `breaker_threshold` consecutive points whose
//     retries all failed, the next `breaker_cooldown` calls short-circuit
//     to an infeasible outcome at a token cost, then one half-open probe
//     decides between closing and re-tripping;
//   * graceful degradation: when retries are exhausted the caller gets a
//     clean infeasible outcome (cost = kInfeasibleCost) charged with all
//     the time the failures burned — the search continues, it just paid.
//
// All failure handling is charged to the simulated clock, so a
// fault-injected DSE remains deterministic and comparable to a fault-free
// one.
#pragma once

#include <memory>
#include <mutex>
#include <string>

#include "resilience/failure.h"
#include "support/thread_pool.h"

namespace s2fa::resilience {

struct ResilienceOptions {
  bool enabled = true;
  int max_retries = 2;             // attempts per point = 1 + max_retries
  double deadline_minutes = 60.0;  // per-point simulated deadline ("minutes
                                   // to an hour", paper §4.3.3)
  double wall_timeout_ms = 0;      // real watchdog per attempt; 0 = off
  int watchdog_threads = 2;        // pool size when the watchdog is on

  // Backoff before retry k (k >= 1): min(base * multiplier^(k-1), max),
  // scaled by a deterministic jitter in [1-jitter, 1+jitter].
  double backoff_base_minutes = 0.5;
  double backoff_multiplier = 2.0;
  double backoff_max_minutes = 8.0;
  double backoff_jitter = 0.25;

  double crash_charge_minutes = 1.0;  // simulated cost of a crashed attempt
  std::uint64_t seed = 1;             // jitter stream

  int breaker_threshold = 4;          // consecutive exhausted points to trip
  int breaker_cooldown = 8;           // calls short-circuited while open
  double short_circuit_minutes = 0.05;
};

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
  ResilientEvaluator(AttemptEvalFn inner, ResilienceOptions options,
                     std::string scope = "eval");
  ResilientEvaluator(tuner::EvalFn inner, ResilienceOptions options,
                     std::string scope = "eval");

  // Never throws for evaluator failures: degraded outcomes are infeasible.
  tuner::EvalOutcome Evaluate(const merlin::DesignConfig& config);

  // Adapter for APIs that take a plain EvalFn. The evaluator must outlive
  // the returned function.
  tuner::EvalFn AsEvalFn();

  ResilienceStats stats() const;
  bool breaker_open() const;
  const ResilienceOptions& options() const { return options_; }

 private:
  // One attempt; classifies failures, never throws. Fills `charge` with
  // the simulated minutes the attempt burned when it failed.
  tuner::EvalOutcome Attempt(const merlin::DesignConfig& config, int attempt,
                             FailureKind* failure, double* charge);
  double BackoffMinutes(const std::string& key, int retry) const;

  AttemptEvalFn inner_;
  ResilienceOptions options_;
  std::string scope_;
  std::unique_ptr<ThreadPool> watchdog_;  // only when wall_timeout_ms > 0

  mutable std::mutex mutex_;
  ResilienceStats stats_;
  int consecutive_exhausted_ = 0;
  int breaker_remaining_ = 0;  // > 0: open, this many short-circuits left
  bool half_open_ = false;     // next call is the probe
};

}  // namespace s2fa::resilience
