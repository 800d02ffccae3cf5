#include "resilience/evaluator.h"

#include <algorithm>
#include <cmath>

#include "obs/obs.h"
#include "resilience/fault.h"
#include "support/logging.h"

namespace s2fa::resilience {

void ResilienceStats::Merge(const ResilienceStats& other) {
  calls += other.calls;
  attempts += other.attempts;
  successes += other.successes;
  crashes += other.crashes;
  timeouts += other.timeouts;
  garbage += other.garbage;
  retries += other.retries;
  exhausted += other.exhausted;
  breaker_trips += other.breaker_trips;
  short_circuits += other.short_circuits;
  backoff_minutes += other.backoff_minutes;
}

double BackoffMinutes(std::uint64_t seed, const std::string& key,
                      int retry) {
  double delay = kBackoffBaseMinutes * std::pow(kBackoffMultiplier, retry - 1);
  delay = std::min(delay, kBackoffMaxMinutes);
  // Deterministic jitter in [1-j, 1+j]: hashed, not drawn from shared RNG
  // state, so concurrent partitions can't perturb each other's schedules.
  const double u = detail::HashRoll(seed ^ 0xBACC0FFULL, key, retry);
  return delay * (1.0 + kBackoffJitter * (2.0 * u - 1.0));
}

ResilientEvaluator::ResilientEvaluator(AttemptEvalFn inner,
                                       ResilienceOptions options,
                                       std::string scope)
    : inner_(std::move(inner)),
      options_(options),
      scope_(std::move(scope)) {
  S2FA_REQUIRE(inner_ != nullptr, "no evaluation function");
  S2FA_REQUIRE(options_.max_retries >= 0, "max_retries must be >= 0");
  S2FA_REQUIRE(options_.deadline_minutes > 0, "deadline must be positive");
}

tuner::EvalOutcome ResilientEvaluator::Attempt(
    const merlin::DesignConfig& config, int attempt, FailureKind* failure,
    double* charge) {
  *failure = FailureKind::kNone;
  *charge = 0;
  tuner::EvalOutcome outcome;
  try {
    outcome = inner_(config, attempt);
  } catch (const std::exception& e) {
    *failure = FailureKind::kCrash;
    *charge = kCrashChargeMinutes;
    S2FA_LOG_DEBUG("[" << scope_ << "] evaluator crash on attempt "
                       << attempt << ": " << e.what());
    return outcome;
  }
  if (outcome.eval_minutes > options_.deadline_minutes) {
    // The job would still be running at the deadline; it is killed there,
    // so the clock is charged exactly the deadline.
    *failure = FailureKind::kTimeout;
    *charge = options_.deadline_minutes;
    return outcome;
  }
  if (GarbageOutcome(outcome)) {
    *failure = FailureKind::kGarbageResult;
    // The tool ran to completion before emitting junk; charge its claimed
    // runtime when sane, the crash charge otherwise.
    *charge = (std::isfinite(outcome.eval_minutes) &&
               outcome.eval_minutes > 0)
                  ? outcome.eval_minutes
                  : kCrashChargeMinutes;
    return outcome;
  }
  return outcome;
}

tuner::EvalOutcome ResilientEvaluator::Evaluate(
    const merlin::DesignConfig& config) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.calls;
  if (breaker_remaining_ > 0) {
    --breaker_remaining_;
    ++stats_.short_circuits;
    if (breaker_remaining_ == 0) half_open_ = true;
    S2FA_COUNT("resilience.short_circuits", 1);
    tuner::EvalOutcome rejected;
    rejected.feasible = false;
    rejected.cost = tuner::kInfeasibleCost;
    rejected.eval_minutes = kShortCircuitMinutes;
    return rejected;
  }

  // The config's key seeds the backoff jitter and names the exhausted
  // config in the debug log; most evaluations succeed first time and never
  // render it.
  std::string key;
  auto rendered_key = [&]() -> const std::string& {
    if (key.empty()) key = config.ToString();
    return key;
  };
  double charged = 0;
  for (int attempt = 0; attempt <= options_.max_retries; ++attempt) {
    if (attempt > 0) {
      const double delay = BackoffMinutes(options_.seed, rendered_key(),
                                          attempt);
      charged += delay;
      ++stats_.retries;
      stats_.backoff_minutes += delay;
      S2FA_COUNT("resilience.retries", 1);
      S2FA_OBSERVE("resilience.backoff_minutes", delay);
    }
    FailureKind failure = FailureKind::kNone;
    double charge = 0;
    tuner::EvalOutcome outcome = Attempt(config, attempt, &failure, &charge);
    ++stats_.attempts;
    if (failure == FailureKind::kNone) {
      ++stats_.successes;
      consecutive_exhausted_ = 0;
      half_open_ = false;
      outcome.eval_minutes += charged;
      return outcome;
    }
    charged += charge;
    S2FA_COUNT(std::string("resilience.failure.") + FailureKindName(failure),
               1);
    switch (failure) {
      case FailureKind::kCrash: ++stats_.crashes; break;
      case FailureKind::kTimeout: ++stats_.timeouts; break;
      case FailureKind::kGarbageResult: ++stats_.garbage; break;
      case FailureKind::kNone: break;
    }
  }

  // Retries exhausted: degrade gracefully and feed the circuit breaker. A
  // failed half-open probe re-trips at once.
  ++stats_.exhausted;
  ++consecutive_exhausted_;
  if (half_open_ || consecutive_exhausted_ >= kBreakerThreshold) {
    breaker_remaining_ = kBreakerCooldown;
    consecutive_exhausted_ = 0;
    half_open_ = false;
    ++stats_.breaker_trips;
    S2FA_COUNT("resilience.breaker_trips", 1);
    S2FA_LOG_WARN("[" << scope_ << "] circuit breaker tripped; "
                      << "short-circuiting the next " << kBreakerCooldown
                      << " evaluations");
  }
  S2FA_COUNT("resilience.exhausted", 1);
  S2FA_LOG_DEBUG("[" << scope_ << "] retries exhausted for "
                     << rendered_key() << "; degrading to infeasible after "
                     << charged << " simulated minutes");
  tuner::EvalOutcome degraded;
  degraded.feasible = false;
  degraded.cost = tuner::kInfeasibleCost;
  degraded.eval_minutes = charged;
  return degraded;
}

tuner::EvalFn ResilientEvaluator::AsEvalFn() {
  return [this](const merlin::DesignConfig& config) {
    return Evaluate(config);
  };
}

ResilienceStats ResilientEvaluator::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

bool ResilientEvaluator::breaker_open() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return breaker_remaining_ > 0;
}

}  // namespace s2fa::resilience
