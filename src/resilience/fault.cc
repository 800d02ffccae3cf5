#include "resilience/fault.h"

#include <cmath>
#include <limits>

namespace s2fa::resilience {

namespace {

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint64_t HashKey(const std::string& key) {
  std::uint64_t h = 0xCBF29CE484222325ULL;  // FNV-1a
  for (unsigned char c : key) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace

namespace detail {

double HashRoll(std::uint64_t seed, const std::string& key, int attempt) {
  std::uint64_t mixed = SplitMix64(
      seed ^ SplitMix64(HashKey(key) +
                        0x9E3779B97F4A7C15ULL *
                            static_cast<std::uint64_t>(attempt + 1)));
  return static_cast<double>(mixed >> 11) * 0x1.0p-53;
}

}  // namespace detail

FaultPlan::FaultPlan(FaultPlanOptions options) : options_(options) {
  S2FA_REQUIRE(options_.crash_rate >= 0 && options_.timeout_rate >= 0 &&
                   options_.garbage_rate >= 0,
               "fault rates must be non-negative");
  S2FA_REQUIRE(options_.crash_rate + options_.timeout_rate +
                       options_.garbage_rate <=
                   1.0 + 1e-12,
               "fault rates sum to more than 1");
}

bool FaultPlan::active() const {
  return options_.crash_rate > 0 || options_.timeout_rate > 0 ||
         options_.garbage_rate > 0;
}

FailureKind FaultPlan::Decide(const std::string& key, int attempt) const {
  if (!active()) return FailureKind::kNone;
  const double u = detail::HashRoll(options_.seed, key, attempt);
  if (u < options_.crash_rate) return FailureKind::kCrash;
  if (u < options_.crash_rate + options_.timeout_rate) {
    return FailureKind::kTimeout;
  }
  if (u < options_.crash_rate + options_.timeout_rate +
              options_.garbage_rate) {
    return FailureKind::kGarbageResult;
  }
  return FailureKind::kNone;
}

AttemptEvalFn FaultPlan::Instrument(tuner::EvalFn inner) const {
  FaultPlan plan = *this;  // captured by value: the plan is tiny
  return [plan, inner = std::move(inner)](const merlin::DesignConfig& config,
                                          int attempt) {
    switch (plan.Decide(config.ToString(), attempt)) {
      case FailureKind::kCrash:
        throw InjectedCrash("injected evaluator crash (attempt " +
                            std::to_string(attempt) + ")");
      case FailureKind::kTimeout: {
        tuner::EvalOutcome hung;
        hung.feasible = false;
        hung.cost = tuner::kInfeasibleCost;
        hung.eval_minutes = std::numeric_limits<double>::infinity();
        return hung;
      }
      case FailureKind::kGarbageResult: {
        tuner::EvalOutcome junk;
        junk.feasible = true;  // claims success with a nonsense objective
        junk.cost = std::numeric_limits<double>::quiet_NaN();
        junk.eval_minutes = 1.0;
        return junk;
      }
      case FailureKind::kNone:
        break;
    }
    return inner(config);
  };
}

}  // namespace s2fa::resilience
