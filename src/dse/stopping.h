// Early stopping criteria (paper §4.3.3).
//
// The S2FA criterion watches the Shannon entropy of the per-factor uphill
// probabilities: P(D_i^u | t_j) is the experimental probability that
// mutating factor t_j yields an uphill (better-than-previous) result. The
// partition's DSE stops once |H(D_i) − H(D_{i−1})| ≤ θ for N consecutive
// iterations — i.e. once the uncertainty about where improvement comes
// from has stopped changing.
//
// The trivial criterion (evaluated in §5.2 as the strawman) stops after a
// fixed number of iterations without improvement.
#pragma once

#include <cstddef>
#include <functional>

#include "tuner/result.h"

namespace s2fa::dse {

struct EntropyStopOptions {
  double theta = 0.1;        // entropy-delta threshold
  int patience = 3;          // consecutive below-threshold iterations (N)
  std::size_t min_records = 8;   // don't stop before this much evidence
  // Evidence scales with the number of factors: the conditional
  // probabilities P(D^u | t_j) need at least ~one observation per factor
  // before H(D) is meaningful. Effective minimum =
  // max(min_records, min_records_per_factor * num_factors).
  double min_records_per_factor = 0.4;
};

// Computes H(D_i) from the database records (Eq. 2's summand).
double UphillEntropy(const tuner::ResultDatabase& db,
                     std::size_t num_factors);

// Tolerance of the |ΔH| ≤ θ comparison. Entropy deltas are sums of
// p·log(p) terms, so a delta that is mathematically equal to θ can land
// on either side of it depending on FP contraction / -ffast-math /
// platform libm rounding — and the stop decision (hence the whole
// schedule) would flip with it. Anything within this slack of θ counts
// as converged. Scaled by θ for large thresholds, absolute for small.
inline constexpr double kEntropyThetaSlack = 1e-9;

// True when an entropy delta counts as "within θ" under the slack above.
bool EntropyDeltaConverged(double delta, double theta);

// Stateful criterion usable as TuneOptions::should_stop. Copyable state is
// held in a shared pointer so the std::function can be copied.
std::function<bool(const tuner::ResultDatabase&)> MakeEntropyStop(
    std::size_t num_factors, const EntropyStopOptions& options = {});

// Trivial criterion: stop after `max_stale` iterations without a new best.
// The explorer's kNoImprovement stop uses kNoImprovementStale.
inline constexpr std::size_t kNoImprovementStale = 10;
std::function<bool(const tuner::ResultDatabase&)> MakeNoImprovementStop(
    std::size_t max_stale = kNoImprovementStale);

}  // namespace s2fa::dse
