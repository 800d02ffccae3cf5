// The vanilla "OpenTuner" driver (paper §4.2 + §5.2 footnote 3).
//
// One shared result database, a bandit over the four techniques, and a
// simulated wall clock: each iteration proposes `parallel` candidates
// (vanilla OpenTuner evaluates the top-8 on 8 cores), evaluates them, and
// advances the clock by the slowest evaluation in the batch. The only
// stopping criteria are the time limit and an optional plug-in predicate —
// which is exactly where S2FA's entropy criterion hooks in.
//
// `Tune` runs the loop to completion. `TuneSession` is the resumable form
// the DSE scheduler uses: budget is granted in slices via RunFor(minutes)
// and the session pauses between grants with its db/bandit/entropy state
// intact, so an interrupted search is bit-identical to an uninterrupted
// one given the same total budget.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "hls/bottleneck.h"
#include "merlin/design.h"
#include "tuner/bandit.h"
#include "tuner/result.h"
#include "tuner/space.h"

namespace s2fa::tuner {

// One black-box evaluation of a design config (Merlin + HLS downstream).
struct EvalOutcome {
  bool feasible = false;
  double cost = kInfeasibleCost;   // objective: accelerator time (us)
  double eval_minutes = 5.0;       // simulated HLS synthesis time
  // The estimator's attribution of what binds this design (kNone when the
  // evaluator has nothing to say — degraded results, illegal configs).
  // Broadcast to every technique after each commit so landscape-aware arms
  // can steer their mutations.
  hls::Bottleneck bottleneck;
};

using EvalFn = std::function<EvalOutcome(const merlin::DesignConfig&)>;

struct SeedPoint {
  Point point;
  std::string label;  // e.g. "performance-driven", "area-driven"
};

struct TuneOptions {
  double time_limit_minutes = 240;  // the paper's fixed 4-hour budget
  int parallel = 8;                 // evaluations per iteration
  // When true, one bandit selection per iteration proposes the whole batch
  // (the paper's footnote 3: vanilla OpenTuner evaluates one technique's
  // top-`parallel` candidates per iteration — "not scalable in terms of
  // the efficiency"). When false, each candidate gets its own selection.
  bool homogeneous_batches = false;
  std::uint64_t seed = 1;
  // Technique roster by name (see tuner::MakeTechniques); empty keeps the
  // paper's default four-arm set, bit-identical to before the knob existed.
  std::vector<std::string> techniques;
  std::vector<SeedPoint> seeds;     // evaluated before any proposals
  // Called after every iteration; return true to stop (reason reported).
  std::function<bool(const ResultDatabase&)> should_stop;
  std::string stop_reason_label = "custom criterion";
};

// One new-global-best commit, with the config that achieved it. Unlike the
// trace (which only carries (time, cost)), this keeps the cost/config pair
// together so a schedule clip can report the best pair found *within* a
// granted span instead of pairing a clipped cost with the final config.
struct BestUpdate {
  double time_minutes = 0;
  double cost = kInfeasibleCost;
  merlin::DesignConfig config;
};

struct TuneResult {
  bool found_feasible = false;
  Point best;
  merlin::DesignConfig best_config;
  double best_cost = kInfeasibleCost;
  double elapsed_minutes = 0;
  std::size_t evaluations = 0;
  std::string stop_reason;
  std::vector<TracePoint> trace;    // best-so-far cost over simulated time
  // Full (unclipped) history, for schedulers and span clips: every
  // new-best commit with its config, and the commit time of every
  // evaluation (one entry per database record, in commit order).
  std::vector<BestUpdate> improvements;
  std::vector<double> eval_times_minutes;
};

// Runs the tuning loop. `evaluate` must be pure w.r.t. the config.
TuneResult Tune(const DesignSpace& space, const EvalFn& evaluate,
                const TuneOptions& options);

// A pausable/resumable tuning run. RunFor(minutes) grants a slice of
// simulated budget and iterates until the slice (or the configured
// time_limit_minutes, whichever is tighter) is exhausted or the stop
// criterion fires. Between calls the session holds its full state — rng,
// bandit, database, stop-criterion closure — so
//   TuneSession s(...); s.RunFor(a); s.RunFor(b);
// commits exactly the same evaluation sequence as one RunFor(a + b), and
// Tune() itself is implemented as a single full-budget grant.
class TuneSession {
 public:
  TuneSession(const DesignSpace& space, EvalFn evaluate, TuneOptions options);

  TuneSession(const TuneSession&) = delete;
  TuneSession& operator=(const TuneSession&) = delete;

  // Grants `minutes` of additional simulated budget (clamped so the total
  // never exceeds options.time_limit_minutes) and runs until it is spent
  // or the session finishes. Returns the simulated minutes actually
  // consumed — the final batch may overshoot the grant, exactly as Tune's
  // final batch may overshoot the time limit.
  double RunFor(double minutes);

  // True once the stop criterion fired or the configured time limit was
  // reached; further RunFor calls are no-ops.
  bool finished() const { return finished_; }
  double clock_minutes() const { return clock_; }
  double granted_minutes() const { return granted_; }
  std::size_t evaluations() const { return db_.size(); }
  bool has_best() const { return db_.has_best(); }
  double best_cost() const { return db_.best_cost(); }

  // Snapshot of the run so far, clamped to the granted budget (for a
  // completed full-budget session this is exactly Tune's result).
  TuneResult Result() const;

 private:
  void EvaluateSeeds();
  bool Iterate();  // one proposal batch; true if the stop criterion fired
  void FinishWith(const std::string& reason);

  const DesignSpace* space_;
  EvalFn evaluate_;
  TuneOptions options_;
  Rng rng_;
  AucBandit bandit_;
  ResultDatabase db_;
  double clock_ = 0;
  double granted_ = 0;
  bool seeded_ = false;
  bool finished_ = false;
  std::string stop_reason_;
};

}  // namespace s2fa::tuner
