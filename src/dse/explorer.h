// The S2FA parallel DSE orchestrator (paper Fig. 2).
//
// Pipeline: offline rule training → decision-tree partitioning → per-
// partition seed generation → FCFS scheduling of partitions onto CPU
// cores, each partition tuned by the bandit/technique stack with the
// Shannon-entropy early-stop → merged best-so-far trace on a simulated
// global clock.
//
// Every partition runs with the full remaining budget and is then clipped
// to the span the FCFS schedule actually grants it; this keeps the whole
// exploration deterministic while the partition tunings execute on real
// threads. The default `adaptive` scheduler additionally returns every
// core-tail an early-stopped partition frees to a budget ledger and
// re-grants it in preemptible slices to the partition with the best
// recent improvement rate (see dse/scheduler.h); `fcfs` keeps the
// historical lose-the-tail behaviour.
//
// Ablation switches (partitioning / seeds / stopping criterion) feed the
// §5.2 analyses.
#pragma once

#include "dse/partition.h"
#include "dse/scheduler.h"
#include "dse/seeds.h"
#include "dse/stopping.h"
#include "resilience/evaluator.h"
#include "resilience/fault.h"
#include "tuner/driver.h"

namespace s2fa::dse {

enum class StopKind { kEntropy, kNoImprovement, kTimeOnly };

struct ExplorerOptions {
  double time_limit_minutes = 240;  // the paper's 4-hour ceiling
  int num_cores = 8;                // f1.2xlarge host CPU
  std::uint64_t seed = 1;
  int training_samples = 320;
  PartitionOptions partition;
  SeedOptions seed_values;
  EntropyStopOptions entropy;
  StopKind stop = StopKind::kEntropy;
  std::size_t no_improvement_stale = 10;
  // Ablation switches.
  bool enable_partitioning = true;
  bool enable_seeds = true;
  // Fault tolerance. Every evaluation (training and tuning) runs through a
  // ResilientEvaluator — one per scope, so a pathological region trips
  // only its own circuit breaker — called in proposal order, so breaker
  // decisions never depend on thread timing. With the default options and
  // a healthy evaluator this is a pass-through and results are unchanged.
  resilience::ResilienceOptions resilience;
  // Deterministic fault injection (all-zero rates = off). The plan wraps
  // the black box *inside* the resilient layer, so injected failures are
  // retried, classified, and charged like real ones.
  resilience::FaultPlanOptions faults;
  // When non-empty, every completed evaluation is journaled here and a
  // pre-existing journal is replayed: a killed run resumed with the same
  // options re-pays zero already-journaled synthesis jobs.
  std::string journal_path;
  // Partition scheduler. kAdaptive reinvests budget freed by entropy
  // stops (never changes the FCFS-phase trajectories, so its best is
  // always <= the FCFS best); kFcfs is the historical schedule alone.
  SchedulerKind scheduler = SchedulerKind::kAdaptive;
  SchedulerOptions sched;
  // Worker threads for the partition and reclaim pools; 0 = one per
  // simulated core. Results never depend on this — it only changes
  // wall-clock.
  int exec_threads = 0;
  // Technique roster, forwarded to every TuneSession (partition, reclaim,
  // and vanilla baseline alike); empty keeps the paper's default four-arm
  // bandit, bit-identical to before the knob existed. See
  // tuner::MakeTechniques for the accepted names.
  std::vector<std::string> techniques;
};

struct PartitionOutcome {
  std::string description;
  double start_minutes = 0;
  double end_minutes = 0;
  bool scheduled = true;    // false if the budget ran out before its turn
  bool truncated = false;   // clipped by the global time limit
  tuner::TuneResult result; // full (unclipped) tuning result
  // Best (cost, config) pair and evaluation count found *within* the
  // granted span — the pair stays consistent even when the clip cut the
  // run before the partition's final best.
  double clipped_best_cost = tuner::kInfeasibleCost;
  merlin::DesignConfig clipped_best_config;
  std::size_t clipped_evaluations = 0;
  // Reclaimed-budget grants this partition received (adaptive scheduler).
  std::size_t reclaim_grants = 0;
  double reclaim_minutes = 0;
  std::size_t reclaim_evaluations = 0;
  double reclaim_best_cost = tuner::kInfeasibleCost;
  resilience::ResilienceStats resilience;  // this partition's failure ledger
};

struct DseResult {
  bool found_feasible = false;
  merlin::DesignConfig best_config;
  double best_cost = tuner::kInfeasibleCost;
  double elapsed_minutes = 0;   // when the last scheduled partition ended
  std::size_t evaluations = 0;  // total across partitions (clipped estimate)
  std::vector<tuner::TracePoint> trace;  // merged best-so-far, global time
  std::vector<PartitionOutcome> partitions;
  double log10_space_size = 0;
  resilience::ResilienceStats resilience;  // aggregated across partitions
  std::size_t journal_resumed = 0;  // evaluations replayed from the journal
  std::size_t journal_hits = 0;     // lookups it answered this run
  std::size_t journal_entries = 0;  // total entries after the run
  SchedulerKind scheduler = SchedulerKind::kFcfs;  // the schedule that ran
  ScheduleStats schedule;              // budget-ledger accounting
  std::vector<ReclaimGrant> reclaim_grants;  // grant log, in commit order
};

// The best (cost, config) pair and the committed evaluation count found
// within the first `span_minutes` of a tuning run — what a schedule clip
// may truthfully report. Exposed for the FCFS path and its regression
// tests: the cost/config come from the same improvement record, and the
// evaluation count is the number of actually-committed records in the
// span, not a time-proportional estimate.
struct SpanReport {
  bool found = false;
  double best_cost = tuner::kInfeasibleCost;
  merlin::DesignConfig best_config;
  std::size_t evaluations = 0;
  std::vector<tuner::TracePoint> trace;  // improvements inside the span
};

SpanReport ClipTuneResultToSpan(const tuner::TuneResult& result,
                                double span_minutes);

// Runs the full S2FA DSE for `kernel`'s design space. `evaluate` is the
// Merlin+HLS black box; it is also used (uncharged) for offline rule
// training.
DseResult RunS2faDse(const tuner::DesignSpace& space,
                     const kir::Kernel& kernel,
                     const tuner::EvalFn& evaluate,
                     const ExplorerOptions& options = {});

// The vanilla-OpenTuner baseline on the same clock (footnote 3: eight
// cores evaluate the top-8 candidates per iteration; no partitioning, no
// seeds, stop on the time limit only). Runs the same evaluation stack as
// the S2FA path — journal -> resilience -> fault plan -> raw evaluator —
// so --fault-rate / --resume-journal / --eval-timeout apply to --vanilla
// runs too; partitioning/seed/stop options are ignored.
DseResult RunVanillaOpenTuner(const tuner::DesignSpace& space,
                              const tuner::EvalFn& evaluate,
                              const ExplorerOptions& options);

}  // namespace s2fa::dse
