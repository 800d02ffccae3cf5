// Adaptive partition scheduler: budget ledger + reclaimed-slice grants.
//
// The FCFS schedule admits partitions to simulated cores first-come-first-
// served and lets each run until its entropy stop; whatever budget an
// early-stopped partition leaves on its core is simply lost. The adaptive
// scheduler keeps that admission discipline — so with early stopping
// disabled the two schedules are *identical* — but returns every freed
// core-tail to a central ledger and re-grants it, in preemptible
// `slice_minutes` quanta, to the live partition with the best recent
// improvement rate (ties broken by partition id for determinism). Each
// recipient advances a resumable tuner::TuneSession of its own sub-space,
// warm-started from the partition's main-run best, so reclaimed minutes
// buy extra refinement where improvement is still being found instead of
// evaporating. The merged result can therefore only match or beat FCFS:
// the main-phase trajectories are unchanged and reclaim grants add points.
//
// Determinism: every decision depends only on simulated outcomes — core
// free times, session clocks, improvement rates — never on real thread
// timing. Slices are planned sequentially in waves, executed concurrently
// by one ForkJoin per wave, and committed in plan order, so the grant
// sequence is bit-identical across thread counts.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "tuner/driver.h"

namespace s2fa::dse {

enum class SchedulerKind { kFcfs, kAdaptive };

// Parses "fcfs" / "adaptive"; nullopt on anything else.
std::optional<SchedulerKind> ParseSchedulerKind(const std::string& text);
const char* SchedulerKindName(SchedulerKind kind);

struct SchedulerOptions {
  // Quantum of one reclaimed-budget grant (simulated minutes). Smaller
  // slices react faster to improvement-rate changes; every slice boundary
  // is a potential preemption.
  double slice_minutes = 20;
};

// One reclaimed-budget grant, as decided by the scheduler.
struct ReclaimGrant {
  std::size_t partition = 0;
  int core = 0;
  double start_minutes = 0;          // global simulated time
  double slice_minutes = 0;          // budget granted
  double used_minutes = 0;           // budget actually consumed (may overshoot)
  double session_start_minutes = 0;  // recipient's session clock at grant start
  bool finished = false;   // the session's stop criterion fired in this slice
  bool preempted = false;  // slice expired while the session was still live
};

struct ScheduleStats {
  std::size_t grants = 0;
  std::size_t preemptions = 0;
  double reclaimed_minutes = 0;  // core-tails returned to the ledger
  double regranted_minutes = 0;  // reclaimed minutes actually re-spent
  double idle_minutes = 0;       // reclaimed but unusable (gaps + leftovers)
  double exploration_end_minutes = 0;  // last grant end, clamped to the limit
  std::size_t reclaim_evaluations = 0;  // committed inside the limit
};

struct ScheduleResult {
  std::vector<ReclaimGrant> grants;
  ScheduleStats stats;
};

// One candidate for reclaimed budget: a resumable tuning stream over a
// partition's sub-space. `session` is owned by the caller and advanced by
// the scheduler; `initial_rate` seeds the priority before the stream has
// run (derived from the partition's main run via MainImprovementRate);
// `baseline_best` is the partition's main-run best cost, so the warm-start
// seed replaying that best is not mistaken for an improvement.
struct ReclaimJob {
  std::size_t partition = 0;
  tuner::TuneSession* session = nullptr;
  double initial_rate = 0;
  double baseline_best = tuner::kInfeasibleCost;
  // No grant may start before this global time. The explorer sets it to
  // the partition's main-run end so the reclaim stream is a sequential
  // continuation — its warm-start seed (the main run's best) then always
  // exists before the stream's first grant.
  double earliest_start_minutes = 0;
};

// Recent improvement rate of a finished main run: relative cost decrease
// per simulated minute over the back half of the run (log-cost delta /
// minutes). 0 when the back half found nothing; large when it found the
// first feasible point. This is the priority a partition starts with in
// the reclaim phase.
double MainImprovementRate(const tuner::TuneResult& result);

// Rate of one completed grant: log-cost improvement per used minute, with
// the infeasible→feasible transition scored as a large finite rate so it
// outranks any incremental refinement.
double GrantImprovementRate(double best_before, double best_after,
                            double used_minutes);

// Maps a session-clock time to global minutes through the recipient's
// grant windows (grants must belong to one partition, in grant order).
// nullopt when the time falls outside every granted window.
std::optional<double> MapSessionTimeToGlobal(
    const std::vector<ReclaimGrant>& grants, double session_minutes);

// Re-grants the budget the FCFS schedule left unused. `core_free_minutes`
// is the per-core clock after the FCFS pass; only cores that actually
// hosted work and freed up before the limit contribute to the ledger
// (untouched cores are idle capacity, not reclaimed budget — this keeps a
// run with early stopping disabled grant-free and hence FCFS-identical).
// Jobs' sessions are advanced in place, each wave on `threads` threads
// (ForkJoin); the grant log and ledger accounting come back in the result.
// The thread count never changes outcomes.
ScheduleResult RunBudgetReclaim(std::vector<ReclaimJob> jobs,
                                std::vector<double> core_free_minutes,
                                double time_limit_minutes,
                                const SchedulerOptions& options,
                                std::size_t threads);

}  // namespace s2fa::dse
