#include "dse/explorer.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>

#include "obs/obs.h"
#include "resilience/journal.h"
#include "support/error.h"
#include "support/logging.h"
#include "support/thread_pool.h"

namespace s2fa::dse {

namespace {

using tuner::DesignSpace;
using tuner::EvalFn;
using tuner::Point;
using tuner::TracePoint;
using tuner::TuneOptions;
using tuner::TuneResult;

std::function<bool(const tuner::ResultDatabase&)> MakeStop(
    const ExplorerOptions& options, std::size_t num_factors) {
  switch (options.stop) {
    case StopKind::kEntropy:
      return MakeEntropyStop(num_factors, options.entropy);
    case StopKind::kNoImprovement:
      return MakeNoImprovementStop(options.no_improvement_stale);
    case StopKind::kTimeOnly:
      return nullptr;
  }
  S2FA_UNREACHABLE("bad stop kind");
}

// Fork-join threads: `exec_threads` if set, else one per core and task.
std::size_t ExecThreads(const ExplorerOptions& options, std::size_t tasks) {
  return static_cast<std::size_t>(
      options.exec_threads > 0
          ? options.exec_threads
          : std::clamp(static_cast<int>(tasks), 1, options.num_cores));
}

const char* StopLabel(StopKind stop) {
  switch (stop) {
    case StopKind::kEntropy: return "entropy criterion";
    case StopKind::kNoImprovement: return "no-improvement criterion";
    case StopKind::kTimeOnly: return "time limit";
  }
  S2FA_UNREACHABLE("bad stop kind");
}

// The evaluation stack every scope ("train", "p<i>", "r<i>", "vanilla")
// runs on: journal -> resilience -> fault plan -> raw black box. One
// journal serves the whole run. Each scope gets its own
// ResilientEvaluator, so a pathological region trips only its own
// breaker, and its own journal keys, so a resumed run replays each
// scope's stream exactly. Every scope evaluates its batches serially, in
// proposal order: the breaker is stateful, so this is what makes its
// decisions independent of thread timing.
class EvalStack {
 public:
  EvalStack(const EvalFn& evaluate, const ExplorerOptions& options) {
    const resilience::FaultPlan plan(options.faults);
    inner_ = plan.active() ? plan.Instrument(evaluate)
                           : resilience::IgnoreAttempt(evaluate);
    ropt_ = options.resilience;
    ropt_.seed ^= options.seed;
    if (!options.journal_path.empty()) journal_.Open(options.journal_path);
  }

  // The guarded, journaled evaluator of `scope`. It lives as long as the
  // stack.
  EvalFn Scope(const std::string& scope) {
    auto& guard = guards_[scope];
    guard = std::make_unique<resilience::ResilientEvaluator>(inner_, ropt_,
                                                             scope);
    EvalFn fn = guard->AsEvalFn();
    return journal_.open() ? journal_.Wrap(scope, std::move(fn))
                           : std::move(fn);
  }

  // `scope`'s failure ledger; empty when the scope was never built.
  resilience::ResilienceStats Stats(const std::string& scope) const {
    auto it = guards_.find(scope);
    return it == guards_.end() ? resilience::ResilienceStats{}
                               : it->second->stats();
  }

  // The run-wide journal ledger.
  void Report(DseResult& result) const {
    if (!journal_.open()) return;
    result.journal_resumed = journal_.resumed();
    result.journal_hits = journal_.hits();
    result.journal_entries = journal_.entries();
    S2FA_COUNT("dse.journal_hits",
               static_cast<std::int64_t>(result.journal_hits));
  }

 private:
  resilience::AttemptEvalFn inner_;
  resilience::ResilienceOptions ropt_;
  resilience::EvalJournal journal_;
  std::map<std::string, std::unique_ptr<resilience::ResilientEvaluator>>
      guards_;
};

}  // namespace

SpanReport ClipTuneResultToSpan(const tuner::TuneResult& result,
                                double span_minutes) {
  SpanReport report;
  for (const tuner::BestUpdate& up : result.improvements) {
    if (up.time_minutes > span_minutes) break;
    report.found = true;
    report.best_cost = up.cost;
    report.best_config = up.config;
    report.trace.push_back({up.time_minutes, up.cost});
  }
  // Commit times within a batch are not monotone (each member carries its
  // own eval_minutes), so count with a full scan rather than a break.
  for (double t : result.eval_times_minutes) {
    if (t <= span_minutes) ++report.evaluations;
  }
  return report;
}

DseResult RunS2faDse(const DesignSpace& space, const kir::Kernel& kernel,
                     const EvalFn& evaluate, const ExplorerOptions& options) {
  S2FA_REQUIRE(options.num_cores >= 1, "need at least one core");
  S2FA_REQUIRE(options.exec_threads >= 0,
               "exec_threads must be non-negative");
  S2FA_SPAN("dse.run");
  Rng rng(options.seed);

  DseResult result;
  result.log10_space_size = space.Log10Cardinality();

  EvalStack stack(evaluate, options);

  // --- 1. Partitioning (offline rule training; not charged to the clock).
  std::vector<Partition> partitions;
  if (options.enable_partitioning) {
    S2FA_SPAN("dse.train");
    auto candidates = RuleCandidateFactors(space, kernel);
    EvalFn train_fn = stack.Scope("train");
    auto train_eval = [&](const Point& p) {
      tuner::EvalOutcome out = train_fn(space.ToConfig(p));
      return out.feasible ? std::log(std::max(1e-9, out.cost))
                          : options.partition.infeasible_log_cost;
    };
    Rng train_rng = rng.Fork();
    auto samples = DrawTrainingSamples(space, options.training_samples,
                                       train_eval, train_rng);
    S2FA_COUNT("dse.training_samples",
               static_cast<std::int64_t>(samples.size()));
    partitions = BuildPartitions(space, candidates, samples,
                                 options.partition);
  } else {
    partitions.push_back({space, "full space"});
  }
  S2FA_COUNT("dse.partitions", static_cast<std::int64_t>(partitions.size()));

  // --- 2. Per-partition tuning (full budget; clipped by the schedule).
  // Built serially (each scope registers its guard), tuned in a fork-join.
  const bool single = partitions.size() == 1;
  std::vector<TuneOptions> topts(partitions.size());
  std::vector<EvalFn> guarded(partitions.size());
  for (std::size_t i = 0; i < partitions.size(); ++i) {
    const Partition& partition = partitions[i];
    TuneOptions& topt = topts[i];
    topt.time_limit_minutes = options.time_limit_minutes;
    // One core per partition; a lone partition gets the whole machine
    // (that is the no-partitioning ablation and the vanilla setup).
    topt.parallel = single ? options.num_cores : 1;
    topt.seed = options.seed * 1000003ULL + i * 7919ULL + 1;
    topt.techniques = options.techniques;
    if (options.enable_seeds) {
      topt.seeds.push_back(
          MakePerformanceSeed(partition.space, options.seed_values));
      topt.seeds.push_back(MakeAreaSeed(partition.space));
    }
    topt.should_stop = MakeStop(options, partition.space.num_factors());
    topt.stop_reason_label = StopLabel(options.stop);
    guarded[i] = stack.Scope("p" + std::to_string(i));
  }
  std::vector<TuneResult> tune_results(partitions.size());
  ForkJoin(partitions.size(), ExecThreads(options, partitions.size()),
           [&](std::size_t i) {
             S2FA_SPAN("dse.partition");
             tune_results[i] =
                 tuner::Tune(partitions[i].space, guarded[i], topts[i]);
           });

  // --- 3. Deterministic FCFS schedule of partitions onto cores.
  std::vector<double> core_clock(
      static_cast<std::size_t>(options.num_cores), 0.0);
  std::vector<TracePoint> merged;
  for (std::size_t i = 0; i < partitions.size(); ++i) {
    PartitionOutcome outcome;
    outcome.description = partitions[i].description;
    outcome.result = tune_results[i];
    outcome.resilience = stack.Stats("p" + std::to_string(i));
    result.resilience.Merge(outcome.resilience);

    auto core = std::min_element(core_clock.begin(), core_clock.end());
    outcome.start_minutes = *core;
    S2FA_OBSERVE("dse.queue_wait_minutes", outcome.start_minutes);
    S2FA_GAUGE_MAX("dse.queue_wait_max_minutes", outcome.start_minutes);
    const double allowed = options.time_limit_minutes - outcome.start_minutes;
    if (allowed <= 0) {
      outcome.scheduled = false;
      S2FA_COUNT("dse.partitions_skipped", 1);
      result.partitions.push_back(std::move(outcome));
      continue;
    }
    double used = tune_results[i].elapsed_minutes;
    if (used > allowed) {
      used = allowed;
      outcome.truncated = true;
      S2FA_COUNT("dse.partitions_truncated", 1);
    }
    outcome.end_minutes = outcome.start_minutes + used;
    *core = outcome.end_minutes;

    // Clip the partition's contribution to its scheduled span: the best
    // (cost, config) *pair* found within it — never the final config
    // paired with an earlier cost — and the evaluations actually
    // committed inside it, not a time-proportional estimate.
    SpanReport report = ClipTuneResultToSpan(tune_results[i], used);
    for (const TracePoint& tp : report.trace) {
      merged.push_back({outcome.start_minutes + tp.time_minutes,
                        tp.best_cost});
    }
    outcome.clipped_best_cost = report.best_cost;
    outcome.clipped_best_config = report.best_config;
    outcome.clipped_evaluations = report.evaluations;
    if (report.found && report.best_cost < result.best_cost) {
      result.best_cost = report.best_cost;
      result.found_feasible = true;
      result.best_config = report.best_config;
    }
    result.evaluations += report.evaluations;
    result.partitions.push_back(std::move(outcome));
  }

  // --- 4. Budget reclaim (adaptive scheduler): every core-tail an
  // early-stopped partition freed goes to a central ledger and is
  // re-granted, in preemptible slices, to the partition with the best
  // recent improvement rate. Each recipient continues exploring its
  // sub-space in a resumable TuneSession under a fresh stream seed,
  // warm-started from its main-run best, journaled and guarded under
  // its own "r<i>" scope. The FCFS-phase trajectories above are never
  // touched, so the adaptive result can only match or beat FCFS; with
  // early stopping disabled no core frees early, the ledger stays empty,
  // and the two schedules are identical.
  result.scheduler = options.scheduler;
  if (options.scheduler == SchedulerKind::kAdaptive) {
    std::vector<std::unique_ptr<tuner::TuneSession>> sessions(
        partitions.size());
    std::vector<ReclaimJob> jobs;
    jobs.reserve(partitions.size());
    for (std::size_t i = 0; i < partitions.size(); ++i) {
      const PartitionOutcome& outcome = result.partitions[i];
      // A truncated partition's main run already owns a core up to the
      // limit; its sequential continuation could never start.
      if (outcome.truncated) continue;
      TuneOptions topt;
      topt.time_limit_minutes = options.time_limit_minutes;
      topt.parallel = 1;
      // A distinct stream from the main run's.
      topt.seed = options.seed * 1000003ULL + i * 7919ULL + 500009ULL;
      topt.techniques = options.techniques;
      if (outcome.scheduled && outcome.result.found_feasible) {
        topt.seeds.push_back({outcome.result.best, "reclaim warm start"});
      } else if (options.enable_seeds) {
        // Never-admitted partitions start like a late FCFS admission.
        topt.seeds.push_back(
            MakePerformanceSeed(partitions[i].space, options.seed_values));
        topt.seeds.push_back(MakeAreaSeed(partitions[i].space));
      }
      topt.should_stop = MakeStop(options, partitions[i].space.num_factors());
      topt.stop_reason_label = StopLabel(options.stop);
      sessions[i] = std::make_unique<tuner::TuneSession>(
          partitions[i].space, stack.Scope("r" + std::to_string(i)), topt);
      ReclaimJob job;
      job.partition = i;
      job.session = sessions[i].get();
      job.initial_rate =
          outcome.scheduled ? MainImprovementRate(outcome.result) : 0;
      job.baseline_best = outcome.clipped_best_cost;
      job.earliest_start_minutes = outcome.scheduled ? outcome.end_minutes : 0;
      jobs.push_back(std::move(job));
    }

    const std::size_t threads = ExecThreads(options, jobs.size());
    ScheduleResult sched =
        RunBudgetReclaim(std::move(jobs), core_clock,
                         options.time_limit_minutes, options.sched, threads);
    result.schedule = sched.stats;
    result.reclaim_grants = sched.grants;

    // Fold each recipient's grant-window evaluations into the merged
    // global-time picture.
    for (std::size_t i = 0; i < partitions.size(); ++i) {
      if (sessions[i] == nullptr) continue;
      result.resilience.Merge(stack.Stats("r" + std::to_string(i)));
      if (sessions[i]->evaluations() == 0) continue;
      std::vector<ReclaimGrant> mine;
      for (const ReclaimGrant& grant : sched.grants) {
        if (grant.partition == i) mine.push_back(grant);
      }
      if (mine.empty()) continue;
      PartitionOutcome& outcome = result.partitions[i];
      outcome.reclaim_grants = mine.size();
      for (const ReclaimGrant& grant : mine) {
        outcome.reclaim_minutes += grant.used_minutes;
      }
      tuner::TuneResult rtr = sessions[i]->Result();
      for (const tuner::BestUpdate& up : rtr.improvements) {
        auto global = MapSessionTimeToGlobal(mine, up.time_minutes);
        if (!global || *global > options.time_limit_minutes) continue;
        merged.push_back({*global, up.cost});
        if (up.cost < outcome.reclaim_best_cost) {
          outcome.reclaim_best_cost = up.cost;
        }
        if (up.cost < result.best_cost) {
          result.best_cost = up.cost;
          result.found_feasible = true;
          result.best_config = up.config;
        }
      }
      for (double t : rtr.eval_times_minutes) {
        auto global = MapSessionTimeToGlobal(mine, t);
        if (global && *global <= options.time_limit_minutes) {
          ++outcome.reclaim_evaluations;
        }
      }
      result.evaluations += outcome.reclaim_evaluations;
      result.schedule.reclaim_evaluations += outcome.reclaim_evaluations;
    }
  }

  std::sort(merged.begin(), merged.end(),
            [](const TracePoint& a, const TracePoint& b) {
              return a.time_minutes < b.time_minutes;
            });
  double best = tuner::kInfeasibleCost;
  for (const TracePoint& tp : merged) {
    if (tp.best_cost < best) {
      best = tp.best_cost;
      result.trace.push_back({tp.time_minutes, best});
    }
  }
  result.trace = tuner::DedupTrace(std::move(result.trace));
  for (const auto& outcome : result.partitions) {
    result.elapsed_minutes =
        std::max(result.elapsed_minutes, outcome.end_minutes);
    if (obs::Enabled() && outcome.scheduled) {
      S2FA_COUNT("dse.stop." + outcome.result.stop_reason, 1);
    }
  }
  // elapsed_minutes keeps the paper's meaning — when the entropy criterion
  // terminated the last scheduled partition; reclaim grants reinvest the
  // freed tail afterwards and are accounted separately.
  if (options.scheduler == SchedulerKind::kAdaptive) {
    result.schedule.exploration_end_minutes =
        std::max(result.schedule.exploration_end_minutes,
                 result.elapsed_minutes);
  }
  result.resilience.Merge(stack.Stats("train"));
  stack.Report(result);
  if (result.resilience.exhausted > 0 || result.resilience.retries > 0) {
    S2FA_LOG_INFO("dse resilience: " << result.resilience.retries
                                     << " retries, "
                                     << result.resilience.exhausted
                                     << " points degraded, "
                                     << result.resilience.breaker_trips
                                     << " breaker trips");
  }
  return result;
}

DseResult RunVanillaOpenTuner(const DesignSpace& space,
                              const EvalFn& evaluate,
                              const ExplorerOptions& options) {
  S2FA_REQUIRE(options.num_cores >= 1, "need at least one core");
  S2FA_SPAN("dse.vanilla");

  EvalStack stack(evaluate, options);
  TuneOptions topt;
  topt.time_limit_minutes = options.time_limit_minutes;
  topt.parallel = options.num_cores;
  topt.homogeneous_batches = true;  // footnote 3: one technique's top-8
  topt.seed = options.seed;
  topt.techniques = options.techniques;
  TuneResult tuned = tuner::Tune(space, stack.Scope("vanilla"), topt);

  DseResult result;
  result.log10_space_size = space.Log10Cardinality();
  result.found_feasible = tuned.found_feasible;
  result.best_config = tuned.best_config;
  result.best_cost = tuned.best_cost;
  result.elapsed_minutes = tuned.elapsed_minutes;
  result.evaluations = tuned.evaluations;
  result.trace = tuner::DedupTrace(tuned.trace);
  result.resilience = stack.Stats("vanilla");
  stack.Report(result);
  PartitionOutcome outcome;
  outcome.description = "full space (vanilla OpenTuner)";
  outcome.start_minutes = 0;
  outcome.end_minutes = tuned.elapsed_minutes;
  outcome.result = std::move(tuned);
  outcome.clipped_best_cost = result.best_cost;
  outcome.clipped_best_config = result.best_config;
  outcome.clipped_evaluations = result.evaluations;
  outcome.resilience = result.resilience;
  result.partitions.push_back(std::move(outcome));
  return result;
}

}  // namespace s2fa::dse
