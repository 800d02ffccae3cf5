#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "dse/explorer.h"
#include "hls/estimator.h"
#include "merlin/transform.h"

namespace s2fa::dse {
namespace {

using kir::BinaryOp;
using kir::BufferKind;
using kir::Expr;
using kir::Stmt;
using kir::Type;
using tuner::DesignSpace;
using tuner::EvalOutcome;

// The same nested reduce kernel used across tuner/dse tests.
kir::Kernel NestedKernel() {
  kir::Kernel k;
  k.name = "nested";
  k.buffers.push_back({"in", Type::Float(), 4096, BufferKind::kInput, ""});
  k.buffers.push_back({"out", Type::Float(), 64, BufferKind::kOutput, ""});
  auto i = Expr::Var("i", Type::Int());
  auto j = Expr::Var("j", Type::Int());
  auto acc = Expr::Var("acc", Type::Float());
  auto inner = Stmt::For(
      1, "j", 64,
      Stmt::Block({Stmt::Assign(
          acc,
          Expr::Binary(
              BinaryOp::kAdd, acc,
              Expr::Binary(
                  BinaryOp::kMul,
                  Expr::ArrayRef(
                      "in", Type::Float(),
                      Expr::Binary(BinaryOp::kAdd,
                                   Expr::Binary(BinaryOp::kMul, i,
                                                Expr::IntLit(64)),
                                   j)),
                  Expr::FloatLit(1.5f))))}));
  inner->set_is_reduction(true);
  auto outer = Stmt::For(
      0, "i", 64,
      Stmt::Block({Stmt::Decl("acc", Type::Float(), Expr::FloatLit(0.0f)),
                   inner,
                   Stmt::Assign(Expr::ArrayRef("out", Type::Float(), i),
                                acc)}));
  outer->set_inserted_by_template(true);
  k.body = Stmt::Block({outer});
  k.task_loop_id = 0;
  return k;
}

tuner::EvalFn HlsEval(const kir::Kernel& kernel) {
  return [kernel](const merlin::DesignConfig& cfg) -> EvalOutcome {
    EvalOutcome out;
    try {
      merlin::TransformResult t = merlin::ApplyDesign(kernel, cfg);
      hls::HlsResult r = hls::EstimateHls(t.kernel);
      out.feasible = r.feasible;
      out.cost = r.exec_us;
      out.eval_minutes = r.eval_minutes;
    } catch (const InvalidArgument&) {
      out.feasible = false;
      out.cost = tuner::kInfeasibleCost;
      out.eval_minutes = 3.0;
    }
    return out;
  };
}

merlin::DesignConfig ConfigWithParallel(std::int64_t parallel) {
  merlin::DesignConfig cfg;
  cfg.loops[0].parallel = parallel;
  return cfg;
}

// --------------------------------------------------------------- span clip

TEST(ClipTest, ReportsBestPairFoundWithinSpan) {
  // Regression for the clipped-cost/config mismatch: the clip used to pair
  // the in-span best *cost* with the run's *final* config. The pair must
  // come from the same improvement record.
  tuner::TuneResult r;
  merlin::DesignConfig early = ConfigWithParallel(4);
  merlin::DesignConfig late = ConfigWithParallel(8);
  r.improvements = {{10.0, 5.0, early}, {80.0, 3.0, late}};
  r.eval_times_minutes = {2.0, 10.0, 40.0, 80.0, 95.0};
  r.trace = {{10.0, 5.0}, {80.0, 3.0}};
  r.found_feasible = true;
  r.best_cost = 3.0;
  r.best_config = late;

  SpanReport mid = ClipTuneResultToSpan(r, 50.0);
  EXPECT_TRUE(mid.found);
  EXPECT_DOUBLE_EQ(mid.best_cost, 5.0);
  EXPECT_TRUE(mid.best_config == early);  // NOT the final config
  ASSERT_EQ(mid.trace.size(), 1u);
  EXPECT_DOUBLE_EQ(mid.trace[0].time_minutes, 10.0);

  SpanReport full = ClipTuneResultToSpan(r, 240.0);
  EXPECT_DOUBLE_EQ(full.best_cost, 3.0);
  EXPECT_TRUE(full.best_config == late);
  EXPECT_EQ(full.evaluations, 5u);
}

TEST(ClipTest, CountsCommittedEvaluationsNotTimeProportion) {
  // Regression for the clipped evaluation estimate: the count must be the
  // number of commits inside the span, not ceil(span-proportional share).
  tuner::TuneResult r;
  r.eval_times_minutes = {2.0, 10.0, 40.0, 80.0, 95.0};
  r.elapsed_minutes = 95.0;
  // Span 50 holds 3 of 5 commits; the proportional estimate would claim
  // ceil(5 * 50 / 95) = 3 here but diverges whenever commits cluster:
  SpanReport report = ClipTuneResultToSpan(r, 50.0);
  EXPECT_EQ(report.evaluations, 3u);
  EXPECT_FALSE(report.found);
  EXPECT_EQ(report.best_cost, tuner::kInfeasibleCost);

  // Clustered commits: 4 of 5 land in the first tenth of the run. A
  // time-proportional estimate for span 10 would say ceil(5*10/100) = 1.
  tuner::TuneResult clustered;
  clustered.eval_times_minutes = {1.0, 2.0, 3.0, 4.0, 100.0};
  clustered.elapsed_minutes = 100.0;
  EXPECT_EQ(ClipTuneResultToSpan(clustered, 10.0).evaluations, 4u);
}

TEST(ClipTest, ScansAllCommitTimesBecauseBatchesAreNotMonotone) {
  // Commit times within a parallel batch are not monotone: a later-index
  // commit may carry an earlier time. The count must scan every entry
  // rather than stop at the first one past the span.
  tuner::TuneResult r;
  r.eval_times_minutes = {2.0, 60.0, 40.0, 80.0};
  EXPECT_EQ(ClipTuneResultToSpan(r, 50.0).evaluations, 2u);
}

// ------------------------------------------------------------- rate math

TEST(SchedulerMathTest, GrantImprovementRate) {
  // First feasible point: large finite priority.
  EXPECT_DOUBLE_EQ(
      GrantImprovementRate(tuner::kInfeasibleCost, 5.0, 10.0), 1e9);
  // Plain refinement: log-cost delta per minute.
  EXPECT_NEAR(GrantImprovementRate(10.0, 5.0, 2.0), std::log(2.0) / 2.0,
              1e-12);
  // No improvement (equal or worse, or still infeasible): zero.
  EXPECT_DOUBLE_EQ(GrantImprovementRate(5.0, 5.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(GrantImprovementRate(5.0, 7.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(GrantImprovementRate(tuner::kInfeasibleCost,
                                        tuner::kInfeasibleCost, 10.0),
                   0.0);
}

TEST(SchedulerMathTest, MainImprovementRateUsesBackHalf) {
  tuner::TuneResult r;
  r.elapsed_minutes = 100.0;
  merlin::DesignConfig cfg = ConfigWithParallel(2);
  r.improvements = {{10.0, 100.0, cfg}, {80.0, 50.0, cfg}};
  // Best at the midpoint is 100, best at the end 50, over 50 minutes.
  EXPECT_NEAR(MainImprovementRate(r), std::log(2.0) / 50.0, 1e-12);

  tuner::TuneResult flat;
  flat.elapsed_minutes = 100.0;
  flat.improvements = {{10.0, 100.0, cfg}};  // nothing in the back half
  EXPECT_DOUBLE_EQ(MainImprovementRate(flat), 0.0);

  tuner::TuneResult empty;
  EXPECT_DOUBLE_EQ(MainImprovementRate(empty), 0.0);
}

TEST(SchedulerMathTest, MapSessionTimeToGlobal) {
  std::vector<ReclaimGrant> grants(2);
  grants[0].start_minutes = 100.0;
  grants[0].session_start_minutes = 0.0;
  grants[0].used_minutes = 20.0;
  grants[1].start_minutes = 140.0;
  grants[1].session_start_minutes = 20.0;
  grants[1].used_minutes = 10.0;

  EXPECT_EQ(MapSessionTimeToGlobal(grants, 10.0), 110.0);
  EXPECT_EQ(MapSessionTimeToGlobal(grants, 20.0), 120.0);  // inclusive end
  EXPECT_EQ(MapSessionTimeToGlobal(grants, 25.0), 145.0);
  // Window starts are exclusive (a commit at the session clock's grant
  // boundary belongs to the previous grant) and times past the last grant
  // have no global image.
  EXPECT_FALSE(MapSessionTimeToGlobal(grants, 0.0).has_value());
  EXPECT_FALSE(MapSessionTimeToGlobal(grants, 35.0).has_value());
}

// ------------------------------------------------------- budget reclaim

TEST(SchedulerTest, ReclaimGrantsOnlyTouchedEarlyCores) {
  DesignSpace space = tuner::BuildDesignSpace(NestedKernel());
  auto eval = [](const merlin::DesignConfig&) -> EvalOutcome {
    return {true, 100.0, 10.0};
  };
  tuner::TuneOptions topt;
  topt.time_limit_minutes = 100;
  topt.parallel = 4;
  topt.seed = 5;
  tuner::TuneSession session(space, eval, topt);

  std::vector<ReclaimJob> jobs(1);
  jobs[0].partition = 0;
  jobs[0].session = &session;
  jobs[0].baseline_best = tuner::kInfeasibleCost;

  // Core 0 freed at minute 40; core 1 never hosted work; core 2 ran to
  // the limit. Only core 0's tail (60 min) is reclaimable budget.
  std::vector<double> cores{40.0, 0.0, 100.0};
  SchedulerOptions sopt;
  sopt.slice_minutes = 20;
  ScheduleResult r = RunBudgetReclaim(std::move(jobs), cores, 100.0, sopt,
                                      /*threads=*/2);

  EXPECT_DOUBLE_EQ(r.stats.reclaimed_minutes, 60.0);
  ASSERT_EQ(r.grants.size(), 3u);
  EXPECT_EQ(r.stats.grants, 3u);
  double expected_start = 40.0;
  for (const ReclaimGrant& g : r.grants) {
    EXPECT_EQ(g.core, 0);  // never the untouched or the exhausted core
    EXPECT_DOUBLE_EQ(g.start_minutes, expected_start);
    EXPECT_DOUBLE_EQ(g.used_minutes, 20.0);
    EXPECT_TRUE(g.preempted);
    expected_start += 20.0;
  }
  EXPECT_DOUBLE_EQ(r.stats.regranted_minutes, 60.0);
  EXPECT_DOUBLE_EQ(r.stats.exploration_end_minutes, 100.0);
  EXPECT_EQ(r.stats.preemptions, 3u);
  EXPECT_DOUBLE_EQ(session.clock_minutes(), 60.0);
}

TEST(SchedulerTest, NoUsableCoresMeansNoGrants) {
  DesignSpace space = tuner::BuildDesignSpace(NestedKernel());
  auto eval = [](const merlin::DesignConfig&) -> EvalOutcome {
    return {true, 100.0, 10.0};
  };
  tuner::TuneOptions topt;
  topt.time_limit_minutes = 100;
  tuner::TuneSession session(space, eval, topt);
  std::vector<ReclaimJob> jobs(1);
  jobs[0].session = &session;

  // Every core either untouched or exhausted: the ledger stays empty.
  ScheduleResult r = RunBudgetReclaim(std::move(jobs), {0.0, 100.0, 100.0},
                                      100.0, SchedulerOptions{},
                                      /*threads=*/2);
  EXPECT_TRUE(r.grants.empty());
  EXPECT_DOUBLE_EQ(r.stats.reclaimed_minutes, 0.0);
  EXPECT_DOUBLE_EQ(session.clock_minutes(), 0.0);
}

// --------------------------------------------------------- explorer e2e

ExplorerOptions BaseOptions(SchedulerKind sched, StopKind stop) {
  ExplorerOptions options;
  options.time_limit_minutes = 240;
  options.num_cores = 8;
  options.seed = 7;
  options.scheduler = sched;
  options.stop = stop;
  return options;
}

void ExpectSameTrace(const DseResult& a, const DseResult& b) {
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].time_minutes, b.trace[i].time_minutes);
    EXPECT_EQ(a.trace[i].best_cost, b.trace[i].best_cost);
  }
}

TEST(SchedulerTest, AdaptiveMatchesFcfsWithoutEarlyStopping) {
  // With stopping disabled every main run exhausts its core, nothing is
  // reclaimed, and the adaptive schedule degenerates to exactly FCFS.
  kir::Kernel k = NestedKernel();
  DesignSpace space = tuner::BuildDesignSpace(k);
  tuner::EvalFn eval = HlsEval(k);
  DseResult adaptive = RunS2faDse(
      space, k, eval, BaseOptions(SchedulerKind::kAdaptive,
                                  StopKind::kTimeOnly));
  DseResult fcfs = RunS2faDse(
      space, k, eval, BaseOptions(SchedulerKind::kFcfs,
                                  StopKind::kTimeOnly));
  EXPECT_EQ(adaptive.schedule.grants, 0u);
  EXPECT_DOUBLE_EQ(adaptive.schedule.reclaimed_minutes, 0.0);
  EXPECT_EQ(adaptive.best_cost, fcfs.best_cost);
  EXPECT_EQ(adaptive.evaluations, fcfs.evaluations);
  EXPECT_EQ(adaptive.elapsed_minutes, fcfs.elapsed_minutes);
  ExpectSameTrace(adaptive, fcfs);
}

TEST(SchedulerTest, AdaptiveNeverWorseAndReclaimsUnderEntropyStop) {
  kir::Kernel k = NestedKernel();
  DesignSpace space = tuner::BuildDesignSpace(k);
  tuner::EvalFn eval = HlsEval(k);
  DseResult adaptive = RunS2faDse(
      space, k, eval, BaseOptions(SchedulerKind::kAdaptive,
                                  StopKind::kEntropy));
  DseResult fcfs = RunS2faDse(
      space, k, eval, BaseOptions(SchedulerKind::kFcfs, StopKind::kEntropy));

  // Entropy stops free budget on this kernel, and the ledger re-spends it.
  EXPECT_GT(adaptive.schedule.reclaimed_minutes, 0.0);
  EXPECT_GT(adaptive.schedule.grants, 0u);
  EXPECT_LE(adaptive.best_cost, fcfs.best_cost);

  // The FCFS phase itself is untouched by the reclaim pass.
  ASSERT_EQ(adaptive.partitions.size(), fcfs.partitions.size());
  for (std::size_t i = 0; i < adaptive.partitions.size(); ++i) {
    EXPECT_EQ(adaptive.partitions[i].start_minutes,
              fcfs.partitions[i].start_minutes);
    EXPECT_EQ(adaptive.partitions[i].end_minutes,
              fcfs.partitions[i].end_minutes);
    EXPECT_EQ(adaptive.partitions[i].clipped_best_cost,
              fcfs.partitions[i].clipped_best_cost);
  }

  // Ledger accounting closes against the grant log and the per-partition
  // roll-ups.
  EXPECT_EQ(adaptive.schedule.grants, adaptive.reclaim_grants.size());
  std::size_t preempted = 0, partition_grants = 0, partition_evals = 0;
  double used_sum = 0, partition_minutes = 0;
  std::map<int, double> core_end;
  for (const ReclaimGrant& g : adaptive.reclaim_grants) {
    EXPECT_GE(g.start_minutes, 0.0);
    EXPECT_LT(g.start_minutes, 240.0);
    EXPECT_GE(g.used_minutes, 0.0);
    if (g.preempted) ++preempted;
    used_sum += g.used_minutes;
    // Grants on one core never overlap (the log is in commit order).
    auto [it, fresh] = core_end.try_emplace(g.core, g.start_minutes);
    if (!fresh) EXPECT_GE(g.start_minutes, it->second - 1e-9);
    it->second = g.start_minutes + g.used_minutes;
  }
  EXPECT_EQ(adaptive.schedule.preemptions, preempted);
  EXPECT_NEAR(adaptive.schedule.regranted_minutes, used_sum, 1e-6);
  EXPECT_LE(adaptive.schedule.regranted_minutes,
            adaptive.schedule.reclaimed_minutes + 1e-6);
  for (const PartitionOutcome& p : adaptive.partitions) {
    partition_grants += p.reclaim_grants;
    partition_minutes += p.reclaim_minutes;
    partition_evals += p.reclaim_evaluations;
  }
  EXPECT_EQ(partition_grants, adaptive.schedule.grants);
  EXPECT_NEAR(partition_minutes, adaptive.schedule.regranted_minutes, 1e-6);
  EXPECT_EQ(partition_evals, adaptive.schedule.reclaim_evaluations);

  // The merged trace stays monotone and inside the budget.
  for (std::size_t i = 1; i < adaptive.trace.size(); ++i) {
    EXPECT_GE(adaptive.trace[i - 1].best_cost, adaptive.trace[i].best_cost);
    EXPECT_LE(adaptive.trace[i - 1].time_minutes,
              adaptive.trace[i].time_minutes);
  }
  if (!adaptive.trace.empty()) {
    EXPECT_LE(adaptive.trace.back().time_minutes, 240.0 + 1e-9);
  }
  EXPECT_GE(adaptive.schedule.exploration_end_minutes,
            adaptive.elapsed_minutes);
}

TEST(SchedulerTest, DeterministicAcrossExecThreads) {
  // Waves are planned sequentially and committed in plan order, so the
  // worker-pool size changes wall-clock only — never results.
  kir::Kernel k = NestedKernel();
  DesignSpace space = tuner::BuildDesignSpace(k);
  tuner::EvalFn eval = HlsEval(k);
  std::vector<DseResult> runs;
  for (int threads : {1, 2, 8}) {
    ExplorerOptions options =
        BaseOptions(SchedulerKind::kAdaptive, StopKind::kEntropy);
    options.exec_threads = threads;
    runs.push_back(RunS2faDse(space, k, eval, options));
  }
  for (std::size_t r = 1; r < runs.size(); ++r) {
    EXPECT_EQ(runs[0].best_cost, runs[r].best_cost);
    EXPECT_EQ(runs[0].evaluations, runs[r].evaluations);
    EXPECT_EQ(runs[0].elapsed_minutes, runs[r].elapsed_minutes);
    ExpectSameTrace(runs[0], runs[r]);
    ASSERT_EQ(runs[0].reclaim_grants.size(), runs[r].reclaim_grants.size());
    for (std::size_t g = 0; g < runs[0].reclaim_grants.size(); ++g) {
      const ReclaimGrant& a = runs[0].reclaim_grants[g];
      const ReclaimGrant& b = runs[r].reclaim_grants[g];
      EXPECT_EQ(a.partition, b.partition);
      EXPECT_EQ(a.core, b.core);
      EXPECT_EQ(a.start_minutes, b.start_minutes);
      EXPECT_EQ(a.used_minutes, b.used_minutes);
      EXPECT_EQ(a.finished, b.finished);
    }
  }
}

TEST(SchedulerTest, FcfsClipAccountingConsistent) {
  // End-to-end form of the two clip bugfixes: under truncation the run's
  // evaluation total is the sum of commits inside each granted span, and
  // every clipped (cost, config) pair comes from one improvement record.
  kir::Kernel k = NestedKernel();
  DesignSpace space = tuner::BuildDesignSpace(k);
  tuner::EvalFn eval = HlsEval(k);
  ExplorerOptions options;
  options.time_limit_minutes = 60;  // tight budget forces truncation
  options.num_cores = 1;
  options.seed = 21;
  options.scheduler = SchedulerKind::kFcfs;
  DseResult r = RunS2faDse(space, k, eval, options);

  std::size_t span_evals = 0;
  for (const PartitionOutcome& p : r.partitions) {
    if (!p.scheduled) {
      EXPECT_EQ(p.clipped_evaluations, 0u);
      continue;
    }
    span_evals += p.clipped_evaluations;
    if (!std::isfinite(p.clipped_best_cost)) continue;
    bool pair_exists = false;
    const double span = p.end_minutes - p.start_minutes;
    for (const tuner::BestUpdate& up : p.result.improvements) {
      if (up.time_minutes <= span + 1e-9 &&
          up.cost == p.clipped_best_cost &&
          up.config == p.clipped_best_config) {
        pair_exists = true;
        break;
      }
    }
    EXPECT_TRUE(pair_exists) << p.description;
  }
  EXPECT_EQ(r.evaluations, span_evals);
}

TEST(SchedulerTest, AdaptiveTruncatedJournalResumeMatches) {
  // A mid-run kill under the adaptive scheduler: resuming from a journal
  // prefix reproduces the uninterrupted result (the repaid-call count is
  // cache-dependent here — see dse_test for the exact FCFS accounting).
  kir::Kernel k = NestedKernel();
  DesignSpace space = tuner::BuildDesignSpace(k);
  tuner::EvalFn eval = HlsEval(k);

  // Unique per process: the plain and sanitized builds of this test run
  // concurrently under ctest and share TempDir.
  const std::string path = testing::TempDir() + "s2fa_sched_journal_prefix." +
                           std::to_string(::getpid()) + ".jsonl";
  std::remove(path.c_str());
  ExplorerOptions options;
  options.time_limit_minutes = 120;
  options.seed = 3;
  options.journal_path = path;
  options.scheduler = SchedulerKind::kAdaptive;
  DseResult first = RunS2faDse(space, k, eval, options);

  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), first.journal_entries);
  const std::size_t kept = lines.size() / 2;
  {
    std::ofstream out(path, std::ios::trunc);
    for (std::size_t i = 0; i < kept; ++i) out << lines[i] << '\n';
  }

  DseResult resumed = RunS2faDse(space, k, eval, options);
  EXPECT_EQ(resumed.journal_resumed, kept);
  EXPECT_EQ(resumed.best_cost, first.best_cost);
  EXPECT_EQ(resumed.elapsed_minutes, first.elapsed_minutes);
  EXPECT_EQ(resumed.evaluations, first.evaluations);
  EXPECT_EQ(resumed.schedule.grants, first.schedule.grants);
  ExpectSameTrace(resumed, first);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace s2fa::dse
