// The evaluation memo of dse::EvalStack, driven through RunS2faDse and
// RunVanillaOpenTuner with a counting evaluator: what a hit replays, what
// it skips, where it sits beside the journal, and that partitions running
// on several exec threads share it without changing a count.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <mutex>
#include <set>
#include <string>

#include "dse/explorer.h"

namespace s2fa::dse {
namespace {

using kir::BinaryOp;
using kir::Expr;
using kir::Stmt;
using kir::Type;
using tuner::DesignSpace;
using tuner::EvalOutcome;
using tuner::FactorKind;

// Two nested loops: out[i] = sum_j in[i*8+j]. Only its loop tree matters
// here (the partition trainer ranks rule factors by loop depth).
kir::Kernel TwoLoopKernel() {
  kir::Kernel k;
  k.name = "two_loops";
  k.buffers.push_back(
      {"in", Type::Float(), 64, kir::BufferKind::kInput, ""});
  k.buffers.push_back(
      {"out", Type::Float(), 8, kir::BufferKind::kOutput, ""});
  auto i = Expr::Var("i", Type::Int());
  auto j = Expr::Var("j", Type::Int());
  auto acc = Expr::Var("acc", Type::Float());
  auto index = Expr::Binary(
      BinaryOp::kAdd, Expr::Binary(BinaryOp::kMul, i, Expr::IntLit(8)), j);
  auto inner = Stmt::For(
      1, "j", 8,
      Stmt::Block({Stmt::Assign(
          acc, Expr::Binary(BinaryOp::kAdd, acc,
                            Expr::ArrayRef("in", Type::Float(), index)))}));
  inner->set_is_reduction(true);
  auto outer = Stmt::For(
      0, "i", 8,
      Stmt::Block({Stmt::Decl("acc", Type::Float(), Expr::FloatLit(0.0f)),
                   inner,
                   Stmt::Assign(Expr::ArrayRef("out", Type::Float(), i),
                                acc)}));
  outer->set_inserted_by_template(true);
  k.body = Stmt::Block({outer});
  k.task_loop_id = 0;
  return k;
}

// The outer loop's pipeline mode x the inner loop's parallel factor (12
// points); `wide` adds the inner tile and the input width (144 points).
DesignSpace SmallSpace(bool wide = false) {
  DesignSpace space;
  space.factors.push_back(
      {"L0.pipeline", FactorKind::kLoopPipeline, 0, "", {0, 1, 2}});
  space.factors.push_back(
      {"L1.parallel", FactorKind::kLoopParallel, 1, "", {1, 2, 4, 8}});
  if (wide) {
    space.factors.push_back(
        {"L1.tile", FactorKind::kLoopTile, 1, "", {1, 2, 4, 8}});
    space.factors.push_back(
        {"in.bits", FactorKind::kBufferBits, -1, "in", {32, 64, 128}});
  }
  return space;
}

// A deterministic black box that counts its calls, the distinct configs
// it was asked for and the minutes it charged. Each point charges its own
// synthesis minutes, so a replayed outcome shows on the simulated clock.
class CountingEval {
 public:
  tuner::EvalFn Fn() {
    return [this](const merlin::DesignConfig& config) {
      ++calls_;
      const merlin::LoopConfig& outer = config.loops.at(0);
      const merlin::LoopConfig& inner = config.loops.at(1);
      const auto bits = config.buffer_bits.find("in");
      const double width =
          bits == config.buffer_bits.end() ? 1.0 : bits->second / 32.0;
      EvalOutcome out;
      out.feasible = true;
      out.cost = 1000.0 / static_cast<double>(inner.parallel) /
                     (1.0 + static_cast<int>(outer.pipeline)) /
                     (width * static_cast<double>(inner.tile)) +
                 static_cast<double>(inner.parallel * inner.tile);
      out.eval_minutes = 3.0 + static_cast<double>(inner.parallel) +
                         0.5 * static_cast<int>(outer.pipeline);
      std::lock_guard<std::mutex> lock(mutex_);
      seen_.insert(config.ToString());
      minutes_ += out.eval_minutes;
      return out;
    };
  }

  int calls() const { return calls_.load(); }
  std::size_t distinct() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return seen_.size();
  }
  // Synthesis minutes charged over all calls (multiples of 0.5, so any
  // summation order is exact).
  double minutes() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return minutes_;
  }

 private:
  std::atomic<int> calls_{0};
  mutable std::mutex mutex_;
  std::set<std::string> seen_;
  double minutes_ = 0;
};

void ExpectSameTrajectory(const DseResult& a, const DseResult& b) {
  EXPECT_EQ(a.best_cost, b.best_cost);
  EXPECT_EQ(a.best_config, b.best_config);
  EXPECT_EQ(a.elapsed_minutes, b.elapsed_minutes);
  EXPECT_EQ(a.evaluations, b.evaluations);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].time_minutes, b.trace[i].time_minutes);
    EXPECT_EQ(a.trace[i].best_cost, b.trace[i].best_cost);
  }
}

ExplorerOptions VanillaOptions() {
  ExplorerOptions options;
  options.time_limit_minutes = 200;
  options.num_cores = 4;
  options.seed = 5;
  return options;
}

// A vanilla run over 12 points proposes far more than 12: every repeat is
// a hit that replays the stored outcome, minutes included, so the clock
// and the trajectory match a memo-off run, and never reaches the guard or
// the fault plan behind it.
TEST(MemoTest, HitReplaysOutcomeAndMinutesWithoutReachingTheGuard) {
  const DesignSpace space = SmallSpace();
  ExplorerOptions options = VanillaOptions();
  CountingEval on_eval;
  const DseResult on = RunVanillaOpenTuner(space, on_eval.Fn(), options);
  options.eval_cache = false;
  CountingEval off_eval;
  const DseResult off = RunVanillaOpenTuner(space, off_eval.Fn(), options);

  ExpectSameTrajectory(on, off);
  const EvalCacheStats& memo = on.cache_stats;
  EXPECT_EQ(memo.lookups, memo.hits + memo.misses);
  EXPECT_EQ(memo.misses, on_eval.distinct());
  EXPECT_EQ(static_cast<std::size_t>(on_eval.calls()), memo.misses);
  EXPECT_GT(memo.hits, memo.misses);
  EXPECT_EQ(static_cast<std::size_t>(off_eval.calls()), memo.lookups);
  // The memo-off run paid again exactly the minutes the hits replayed.
  EXPECT_GT(memo.minutes_saved, 0.0);
  EXPECT_EQ(memo.minutes_saved, off_eval.minutes() - on_eval.minutes());
  // Only misses reach the guard; the memo-off run's guard sees every
  // lookup.
  EXPECT_EQ(on.resilience.calls, memo.misses);
  EXPECT_EQ(off.resilience.calls, memo.lookups);

  // With injected crashes the guard still sees misses alone: hits skip
  // the fault plan as well.
  options.eval_cache = true;
  options.faults.crash_rate = 0.2;
  options.faults.seed = 17;
  CountingEval faulty_eval;
  const DseResult faulty =
      RunVanillaOpenTuner(space, faulty_eval.Fn(), options);
  EXPECT_GT(faulty.cache_stats.hits, 0u);
  EXPECT_GT(faulty.resilience.crashes, 0u);
  EXPECT_EQ(faulty.resilience.calls, faulty.cache_stats.misses);
}

TEST(MemoTest, OffIsAPassThrough) {
  const DesignSpace space = SmallSpace();
  ExplorerOptions options = VanillaOptions();
  options.eval_cache = false;
  CountingEval eval;
  const DseResult result = RunVanillaOpenTuner(space, eval.Fn(), options);

  const EvalCacheStats& memo = result.cache_stats;
  EXPECT_EQ(memo.lookups, 0u);
  EXPECT_EQ(memo.hits, 0u);
  EXPECT_EQ(memo.misses, 0u);
  EXPECT_EQ(memo.minutes_saved, 0.0);
  EXPECT_EQ(static_cast<std::size_t>(eval.calls()), result.resilience.calls);
  EXPECT_GT(static_cast<std::size_t>(eval.calls()), eval.distinct());
}

// Journal -> memo: a resumed run is answered by the journal alone, and a
// fresh memo behind it sees no lookup.
TEST(MemoTest, JournalHitNeverTouchesTheMemo) {
  const std::string path = ::testing::TempDir() + "/memo_journal." +
                           std::to_string(::getpid()) + ".jsonl";
  std::remove(path.c_str());
  const DesignSpace space = SmallSpace();
  ExplorerOptions options = VanillaOptions();
  options.journal_path = path;

  CountingEval first_eval;
  const DseResult first =
      RunVanillaOpenTuner(space, first_eval.Fn(), options);
  EXPECT_GT(first.cache_stats.misses, 0u);
  EXPECT_GT(first.journal_entries, 0u);

  CountingEval resumed_eval;
  const DseResult resumed =
      RunVanillaOpenTuner(space, resumed_eval.Fn(), options);
  ExpectSameTrajectory(first, resumed);
  EXPECT_EQ(resumed.journal_resumed, first.journal_entries);
  EXPECT_GT(resumed.journal_hits, 0u);
  EXPECT_EQ(resumed.cache_stats.lookups, 0u);
  EXPECT_EQ(resumed_eval.calls(), 0);
  std::remove(path.c_str());
}

// 320 training samples cover all 12 points, so every point a partition
// proposes was trained on: each partition's lookups all hit, and its guard
// is never called.
TEST(MemoTest, TrainingSampleReProposedByAPartitionHits) {
  const kir::Kernel kernel = TwoLoopKernel();
  const DesignSpace space = SmallSpace();
  ExplorerOptions options;
  options.time_limit_minutes = 120;
  options.num_cores = 4;
  options.exec_threads = 4;
  options.seed = 9;
  CountingEval eval;
  const DseResult result = RunS2faDse(space, kernel, eval.Fn(), options);

  ASSERT_GT(result.partitions.size(), 1u);
  EXPECT_EQ(eval.distinct(), 12u);
  EXPECT_EQ(static_cast<std::size_t>(eval.calls()), 12u);
  EXPECT_EQ(result.cache_stats.misses, 12u);
  EXPECT_EQ(result.resilience.calls, 12u);  // the training scope's misses
  std::size_t tuned = 0;
  for (const PartitionOutcome& partition : result.partitions) {
    EXPECT_EQ(partition.resilience.calls, 0u) << partition.description;
    tuned += partition.result.evaluations;
  }
  EXPECT_GT(tuned, 0u);
  EXPECT_EQ(result.cache_stats.hits,
            result.cache_stats.lookups - result.cache_stats.misses);
  EXPECT_GE(result.cache_stats.hits,
            static_cast<std::size_t>(options.training_samples) - 12u + tuned);
}

// Partitions tuned on 4 exec threads miss and store concurrently (the
// sanitized twins instrument exactly this); the counts and the trajectory
// match a one-thread run, and every distinct point is paid once.
TEST(MemoTest, MultiPartitionExploreMatchesAcrossExecThreads) {
  const kir::Kernel kernel = TwoLoopKernel();
  const DesignSpace space = SmallSpace(/*wide=*/true);
  ExplorerOptions options;
  options.time_limit_minutes = 240;
  options.num_cores = 4;
  options.seed = 3;
  options.training_samples = 40;

  options.exec_threads = 1;
  CountingEval one_eval;
  const DseResult one = RunS2faDse(space, kernel, one_eval.Fn(), options);
  options.exec_threads = 4;
  CountingEval four_eval;
  const DseResult four = RunS2faDse(space, kernel, four_eval.Fn(), options);

  ASSERT_GT(four.partitions.size(), 1u);
  ExpectSameTrajectory(one, four);
  EXPECT_EQ(one.cache_stats.lookups, four.cache_stats.lookups);
  EXPECT_EQ(one.cache_stats.hits, four.cache_stats.hits);
  EXPECT_EQ(one.cache_stats.misses, four.cache_stats.misses);
  EXPECT_GT(four.cache_stats.hits, 0u);
  EXPECT_EQ(static_cast<std::size_t>(four_eval.calls()),
            four.cache_stats.misses);
  EXPECT_EQ(four_eval.distinct(), four.cache_stats.misses);
}

}  // namespace
}  // namespace s2fa::dse
