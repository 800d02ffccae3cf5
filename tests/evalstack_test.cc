// The evaluation stack of dse::EvalStack (journal -> resilience -> fault
// plan -> raw evaluator), driven through RunS2faDse and
// RunVanillaOpenTuner with a counting evaluator: without a journal every
// proposal reaches its scope's guard and the black box once, a fresh
// journal changes none of that, a resumed run is answered by the journal
// alone, and partitions on several exec threads make the same calls as on
// one.
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

// A deterministic black box that counts its calls and the distinct
// configs it was asked for. Each point charges its own synthesis minutes,
// so the simulated clock depends on which points were evaluated.
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
      return out;
    };
  }

  std::size_t calls() const { return calls_.load(); }
  std::size_t distinct() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return seen_.size();
  }

 private:
  std::atomic<std::size_t> calls_{0};
  mutable std::mutex mutex_;
  std::set<std::string> seen_;
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

// Several partitions over the 144-point space, 40 training samples.
ExplorerOptions PartitionedOptions() {
  ExplorerOptions options;
  options.time_limit_minutes = 240;
  options.num_cores = 4;
  options.seed = 3;
  options.training_samples = 40;
  return options;
}

// Every proposal, a repeat included, goes through its scope's guard to the
// black box exactly once, so raw calls equal the guards' summed calls. For
// S2FA those are the training samples plus every evaluation the partition
// tunings committed (FCFS, so no reclaim session runs beside them). A
// vanilla run over 12 points proposes far more than 12 and pays each
// repeat again.
TEST(EvalStackTest, EveryProposalReachesTheGuardOnce) {
  const kir::Kernel kernel = TwoLoopKernel();
  ExplorerOptions options = PartitionedOptions();
  options.scheduler = SchedulerKind::kFcfs;
  CountingEval eval;
  const DseResult s2fa =
      RunS2faDse(SmallSpace(/*wide=*/true), kernel, eval.Fn(), options);

  ASSERT_GT(s2fa.partitions.size(), 1u);
  std::size_t tuned = 0;
  for (const PartitionOutcome& partition : s2fa.partitions) {
    tuned += partition.result.evaluations;
  }
  EXPECT_EQ(eval.calls(), s2fa.resilience.calls);
  EXPECT_EQ(s2fa.resilience.calls,
            static_cast<std::size_t>(options.training_samples) + tuned);

  CountingEval vanilla_eval;
  const DseResult vanilla =
      RunVanillaOpenTuner(SmallSpace(), vanilla_eval.Fn(), VanillaOptions());
  EXPECT_EQ(vanilla_eval.calls(), vanilla.resilience.calls);
  EXPECT_EQ(vanilla.resilience.calls, vanilla.evaluations);
  EXPECT_GT(vanilla_eval.calls(), vanilla_eval.distinct());
}

// A fresh journal only records: under injected faults, a journaled run
// makes the same guard calls, retries and raw calls as an unjournaled one
// and reaches the same result. (A journal that answered repeat proposals
// from this run's own records would skip their guard calls.)
TEST(EvalStackTest, FreshJournalChangesNoGuardCall) {
  const std::string path = ::testing::TempDir() + "/evalstack_fresh." +
                           std::to_string(::getpid()) + ".jsonl";
  std::remove(path.c_str());
  const kir::Kernel kernel = TwoLoopKernel();
  const DesignSpace space = SmallSpace(/*wide=*/true);
  ExplorerOptions options = PartitionedOptions();
  options.faults.crash_rate = 0.1;
  options.faults.timeout_rate = 0.1;
  options.faults.garbage_rate = 0.1;

  CountingEval plain_eval;
  const DseResult plain = RunS2faDse(space, kernel, plain_eval.Fn(), options);
  options.journal_path = path;
  CountingEval journaled_eval;
  const DseResult journaled =
      RunS2faDse(space, kernel, journaled_eval.Fn(), options);

  ExpectSameTrajectory(plain, journaled);
  EXPECT_EQ(journaled.journal_hits, 0u);
  EXPECT_EQ(plain_eval.calls(), journaled_eval.calls());
  const resilience::ResilienceStats& a = plain.resilience;
  const resilience::ResilienceStats& b = journaled.resilience;
  EXPECT_GT(a.retries, 0u);
  EXPECT_EQ(a.calls, b.calls);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.garbage, b.garbage);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.exhausted, b.exhausted);
  EXPECT_EQ(a.breaker_trips, b.breaker_trips);
  EXPECT_EQ(a.short_circuits, b.short_circuits);
  EXPECT_EQ(a.backoff_minutes, b.backoff_minutes);
  std::remove(path.c_str());
}

// A run resumed from a complete journal is answered by the journal alone:
// the same trajectory, and not one raw call.
TEST(EvalStackTest, JournalResumeMakesNoRawCall) {
  const std::string path = ::testing::TempDir() + "/evalstack_journal." +
                           std::to_string(::getpid()) + ".jsonl";
  std::remove(path.c_str());
  const DesignSpace space = SmallSpace();
  ExplorerOptions options = VanillaOptions();
  options.journal_path = path;

  CountingEval first_eval;
  const DseResult first =
      RunVanillaOpenTuner(space, first_eval.Fn(), options);
  EXPECT_GT(first_eval.calls(), 0u);
  EXPECT_GT(first.journal_entries, 0u);

  CountingEval resumed_eval;
  const DseResult resumed =
      RunVanillaOpenTuner(space, resumed_eval.Fn(), options);
  ExpectSameTrajectory(first, resumed);
  EXPECT_EQ(resumed.journal_resumed, first.journal_entries);
  EXPECT_GT(resumed.journal_hits, 0u);
  EXPECT_EQ(resumed_eval.calls(), 0u);
  std::remove(path.c_str());
}

// Partitions and reclaim sessions tuned on 4 exec threads call the black
// box concurrently (the TSan twin instruments exactly this): the
// trajectory and the raw-call count match a one-thread run.
TEST(EvalStackTest, MultiPartitionExploreMatchesAcrossExecThreads) {
  const kir::Kernel kernel = TwoLoopKernel();
  const DesignSpace space = SmallSpace(/*wide=*/true);
  ExplorerOptions options = PartitionedOptions();

  options.exec_threads = 1;
  CountingEval one_eval;
  const DseResult one = RunS2faDse(space, kernel, one_eval.Fn(), options);
  options.exec_threads = 4;
  CountingEval four_eval;
  const DseResult four = RunS2faDse(space, kernel, four_eval.Fn(), options);

  ASSERT_GT(four.partitions.size(), 1u);
  ExpectSameTrajectory(one, four);
  EXPECT_EQ(one_eval.calls(), four_eval.calls());
  EXPECT_EQ(four_eval.calls(), four.resilience.calls);
}

}  // namespace
}  // namespace s2fa::dse
