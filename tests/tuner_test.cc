#include <gtest/gtest.h>

#include <cmath>

#include "kir/kernel.h"
#include "tuner/bandit.h"
#include "tuner/driver.h"
#include "tuner/space.h"

namespace s2fa::tuner {
namespace {

using kir::BinaryOp;
using kir::BufferKind;
using kir::Expr;
using kir::Stmt;
using kir::Type;

// A two-loop kernel to build a realistic space from.
kir::Kernel TwoLoopKernel() {
  kir::Kernel k;
  k.name = "two";
  k.buffers.push_back({"in", Type::Float(), 256, BufferKind::kInput, ""});
  k.buffers.push_back({"out", Type::Float(), 16, BufferKind::kOutput, ""});
  auto i = Expr::Var("i", Type::Int());
  auto j = Expr::Var("j", Type::Int());
  auto acc = Expr::Var("acc", Type::Float());
  auto inner = Stmt::For(
      1, "j", 16,
      Stmt::Block({Stmt::Assign(
          acc,
          Expr::Binary(BinaryOp::kAdd, acc,
                       Expr::ArrayRef(
                           "in", Type::Float(),
                           Expr::Binary(BinaryOp::kAdd,
                                        Expr::Binary(BinaryOp::kMul, i,
                                                     Expr::IntLit(16)),
                                        j))))}));
  auto outer = Stmt::For(
      0, "i", 16,
      Stmt::Block({Stmt::Decl("acc", Type::Float(), Expr::FloatLit(0.0f)),
                   inner,
                   Stmt::Assign(Expr::ArrayRef("out", Type::Float(), i),
                                acc)}));
  k.body = Stmt::Block({outer});
  k.task_loop_id = 0;
  return k;
}

// Synthetic separable objective: each coordinate contributes its squared
// distance from a target index; one global optimum.
struct SyntheticObjective {
  const DesignSpace* space;
  Point target;
  mutable int calls = 0;

  EvalOutcome operator()(const merlin::DesignConfig&) const {
    // The driver only hands us configs; for the synthetic objective we
    // reconstruct nothing — instead tests use EvalAt directly.
    return {};
  }
};

// ----------------------------------------------------------------- space

TEST(SpaceTest, BuildsTableOneFactors) {
  DesignSpace space = BuildDesignSpace(TwoLoopKernel());
  // Two loops x {tile, parallel, pipeline} + two buffers x bits = 8.
  EXPECT_EQ(space.num_factors(), 8u);
  EXPECT_NO_THROW(space.FactorIndex("L0.tile"));
  EXPECT_NO_THROW(space.FactorIndex("L1.parallel"));
  EXPECT_NO_THROW(space.FactorIndex("in.bits"));
  EXPECT_THROW(space.FactorIndex("bogus"), InvalidArgument);
  // The error names the factors that do exist, so a typo is self-diagnosing.
  try {
    space.FactorIndex("bogus");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no factor named bogus"), std::string::npos) << what;
    EXPECT_NE(what.find("available factors:"), std::string::npos) << what;
    EXPECT_NE(what.find("L0.tile"), std::string::npos) << what;
    EXPECT_NE(what.find("in.bits"), std::string::npos) << what;
  }
}

TEST(SpaceTest, ParallelValuesArePowersOfTwoPlusTrip) {
  DesignSpace space = BuildDesignSpace(TwoLoopKernel());
  const Factor& f = space.factors[space.FactorIndex("L0.parallel")];
  std::vector<std::int64_t> expect{1, 2, 4, 8, 16};
  EXPECT_EQ(f.values, expect);
}

TEST(SpaceTest, BitValuesStartAtElementWidth) {
  DesignSpace space = BuildDesignSpace(TwoLoopKernel());
  const Factor& f = space.factors[space.FactorIndex("in.bits")];
  EXPECT_EQ(f.values.front(), 32);
  EXPECT_EQ(f.values.back(), 512);
}

TEST(SpaceTest, CardinalityIsProductOfFactorSizes) {
  DesignSpace space = BuildDesignSpace(TwoLoopKernel());
  double log10 = 0;
  for (const auto& f : space.factors) {
    log10 += std::log10(static_cast<double>(f.values.size()));
  }
  EXPECT_DOUBLE_EQ(space.Log10Cardinality(), log10);
  EXPECT_GT(space.Log10Cardinality(), 4.0);  // thousands of points at least
}

TEST(SpaceTest, RandomPointsAreValidAndVaried) {
  DesignSpace space = BuildDesignSpace(TwoLoopKernel());
  Rng rng(5);
  Point a = space.RandomPoint(rng);
  space.ValidatePoint(a);
  bool varied = false;
  for (int i = 0; i < 20; ++i) {
    if (space.RandomPoint(rng) != a) varied = true;
  }
  EXPECT_TRUE(varied);
}

TEST(SpaceTest, MutationChangesBoundedCoordinates) {
  DesignSpace space = BuildDesignSpace(TwoLoopKernel());
  Rng rng(7);
  Point p = space.RandomPoint(rng);
  Point q = space.Mutate(p, rng, 2);
  space.ValidatePoint(q);
  int diff = 0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (p[i] != q[i]) ++diff;
  }
  EXPECT_LE(diff, 2);
}

TEST(SpaceTest, ToConfigRoundTripsFactors) {
  DesignSpace space = BuildDesignSpace(TwoLoopKernel());
  Point p(space.num_factors(), 0);
  p[space.FactorIndex("L0.parallel")] = 2;  // value 4
  p[space.FactorIndex("L0.pipeline")] = 1;  // on
  p[space.FactorIndex("in.bits")] = 3;      // 256
  merlin::DesignConfig cfg = space.ToConfig(p);
  EXPECT_EQ(cfg.loops.at(0).parallel, 4);
  EXPECT_EQ(cfg.loops.at(0).pipeline, merlin::PipelineMode::kOn);
  EXPECT_EQ(cfg.buffer_bits.at("in"), 256);
}

// ------------------------------------------------------------ techniques

// Evaluates the synthetic objective at a point.
double CostAt(const DesignSpace& space, const Point& target,
              const Point& p) {
  double cost = 1.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    double d = static_cast<double>(p[i]) - static_cast<double>(target[i]);
    cost += d * d;
    (void)space;
  }
  return cost;
}

class TechniqueConvergence : public ::testing::TestWithParam<int> {};

TEST_P(TechniqueConvergence, AllTechniquesImproveOnRandom) {
  DesignSpace space = BuildDesignSpace(TwoLoopKernel());
  Rng trng(static_cast<std::uint64_t>(GetParam()));
  Point target = space.RandomPoint(trng);

  auto techniques = DefaultTechniques(&space, 17);
  for (auto& tech : techniques) {
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 131 + 5);
    double first_cost = -1;
    double best = 1e100;
    for (int iter = 0; iter < 300; ++iter) {
      Point p = tech->Propose(rng);
      double cost = CostAt(space, target, p);
      if (first_cost < 0) first_cost = cost;
      best = std::min(best, cost);
      tech->Report(p, cost, /*feasible=*/true);
    }
    // Each technique must find something better than its first draw (and
    // get near the optimum for this small space).
    EXPECT_LE(best, first_cost) << tech->name();
    EXPECT_LT(best, 30.0) << tech->name();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TechniqueConvergence, ::testing::Range(1, 6));

TEST(TechniqueTest, GreedyMutationStartsRandomWithoutBest) {
  DesignSpace space = BuildDesignSpace(TwoLoopKernel());
  UniformGreedyMutation greedy(&space);
  Rng rng(3);
  Point p = greedy.Propose(rng);
  space.ValidatePoint(p);
}

TEST(TechniqueTest, InfeasibleReportsNeverBecomeBest) {
  DesignSpace space = BuildDesignSpace(TwoLoopKernel());
  UniformGreedyMutation greedy(&space);
  Rng rng(3);
  Point p = greedy.Propose(rng);
  greedy.Report(p, kInfeasibleCost, /*feasible=*/false);
  // Next proposal is still random (no best recorded): just must be valid.
  space.ValidatePoint(greedy.Propose(rng));
}

TEST(TechniqueTest, SimulatedAnnealingAnchorsOnBetterPoints) {
  DesignSpace space = BuildDesignSpace(TwoLoopKernel());
  SimulatedAnnealing sa(&space, /*seed=*/5);
  Rng rng(3);
  Point p = space.RandomPoint(rng);
  sa.Report(p, 50.0, true);
  Point q = space.Mutate(p, rng, 1);
  sa.Report(q, 10.0, true);  // strictly better: always becomes current
  // Proposals are single mutations of the current point.
  Point proposal = sa.Propose(rng);
  int diff = 0;
  for (std::size_t i = 0; i < proposal.size(); ++i) {
    if (proposal[i] != q[i]) ++diff;
  }
  EXPECT_LE(diff, 1);
}

TEST(TechniqueTest, SimulatedAnnealingNeverAdoptsInfeasible) {
  DesignSpace space = BuildDesignSpace(TwoLoopKernel());
  SimulatedAnnealing sa(&space, /*seed=*/5);
  Rng rng(8);
  Point p = space.RandomPoint(rng);
  sa.Report(p, 50.0, true);
  // Flood with infeasible reports; the chain must stay anchored at p.
  for (int i = 0; i < 50; ++i) {
    sa.Report(space.RandomPoint(rng), kInfeasibleCost, false);
  }
  Point proposal = sa.Propose(rng);
  int diff = 0;
  for (std::size_t i = 0; i < proposal.size(); ++i) {
    if (proposal[i] != p[i]) ++diff;
  }
  EXPECT_LE(diff, 1);
}

TEST(TechniqueTest, DifferentialEvolutionFillsPopulationFirst) {
  DesignSpace space = BuildDesignSpace(TwoLoopKernel());
  DifferentialEvolution de(&space, /*population=*/6);
  Rng rng(9);
  // While the population is filling, proposals are uniform random and all
  // reports are absorbed without touching a (nonexistent) worst member.
  for (int i = 0; i < 6; ++i) {
    Point p = de.Propose(rng);
    space.ValidatePoint(p);
    de.Report(p, 100.0 - i, true);
  }
  // Now trials combine members; still valid points.
  for (int i = 0; i < 20; ++i) {
    Point p = de.Propose(rng);
    space.ValidatePoint(p);
    de.Report(p, 50.0, true);
  }
  SUCCEED();
}

TEST(TechniqueTest, ParticleSwarmHandlesUnmatchedReports) {
  DesignSpace space = BuildDesignSpace(TwoLoopKernel());
  ParticleSwarm pso(&space);
  Rng rng(4);
  // A seed injection reports a point PSO never proposed: must not crash
  // and must still update the global best.
  Point seed = space.RandomPoint(rng);
  pso.Report(seed, 1.0, true);
  Point p = pso.Propose(rng);
  space.ValidatePoint(p);
}

TEST(TechniqueTest, SeedWithPrimesEveryTechnique) {
  DesignSpace space = BuildDesignSpace(TwoLoopKernel());
  auto techniques = DefaultTechniques(&space, 3);
  Rng rng(6);
  Point seed(space.num_factors(), 0);
  for (auto& t : techniques) {
    t->SeedWith(seed, 5.0, true);
    // Greedy now mutates the seed: proposals stay near it.
    Point p = t->Propose(rng);
    space.ValidatePoint(p);
  }
}

TEST(BanditTest, WindowForgetsStaleSuccesses) {
  DesignSpace space = BuildDesignSpace(TwoLoopKernel());
  AucBandit bandit(DefaultTechniques(&space, 1), /*exploration=*/0.0,
                   /*window=*/10);
  Rng rng(2);
  // Arm 0: early hits, then a long dry streak longer than the window.
  for (std::size_t t = 0; t < bandit.num_techniques(); ++t) {
    bandit.ReportOutcome(t, false);  // prime all arms
  }
  for (int i = 0; i < 5; ++i) bandit.ReportOutcome(0, true);
  double auc_hot = bandit.AucOf(0);
  for (int i = 0; i < 15; ++i) bandit.ReportOutcome(0, false);
  double auc_cold = bandit.AucOf(0);
  EXPECT_GT(auc_hot, auc_cold);
  EXPECT_EQ(auc_cold, 0.0);  // hits have left the window entirely
}

TEST(DriverTest, HomogeneousBatchesComeFromOneTechnique) {
  // Indirect check: with homogeneous batches and a single-iteration run,
  // the tuner still functions and produces `parallel` evaluations.
  DesignSpace space = BuildDesignSpace(TwoLoopKernel());
  int calls = 0;
  auto eval = [&](const merlin::DesignConfig&) -> EvalOutcome {
    ++calls;
    return {true, 10.0, 50.0};
  };
  TuneOptions options;
  options.time_limit_minutes = 50;  // exactly one batch
  options.parallel = 8;
  options.homogeneous_batches = true;
  TuneResult r = Tune(space, eval, options);
  EXPECT_EQ(calls, 8);
  EXPECT_TRUE(r.found_feasible);
}

// ---------------------------------------------------------------- bandit

TEST(BanditTest, PrefersProductiveTechnique) {
  DesignSpace space = BuildDesignSpace(TwoLoopKernel());
  AucBandit bandit(DefaultTechniques(&space, 1));
  Rng rng(9);
  // Feed outcomes: technique 2 always produces new bests, others never.
  for (int round = 0; round < 100; ++round) {
    std::size_t t = bandit.Select(rng);
    bandit.ReportOutcome(t, t == 2);
  }
  // After warmup, technique 2 must dominate usage.
  std::size_t uses2 = bandit.UsesOf(2);
  for (std::size_t t = 0; t < bandit.num_techniques(); ++t) {
    if (t != 2) EXPECT_GT(uses2, bandit.UsesOf(t));
  }
  EXPECT_GT(bandit.AucOf(2), bandit.AucOf(0));
}

TEST(BanditTest, AllArmsTriedFirst) {
  DesignSpace space = BuildDesignSpace(TwoLoopKernel());
  AucBandit bandit(DefaultTechniques(&space, 1));
  Rng rng(4);
  std::set<std::size_t> seen;
  for (std::size_t i = 0; i < bandit.num_techniques(); ++i) {
    std::size_t t = bandit.Select(rng);
    EXPECT_EQ(seen.count(t), 0u);
    seen.insert(t);
    bandit.ReportOutcome(t, false);
  }
  EXPECT_EQ(seen.size(), bandit.num_techniques());
}

// ---------------------------------------------------------------- driver

TEST(DriverTest, FindsGoodPointOnSyntheticObjective) {
  DesignSpace space = BuildDesignSpace(TwoLoopKernel());
  Rng trng(77);
  Point target = space.RandomPoint(trng);
  // Encode the synthetic objective through the config: rebuild the point
  // from the config by scanning factor values.
  auto eval = [&](const merlin::DesignConfig& cfg) -> EvalOutcome {
    Point p(space.num_factors(), 0);
    for (std::size_t i = 0; i < space.num_factors(); ++i) {
      const Factor& f = space.factors[i];
      std::int64_t value = 0;
      switch (f.kind) {
        case FactorKind::kLoopTile: value = cfg.loops.at(f.loop_id).tile; break;
        case FactorKind::kLoopParallel:
          value = cfg.loops.at(f.loop_id).parallel;
          break;
        case FactorKind::kLoopPipeline:
          value = static_cast<std::int64_t>(cfg.loops.at(f.loop_id).pipeline);
          break;
        case FactorKind::kBufferBits:
          value = cfg.buffer_bits.at(f.buffer);
          break;
      }
      for (std::size_t v = 0; v < f.values.size(); ++v) {
        if (f.values[v] == value) p[i] = v;
      }
    }
    EvalOutcome outcome;
    outcome.feasible = true;
    outcome.cost = CostAt(space, target, p);
    outcome.eval_minutes = 5.0;
    return outcome;
  };

  TuneOptions options;
  options.time_limit_minutes = 600;
  options.parallel = 8;
  options.seed = 42;
  TuneResult result = Tune(space, eval, options);
  EXPECT_TRUE(result.found_feasible);
  EXPECT_LT(result.best_cost, 5.0);  // near the optimum
  EXPECT_EQ(result.stop_reason, "time limit");
  EXPECT_GT(result.evaluations, 100u);
  EXPECT_LE(result.elapsed_minutes, 600.0);
}

TEST(DriverTest, ClockAdvancesByBatchMax) {
  DesignSpace space = BuildDesignSpace(TwoLoopKernel());
  int calls = 0;
  auto eval = [&](const merlin::DesignConfig&) -> EvalOutcome {
    ++calls;
    return {true, 100.0, 10.0};
  };
  TuneOptions options;
  options.time_limit_minutes = 100;  // 10 batches of 10 minutes
  options.parallel = 8;
  TuneResult result = Tune(space, eval, options);
  EXPECT_EQ(calls, 10 * 8);
  EXPECT_EQ(result.evaluations, 80u);
}

TEST(DriverTest, ZeroMinuteBatchThrowsInsteadOfSpinning) {
  // An evaluation that charges no simulated time would never move the
  // clock toward the limit.
  DesignSpace space = BuildDesignSpace(TwoLoopKernel());
  auto eval = [](const merlin::DesignConfig&) -> EvalOutcome {
    return {true, 100.0, 0.0};
  };
  TuneOptions options;
  options.time_limit_minutes = 60;
  EXPECT_THROW(Tune(space, eval, options), InvalidArgument);
}

TEST(DriverTest, SeedsEvaluatedFirstAndUsed) {
  DesignSpace space = BuildDesignSpace(TwoLoopKernel());
  Point magic(space.num_factors(), 0);
  bool first = true;
  bool seed_was_first = false;
  auto eval = [&](const merlin::DesignConfig& cfg) -> EvalOutcome {
    bool is_magic = cfg.buffer_bits.at("in") == 32 &&
                    cfg.loops.at(0).parallel == 1;
    if (first) {
      seed_was_first = is_magic;
      first = false;
    }
    // The magic (all-zero-index) point is the global optimum.
    return {true, is_magic ? 1.0 : 50.0, 5.0};
  };
  TuneOptions options;
  options.time_limit_minutes = 60;
  options.seeds.push_back({magic, "area-driven"});
  TuneResult result = Tune(space, eval, options);
  EXPECT_TRUE(seed_was_first);
  EXPECT_DOUBLE_EQ(result.best_cost, 1.0);
}

TEST(DriverTest, CustomStopCriterionFires) {
  DesignSpace space = BuildDesignSpace(TwoLoopKernel());
  auto eval = [](const merlin::DesignConfig&) -> EvalOutcome {
    return {true, 10.0, 5.0};
  };
  TuneOptions options;
  options.time_limit_minutes = 10000;
  options.should_stop = [](const ResultDatabase& db) {
    return db.size() >= 24;
  };
  options.stop_reason_label = "entropy criterion";
  TuneResult result = Tune(space, eval, options);
  EXPECT_EQ(result.stop_reason, "entropy criterion");
  EXPECT_EQ(result.evaluations, 24u);
}

TEST(DriverTest, DeterministicForSameSeed) {
  DesignSpace space = BuildDesignSpace(TwoLoopKernel());
  auto eval = [&](const merlin::DesignConfig& cfg) -> EvalOutcome {
    double c = 10.0 + static_cast<double>(cfg.loops.at(0).parallel) +
               static_cast<double>(cfg.buffer_bits.at("in")) / 64.0;
    return {true, c, 5.0};
  };
  TuneOptions options;
  options.time_limit_minutes = 60;
  options.seed = 12345;
  TuneResult a = Tune(space, eval, options);
  TuneResult b = Tune(space, eval, options);
  EXPECT_EQ(a.best, b.best);
  EXPECT_EQ(a.best_cost, b.best_cost);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

TEST(DriverTest, FinalBatchClampedToTimeLimit) {
  // The last batch may finish past the budget; its evaluations stay in
  // the database, but the reported best/trace cannot claim an improvement
  // found after the limit.
  DesignSpace space = BuildDesignSpace(TwoLoopKernel());
  int calls = 0;
  auto eval = [&](const merlin::DesignConfig&) -> EvalOutcome {
    ++calls;  // strictly improving: every evaluation is a new best
    return {true, 1000.0 - calls, 10.0};
  };
  TuneOptions options;
  options.time_limit_minutes = 95;  // batches land at 10, 20, ..., 100
  options.parallel = 1;
  TuneResult result = Tune(space, eval, options);

  EXPECT_EQ(calls, 10);                     // the overshoot batch DID run
  EXPECT_EQ(result.evaluations, 10u);       // and is accounted for
  EXPECT_DOUBLE_EQ(result.best_cost, 991.0);  // ...but t=100's 990 is not
                                              // claimed as the best
  EXPECT_DOUBLE_EQ(result.elapsed_minutes, 95.0);
  ASSERT_FALSE(result.trace.empty());
  for (const auto& tp : result.trace) {
    EXPECT_LE(tp.time_minutes, 95.0);
  }
}

TEST(DriverTest, RunEntirelyPastLimitReportsNoBest) {
  // Degenerate clamp: the only evaluation lands past the budget, so the
  // run cannot claim it.
  DesignSpace space = BuildDesignSpace(TwoLoopKernel());
  auto eval = [](const merlin::DesignConfig&) -> EvalOutcome {
    return {true, 10.0, 100.0};
  };
  TuneOptions options;
  options.time_limit_minutes = 95;
  options.parallel = 1;
  TuneResult result = Tune(space, eval, options);
  EXPECT_FALSE(result.found_feasible);
  EXPECT_TRUE(result.trace.empty());
  EXPECT_DOUBLE_EQ(result.elapsed_minutes, 95.0);
}

TEST(DriverTest, AllInfeasibleRunReportsNoBest) {
  DesignSpace space = BuildDesignSpace(TwoLoopKernel());
  auto eval = [](const merlin::DesignConfig&) -> EvalOutcome {
    return {false, kInfeasibleCost, 5.0};
  };
  TuneOptions options;
  options.time_limit_minutes = 30;
  TuneResult result = Tune(space, eval, options);
  EXPECT_FALSE(result.found_feasible);
}

// -------------------------------------------------------------- sessions

TEST(SessionTest, ChunkedGrantsMatchSingleTune) {
  // The scheduler's contract: RunFor(a); RunFor(b) commits exactly the
  // same evaluation sequence as one RunFor(a + b), so a preempted partition
  // is bit-identical to an uninterrupted one given the same total budget.
  DesignSpace space = BuildDesignSpace(TwoLoopKernel());
  auto eval = [](const merlin::DesignConfig& cfg) -> EvalOutcome {
    double c = 10.0 + static_cast<double>(cfg.loops.at(0).parallel) +
               static_cast<double>(cfg.buffer_bits.at("in")) / 64.0;
    return {true, c, 5.0 + c / 200.0};
  };
  TuneOptions options;
  options.time_limit_minutes = 120;
  options.parallel = 4;
  options.seed = 99;
  TuneResult whole = Tune(space, eval, options);

  TuneSession session(space, eval, options);
  for (double grant : {7.0, 13.0, 40.0, 25.0, 60.0}) {
    session.RunFor(grant);  // grants past the limit are clamped
  }
  EXPECT_TRUE(session.finished());
  TuneResult chunked = session.Result();

  EXPECT_EQ(whole.best, chunked.best);
  EXPECT_EQ(whole.best_cost, chunked.best_cost);
  EXPECT_EQ(whole.evaluations, chunked.evaluations);
  EXPECT_EQ(whole.elapsed_minutes, chunked.elapsed_minutes);
  EXPECT_EQ(whole.stop_reason, chunked.stop_reason);
  ASSERT_EQ(whole.trace.size(), chunked.trace.size());
  for (std::size_t i = 0; i < whole.trace.size(); ++i) {
    EXPECT_EQ(whole.trace[i].time_minutes, chunked.trace[i].time_minutes);
    EXPECT_EQ(whole.trace[i].best_cost, chunked.trace[i].best_cost);
  }
}

TEST(SessionTest, PartialGrantMatchesTighterTimeLimit) {
  // A session paused after 30 granted minutes reports exactly what a tuner
  // whose hard limit was 30 minutes would — only the stop reason differs
  // (the session can still be resumed).
  DesignSpace space = BuildDesignSpace(TwoLoopKernel());
  auto eval = [](const merlin::DesignConfig& cfg) -> EvalOutcome {
    double c = 10.0 + static_cast<double>(cfg.loops.at(0).parallel);
    return {true, c, 5.0};
  };
  TuneOptions options;
  options.time_limit_minutes = 120;
  options.seed = 7;
  TuneSession session(space, eval, options);
  session.RunFor(30.0);
  EXPECT_FALSE(session.finished());
  TuneResult paused = session.Result();
  EXPECT_EQ(paused.stop_reason, "budget exhausted");

  options.time_limit_minutes = 30;
  TuneResult tight = Tune(space, eval, options);
  EXPECT_EQ(paused.best_cost, tight.best_cost);
  EXPECT_EQ(paused.evaluations, tight.evaluations);
  EXPECT_EQ(paused.elapsed_minutes, tight.elapsed_minutes);
}

TEST(SessionTest, HistoryConsistentWithTraceAndCount) {
  // The unclipped history the scheduler clips against: one commit time per
  // database record, and the trace is exactly the in-limit improvements.
  DesignSpace space = BuildDesignSpace(TwoLoopKernel());
  auto eval = [](const merlin::DesignConfig& cfg) -> EvalOutcome {
    double c = 10.0 + static_cast<double>(cfg.loops.at(0).parallel) +
               static_cast<double>(cfg.buffer_bits.at("in")) / 64.0;
    return {true, c, 5.0};
  };
  TuneOptions options;
  options.time_limit_minutes = 90;
  options.parallel = 4;
  options.seed = 3;
  TuneResult r = Tune(space, eval, options);

  EXPECT_EQ(r.eval_times_minutes.size(), r.evaluations);
  std::size_t in_limit = 0;
  double prev = 0;
  for (const BestUpdate& up : r.improvements) {
    EXPECT_GE(up.time_minutes, prev);  // improvements are chronological
    prev = up.time_minutes;
    if (up.time_minutes > options.time_limit_minutes) continue;
    ASSERT_LT(in_limit, r.trace.size());
    EXPECT_EQ(r.trace[in_limit].time_minutes, up.time_minutes);
    EXPECT_EQ(r.trace[in_limit].best_cost, up.cost);
    ++in_limit;
  }
  EXPECT_EQ(in_limit, r.trace.size());
  if (r.found_feasible && !r.improvements.empty()) {
    EXPECT_EQ(r.improvements.back().cost, r.best_cost);
    EXPECT_TRUE(r.improvements.back().config == r.best_config);
  }
}

// -------------------------------------------------------------- database

TEST(DatabaseTest, TracksChangedFactorsAndTrace) {
  ResultDatabase db;
  Point a{0, 0, 0};
  Point b{0, 1, 2};
  EXPECT_TRUE(db.Add(a, 10.0, true, 1.0, 0));
  EXPECT_FALSE(db.Add(b, 20.0, true, 2.0, 1));  // worse: not a new best
  EXPECT_TRUE(db.Add(b, 5.0, true, 3.0, 1));
  ASSERT_EQ(db.records().size(), 3u);
  EXPECT_EQ(db.records()[1].changed_factors, (std::vector<std::size_t>{1, 2}));
  EXPECT_TRUE(db.records()[1].changed_factors.size() == 2);
  EXPECT_EQ(db.best_cost(), 5.0);
  ASSERT_EQ(db.trace().size(), 2u);
  EXPECT_EQ(db.trace()[1].best_cost, 5.0);
}

TEST(DatabaseTest, InfeasibleNeverBest) {
  ResultDatabase db;
  EXPECT_FALSE(db.Add({0}, 1.0, false, 1.0, 0));
  EXPECT_FALSE(db.has_best());
  EXPECT_THROW(db.best(), InvalidArgument);
}

TEST(DatabaseTest, ExplicitParentAttributesMutatedFactors) {
  // In a parallel batch the previous record is another technique's
  // proposal; changed_factors must diff against the proposing technique's
  // own parent instead.
  ResultDatabase db;
  Point a{0, 0, 0};
  Point b{1, 1, 0};
  Point c{1, 0, 1};
  db.Add(a, 10.0, true, 1.0, 0, /*parent=*/nullptr);
  EXPECT_TRUE(db.records()[0].changed_factors.empty());  // seeds/randoms
  db.Add(b, 8.0, true, 2.0, 0, &a);
  EXPECT_EQ(db.records()[1].changed_factors,
            (std::vector<std::size_t>{0, 1}));
  // c's parent is a, NOT the immediately preceding record b.
  db.Add(c, 6.0, true, 3.0, 1, &a);
  EXPECT_EQ(db.records()[2].changed_factors,
            (std::vector<std::size_t>{0, 2}));
  // The 5-arg overload keeps the legacy prev-record diff.
  db.Add(a, 7.0, true, 4.0, 0);
  EXPECT_EQ(db.records()[3].changed_factors,
            (std::vector<std::size_t>{0, 2}));
}

// ------------------------------------------------- bottleneck technique

const hls::BottleneckKind kAllKinds[] = {
    hls::BottleneckKind::kNone,         hls::BottleneckKind::kRecurrenceII,
    hls::BottleneckKind::kMemoryPortII, hls::BottleneckKind::kAxiBandwidth,
    hls::BottleneckKind::kBramCap,      hls::BottleneckKind::kDspCap,
    hls::BottleneckKind::kFfCap,        hls::BottleneckKind::kLutCap,
    hls::BottleneckKind::kFreqCongestion,
    hls::BottleneckKind::kRoutingWall};

TEST(BottleneckTest, EveryKindDeclaresAParsableFactorSubset) {
  for (hls::BottleneckKind kind : kAllKinds) {
    const auto& moves = BottleneckMoves(kind);
    EXPECT_FALSE(moves.empty()) << hls::BottleneckKindName(kind);
    for (const BottleneckMove& move : moves) {
      // A typo in the map must fail fast, like FactorIndex: parsing every
      // declared class here pins that none of them can silently no-op.
      EXPECT_NO_THROW(ParseFactorClass(move.factor_class))
          << hls::BottleneckKindName(kind) << " -> " << move.factor_class;
    }
  }
}

TEST(BottleneckTest, ParseFactorClassUnknownThrowsListingValid) {
  try {
    ParseFactorClass("bogus");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no factor class named 'bogus'"), std::string::npos)
        << what;
    EXPECT_NE(what.find("parallel"), std::string::npos) << what;
  }
}

TEST(BottleneckTest, ProposalsTouchOnlyTheDeclaredSubset) {
  DesignSpace space = BuildDesignSpace(TwoLoopKernel());
  for (hls::BottleneckKind kind : kAllKinds) {
    // The declared subset, resolved to factor kinds.
    std::set<FactorKind> allowed;
    for (const BottleneckMove& move : BottleneckMoves(kind)) {
      allowed.insert(ParseFactorClass(move.factor_class));
    }
    BottleneckTechnique tech(&space);
    Rng rng(11);
    Point best = space.RandomPoint(rng);
    hls::Bottleneck bneck;
    bneck.kind = kind;
    bneck.quantity = 3.0;
    tech.ObserveEvaluation(best, 10.0, /*feasible=*/true, bneck);
    ASSERT_EQ(tech.current_bottleneck().kind, kind);
    for (int iter = 0; iter < 64; ++iter) {
      Point p = tech.Propose(rng);
      space.ValidatePoint(p);
      ASSERT_NE(tech.last_proposal_base(), nullptr);
      EXPECT_EQ(*tech.last_proposal_base(), best);
      for (std::size_t i = 0; i < p.size(); ++i) {
        if (p[i] != best[i]) {
          EXPECT_EQ(allowed.count(space.factors[i].kind), 1u)
              << hls::BottleneckKindName(kind) << " mutated factor "
              << space.factors[i].name;
        }
      }
    }
  }
}

TEST(BottleneckTest, ProposesRandomlyBeforeAnyObservation) {
  DesignSpace space = BuildDesignSpace(TwoLoopKernel());
  BottleneckTechnique tech(&space);
  Rng rng(13);
  Point p = tech.Propose(rng);
  space.ValidatePoint(p);
  EXPECT_EQ(tech.last_proposal_base(), nullptr);
}

TEST(BottleneckTest, TracksGlobalBestAcrossObservations) {
  DesignSpace space = BuildDesignSpace(TwoLoopKernel());
  BottleneckTechnique tech(&space);
  Rng rng(17);
  Point first = space.RandomPoint(rng);
  Point better = space.RandomPoint(rng);
  hls::Bottleneck rec{hls::BottleneckKind::kRecurrenceII, 7.0, 5.0};
  hls::Bottleneck port{hls::BottleneckKind::kMemoryPortII, 4.0, 2.0};
  tech.ObserveEvaluation(first, 10.0, true, rec);
  EXPECT_EQ(tech.current_bottleneck().kind,
            hls::BottleneckKind::kRecurrenceII);
  // Worse and infeasible observations never displace the best...
  tech.ObserveEvaluation(better, 50.0, true, port);
  tech.ObserveEvaluation(better, 1.0, false, port);
  EXPECT_EQ(tech.current_bottleneck().kind,
            hls::BottleneckKind::kRecurrenceII);
  // ...a strictly better feasible one does, attribution included.
  tech.ObserveEvaluation(better, 5.0, true, port);
  EXPECT_EQ(tech.current_bottleneck().kind,
            hls::BottleneckKind::kMemoryPortII);
  Point p = tech.Propose(rng);
  ASSERT_NE(tech.last_proposal_base(), nullptr);
  EXPECT_EQ(*tech.last_proposal_base(), better);
  (void)p;
}

TEST(BottleneckTest, MakeTechniquesRosters) {
  DesignSpace space = BuildDesignSpace(TwoLoopKernel());
  // Empty roster = the default four, in the paper's order.
  auto def = MakeTechniques(&space, 3, {});
  ASSERT_EQ(def.size(), 4u);
  EXPECT_EQ(def[0]->name(), "UniformGreedyMutation");
  EXPECT_EQ(def[3]->name(), "SimulatedAnnealing");
  // "bandit" expands to the four; "bottleneck" appends the guided arm.
  auto extended = MakeTechniques(&space, 3, {"bandit", "bottleneck"});
  ASSERT_EQ(extended.size(), 5u);
  EXPECT_EQ(extended[4]->name(), "BottleneckGuided");
  // Unknown names fail fast with the available roster.
  try {
    MakeTechniques(&space, 3, {"bogus"});
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no technique named 'bogus'"), std::string::npos)
        << what;
    EXPECT_NE(what.find("bottleneck"), std::string::npos) << what;
  }
}

TEST(BottleneckTest, ParseTechniqueListSplitsAndTrims) {
  auto names = ParseTechniqueList(" bandit , bottleneck ,, ");
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "bandit");
  EXPECT_EQ(names[1], "bottleneck");
  EXPECT_TRUE(ParseTechniqueList("").empty());
}

TEST(DriverTest, TechniquesRosterDeterministicAndDefaultUnchanged) {
  DesignSpace space = BuildDesignSpace(TwoLoopKernel());
  auto eval = [&](const merlin::DesignConfig& cfg) -> EvalOutcome {
    EvalOutcome outcome;
    outcome.feasible = true;
    outcome.cost = 10.0 + static_cast<double>(cfg.loops.at(0).parallel) +
                   static_cast<double>(cfg.buffer_bits.at("in")) / 64.0;
    outcome.eval_minutes = 5.0;
    outcome.bottleneck.kind = hls::BottleneckKind::kMemoryPortII;
    outcome.bottleneck.quantity = 2.0;
    return outcome;
  };
  TuneOptions options;
  options.time_limit_minutes = 60;
  options.seed = 2018;
  // An explicitly spelled default roster is bit-identical to the empty one.
  TuneResult implicit = Tune(space, eval, options);
  options.techniques = {"bandit"};
  TuneResult spelled = Tune(space, eval, options);
  EXPECT_EQ(implicit.best, spelled.best);
  EXPECT_EQ(implicit.best_cost, spelled.best_cost);
  EXPECT_EQ(implicit.evaluations, spelled.evaluations);
  // The extended roster is deterministic for a fixed seed.
  options.techniques = {"bandit", "bottleneck"};
  TuneResult a = Tune(space, eval, options);
  TuneResult b = Tune(space, eval, options);
  EXPECT_EQ(a.best, b.best);
  EXPECT_EQ(a.best_cost, b.best_cost);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

TEST(TechniqueTest, ProposalBaseTracksTheMutatedPoint) {
  DesignSpace space = BuildDesignSpace(TwoLoopKernel());
  UniformGreedyMutation greedy(&space);
  Rng rng(3);
  greedy.Propose(rng);
  // No best yet: the draw was random, there is nothing to attribute.
  EXPECT_EQ(greedy.last_proposal_base(), nullptr);

  Point best = space.RandomPoint(rng);
  greedy.Report(best, 5.0, /*feasible=*/true);
  greedy.Propose(rng);
  ASSERT_NE(greedy.last_proposal_base(), nullptr);
  EXPECT_EQ(*greedy.last_proposal_base(), best);
}

}  // namespace
}  // namespace s2fa::tuner
