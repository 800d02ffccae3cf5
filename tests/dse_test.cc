#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/app.h"
#include "b2c/compiler.h"
#include "dse/explorer.h"
#include "dse/seeds.h"
#include "hls/estimator.h"
#include "merlin/transform.h"
#include "s2fa/framework.h"

namespace s2fa::dse {
namespace {

using kir::BinaryOp;
using kir::BufferKind;
using kir::Expr;
using kir::Stmt;
using kir::Type;
using tuner::DesignSpace;
using tuner::EvalOutcome;
using tuner::FactorKind;
using tuner::Point;

// The same nested reduce kernel used across tuner tests.
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

// Real Merlin+HLS evaluation chain.
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
      out.feasible = false;  // illegal factor combination: HLS run fails
      out.cost = tuner::kInfeasibleCost;
      out.eval_minutes = 3.0;
    }
    return out;
  };
}

// ------------------------------------------------------------ candidates

TEST(RulesTest, TaskLoopSchedulingComesFirst) {
  kir::Kernel k = NestedKernel();
  DesignSpace space = tuner::BuildDesignSpace(k);
  auto candidates = RuleCandidateFactors(space, k);
  ASSERT_FALSE(candidates.empty());
  const auto& first = space.factors[candidates[0]];
  EXPECT_EQ(first.loop_id, k.task_loop_id);
  EXPECT_EQ(first.kind, FactorKind::kLoopPipeline);
  // Only pipeline/parallel factors are rule candidates.
  for (std::size_t c : candidates) {
    FactorKind kind = space.factors[c].kind;
    EXPECT_TRUE(kind == FactorKind::kLoopPipeline ||
                kind == FactorKind::kLoopParallel);
  }
}

// ------------------------------------------------------------ partitions

TEST(PartitionTest, SplitsOnInformativeFactor) {
  kir::Kernel k = NestedKernel();
  DesignSpace space = tuner::BuildDesignSpace(k);
  std::size_t pipe0 = space.FactorIndex("L0.pipeline");
  // Synthetic: cost is entirely determined by L0.pipeline.
  Rng rng(3);
  std::vector<TrainingSample> samples;
  for (int n = 0; n < 200; ++n) {
    TrainingSample s;
    s.point = space.RandomPoint(rng);
    s.log_cost = s.point[pipe0] == 0 ? 10.0 : 2.0;
    samples.push_back(std::move(s));
  }
  PartitionOptions options;
  options.target_partitions = 2;
  auto partitions = BuildPartitions(space, RuleCandidateFactors(space, k),
                                    samples, options);
  ASSERT_EQ(partitions.size(), 2u);
  // The split must be on L0.pipeline: the two partitions' allowed pipeline
  // values differ.
  EXPECT_NE(partitions[0].space.factors[pipe0].values,
            partitions[1].space.factors[pipe0].values);
  EXPECT_NE(partitions[0].description.find("L0.pipeline"),
            std::string::npos);
}

TEST(PartitionTest, DisjointAndCovering) {
  kir::Kernel k = NestedKernel();
  DesignSpace space = tuner::BuildDesignSpace(k);
  tuner::EvalFn eval = HlsEval(k);
  auto log_cost = [&](const Point& p) {
    EvalOutcome out = eval(space.ToConfig(p));
    return out.feasible ? std::log(out.cost) : 30.0;
  };
  Rng rng(11);
  auto samples = DrawTrainingSamples(space, 150, log_cost, rng);
  PartitionOptions options;
  options.target_partitions = 8;
  auto partitions = BuildPartitions(space, RuleCandidateFactors(space, k),
                                    samples, options);
  EXPECT_GE(partitions.size(), 2u);
  EXPECT_LE(partitions.size(), 8u);
  Rng check_rng(99);
  EXPECT_TRUE(
      PartitionsDisjointAndCovering(space, partitions, 500, check_rng));
}

TEST(PartitionTest, FlatCostsStillYieldCoreCoverage) {
  // With flat costs no split carries information gain, but the "some-for-
  // all" scheme still needs at least as many partitions as CPU cores, so
  // the builder falls back to median splits on the rule factors.
  kir::Kernel k = NestedKernel();
  DesignSpace space = tuner::BuildDesignSpace(k);
  Rng rng(5);
  std::vector<TrainingSample> samples;
  for (int n = 0; n < 100; ++n) {
    samples.push_back({space.RandomPoint(rng), 1.0});  // constant cost
  }
  PartitionOptions options;
  options.target_partitions = 8;
  auto partitions = BuildPartitions(space, RuleCandidateFactors(space, k),
                                    samples, options);
  EXPECT_EQ(partitions.size(), 8u);
  Rng check(77);
  EXPECT_TRUE(PartitionsDisjointAndCovering(space, partitions, 300, check));
}

// ------------------------------------------------------- golden partitions
//
// The trained tree of every evaluation app, pinned description for
// description: 320 seeded uniform samples per app, scored by the framework's
// HLS evaluator with the explorer's log-cost mapping, then BuildPartitions
// with the default options. A final synthetic case interleaves gain splits
// and forced median splits, so a leaf that was just split must be re-scored
// before it is split again. A partitioner change that is meant to be pure
// speed must leave partition_golden.inc untouched; the table was printed by
// the disabled test below, run as
//
//   dse_test --gtest_also_run_disabled_tests
//            --gtest_filter=PartitionGoldenTest.DISABLED_PrintTable
//
// and keeping its output from the BEGIN line to the END line.

constexpr int kGoldenTrainingSamples = 320;
constexpr std::uint64_t kGoldenTrainingSeed = 2018;

const char* const kPartitionGoldenTable[] = {
#include "partition_golden.inc"
};

void AppendPartitionLines(const std::string& name,
                          const std::vector<Partition>& partitions,
                          std::vector<std::string>& lines) {
  lines.push_back(name + " partitions=" + std::to_string(partitions.size()));
  for (std::size_t i = 0; i < partitions.size(); ++i) {
    lines.push_back(name + " p" + std::to_string(i) + ": " +
                    partitions[i].description);
  }
}

// Factors A, B, C in {0, 1} and D in {1, 2, 4, 8}, a balanced grid of
// samples, cost 8*C + (A xor B). C carries all the gain at the root; inside
// each C half no single cut gains, so A is split at its median, after which
// B gains again in both A halves. Ties and zero gains are exact in binary.
std::vector<Partition> InterleavedSplits() {
  DesignSpace space;
  for (const char* name : {"A", "B", "C"}) {
    space.factors.push_back(
        {name, FactorKind::kLoopPipeline, -1, "", {0, 1}});
  }
  space.factors.push_back(
      {"D", FactorKind::kLoopParallel, -1, "", {1, 2, 4, 8}});
  std::vector<TrainingSample> samples;
  for (int rep = 0; rep < 3; ++rep) {
    for (std::size_t a = 0; a < 2; ++a) {
      for (std::size_t b = 0; b < 2; ++b) {
        for (std::size_t c = 0; c < 2; ++c) {
          for (std::size_t d = 0; d < 4; ++d) {
            samples.push_back({{a, b, c, d},
                               8.0 * static_cast<double>(c) +
                                   (a != b ? 1.0 : 0.0)});
          }
        }
      }
    }
  }
  PartitionOptions options;
  options.target_partitions = 10;
  return BuildPartitions(space, {0, 1, 2, 3}, samples, options);
}

std::vector<std::string> PartitionGoldenLines() {
  std::vector<std::string> lines;
  for (const apps::App& app : apps::AllApps()) {
    kir::Kernel kernel = b2c::CompileKernel(*app.pool, app.spec);
    DesignSpace space = tuner::BuildDesignSpace(kernel);
    tuner::EvalFn eval = MakeHlsEvaluator(kernel);
    const PartitionOptions options;
    auto log_cost = [&](const Point& p) {
      EvalOutcome out = eval(space.ToConfig(p));
      return out.feasible ? std::log(std::max(1e-9, out.cost))
                          : options.infeasible_log_cost;
    };
    Rng rng(kGoldenTrainingSeed);
    auto samples =
        DrawTrainingSamples(space, kGoldenTrainingSamples, log_cost, rng);
    AppendPartitionLines(
        app.name,
        BuildPartitions(space, RuleCandidateFactors(space, kernel), samples,
                        options),
        lines);
  }
  AppendPartitionLines("interleaved", InterleavedSplits(), lines);
  return lines;
}

TEST(PartitionGoldenTest, EveryDescriptionMatchesTheTable) {
  const std::vector<std::string> lines = PartitionGoldenLines();
  ASSERT_EQ(lines.size(), std::size(kPartitionGoldenTable));
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i], kPartitionGoldenTable[i]) << "row " << i;
  }
}

TEST(PartitionGoldenTest, DISABLED_PrintTable) {
  std::printf("// BEGIN golden partition lines (see dse_test.cc)\n");
  for (const std::string& line : PartitionGoldenLines()) {
    std::string escaped;
    for (char c : line) {
      if (c == '"' || c == '\\') escaped += '\\';
      escaped += c;
    }
    std::printf("\"%s\",\n", escaped.c_str());
  }
  std::printf("// END golden partition lines\n");
}

// ------------------------------------------------------ fault-injected DSE
//
// The fixed point of a fault-injected exploration: `s2fa explore <app>
// --fault-rate 0.3` (crash, timeout and garbage at 0.1 each, fault seed
// 2018 ^ 0xFA17, the CLI's other defaults) for every app, S2FA and vanilla.
// Each row pins the result (best cost, elapsed minutes, evaluations) and
// every ResilienceStats field, floats as hexfloat, so retry, backoff and
// breaker arithmetic cannot drift unnoticed. The table was printed once by
//
//   dse_test --gtest_also_run_disabled_tests
//            --gtest_filter=FaultGoldenTest.DISABLED_PrintTable
//
// keeping its output from the BEGIN line to the END line; it is never
// regenerated to make a change pass.

const char* const kFaultGoldenTable[] = {
#include "fault_golden.inc"
};

std::string Hex(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", value);
  return buf;
}

std::vector<std::string> FaultGoldenLines() {
  std::vector<std::string> lines;
  for (const apps::App& app : apps::AllApps()) {
    kir::Kernel kernel = b2c::CompileKernel(*app.pool, app.spec);
    DesignSpace space = tuner::BuildDesignSpace(kernel);
    tuner::EvalFn eval = MakeHlsEvaluator(kernel);
    ExplorerOptions options;
    options.seed = 2018;
    options.faults.crash_rate = 0.3 / 3;
    options.faults.timeout_rate = 0.3 / 3;
    options.faults.garbage_rate = 0.3 / 3;
    options.faults.seed = 2018 ^ 0xFA17ULL;
    for (bool vanilla : {false, true}) {
      const DseResult r =
          vanilla ? RunVanillaOpenTuner(space, eval, options)
                  : RunS2faDse(space, kernel, eval, options);
      const resilience::ResilienceStats& s = r.resilience;
      lines.push_back(
          app.name + (vanilla ? " vanilla" : " s2fa") +
          " best=" + Hex(r.best_cost) +
          " elapsed=" + Hex(r.elapsed_minutes) +
          " evals=" + std::to_string(r.evaluations) +
          " calls=" + std::to_string(s.calls) +
          " attempts=" + std::to_string(s.attempts) +
          " successes=" + std::to_string(s.successes) +
          " crashes=" + std::to_string(s.crashes) +
          " timeouts=" + std::to_string(s.timeouts) +
          " garbage=" + std::to_string(s.garbage) +
          " retries=" + std::to_string(s.retries) +
          " exhausted=" + std::to_string(s.exhausted) +
          " trips=" + std::to_string(s.breaker_trips) +
          " short=" + std::to_string(s.short_circuits) +
          " backoff=" + Hex(s.backoff_minutes));
    }
  }
  return lines;
}

TEST(FaultGoldenTest, EveryRowMatchesTheTable) {
  const std::vector<std::string> lines = FaultGoldenLines();
  ASSERT_EQ(lines.size(), std::size(kFaultGoldenTable));
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i], kFaultGoldenTable[i]) << "row " << i;
  }
}

TEST(FaultGoldenTest, DISABLED_PrintTable) {
  std::printf("// BEGIN golden fault-injected DSE rows (see dse_test.cc)\n");
  for (const std::string& line : FaultGoldenLines()) {
    std::printf("\"%s\",\n", line.c_str());
  }
  std::printf("// END golden fault-injected DSE rows\n");
}

// ----------------------------------------------------------------- seeds

TEST(SeedTest, PerformanceSeedMatchesPaper) {
  kir::Kernel k = NestedKernel();
  DesignSpace space = tuner::BuildDesignSpace(k);
  tuner::SeedPoint seed = MakePerformanceSeed(space);
  merlin::DesignConfig cfg = space.ToConfig(seed.point);
  // All loops pipelined, parallel factor 32, 512-bit buffers (paper 4.3.2).
  for (const auto& [id, lc] : cfg.loops) {
    EXPECT_EQ(lc.pipeline, merlin::PipelineMode::kOn) << "L" << id;
    EXPECT_EQ(lc.parallel, 32) << "L" << id;
  }
  for (const auto& [name, bits] : cfg.buffer_bits) {
    EXPECT_EQ(bits, 512) << name;
  }
  EXPECT_EQ(seed.label, "performance-driven");
}

TEST(SeedTest, AreaSeedIsFullyConservative) {
  kir::Kernel k = NestedKernel();
  DesignSpace space = tuner::BuildDesignSpace(k);
  tuner::SeedPoint seed = MakeAreaSeed(space);
  merlin::DesignConfig cfg = space.ToConfig(seed.point);
  for (const auto& [id, lc] : cfg.loops) {
    EXPECT_EQ(lc.pipeline, merlin::PipelineMode::kOff);
    EXPECT_EQ(lc.parallel, 1);
    EXPECT_EQ(lc.tile, 1);
  }
  for (const auto& [name, bits] : cfg.buffer_bits) {
    EXPECT_EQ(bits, 32);  // element width
  }
}

TEST(SeedTest, AreaSeedIsFeasibleUnderHls) {
  kir::Kernel k = NestedKernel();
  DesignSpace space = tuner::BuildDesignSpace(k);
  tuner::SeedPoint seed = MakeAreaSeed(space);
  EvalOutcome out = HlsEval(k)(space.ToConfig(seed.point));
  EXPECT_TRUE(out.feasible);  // the paper's guarantee for the conservative seed
}

TEST(SeedTest, SeedsProjectIntoRestrictedPartition) {
  kir::Kernel k = NestedKernel();
  DesignSpace space = tuner::BuildDesignSpace(k);
  // Restrict L0.parallel to {8, 16} to force projection.
  DesignSpace restricted = space;
  std::size_t par0 = space.FactorIndex("L0.parallel");
  restricted.factors[par0].values = {8, 16};
  tuner::SeedPoint perf = MakePerformanceSeed(restricted);
  merlin::DesignConfig cfg = restricted.ToConfig(perf.point);
  EXPECT_EQ(cfg.loops.at(0).parallel, 16);  // nearest to 32
  tuner::SeedPoint area = MakeAreaSeed(restricted);
  merlin::DesignConfig acfg = restricted.ToConfig(area.point);
  EXPECT_EQ(acfg.loops.at(0).parallel, 8);  // nearest to 1
}

TEST(SeedTest, EquidistantProjectionPrefersLowerValue) {
  // Regression: with two allowed values equidistant from the desired one,
  // the projection must resolve toward the LOWER value (cheaper in area,
  // never worse for feasibility). The old scan kept whichever value came
  // first in the list, so the answer depended on value order.
  kir::Kernel k = NestedKernel();
  DesignSpace space = tuner::BuildDesignSpace(k);
  DesignSpace restricted = space;
  std::size_t par0 = space.FactorIndex("L0.parallel");
  // Performance seed wants parallel 32; 16 and 48 are both 16 away.
  restricted.factors[par0].values = {48, 16};  // higher first on purpose
  tuner::SeedPoint perf = MakePerformanceSeed(restricted);
  EXPECT_EQ(restricted.ToConfig(perf.point).loops.at(0).parallel, 16);
  restricted.factors[par0].values = {16, 48};
  perf = MakePerformanceSeed(restricted);
  EXPECT_EQ(restricted.ToConfig(perf.point).loops.at(0).parallel, 16);
}

// -------------------------------------------------------------- stopping

TEST(StoppingTest, EntropyOfEmptyDatabaseIsZero) {
  tuner::ResultDatabase db;
  EXPECT_EQ(UphillEntropy(db, 4), 0.0);
}

TEST(StoppingTest, EntropyReflectsUphillDistribution) {
  tuner::ResultDatabase db;
  // Mutating factor 0 always improves, factor 1 never: low entropy.
  Point base{0, 0};
  db.Add(base, 100.0, true, 1.0, 0);
  double cost = 100.0;
  for (int k = 0; k < 10; ++k) {
    cost -= 5;
    Point p = base;
    p[0] = static_cast<std::size_t>(k % 2);
    base = p;
    db.Add(p, cost, true, 1.0 + k, 0);
  }
  double h = UphillEntropy(db, 2);
  EXPECT_GE(h, 0.0);
  EXPECT_LT(h, 1.0);
}

TEST(StoppingTest, EntropyStopFiresOnConvergedSearch) {
  auto stop = MakeEntropyStop(3, {.theta = 0.05, .patience = 3,
                                  .min_records = 8});
  tuner::ResultDatabase db;
  // A search that stopped improving: entropy stays constant.
  Point p{0, 0, 0};
  db.Add(p, 10.0, true, 1.0, 0);
  bool fired = false;
  for (int k = 0; k < 30 && !fired; ++k) {
    Point q = p;
    q[static_cast<std::size_t>(k) % 3] ^= 1u;
    db.Add(q, 50.0, true, 2.0 + k, 0);  // never uphill
    fired = stop(db);
  }
  EXPECT_TRUE(fired);
}

TEST(StoppingTest, EntropyStopWaitsForMinRecords) {
  auto stop = MakeEntropyStop(3, {.theta = 1.0, .patience = 1,
                                  .min_records = 50});
  tuner::ResultDatabase db;
  db.Add({0, 0, 0}, 10.0, true, 1.0, 0);
  db.Add({1, 0, 0}, 9.0, true, 2.0, 0);
  EXPECT_FALSE(stop(db));
}

TEST(StoppingTest, EntropyPinnedForParentAttributedSequence) {
  // Regression pin for the changed_factors fix: with explicit parents the
  // mutation distribution — and therefore the entropy the stopping
  // criterion reads — differs from the legacy prev-record diff, which in a
  // parallel batch compared against another technique's proposal.
  tuner::Point a{0, 0, 0};
  tuner::Point b{1, 0, 0};
  tuner::Point c{1, 1, 0};
  tuner::Point d{2, 0, 0};

  tuner::ResultDatabase parented;
  parented.Add(a, 10.0, true, 1.0, 0, nullptr);
  parented.Add(b, 8.0, true, 2.0, 0, &a);   // {0}, uphill
  parented.Add(c, 6.0, true, 3.0, 0, &b);   // {1}, uphill
  parented.Add(d, 9.0, true, 4.0, 1, &a);   // {0}, downhill
  // mutated[0]=2 uphill[0]=1 -> p=1/2; mutated[1]=1 uphill[1]=1 -> p=1.
  EXPECT_NEAR(UphillEntropy(parented, 3), std::log(2.0) / 2.0, 1e-12);

  tuner::ResultDatabase legacy;
  legacy.Add(a, 10.0, true, 1.0, 0);
  legacy.Add(b, 8.0, true, 2.0, 0);   // vs a: {0}, uphill
  legacy.Add(c, 6.0, true, 3.0, 0);   // vs b: {1}, uphill
  legacy.Add(d, 9.0, true, 4.0, 1);   // vs c: {0,1}, downhill — d's factor-1
                                      // "mutation" is an artifact of the
                                      // prev record, not of d's proposal
  // mutated[0]=2 uphill[0]=1; mutated[1]=2 uphill[1]=1 -> both p=1/2.
  EXPECT_NEAR(UphillEntropy(legacy, 3), std::log(2.0), 1e-12);
}

TEST(StoppingTest, EntropyDeltaComparisonToleratesFloatNoise) {
  // Regression: the paper's criterion is delta <= theta, but the entropy
  // is a sum of p*log(p) terms whose rounding can leave a delta a few ULP
  // above a theta it mathematically equals — the strict comparison then
  // never fires and the partition burns its whole budget. The comparison
  // must absorb that noise without accepting genuinely larger deltas.
  const double theta = 0.05;
  EXPECT_TRUE(EntropyDeltaConverged(theta, theta));
  // One ULP above theta: mathematically equal, pre-fix rejected.
  EXPECT_TRUE(EntropyDeltaConverged(std::nextafter(theta, 1.0), theta));
  EXPECT_TRUE(
      EntropyDeltaConverged(theta + 0.5 * kEntropyThetaSlack * theta, theta));
  // A real exceedance still fails.
  EXPECT_FALSE(EntropyDeltaConverged(theta * 1.01, theta));
  EXPECT_FALSE(EntropyDeltaConverged(theta + 1e-6, theta));
}

TEST(StoppingTest, EntropyStopIterationPinnedForFixedSequence) {
  // Pins the exact iteration the entropy stop fires on for a fixed record
  // sequence, so any change to the comparison (or the slack) shows up as
  // a test diff instead of a silent schedule shift.
  auto stop = MakeEntropyStop(3, {.theta = 0.05, .patience = 3,
                                  .min_records = 8});
  tuner::ResultDatabase db;
  Point p{0, 0, 0};
  db.Add(p, 10.0, true, 1.0, 0);
  int fired_at = -1;
  for (int k = 0; k < 30 && fired_at < 0; ++k) {
    Point q = p;
    q[static_cast<std::size_t>(k) % 3] ^= 1u;
    db.Add(q, 50.0, true, 2.0 + k, 0);  // never uphill
    if (stop(db)) fired_at = k;
  }
  // 8 records exist after k = 6; the entropy is flat (no uphill moves), so
  // the patience window is already saturated and the stop fires on the
  // first eligible check.
  EXPECT_EQ(fired_at, 6);
}

TEST(StoppingTest, NoImprovementStopCountsStaleIterations) {
  auto stop = MakeNoImprovementStop(3);
  tuner::ResultDatabase db;
  db.Add({0}, 10.0, true, 1.0, 0);
  EXPECT_FALSE(stop(db));
  db.Add({1}, 20.0, true, 2.0, 0);  // stale 1
  EXPECT_FALSE(stop(db));
  db.Add({0}, 20.0, true, 3.0, 0);  // stale 2
  EXPECT_FALSE(stop(db));
  db.Add({1}, 20.0, true, 4.0, 0);  // stale 3
  EXPECT_TRUE(stop(db));
}

TEST(StoppingTest, NoImprovementResetOnNewBest) {
  auto stop = MakeNoImprovementStop(2);
  tuner::ResultDatabase db;
  db.Add({0}, 10.0, true, 1.0, 0);
  stop(db);
  db.Add({1}, 20.0, true, 2.0, 0);
  stop(db);
  db.Add({0}, 5.0, true, 3.0, 0);  // new best: reset
  EXPECT_FALSE(stop(db));
  db.Add({1}, 20.0, true, 4.0, 0);
  EXPECT_FALSE(stop(db));
  db.Add({1}, 20.0, true, 5.0, 0);
  EXPECT_TRUE(stop(db));
}

// -------------------------------------------------------------- explorer

TEST(ExplorerTest, S2faCompetitiveWithVanillaAndEntropyStops) {
  // NOTE: this kernel's space is tiny (~10^5.6 points), which favors the
  // vanilla tuner — the paper-scale gaps appear on the app spaces in the
  // Fig. 3 bench. Here we check sanity: S2FA lands in the same cost
  // regime and its partitions terminate themselves via entropy.
  kir::Kernel k = NestedKernel();
  DesignSpace space = tuner::BuildDesignSpace(k);
  tuner::EvalFn eval = HlsEval(k);

  ExplorerOptions options;
  options.time_limit_minutes = 240;
  options.num_cores = 8;
  options.seed = 7;
  DseResult s2fa = RunS2faDse(space, k, eval, options);
  DseResult vanilla = RunVanillaOpenTuner(space, eval, options);

  ASSERT_TRUE(s2fa.found_feasible);
  ASSERT_TRUE(vanilla.found_feasible);
  EXPECT_LE(s2fa.best_cost, vanilla.best_cost * 5.0);
  EXPECT_NEAR(vanilla.elapsed_minutes, 240.0, 30);  // vanilla runs to the cap
  EXPECT_GT(s2fa.partitions.size(), 1u);
  int entropy_stops = 0;
  for (const auto& p : s2fa.partitions) {
    if (p.result.stop_reason == "entropy criterion") ++entropy_stops;
  }
  EXPECT_GE(entropy_stops, static_cast<int>(s2fa.partitions.size()) / 2);
}

TEST(ExplorerTest, DeterministicAcrossRuns) {
  kir::Kernel k = NestedKernel();
  DesignSpace space = tuner::BuildDesignSpace(k);
  tuner::EvalFn eval = HlsEval(k);
  ExplorerOptions options;
  options.time_limit_minutes = 120;
  options.seed = 3;
  DseResult a = RunS2faDse(space, k, eval, options);
  DseResult b = RunS2faDse(space, k, eval, options);
  EXPECT_EQ(a.best_cost, b.best_cost);
  EXPECT_EQ(a.elapsed_minutes, b.elapsed_minutes);
  EXPECT_EQ(a.evaluations, b.evaluations);
  ASSERT_EQ(a.trace.size(), b.trace.size());
}

TEST(ExplorerTest, BottleneckRosterBitIdenticalAcrossExecThreads) {
  // The determinism contract must survive the new arm: with the
  // bandit+bottleneck roster, exec_threads only changes wall-clock, never
  // the committed trajectory.
  kir::Kernel k = NestedKernel();
  DesignSpace space = tuner::BuildDesignSpace(k);
  tuner::EvalFn eval = HlsEval(k);
  ExplorerOptions options;
  options.time_limit_minutes = 120;
  options.seed = 2018;
  options.techniques = {"bandit", "bottleneck"};
  options.exec_threads = 1;
  DseResult one = RunS2faDse(space, k, eval, options);
  ASSERT_GT(one.resilience.calls, 0u);
  for (int threads : {2, 8}) {
    options.exec_threads = threads;
    DseResult many = RunS2faDse(space, k, eval, options);
    EXPECT_EQ(one.best_cost, many.best_cost) << threads;
    // The guards see the same proposal stream: the threads never change
    // how many evaluations reach them.
    EXPECT_EQ(one.resilience.calls, many.resilience.calls) << threads;
    EXPECT_EQ(one.found_feasible, many.found_feasible) << threads;
    EXPECT_EQ(one.evaluations, many.evaluations) << threads;
    ASSERT_EQ(one.trace.size(), many.trace.size()) << threads;
    for (std::size_t i = 0; i < one.trace.size(); ++i) {
      EXPECT_EQ(one.trace[i].time_minutes, many.trace[i].time_minutes);
      EXPECT_EQ(one.trace[i].best_cost, many.trace[i].best_cost);
    }
  }
}

TEST(ExplorerTest, AblationSwitchesChangeBehaviour) {
  kir::Kernel k = NestedKernel();
  DesignSpace space = tuner::BuildDesignSpace(k);
  tuner::EvalFn eval = HlsEval(k);

  ExplorerOptions no_partition;
  no_partition.time_limit_minutes = 120;
  no_partition.enable_partitioning = false;
  DseResult r = RunS2faDse(space, k, eval, no_partition);
  EXPECT_EQ(r.partitions.size(), 1u);

  ExplorerOptions no_seeds;
  no_seeds.time_limit_minutes = 120;
  no_seeds.enable_seeds = false;
  DseResult r2 = RunS2faDse(space, k, eval, no_seeds);
  EXPECT_TRUE(r2.found_feasible);
}

TEST(ExplorerTest, SeededRunStartsFromGoodPoint) {
  kir::Kernel k = NestedKernel();
  DesignSpace space = tuner::BuildDesignSpace(k);
  tuner::EvalFn eval = HlsEval(k);
  ExplorerOptions options;
  options.time_limit_minutes = 240;
  options.seed = 13;
  DseResult with_seeds = RunS2faDse(space, k, eval, options);
  options.enable_seeds = false;
  DseResult without = RunS2faDse(space, k, eval, options);
  ASSERT_TRUE(with_seeds.found_feasible);
  ASSERT_FALSE(with_seeds.trace.empty());
  ASSERT_FALSE(without.trace.empty());
  // Paper §5.2: "the QoR difference of the first explored point illustrates
  // the effectiveness of our seed generation" — the seeded run's first
  // feasible design is already far better than an unseeded random draw.
  EXPECT_LT(with_seeds.trace.front().best_cost,
            without.trace.front().best_cost);
  // Final quality stays in the same ballpark (the seeds' benefit is the
  // head start, not a guaranteed better endpoint on a tiny space).
  EXPECT_LE(with_seeds.best_cost, without.best_cost * 1.15);
}

TEST(ExplorerTest, FcfsScheduleRespectsCoreBudget) {
  kir::Kernel k = NestedKernel();
  DesignSpace space = tuner::BuildDesignSpace(k);
  tuner::EvalFn eval = HlsEval(k);
  ExplorerOptions options;
  options.time_limit_minutes = 60;  // tight budget forces truncation
  options.num_cores = 4;
  options.seed = 21;
  DseResult r = RunS2faDse(space, k, eval, options);

  double total_span = 0;
  for (const auto& p : r.partitions) {
    if (!p.scheduled) continue;
    EXPECT_GE(p.start_minutes, 0.0);
    EXPECT_LE(p.end_minutes, options.time_limit_minutes + 1e-9);
    EXPECT_LE(p.start_minutes, p.end_minutes);
    if (p.truncated) {
      EXPECT_NEAR(p.end_minutes, options.time_limit_minutes, 1e-9);
    }
    total_span += p.end_minutes - p.start_minutes;
  }
  // The schedule can never use more core-minutes than exist.
  EXPECT_LE(total_span,
            options.num_cores * options.time_limit_minutes + 1e-9);
  EXPECT_LE(r.elapsed_minutes, options.time_limit_minutes + 1e-9);
}

// ------------------------------------------------------------ resilience

TEST(ExplorerTest, SurvivesHeavyFaultInjection) {
  kir::Kernel k = NestedKernel();
  DesignSpace space = tuner::BuildDesignSpace(k);
  tuner::EvalFn eval = HlsEval(k);

  ExplorerOptions clean;
  clean.time_limit_minutes = 120;
  clean.seed = 9;
  DseResult baseline = RunS2faDse(space, k, eval, clean);
  ASSERT_TRUE(baseline.found_feasible);

  // 30% of attempts fail, split across all three failure modes.
  ExplorerOptions faulty = clean;
  faulty.faults.crash_rate = 0.1;
  faulty.faults.timeout_rate = 0.1;
  faulty.faults.garbage_rate = 0.1;
  faulty.faults.seed = 1234;
  DseResult r = RunS2faDse(space, k, eval, faulty);

  // The exploration completes and no partition aborted: every scheduled
  // partition ran to a recorded stop reason.
  ASSERT_TRUE(r.found_feasible);
  for (const auto& p : r.partitions) {
    if (p.scheduled) EXPECT_FALSE(p.result.stop_reason.empty());
  }
  // The resilience layer actually saw and absorbed failures.
  EXPECT_GT(r.resilience.crashes + r.resilience.timeouts +
                r.resilience.garbage,
            0u);
  EXPECT_GT(r.resilience.retries, 0u);
  // Failures cost simulated time but the search still lands in the same
  // cost regime as the fault-free run.
  EXPECT_LE(r.best_cost, baseline.best_cost * 2.0);
}

TEST(ExplorerTest, FaultInjectedRunIsDeterministic) {
  kir::Kernel k = NestedKernel();
  DesignSpace space = tuner::BuildDesignSpace(k);
  tuner::EvalFn eval = HlsEval(k);
  ExplorerOptions options;
  options.time_limit_minutes = 120;
  options.seed = 5;
  options.faults.crash_rate = 0.1;
  options.faults.timeout_rate = 0.1;
  options.faults.garbage_rate = 0.1;
  DseResult a = RunS2faDse(space, k, eval, options);
  DseResult b = RunS2faDse(space, k, eval, options);
  EXPECT_EQ(a.best_cost, b.best_cost);
  EXPECT_EQ(a.elapsed_minutes, b.elapsed_minutes);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.resilience.crashes, b.resilience.crashes);
  EXPECT_EQ(a.resilience.timeouts, b.resilience.timeouts);
  EXPECT_EQ(a.resilience.garbage, b.resilience.garbage);
  EXPECT_EQ(a.resilience.backoff_minutes, b.resilience.backoff_minutes);
}

TEST(ExplorerTest, JournalResumeRepaysZero) {
  kir::Kernel k = NestedKernel();
  DesignSpace space = tuner::BuildDesignSpace(k);
  std::atomic<int> inner_calls{0};
  tuner::EvalFn counting =
      [&inner_calls, eval = HlsEval(k)](const merlin::DesignConfig& cfg) {
        ++inner_calls;
        return eval(cfg);
      };

  const std::string path =
      testing::TempDir() + "s2fa_dse_journal_full.jsonl";
  std::remove(path.c_str());
  ExplorerOptions options;
  options.time_limit_minutes = 120;
  options.seed = 3;
  options.journal_path = path;

  DseResult first = RunS2faDse(space, k, counting, options);
  const int paid = inner_calls.exchange(0);
  EXPECT_GT(paid, 0);
  EXPECT_GT(first.journal_entries, 0u);

  // Resume against the complete journal: zero evaluations re-paid, and the
  // result reproduces the uninterrupted run exactly.
  DseResult resumed = RunS2faDse(space, k, counting, options);
  EXPECT_EQ(inner_calls.load(), 0);
  EXPECT_EQ(resumed.journal_resumed, first.journal_entries);
  EXPECT_EQ(resumed.best_cost, first.best_cost);
  EXPECT_EQ(resumed.elapsed_minutes, first.elapsed_minutes);
  EXPECT_EQ(resumed.evaluations, first.evaluations);
  std::remove(path.c_str());
}

TEST(ExplorerTest, TruncatedJournalResumesPartially) {
  // Simulate a mid-run kill: keep only a prefix of the journal. The rerun
  // must reproduce the uninterrupted result. The prefix answers every
  // proposal of its keys; every other proposal, a repeat included, is
  // re-paid, as the uninterrupted run paid it.
  kir::Kernel k = NestedKernel();
  DesignSpace space = tuner::BuildDesignSpace(k);
  std::atomic<int> inner_calls{0};
  tuner::EvalFn counting =
      [&inner_calls, eval = HlsEval(k)](const merlin::DesignConfig& cfg) {
        ++inner_calls;
        return eval(cfg);
      };

  const std::string path =
      testing::TempDir() + "s2fa_dse_journal_prefix.jsonl";
  std::remove(path.c_str());
  ExplorerOptions options;
  options.time_limit_minutes = 120;
  options.seed = 3;
  options.journal_path = path;
  DseResult first = RunS2faDse(space, k, counting, options);
  const std::size_t first_calls =
      static_cast<std::size_t>(inner_calls.exchange(0));
  EXPECT_EQ(first.journal_hits, 0u);  // a fresh journal answers nothing

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

  DseResult resumed = RunS2faDse(space, k, counting, options);
  EXPECT_EQ(resumed.journal_resumed, kept);
  EXPECT_GE(resumed.journal_hits, kept);
  EXPECT_EQ(static_cast<std::size_t>(inner_calls.load()),
            first_calls - resumed.journal_hits);
  EXPECT_EQ(resumed.best_cost, first.best_cost);
  EXPECT_EQ(resumed.elapsed_minutes, first.elapsed_minutes);
  EXPECT_EQ(resumed.evaluations, first.evaluations);
  std::remove(path.c_str());
}

TEST(ExplorerTest, VanillaRunsFullEvaluationStack) {
  // The baseline used to silently drop every resilience/journal option;
  // now --vanilla runs the identical stack.
  kir::Kernel k = NestedKernel();
  DesignSpace space = tuner::BuildDesignSpace(k);
  std::atomic<int> raw_calls{0};
  tuner::EvalFn counting =
      [&raw_calls, eval = HlsEval(k)](const merlin::DesignConfig& cfg) {
        ++raw_calls;
        return eval(cfg);
      };

  const std::string path =
      testing::TempDir() + "s2fa_vanilla_journal.jsonl";
  std::remove(path.c_str());
  ExplorerOptions options;
  options.time_limit_minutes = 120;
  options.seed = 4;
  options.journal_path = path;
  options.faults.crash_rate = 0.1;
  options.faults.timeout_rate = 0.1;
  options.faults.garbage_rate = 0.1;
  options.faults.seed = 99;

  DseResult first = RunVanillaOpenTuner(space, counting, options);
  EXPECT_GT(raw_calls.load(), 0);
  // Injected faults were seen, classified, and retried by the guard.
  EXPECT_GT(first.resilience.crashes + first.resilience.timeouts +
                first.resilience.garbage,
            0u);
  EXPECT_GT(first.resilience.retries, 0u);
  EXPECT_GT(first.journal_entries, 0u);

  // Resume from the journal: zero evaluations re-paid, identical result.
  raw_calls.store(0);
  DseResult resumed = RunVanillaOpenTuner(space, counting, options);
  EXPECT_EQ(raw_calls.load(), 0);
  EXPECT_EQ(resumed.journal_resumed, first.journal_entries);
  EXPECT_EQ(resumed.best_cost, first.best_cost);
  EXPECT_EQ(resumed.elapsed_minutes, first.elapsed_minutes);
  std::remove(path.c_str());
}

// A scope's circuit breaker is stateful, so its decisions must follow
// proposal order, never completion order. A lone partition and the vanilla
// baseline propose num_cores-wide batches. This evaluator fails every
// attempt on about half the configs and delays the other class, so a
// batch's failures would finish first in one run and last in the other if
// its members ran concurrently. Both runs must trip the breaker at the
// same points and commit the same search.
TEST(ExplorerTest, BreakerDecisionsIgnoreCompletionOrder) {
  kir::Kernel k = NestedKernel();
  DesignSpace space = tuner::BuildDesignSpace(k);
  auto run = [&](bool vanilla, bool failures_first) {
    tuner::EvalFn eval = [hls = HlsEval(k), failures_first](
                             const merlin::DesignConfig& cfg) {
      const bool fails =
          resilience::detail::HashRoll(17, cfg.ToString(), 0) < 0.5;
      if (fails != failures_first) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (fails) throw Error("dead region");
      return hls(cfg);
    };
    ExplorerOptions options;
    options.time_limit_minutes = 60;
    options.num_cores = 8;
    options.seed = 9;
    options.enable_partitioning = false;
    return vanilla ? RunVanillaOpenTuner(space, eval, options)
                   : RunS2faDse(space, k, eval, options);
  };
  for (bool vanilla : {false, true}) {
    SCOPED_TRACE(vanilla ? "vanilla" : "no partitioning");
    const DseResult a = run(vanilla, true);
    const DseResult b = run(vanilla, false);
    EXPECT_GT(a.resilience.breaker_trips, 0u);
    EXPECT_GT(a.resilience.short_circuits, 0u);
    EXPECT_EQ(a.resilience.calls, b.resilience.calls);
    EXPECT_EQ(a.resilience.attempts, b.resilience.attempts);
    EXPECT_EQ(a.resilience.successes, b.resilience.successes);
    EXPECT_EQ(a.resilience.crashes, b.resilience.crashes);
    EXPECT_EQ(a.resilience.exhausted, b.resilience.exhausted);
    EXPECT_EQ(a.resilience.breaker_trips, b.resilience.breaker_trips);
    EXPECT_EQ(a.resilience.short_circuits, b.resilience.short_circuits);
    EXPECT_EQ(a.resilience.backoff_minutes, b.resilience.backoff_minutes);
    EXPECT_EQ(a.best_cost, b.best_cost);
    EXPECT_EQ(a.elapsed_minutes, b.elapsed_minutes);
    EXPECT_EQ(a.evaluations, b.evaluations);
    ASSERT_EQ(a.partitions.size(), 1u);
    ASSERT_EQ(b.partitions.size(), 1u);
    EXPECT_EQ(a.partitions[0].result.eval_times_minutes,
              b.partitions[0].result.eval_times_minutes);
  }
}

TEST(ExplorerTest, TraceIsMonotone) {
  kir::Kernel k = NestedKernel();
  DesignSpace space = tuner::BuildDesignSpace(k);
  tuner::EvalFn eval = HlsEval(k);
  ExplorerOptions options;
  options.time_limit_minutes = 120;
  DseResult r = RunS2faDse(space, k, eval, options);
  for (std::size_t i = 1; i < r.trace.size(); ++i) {
    EXPECT_GE(r.trace[i - 1].best_cost, r.trace[i].best_cost);
    EXPECT_LE(r.trace[i - 1].time_minutes, r.trace[i].time_minutes);
  }
}

}  // namespace
}  // namespace s2fa::dse
