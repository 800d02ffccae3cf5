#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "apps/app.h"
#include "b2c/compiler.h"
#include "merlin/transform.h"
#include "obs/obs.h"
#include "s2fa/framework.h"
#include "support/rng.h"
#include "tuner/space.h"

namespace s2fa {
namespace {

// End-to-end framework tests on a real app (SVM is small and fast).

FrameworkOptions FastOptions() {
  FrameworkOptions options;
  options.dse.time_limit_minutes = 90;
  options.dse.num_cores = 8;
  options.dse.seed = 5;
  options.dse.training_samples = 120;
  return options;
}

TEST(FrameworkTest, BuildAcceleratorProducesAllArtifacts) {
  apps::App app = apps::FindApp("SVM");
  Artifact artifact = BuildAccelerator(*app.pool, app.spec, FastOptions());

  // Front end.
  EXPECT_EQ(artifact.generated_kernel.name, "svm_kernel");
  EXPECT_NE(artifact.c_source.find("void svm_kernel"), std::string::npos);
  EXPECT_GT(artifact.space.num_factors(), 5u);

  // Exploration.
  EXPECT_TRUE(artifact.exploration.found_feasible);
  EXPECT_GT(artifact.exploration.evaluations, 10u);
  EXPECT_FALSE(artifact.exploration.partitions.empty());

  // Back end.
  EXPECT_TRUE(artifact.best_hls.feasible);
  EXPECT_GT(artifact.best_hls.freq_mhz, 60.0);
  EXPECT_NE(artifact.best_c_source.find("#pragma"), std::string::npos);

  // Integration glue.
  EXPECT_FALSE(artifact.plan.entries.empty());
  EXPECT_NE(artifact.scala_helper.find("Serde"), std::string::npos);
}

TEST(FrameworkTest, BestDesignNotWorseThanConservative) {
  apps::App app = apps::FindApp("SVM");
  Artifact tuned = BuildAccelerator(*app.pool, app.spec, FastOptions());
  Artifact conservative =
      BuildWithConfig(*app.pool, app.spec, merlin::DesignConfig{});
  EXPECT_LE(tuned.best_hls.exec_us, conservative.best_hls.exec_us);
}

// One illegal SVM config per merlin::ValidateConfig rule (SVM: L0 and L1
// trip 32, L2 trip 1024, on-chip broadcast buffer bc3), each tagged with a
// fragment of the violation it must raise.
struct IllegalCase {
  const char* rule;
  merlin::DesignConfig config;
};

std::vector<IllegalCase> IllegalSvmConfigs() {
  std::vector<IllegalCase> cases;
  auto loop = [](int id, merlin::LoopConfig cfg) {
    merlin::DesignConfig config;
    config.loops[id] = cfg;
    return config;
  };
  auto bits = [](const char* buffer, int width) {
    merlin::DesignConfig config;
    config.buffer_bits[buffer] = width;
    return config;
  };
  cases.push_back({"no loop with id", loop(99, {1, 1, {}})});
  cases.push_back({"must divide the trip count", loop(2, {3, 1, {}})});
  cases.push_back({"outside [1, 32]", loop(1, {1, 64, {}})});
  cases.push_back({"exceeds the point-loop trip", loop(2, {4, 8, {}})});
  cases.push_back({"must be a power of two", bits("in_1", 48)});
  cases.push_back({"is on-chip", bits("bc3", 64)});
  return cases;
}

// Every rule's rejection returns the same pinned outcome, bumps
// merlin.rejected_configs once, and ApplyDesign still throws on it.
TEST(FrameworkTest, EvaluatorTreatsIllegalConfigsAsInfeasible) {
  apps::App app = apps::FindApp("SVM");
  kir::Kernel kernel = b2c::CompileKernel(*app.pool, app.spec);
  tuner::EvalFn eval = MakeHlsEvaluator(kernel);
  obs::SetEnabled(true);
  const bool counting = obs::Enabled();
  obs::Registry::Global().Reset();
  auto rejected = [] {
    auto counters = obs::Registry::Global().Snapshot().counters;
    auto it = counters.find("merlin.rejected_configs");
    return it == counters.end() ? std::int64_t{0} : it->second;
  };

  std::int64_t expected_rejections = 0;
  for (const IllegalCase& c : IllegalSvmConfigs()) {
    SCOPED_TRACE(c.rule);
    const std::vector<std::string> violations =
        merlin::ValidateConfig(kernel, c.config);
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_NE(violations[0].find(c.rule), std::string::npos)
        << violations[0];
    EXPECT_FALSE(merlin::IsLegalConfig(kernel, c.config));
    EXPECT_THROW(merlin::ApplyDesign(kernel, c.config), InvalidArgument);
    ++expected_rejections;  // the ApplyDesign call above

    const tuner::EvalOutcome outcome = eval(c.config);
    ++expected_rejections;
    EXPECT_FALSE(outcome.feasible);
    EXPECT_EQ(outcome.cost, std::numeric_limits<double>::infinity());
    EXPECT_EQ(outcome.eval_minutes, 0x1.8p+1);
    EXPECT_EQ(outcome.bottleneck.kind, hls::BottleneckKind::kNone);
    EXPECT_EQ(outcome.bottleneck.quantity, 0.0);
    EXPECT_EQ(outcome.bottleneck.margin, 0.0);
    if (counting) {
      EXPECT_EQ(rejected(), expected_rejections);
    }
  }

  // A legal config is estimated, not rejected.
  merlin::DesignConfig legal;
  legal.loops[2] = {4, 2, merlin::PipelineMode::kOn};
  EXPECT_TRUE(merlin::ValidateConfig(kernel, legal).empty());
  EXPECT_TRUE(merlin::IsLegalConfig(kernel, legal));
  EXPECT_TRUE(eval(legal).feasible);
  if (counting) {
    EXPECT_EQ(rejected(), expected_rejections);
  }
  obs::Registry::Global().Reset();
  obs::SetEnabled(false);
}

// ApplyDesign's exception names the first violation in rule-walk order
// (loops by id, then buffers by name) and counts the rest, with the
// message texts pinned exactly.
TEST(LegalityTest, ApplyDesignThrowsTheFirstViolation) {
  apps::App app = apps::FindApp("SVM");
  kir::Kernel kernel = b2c::CompileKernel(*app.pool, app.spec);
  const std::vector<std::string> expected = {
      "no loop with id 99",
      "L2: tile factor 3 must divide the trip count 1024 and be smaller "
      "than it",
      "L1: parallel factor 64 outside [1, 32]",
      "L2: parallel factor exceeds the point-loop trip (tile factor)",
      "buffer in_1: bit-width 48 must be a power of two in [element width, "
      "512]",
      "buffer bc3 is on-chip; bit-width applies to interface buffers",
  };
  const std::vector<IllegalCase> cases = IllegalSvmConfigs();
  ASSERT_EQ(cases.size(), expected.size());
  auto thrown = [&](const merlin::DesignConfig& config) -> std::string {
    try {
      merlin::ApplyDesign(kernel, config);
    } catch (const InvalidArgument& e) {
      return e.what();
    }
    return "(no throw)";
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_NE(thrown(cases[i].config).find("illegal design config: " +
                                           expected[i]),
              std::string::npos)
        << thrown(cases[i].config);
  }

  // Several violations: the first by walk order, plus a count.
  merlin::DesignConfig many;
  many.loops[99] = {1, 1, {}};
  many.loops[1] = {0, 64, {}};
  many.buffer_bits["in_1"] = 48;
  many.buffer_bits["bc3"] = 64;
  EXPECT_EQ(merlin::ValidateConfig(kernel, many).size(), 5u);
  EXPECT_NE(thrown(many).find("illegal design config: L1: tile factor 0 < 1 "
                              "(+4 more)"),
            std::string::npos)
      << thrown(many);
}

// The bool form and the message form walk the same rules, so they agree
// on every config: uniform draws over each app's design space (mostly
// illegal) and per-loop and per-buffer edge cases.
TEST(LegalityTest, BoolFormAgreesWithMessagesOnEveryAppSpace) {
  constexpr int kDraws = 500;
  for (const apps::App& app : apps::AllApps()) {
    SCOPED_TRACE(app.name);
    const kir::Kernel kernel = b2c::CompileKernel(*app.pool, app.spec);
    const tuner::DesignSpace space = tuner::BuildDesignSpace(kernel);
    int legal = 0;
    auto check = [&](const merlin::DesignConfig& config) {
      const bool is_legal = merlin::IsLegalConfig(kernel, config);
      EXPECT_EQ(is_legal, merlin::ValidateConfig(kernel, config).empty())
          << config.ToString();
      if (is_legal) ++legal;
      return is_legal;
    };

    Rng rng(20);
    for (int draw = 0; draw < kDraws; ++draw) {
      check(space.ToConfig(space.RandomPoint(rng)));
    }
    EXPECT_LT(legal, kDraws) << "uniform draws should include illegal ones";

    auto with_loop = [](int id, merlin::LoopConfig loop) {
      merlin::DesignConfig config;
      config.loops[id] = loop;
      return config;
    };
    for (const kir::Stmt* loop : kernel.Loops()) {
      const int id = loop->loop_id();
      const std::int64_t trip = loop->trip_count();
      EXPECT_TRUE(check(with_loop(id, {1, trip, {}})));
      EXPECT_FALSE(check(with_loop(id, {1, trip + 1, {}})));
      EXPECT_FALSE(check(with_loop(id, {0, 1, {}})));
      if (trip > 1) {
        // Tiling by the whole trip count is no tiling at all.
        EXPECT_FALSE(check(with_loop(id, {trip, 1, {}})));
      }
      if (trip % 2 == 0 && trip > 2) {
        const std::int64_t tile = trip / 2;
        EXPECT_TRUE(check(with_loop(id, {tile, tile, {}})));
        EXPECT_FALSE(check(with_loop(id, {tile, tile + 1, {}})));
      }
    }
    EXPECT_FALSE(check(with_loop(kernel.MaxLoopId() + 1, {1, 1, {}})));

    for (const kir::Buffer& buffer : kernel.buffers) {
      merlin::DesignConfig config;
      config.buffer_bits[buffer.name] = 512;
      const bool local = buffer.kind == kir::BufferKind::kLocal;
      EXPECT_EQ(check(config), !local) << buffer.name;
      config.buffer_bits[buffer.name] = 3 * buffer.element.bit_width();
      EXPECT_FALSE(check(config)) << buffer.name;
    }
    merlin::DesignConfig unknown;
    unknown.buffer_bits["no_such_buffer"] = 64;
    EXPECT_FALSE(check(unknown));
  }
}

TEST(FrameworkTest, EvaluatorIsDeterministic) {
  apps::App app = apps::FindApp("SVM");
  kir::Kernel kernel = b2c::CompileKernel(*app.pool, app.spec);
  tuner::EvalFn eval = MakeHlsEvaluator(kernel);
  merlin::DesignConfig cfg;
  cfg.loops[1] = {1, 4, merlin::PipelineMode::kOn};
  tuner::EvalOutcome a = eval(cfg);
  tuner::EvalOutcome b = eval(cfg);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.eval_minutes, b.eval_minutes);
}

TEST(FrameworkTest, BuildWithInfeasibleConfigThrows) {
  apps::App app = apps::FindApp("LR");
  merlin::DesignConfig monster;
  // Fully unroll everything: blows the resource cap.
  monster.loops[2] = {1, 64, merlin::PipelineMode::kOn};
  monster.loops[3] = {1, 1024, merlin::PipelineMode::kOn};
  EXPECT_THROW(BuildWithConfig(*app.pool, app.spec, monster), Error);
}

TEST(FrameworkTest, GeneratedCMatchesPaperShape) {
  // The motivating example's shape (paper Code 3): flat pointers in, a
  // task loop, and per-field buffers for the tuple.
  apps::App app = apps::FindApp("S-W");
  Artifact artifact =
      BuildWithConfig(*app.pool, app.spec, merlin::DesignConfig{});
  const std::string& c = artifact.c_source;
  EXPECT_NE(c.find("char *in_1"), std::string::npos) << c;
  EXPECT_NE(c.find("char *in_2"), std::string::npos);
  EXPECT_NE(c.find("int *out_1"), std::string::npos);
  EXPECT_NE(c.find("for (int i = 0; i < 256; i++)"), std::string::npos);
}

}  // namespace
}  // namespace s2fa
