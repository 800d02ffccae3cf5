#include <gtest/gtest.h>

#include <cmath>

#include "apps/app.h"
#include "apps/jvm_baseline.h"
#include "apps_pipeline.h"
#include "b2c/compiler.h"
#include "blaze/runtime.h"
#include "hls/estimator.h"
#include "kir/analysis.h"
#include "kir/printer.h"
#include "merlin/transform.h"
#include "s2fa/framework.h"
#include "support/error.h"

namespace s2fa::apps {
namespace {

using blaze::Column;
using blaze::Dataset;
using jvm::Value;

constexpr std::size_t kTestRecords = 96;  // a few short of one batch

struct Workload {
  Dataset input;
  Dataset broadcast;
  bool has_broadcast = false;
};

Workload MakeWorkload(const App& app, std::uint64_t seed,
                      std::size_t records = kTestRecords) {
  Workload w;
  Rng rng(seed);
  w.input = app.make_input(records, rng);
  if (app.make_broadcast) {
    Rng brng(seed ^ 0xBCA57ULL);
    w.broadcast = app.make_broadcast(brng);
    w.has_broadcast = true;
  }
  return w;
}

double AsDouble(const Value& v) {
  if (v.is_double()) return v.AsDouble();
  if (v.is_float()) return v.AsFloat();
  if (v.is_long()) return static_cast<double>(v.AsLong());
  return v.AsInt();
}

void ExpectDatasetsMatch(const Dataset& got, const Dataset& want,
                         double rel_tol, const std::string& label) {
  ASSERT_EQ(got.num_records(), want.num_records()) << label;
  ASSERT_EQ(got.num_columns(), want.num_columns()) << label;
  for (std::size_t c = 0; c < want.num_columns(); ++c) {
    const Column& w = want.column(c);
    const Column& g = got.ColumnByField(w.field);
    ASSERT_EQ(g.data.size(), w.data.size()) << label << ":" << w.field;
    for (std::size_t n = 0; n < w.data.size(); ++n) {
      double expect = AsDouble(w.data[n]);
      double actual = AsDouble(g.data[n]);
      double tol = rel_tol * std::max(1.0, std::fabs(expect));
      EXPECT_NEAR(actual, expect, tol)
          << label << ": " << w.field << "[" << n << "]";
    }
  }
}

class AppCase : public ::testing::TestWithParam<std::string> {
 protected:
  App app_ = FindApp(GetParam());
};

TEST_P(AppCase, KernelCompilesAndValidates) {
  kir::Kernel k = b2c::CompileKernel(*app_.pool, app_.spec);
  EXPECT_NO_THROW(k.Validate());
  EXPECT_GE(k.task_loop_id, 0);
  std::string c = kir::EmitC(k);
  EXPECT_NE(c.find("void " + app_.spec.kernel_name), std::string::npos);
}

TEST_P(AppCase, JvmBaselineMatchesReference) {
  Workload w = MakeWorkload(app_, 1001);
  JvmRunResult jvm = RunOnJvm(app_, w.input,
                              w.has_broadcast ? &w.broadcast : nullptr);
  Dataset expect =
      app_.reference(w.input, w.has_broadcast ? &w.broadcast : nullptr);
  EXPECT_GT(jvm.total_ns, 0.0);
  // Map outputs are per record; reduce outputs single-record.
  ExpectDatasetsMatch(jvm.output, expect, 1e-5, app_.name + "/jvm");
}

TEST_P(AppCase, AcceleratorMatchesReference) {
  // Build with the area-conservative design (no DSE): functionality must
  // be identical regardless of the configuration.
  Artifact artifact = BuildWithConfig(*app_.pool, app_.spec,
                                      merlin::DesignConfig{});
  blaze::BlazeRuntime runtime;
  RegisterWithBlaze(runtime, app_.name, artifact);

  Workload w = MakeWorkload(app_, 2002);
  const Dataset* bc = w.has_broadcast ? &w.broadcast : nullptr;
  Dataset got = app_.spec.pattern == kir::ParallelPattern::kReduce
                    ? runtime.Reduce(app_.name, w.input, bc)
                    : runtime.Map(app_.name, w.input, bc);
  Dataset expect = app_.reference(w.input, bc);
  // Reduce combines float sums in a different order across batches; allow
  // a small relative tolerance.
  ExpectDatasetsMatch(got, expect, 1e-4, app_.name + "/accel");
}

TEST_P(AppCase, ManualConfigIsLegalAndFeasible) {
  kir::Kernel generated = b2c::CompileKernel(*app_.pool, app_.spec);
  kir::Kernel base = app_.manual_kernel ? app_.manual_kernel(generated)
                                        : generated.Clone();
  auto violations = merlin::ValidateConfig(base, app_.manual_config);
  ASSERT_TRUE(violations.empty())
      << app_.name << ": " << violations.front();
  merlin::TransformResult t = merlin::ApplyDesign(base, app_.manual_config);
  hls::HlsResult r = hls::EstimateHls(t.kernel);
  EXPECT_TRUE(r.feasible) << app_.name << ": " << r.infeasible_reason;
  EXPECT_GT(r.freq_mhz, 60.0);
}

TEST_P(AppCase, DesignSpaceIsLarge) {
  kir::Kernel k = b2c::CompileKernel(*app_.pool, app_.spec);
  tuner::DesignSpace space = tuner::BuildDesignSpace(k);
  // Table 1: spaces are far too large for exhaustive search.
  EXPECT_GT(space.Log10Cardinality(), 5.0) << app_.name;
}

TEST_P(AppCase, WorkloadsAreDeterministic) {
  Workload a = MakeWorkload(app_, 7);
  Workload b = MakeWorkload(app_, 7);
  ASSERT_EQ(a.input.num_records(), b.input.num_records());
  for (std::size_t c = 0; c < a.input.num_columns(); ++c) {
    EXPECT_TRUE(a.input.column(c).data == b.input.column(c).data);
  }
}

TEST_P(AppCase, RandomConfigsPreserveSemantics) {
  // End-to-end property: ANY legal design configuration produces the same
  // results through the Blaze runtime (paper Challenge 1: the transforms
  // must never change functionality).
  kir::Kernel generated = b2c::CompileKernel(*app_.pool, app_.spec);
  // S-W evaluates ~16k DP cells per record; keep its sweep small.
  const std::size_t records = app_.name == "S-W" ? 6 : 40;
  Workload w = MakeWorkload(app_, 3003, records);
  const Dataset* bc = w.has_broadcast ? &w.broadcast : nullptr;
  Dataset expect = app_.reference(w.input, bc);

  Rng rng(909);
  int tested = 0;
  for (int attempt = 0; attempt < 8 && tested < 3; ++attempt) {
    // Draw a random legal config (divisor tiles, bounded parallel).
    merlin::DesignConfig cfg;
    for (const kir::Stmt* loop : generated.Loops()) {
      merlin::LoopConfig lc;
      std::vector<std::int64_t> tiles{1};
      for (std::int64_t t = 2; t < loop->trip_count() && t <= 64; ++t) {
        if (loop->trip_count() % t == 0) tiles.push_back(t);
      }
      lc.tile = tiles[rng.NextIndex(tiles.size())];
      std::int64_t max_par =
          std::min<std::int64_t>(lc.tile > 1 ? lc.tile : loop->trip_count(),
                                 8);
      lc.parallel = rng.NextInt(1, max_par);
      lc.pipeline = static_cast<merlin::PipelineMode>(rng.NextInt(0, 2));
      cfg.loops[loop->loop_id()] = lc;
    }
    Artifact artifact;
    try {
      artifact = BuildWithConfig(*app_.pool, app_.spec, cfg);
    } catch (const Error&) {
      continue;  // infeasible draw; try another
    }
    ++tested;
    blaze::BlazeRuntime runtime;
    RegisterWithBlaze(runtime, app_.name + std::to_string(tested),
                      artifact);
    Dataset got =
        app_.spec.pattern == kir::ParallelPattern::kReduce
            ? runtime.Reduce(app_.name + std::to_string(tested), w.input, bc)
            : runtime.Map(app_.name + std::to_string(tested), w.input, bc);
    ExpectDatasetsMatch(got, expect, 1e-4,
                        app_.name + "/config" + std::to_string(tested));
  }
  EXPECT_GE(tested, 1) << "no feasible random config found";
}

INSTANTIATE_TEST_SUITE_P(AllApps, AppCase,
                         ::testing::Values("PR", "KMeans", "KNN", "LR",
                                           "SVM", "LLS", "AES", "S-W"),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           std::string name = i.param;
                           for (char& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name;
                         });

TEST(AppsTest, AllAppsHaveDistinctNames) {
  auto apps = AllApps();
  ASSERT_EQ(apps.size(), 8u);
  std::set<std::string> names;
  for (const auto& app : apps) names.insert(app.name);
  EXPECT_EQ(names.size(), 8u);
}

TEST(AppsTest, FindAppThrowsOnUnknown) {
  EXPECT_THROW(FindApp("NOPE"), InvalidArgument);
}

TEST(AppsTest, LrManualKernelBreaksTheChain) {
  App lr = FindApp("LR");
  kir::Kernel generated = b2c::CompileKernel(*lr.pool, lr.spec);
  // The generated feature loop carries a non-associative chain.
  bool generated_has_serial_chain = false;
  for (const kir::Stmt* loop : generated.Loops()) {
    kir::LoopRecurrence rec = kir::AnalyzeRecurrence(*loop);
    if (rec.carried && !loop->is_reduction() &&
        loop->loop_id() != generated.task_loop_id) {
      generated_has_serial_chain = true;
    }
  }
  EXPECT_TRUE(generated_has_serial_chain);
  // The manual rewrite restores an associative reduction.
  kir::Kernel manual = lr.manual_kernel(generated);
  bool manual_has_reduction = false;
  for (const kir::Stmt* loop : manual.Loops()) {
    if (loop->is_reduction() && loop->loop_id() != manual.task_loop_id) {
      manual_has_reduction = true;
    }
  }
  EXPECT_TRUE(manual_has_reduction);
}

TEST(AppsTest, AesKernelEncryptsFipsVector) {
  // FIPS-197 appendix B: key 2b7e151628aed2a6abf7158809cf4f3c,
  // plaintext 3243f6a8885a308d313198a2e0370734 ->
  // ciphertext 3925841d02dc09fbdc118597196a0b32.
  App aes = FindApp("AES");
  const std::array<std::uint8_t, 16> key = {
      0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
      0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
  const std::array<std::uint8_t, 16> plain = {
      0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d,
      0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34};
  const std::array<std::uint8_t, 16> cipher = {
      0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb,
      0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a, 0x0b, 0x32};

  Dataset broadcast = MakeAesBroadcast(key);
  Dataset input;
  {
    std::vector<std::int32_t> block(plain.begin(), plain.end());
    blaze::Column col;
    col.field = "_1";
    col.element = jvm::Type::Byte();
    col.per_record = 16;
    for (std::int32_t v : block) {
      col.data.push_back(Value::OfInt(static_cast<std::int8_t>(v)));
    }
    input.AddColumn(std::move(col));
  }
  // Through the JVM interpreter (the Scala-lambda semantics).
  JvmRunResult jvm = RunOnJvm(aes, input, &broadcast);
  const Column& out = jvm.output.ColumnByField("cipher");
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(out.data[static_cast<std::size_t>(i)].AsInt() & 0xff,
              cipher[static_cast<std::size_t>(i)])
        << "byte " << i;
  }
}

// ------------------------------------------------- multi-stage pipelines

// Feeds one AES stage's ciphertext back in as the next stage's plaintext.
Dataset CipherToPlain(const Dataset& d) {
  blaze::Column block = d.ColumnByField("cipher");
  block.field = "_1";
  Dataset out;
  out.AddColumn(std::move(block));
  return out;
}

struct PipelineFixture {
  App aes = FindApp("AES");
  blaze::BlazeRuntime runtime;
  Workload w;
  PipelineFixture() {
    Artifact artifact =
        BuildWithConfig(*aes.pool, aes.spec, merlin::DesignConfig{});
    RegisterWithBlaze(runtime, "aes-stage0", artifact);
    RegisterWithBlaze(runtime, "aes-stage1", artifact);
    w = MakeWorkload(aes, 3003, 64);
  }
  std::vector<PipelineStage> Stages() {
    return {{"aes-stage0", &w.broadcast, nullptr},
            {"aes-stage1", &w.broadcast, CipherToPlain}};
  }
};

TEST(PipelineTest, TwoStageAesIsDoubleEncryption) {
  PipelineFixture fx;
  PipelineResult result = RunPipeline(fx.runtime, fx.Stages(), fx.w.input);
  Dataset expect = fx.aes.reference(
      CipherToPlain(fx.aes.reference(fx.w.input, &fx.w.broadcast)),
      &fx.w.broadcast);
  ExpectDatasetsMatch(result.output, expect, 0, "aes2/pipeline");
  ASSERT_EQ(result.per_stage.size(), 2u);
  EXPECT_EQ(result.stats.invocations,
            result.per_stage[0].invocations + result.per_stage[1].invocations);
  EXPECT_DOUBLE_EQ(
      result.stats.total_us,
      result.per_stage[0].total_us + result.per_stage[1].total_us);
}

TEST(PipelineTest, ValidatesStageList) {
  PipelineFixture fx;
  EXPECT_THROW(RunPipeline(fx.runtime, {}, fx.w.input), Error);
  // An unknown stage id surfaces the registered ids (the manager's
  // unknown-accelerator error message).
  try {
    RunPipeline(fx.runtime, {{"ghost", nullptr, nullptr}}, fx.w.input);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("aes-stage0"), std::string::npos);
    EXPECT_NE(message.find("aes-stage1"), std::string::npos);
  }
}

}  // namespace
}  // namespace s2fa::apps
