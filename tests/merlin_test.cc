#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "kir/analysis.h"
#include "kir/eval.h"
#include "kir/printer.h"
#include "merlin/design.h"
#include "merlin/transform.h"
#include "support/rng.h"

namespace s2fa::merlin {
namespace {

using jvm::Value;
using kir::BinaryOp;
using kir::Buffer;
using kir::BufferKind;
using kir::Expr;
using kir::Stmt;
using kir::Type;

// out[i] = in[i] * 3 for i in [0, 24): a loop whose trip has several
// divisors for tiling tests.
kir::Kernel MakeScaleKernel() {
  kir::Kernel k;
  k.name = "scale24";
  k.buffers.push_back({"in", Type::Float(), 24, BufferKind::kInput, "in._1"});
  k.buffers.push_back(
      {"out", Type::Float(), 24, BufferKind::kOutput, "ret._1"});
  auto i = Expr::Var("i", Type::Int());
  auto body = Stmt::Assign(
      Expr::ArrayRef("out", Type::Float(), i),
      Expr::Binary(BinaryOp::kMul, Expr::ArrayRef("in", Type::Float(), i),
                   Expr::FloatLit(3.0f)));
  k.body = Stmt::Block({Stmt::For(0, "i", 24, Stmt::Block({body}))});
  k.task_loop_id = 0;
  return k;
}

// Nested kernel: for i in 8 { acc = 0; for j in 16: acc += a[i*16+j]; out[i] = acc }
kir::Kernel MakeSumKernel() {
  kir::Kernel k;
  k.name = "rowsum";
  k.buffers.push_back({"a", Type::Float(), 128, BufferKind::kInput, ""});
  k.buffers.push_back({"out", Type::Float(), 8, BufferKind::kOutput, ""});
  auto i = Expr::Var("i", Type::Int());
  auto j = Expr::Var("j", Type::Int());
  auto acc = Expr::Var("acc", Type::Float());
  auto elem = Expr::ArrayRef(
      "a", Type::Float(),
      Expr::Binary(BinaryOp::kAdd,
                   Expr::Binary(BinaryOp::kMul, i, Expr::IntLit(16)), j));
  auto inner = Stmt::For(
      1, "j", 16,
      Stmt::Block({Stmt::Assign(acc, Expr::Binary(BinaryOp::kAdd, acc, elem))}));
  inner->set_is_reduction(true);
  auto outer = Stmt::For(
      0, "i", 8,
      Stmt::Block({Stmt::Decl("acc", Type::Float(), Expr::FloatLit(0.0f)),
                   inner,
                   Stmt::Assign(Expr::ArrayRef("out", Type::Float(), i), acc)}));
  k.body = Stmt::Block({outer});
  k.task_loop_id = 0;
  return k;
}

kir::BufferMap RandomInputs(const kir::Kernel& k, std::uint64_t seed) {
  Rng rng(seed);
  kir::BufferMap buffers;
  for (const Buffer* b : k.InputBuffers()) {
    for (std::int64_t n = 0; n < b->length; ++n) {
      buffers[b->name].push_back(
          Value::OfFloat(static_cast<float>(rng.NextDouble(-4, 4))));
    }
  }
  return buffers;
}

// Runs both kernels on the same inputs and compares all output buffers.
void ExpectEquivalent(const kir::Kernel& a, const kir::Kernel& b,
                      std::uint64_t seed) {
  kir::BufferMap ba = RandomInputs(a, seed);
  kir::BufferMap bb = ba;
  kir::Evaluator(a).Run({}, ba);
  kir::Evaluator(b).Run({}, bb);
  for (const Buffer* buf : a.OutputBuffers()) {
    ASSERT_EQ(ba[buf->name].size(), bb[buf->name].size());
    for (std::size_t n = 0; n < ba[buf->name].size(); ++n) {
      EXPECT_EQ(ba[buf->name][n].AsFloat(), bb[buf->name][n].AsFloat())
          << buf->name << "[" << n << "]";
    }
  }
}

// ------------------------------------------------------------ validation

TEST(MerlinValidateTest, AcceptsLegalConfig) {
  kir::Kernel k = MakeScaleKernel();
  DesignConfig cfg;
  cfg.loops[0] = {4, 2, PipelineMode::kOn};
  cfg.buffer_bits["in"] = 128;
  EXPECT_TRUE(ValidateConfig(k, cfg).empty());
}

TEST(MerlinValidateTest, RejectsUnknownLoop) {
  kir::Kernel k = MakeScaleKernel();
  DesignConfig cfg;
  cfg.loops[42] = {};
  EXPECT_FALSE(ValidateConfig(k, cfg).empty());
}

TEST(MerlinValidateTest, RejectsNonDividingTile) {
  kir::Kernel k = MakeScaleKernel();
  DesignConfig cfg;
  cfg.loops[0] = {5, 1, PipelineMode::kOff};  // 5 does not divide 24
  EXPECT_FALSE(ValidateConfig(k, cfg).empty());
}

TEST(MerlinValidateTest, RejectsOversizedParallel) {
  kir::Kernel k = MakeScaleKernel();
  DesignConfig cfg;
  cfg.loops[0] = {1, 25, PipelineMode::kOff};
  EXPECT_FALSE(ValidateConfig(k, cfg).empty());
}

TEST(MerlinValidateTest, RejectsParallelBeyondTile) {
  kir::Kernel k = MakeScaleKernel();
  DesignConfig cfg;
  cfg.loops[0] = {4, 8, PipelineMode::kOff};
  EXPECT_FALSE(ValidateConfig(k, cfg).empty());
}

TEST(MerlinValidateTest, RejectsBadBitwidths) {
  kir::Kernel k = MakeScaleKernel();
  for (int bits : {24, 1024, 8}) {  // not 2^n / too big / below element
    DesignConfig cfg;
    cfg.buffer_bits["in"] = bits;
    EXPECT_FALSE(ValidateConfig(k, cfg).empty()) << bits;
  }
}

TEST(MerlinValidateTest, RejectsBitwidthOnLocalBuffer) {
  kir::Kernel k = MakeScaleKernel();
  k.buffers.push_back({"scratch", Type::Int(), 8, BufferKind::kLocal, ""});
  DesignConfig cfg;
  cfg.buffer_bits["scratch"] = 64;
  EXPECT_FALSE(ValidateConfig(k, cfg).empty());
}

TEST(MerlinValidateTest, ApplyThrowsOnIllegalConfig) {
  kir::Kernel k = MakeScaleKernel();
  DesignConfig cfg;
  cfg.loops[0] = {5, 1, PipelineMode::kOff};
  EXPECT_THROW(ApplyDesign(k, cfg), InvalidArgument);
}

// ------------------------------------------------------------ transforms

TEST(MerlinTransformTest, TilingSplitsLoop) {
  kir::Kernel k = MakeScaleKernel();
  DesignConfig cfg;
  cfg.loops[0] = {4, 1, PipelineMode::kOff};
  TransformResult r = ApplyDesign(k, cfg);
  auto loops = r.kernel.Loops();
  ASSERT_EQ(loops.size(), 2u);
  EXPECT_EQ(loops[0]->loop_id(), 0);
  EXPECT_EQ(loops[0]->trip_count(), 6);   // 24/4 tiles
  EXPECT_EQ(loops[1]->trip_count(), 4);   // point loop
  EXPECT_NE(loops[1]->loop_id(), 0);
}

TEST(MerlinTransformTest, TilingPreservesSemantics) {
  kir::Kernel k = MakeScaleKernel();
  for (int tile : {2, 3, 4, 6, 8, 12}) {
    DesignConfig cfg;
    cfg.loops[0] = {tile, 1, PipelineMode::kOff};
    TransformResult r = ApplyDesign(k, cfg);
    ExpectEquivalent(k, r.kernel, 1234 + static_cast<std::uint64_t>(tile));
  }
}

TEST(MerlinTransformTest, TilingNestedKernelPreservesSemantics) {
  kir::Kernel k = MakeSumKernel();
  DesignConfig cfg;
  cfg.loops[0] = {4, 2, PipelineMode::kOn};
  cfg.loops[1] = {4, 4, PipelineMode::kOff};
  TransformResult r = ApplyDesign(k, cfg);
  ExpectEquivalent(k, r.kernel, 99);
}

TEST(MerlinTransformTest, ParallelAnnotationLandsOnPointLoop) {
  kir::Kernel k = MakeScaleKernel();
  DesignConfig cfg;
  cfg.loops[0] = {4, 2, PipelineMode::kOn};
  TransformResult r = ApplyDesign(k, cfg);
  auto loops = r.kernel.Loops();
  ASSERT_EQ(loops.size(), 2u);
  EXPECT_EQ(ParallelFactorOf(*loops[0]), 1);
  EXPECT_EQ(ParallelFactorOf(*loops[1]), 2);
  EXPECT_EQ(PipelineModeOf(*loops[0]), PipelineMode::kOn);
  EXPECT_EQ(PipelineModeOf(*loops[1]), PipelineMode::kOff);
}

TEST(MerlinTransformTest, ReductionGetsTreeAnnotation) {
  kir::Kernel k = MakeSumKernel();
  DesignConfig cfg;
  cfg.loops[1] = {1, 8, PipelineMode::kOff};
  TransformResult r = ApplyDesign(k, cfg);
  const Stmt* inner = kir::FindLoop(r.kernel.body, 1);
  ASSERT_NE(inner, nullptr);
  EXPECT_TRUE(HasTreeReduction(*inner));
}

TEST(MerlinTransformTest, NonReductionGetsNoTree) {
  kir::Kernel k = MakeScaleKernel();
  DesignConfig cfg;
  cfg.loops[0] = {1, 8, PipelineMode::kOff};
  TransformResult r = ApplyDesign(k, cfg);
  EXPECT_FALSE(HasTreeReduction(*kir::FindLoop(r.kernel.body, 0)));
}

TEST(MerlinTransformTest, FlattenFullyUnrollsSubLoops) {
  kir::Kernel k = MakeSumKernel();
  DesignConfig cfg;
  cfg.loops[0] = {1, 1, PipelineMode::kFlatten};
  cfg.loops[1] = {1, 2, PipelineMode::kOn};  // gets invalidated
  TransformResult r = ApplyDesign(k, cfg);
  const Stmt* inner = kir::FindLoop(r.kernel.body, 1);
  EXPECT_EQ(ParallelFactorOf(*inner), 16);  // full trip count
  EXPECT_EQ(PipelineModeOf(*inner), PipelineMode::kOff);
  EXPECT_FALSE(r.notes.empty());  // the override is reported
}

TEST(MerlinTransformTest, BitwidthRecordedOnBuffers) {
  kir::Kernel k = MakeScaleKernel();
  DesignConfig cfg;
  cfg.buffer_bits["in"] = 256;
  TransformResult r = ApplyDesign(k, cfg);
  EXPECT_EQ(r.kernel.FindBuffer("in")->interface_bits, 256);
  // Unconfigured interface buffers default to the element width.
  EXPECT_EQ(r.kernel.FindBuffer("out")->interface_bits, 32);
}

TEST(MerlinTransformTest, OriginalKernelUntouched) {
  kir::Kernel k = MakeScaleKernel();
  DesignConfig cfg;
  cfg.loops[0] = {4, 2, PipelineMode::kOn};
  cfg.buffer_bits["in"] = 256;
  ApplyDesign(k, cfg);
  EXPECT_EQ(k.Loops().size(), 1u);
  EXPECT_EQ(k.FindBuffer("in")->interface_bits, 0);
  EXPECT_EQ(k.Loops()[0]->pragmas(), kir::LoopPragmas{});
}

TEST(MerlinTransformTest, PragmasAppearInEmittedC) {
  kir::Kernel k = MakeSumKernel();
  DesignConfig cfg;
  cfg.loops[1] = {1, 4, PipelineMode::kOn};
  TransformResult r = ApplyDesign(k, cfg);
  std::string c = kir::EmitC(r.kernel);
  EXPECT_NE(c.find("#pragma ACCEL PARALLEL factor=4"), std::string::npos)
      << c;
  EXPECT_NE(c.find("#pragma ACCEL PIPELINE"), std::string::npos) << c;
}

// Property sweep: random legal configs preserve semantics on the nested
// kernel.
class RandomConfigSweep : public ::testing::TestWithParam<int> {};

TEST_P(RandomConfigSweep, TransformedKernelEquivalent) {
  kir::Kernel k = MakeSumKernel();
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  DesignConfig cfg;
  auto pick_loop_cfg = [&](std::int64_t trip) {
    LoopConfig lc;
    std::vector<std::int64_t> tiles{1};
    for (std::int64_t t = 2; t < trip; ++t) {
      if (trip % t == 0) tiles.push_back(t);
    }
    lc.tile = tiles[rng.NextIndex(tiles.size())];
    std::int64_t max_par = lc.tile > 1 ? lc.tile : trip;
    lc.parallel = static_cast<std::int64_t>(rng.NextInt(1, max_par));
    lc.pipeline = static_cast<PipelineMode>(rng.NextInt(0, 2));
    return lc;
  };
  cfg.loops[0] = pick_loop_cfg(8);
  cfg.loops[1] = pick_loop_cfg(16);
  int bits_choices[] = {32, 64, 128, 256, 512};
  cfg.buffer_bits["a"] = bits_choices[rng.NextIndex(5)];
  ASSERT_TRUE(ValidateConfig(k, cfg).empty()) << cfg.ToString();
  TransformResult r = ApplyDesign(k, cfg);
  ExpectEquivalent(k, r.kernel, 5000 + static_cast<std::uint64_t>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomConfigSweep, ::testing::Range(0, 16));

}  // namespace
}  // namespace s2fa::merlin
