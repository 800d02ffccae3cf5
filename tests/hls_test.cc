#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "apps/app.h"
#include "b2c/compiler.h"
#include "hls/estimator.h"
#include "hls/view.h"
#include "kir/analysis.h"
#include "kir/printer.h"
#include "merlin/transform.h"
#include "support/rng.h"
#include "tuner/space.h"

namespace s2fa::hls {
namespace {

using kir::BinaryOp;
using kir::Buffer;
using kir::BufferKind;
using kir::Expr;
using kir::Stmt;
using kir::Type;
using merlin::DesignConfig;
using merlin::PipelineMode;

// Streaming map kernel: out[i] = in[i] * 2 + 1, trip 1024.
kir::Kernel StreamKernel() {
  kir::Kernel k;
  k.name = "stream";
  k.buffers.push_back({"in", Type::Float(), 1024, BufferKind::kInput, ""});
  k.buffers.push_back({"out", Type::Float(), 1024, BufferKind::kOutput, ""});
  auto i = Expr::Var("i", Type::Int());
  auto body = Stmt::Assign(
      Expr::ArrayRef("out", Type::Float(), i),
      Expr::Binary(BinaryOp::kAdd,
                   Expr::Binary(BinaryOp::kMul,
                                Expr::ArrayRef("in", Type::Float(), i),
                                Expr::FloatLit(2.0f)),
                   Expr::FloatLit(1.0f)));
  auto loop = Stmt::For(0, "i", 1024, Stmt::Block({body}));
  loop->set_inserted_by_template(true);
  k.body = Stmt::Block({loop});
  k.task_loop_id = 0;
  return k;
}

// Accumulating kernel: acc += in[i] (float), trip 1024 — carried recurrence.
kir::Kernel ReduceKernel() {
  kir::Kernel k;
  k.name = "reduce";
  k.buffers.push_back({"in", Type::Float(), 1024, BufferKind::kInput, ""});
  k.buffers.push_back({"out", Type::Float(), 1, BufferKind::kOutput, ""});
  auto i = Expr::Var("i", Type::Int());
  auto acc = Expr::Var("acc", Type::Float());
  auto loop = Stmt::For(
      0, "i", 1024,
      Stmt::Block({Stmt::Assign(
          acc, Expr::Binary(BinaryOp::kAdd, acc,
                            Expr::ArrayRef("in", Type::Float(), i)))}));
  loop->set_is_reduction(true);
  k.body = Stmt::Block(
      {Stmt::Decl("acc", Type::Float(), Expr::FloatLit(0.0f)), loop,
       Stmt::Assign(Expr::ArrayRef("out", Type::Float(), Expr::IntLit(0)),
                    acc)});
  k.task_loop_id = 0;
  return k;
}

// Wavefront kernel: h[i+1] = h[i] + in[i] over a local buffer.
kir::Kernel WavefrontKernel() {
  kir::Kernel k;
  k.name = "wave";
  k.buffers.push_back({"in", Type::Int(), 256, BufferKind::kInput, ""});
  k.buffers.push_back({"out", Type::Int(), 1, BufferKind::kOutput, ""});
  k.buffers.push_back({"h", Type::Int(), 257, BufferKind::kLocal, ""});
  auto i = Expr::Var("i", Type::Int());
  auto loop = Stmt::For(
      0, "i", 256,
      Stmt::Block({Stmt::Assign(
          Expr::ArrayRef("h", Type::Int(),
                         Expr::Binary(BinaryOp::kAdd, i, Expr::IntLit(1))),
          Expr::Binary(BinaryOp::kAdd, Expr::ArrayRef("h", Type::Int(), i),
                       Expr::ArrayRef("in", Type::Int(), i)))}));
  k.body = Stmt::Block(
      {loop,
       Stmt::Assign(Expr::ArrayRef("out", Type::Int(), Expr::IntLit(0)),
                    Expr::ArrayRef("h", Type::Int(), Expr::IntLit(256)))});
  k.task_loop_id = 0;
  return k;
}

// Nested kernel: out[i] = sum_j in[8*i + j], an 8x8 nest whose outer loop
// holds a live inner loop unless the inner one is fully unrolled.
kir::Kernel NestedKernel() {
  kir::Kernel k;
  k.name = "nested";
  k.buffers.push_back({"in", Type::Float(), 64, BufferKind::kInput, ""});
  k.buffers.push_back({"out", Type::Float(), 8, BufferKind::kOutput, ""});
  auto i = Expr::Var("i", Type::Int());
  auto j = Expr::Var("j", Type::Int());
  auto acc = Expr::Var("acc", Type::Float());
  auto inner = Stmt::For(
      1, "j", 8,
      Stmt::Block({Stmt::Assign(
          acc,
          Expr::Binary(BinaryOp::kAdd, acc,
                       Expr::ArrayRef(
                           "in", Type::Float(),
                           Expr::Binary(BinaryOp::kAdd,
                                        Expr::Binary(BinaryOp::kMul, i,
                                                     Expr::IntLit(8)),
                                        j))))}));
  auto outer = Stmt::For(
      0, "i", 8,
      Stmt::Block({Stmt::Decl("acc", Type::Float(), Expr::FloatLit(0.0f)),
                   inner,
                   Stmt::Assign(Expr::ArrayRef("out", Type::Float(), i),
                                acc)}));
  k.body = Stmt::Block({outer});
  return k;
}

// out[i] = 3 * in[i] (or in[i] * 3) over longs: a strength-reduced
// constant multiply.
kir::Kernel ConstMulKernel(bool literal_first) {
  kir::Kernel k;
  k.name = literal_first ? "cmul_lit_first" : "cmul_lit_second";
  k.buffers.push_back({"in", Type::Long(), 256, BufferKind::kInput, ""});
  k.buffers.push_back({"out", Type::Long(), 256, BufferKind::kOutput, ""});
  auto i = Expr::Var("i", Type::Int());
  auto x = Expr::ArrayRef("in", Type::Long(), i);
  auto c = Expr::IntLit(3);  // 32-bit literal against a 64-bit operand
  auto product =
      literal_first ? Expr::Binary(BinaryOp::kMul, c, x)
                    : Expr::Binary(BinaryOp::kMul, x, c);
  auto loop = Stmt::For(
      0, "i", 256,
      Stmt::Block({Stmt::Assign(Expr::ArrayRef("out", Type::Long(), i),
                                product)}));
  k.body = Stmt::Block({loop});
  k.task_loop_id = 0;
  return k;
}

kir::Kernel Transformed(const kir::Kernel& k, const DesignConfig& cfg) {
  return merlin::ApplyDesign(k, cfg).kernel;
}

TEST(HlsTest, BaselineIsFeasibleAndSequential) {
  HlsResult r = EstimateHls(StreamKernel());
  EXPECT_TRUE(r.feasible);
  EXPECT_GT(r.cycles, 1024.0);  // at least one cycle per element
  EXPECT_GT(r.freq_mhz, 100.0);
  EXPECT_LT(r.util.MaxFraction(), 0.2);
  EXPECT_GT(r.eval_minutes, 0.0);
}

TEST(HlsTest, PlausibleSanityChecksResults) {
  HlsResult r = EstimateHls(StreamKernel());
  EXPECT_TRUE(r.Plausible());

  HlsResult nan_cycles = r;
  nan_cycles.cycles = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(nan_cycles.Plausible());

  HlsResult zero_freq = r;
  zero_freq.freq_mhz = 0;
  EXPECT_FALSE(zero_freq.Plausible());

  HlsResult wild_util = r;
  wild_util.util.lut_frac = 1.7;  // >100% from a tool claiming feasibility
  EXPECT_FALSE(wild_util.Plausible());

  HlsResult no_minutes = r;
  no_minutes.eval_minutes = 0;
  EXPECT_FALSE(no_minutes.Plausible());

  // An infeasible verdict is a sane answer: only the runtime needs to hold.
  HlsResult infeasible;
  infeasible.feasible = false;
  infeasible.eval_minutes = 2.0;
  EXPECT_TRUE(infeasible.Plausible());
}

TEST(HlsTest, PipeliningCutsCycles) {
  kir::Kernel k = StreamKernel();
  DesignConfig off, on;
  on.loops[0] = {1, 1, PipelineMode::kOn};
  HlsResult r_off = EstimateHls(Transformed(k, off));
  HlsResult r_on = EstimateHls(Transformed(k, on));
  EXPECT_LT(r_on.cycles, r_off.cycles / 3.0);
}

TEST(HlsTest, UnrollingCutsCyclesAndRaisesResources) {
  kir::Kernel k = StreamKernel();
  DesignConfig u1, u16;
  u1.loops[0] = {1, 1, PipelineMode::kOn};
  u1.buffer_bits["in"] = 512;
  u1.buffer_bits["out"] = 512;
  u16.loops[0] = {1, 16, PipelineMode::kOn};
  u16.buffer_bits["in"] = 512;
  u16.buffer_bits["out"] = 512;
  HlsResult r1 = EstimateHls(Transformed(k, u1));
  HlsResult r16 = EstimateHls(Transformed(k, u16));
  EXPECT_LT(r16.cycles, r1.cycles);
  EXPECT_GT(r16.util.dsp, r1.util.dsp);
  EXPECT_GT(r16.util.lut, r1.util.lut);
}

TEST(HlsTest, WideInterfaceRaisesStreamingThroughput) {
  kir::Kernel k = StreamKernel();
  DesignConfig narrow, wide;
  narrow.loops[0] = {1, 8, PipelineMode::kOn};
  narrow.buffer_bits["in"] = 32;
  narrow.buffer_bits["out"] = 32;
  wide.loops[0] = {1, 8, PipelineMode::kOn};
  wide.buffer_bits["in"] = 512;
  wide.buffer_bits["out"] = 512;
  HlsResult r_narrow = EstimateHls(Transformed(k, narrow));
  HlsResult r_wide = EstimateHls(Transformed(k, wide));
  // 8 x 32-bit accesses/initiation: II 8 at 32-bit, II 1 at 512-bit.
  EXPECT_LT(r_wide.cycles * 3, r_narrow.cycles);
}

TEST(HlsTest, RecurrenceBoundsII) {
  kir::Kernel k = ReduceKernel();
  // Strip the reduction mark: an accumulation Merlin may NOT reorder
  // (strict-IEEE) pipelines at the add-chain latency instead of II 1.
  kir::FindLoop(k.body, 0)->set_is_reduction(false);
  DesignConfig cfg;
  cfg.loops[0] = {1, 1, PipelineMode::kOn};
  cfg.buffer_bits["in"] = 512;
  HlsResult r = EstimateHls(Transformed(k, cfg));
  // II is bounded by the float-add cycle (latency 7): cycles ~ 7 * 1024.
  EXPECT_GT(r.cycles, 6.0 * 1024);
  EXPECT_LT(r.cycles, 9.0 * 1024);
}

TEST(HlsTest, TreeReductionRestoresII) {
  kir::Kernel k = ReduceKernel();
  DesignConfig cfg;
  cfg.loops[0] = {1, 8, PipelineMode::kOn};  // reduction -> tree pragma
  cfg.buffer_bits["in"] = 512;
  kir::Kernel t = Transformed(k, cfg);
  EXPECT_TRUE(merlin::HasTreeReduction(*kir::FindLoop(t.body, 0)));
  HlsResult r = EstimateHls(t);
  // 1024/8 initiations at II ~2 (memory) beats the recurrence-bound 7*1024.
  EXPECT_LT(r.cycles, 1024.0 * 2);
}

TEST(HlsTest, OverUnrollingBecomesInfeasible) {
  // exp() is expensive; massive unrolling must blow the resource cap.
  kir::Kernel k = StreamKernel();
  auto i = Expr::Var("i", Type::Int());
  auto loop = kir::FindLoop(k.body, 0);
  loop->set_body(Stmt::Block({Stmt::Assign(
      Expr::ArrayRef("out", Type::Float(), i),
      Expr::Call(kir::Intrinsic::kExp,
                 {Expr::ArrayRef("in", Type::Float(), i)}, Type::Float()))}));
  DesignConfig cfg;
  cfg.loops[0] = {1, 1024, PipelineMode::kOn};
  HlsResult r = EstimateHls(Transformed(k, cfg));
  EXPECT_FALSE(r.feasible);
  EXPECT_NE(r.infeasible_reason.find("utilization exceeds"),
            std::string::npos);
  // The structured attribution names the same overfull resource the prose
  // reason does — Plausible() enforces this agreement.
  const std::string resource = BottleneckCapResource(r.bottleneck.kind);
  ASSERT_FALSE(resource.empty());
  EXPECT_EQ(r.infeasible_reason.find(resource), 0u);
  EXPECT_GT(r.bottleneck.quantity, 0.0);
  EXPECT_TRUE(r.Plausible());
}

TEST(HlsTest, PlausibleRejectsMismatchedAttribution) {
  // An infeasible verdict whose structured bottleneck blames a different
  // decision than the prose reason is a bug, not a result.
  HlsResult capped;
  capped.feasible = false;
  capped.eval_minutes = 2.0;
  capped.infeasible_reason = "dsp utilization exceeds the usable cap";
  capped.bottleneck.kind = BottleneckKind::kDspCap;
  capped.bottleneck.quantity = 0.9;
  EXPECT_TRUE(capped.Plausible());
  capped.bottleneck.kind = BottleneckKind::kBramCap;  // wrong resource
  EXPECT_FALSE(capped.Plausible());
  capped.bottleneck.kind = BottleneckKind::kFreqCongestion;  // not a cap
  EXPECT_FALSE(capped.Plausible());

  HlsResult timing;
  timing.feasible = false;
  timing.eval_minutes = 2.0;
  timing.infeasible_reason = "timing closure failed";
  timing.bottleneck.kind = BottleneckKind::kRoutingWall;
  timing.bottleneck.quantity = 4.0;
  EXPECT_TRUE(timing.Plausible());
  timing.bottleneck.kind = BottleneckKind::kLutCap;  // resources, not timing
  EXPECT_FALSE(timing.Plausible());
}

TEST(HlsTest, PlausibleRejectsGarbageAttributionNumbers) {
  HlsResult r = EstimateHls(StreamKernel());
  ASSERT_TRUE(r.Plausible());
  HlsResult nan_quantity = r;
  nan_quantity.bottleneck.kind = BottleneckKind::kMemoryPortII;
  nan_quantity.bottleneck.quantity = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(nan_quantity.Plausible());
  HlsResult negative = r;
  negative.bottleneck.kind = BottleneckKind::kMemoryPortII;
  negative.bottleneck.quantity = -2.0;
  EXPECT_FALSE(negative.Plausible());
}

TEST(HlsTest, AttributesRecurrenceII) {
  kir::Kernel k = ReduceKernel();
  kir::FindLoop(k.body, 0)->set_is_reduction(false);
  DesignConfig cfg;
  cfg.loops[0] = {1, 1, PipelineMode::kOn};
  cfg.buffer_bits["in"] = 512;
  HlsResult r = EstimateHls(Transformed(k, cfg));
  // Strict-IEEE accumulation: the float-add chain binds the II.
  EXPECT_EQ(r.bottleneck.kind, BottleneckKind::kRecurrenceII);
  EXPECT_GT(r.bottleneck.quantity, 1.0);
}

TEST(HlsTest, AttributesMemorySideII) {
  kir::Kernel k = StreamKernel();
  DesignConfig cfg;
  cfg.loops[0] = {1, 8, PipelineMode::kOn};
  cfg.buffer_bits["in"] = 32;  // 8 accesses per initiation through one port
  cfg.buffer_bits["out"] = 32;
  HlsResult r = EstimateHls(Transformed(k, cfg));
  ASSERT_TRUE(r.feasible);
  // The narrow interface binds: either the port conflict or the AXI beat
  // budget, both attacked by the same factor subset.
  EXPECT_TRUE(r.bottleneck.kind == BottleneckKind::kMemoryPortII ||
              r.bottleneck.kind == BottleneckKind::kAxiBandwidth)
      << BottleneckKindName(r.bottleneck.kind);
  EXPECT_GT(r.bottleneck.quantity, 1.0);
}

TEST(HlsTest, AttributesFrequencyWall) {
  kir::Kernel k = WavefrontKernel();
  DesignConfig harsh;
  harsh.loops[0] = {1, 64, PipelineMode::kOn};
  HlsResult r = EstimateHls(Transformed(k, harsh));
  // Whether or not the slowdown crosses into infeasibility, the
  // attribution must blame a frequency decision, not a cap or an II.
  EXPECT_TRUE(r.bottleneck.kind == BottleneckKind::kFreqCongestion ||
              r.bottleneck.kind == BottleneckKind::kRoutingWall)
      << BottleneckKindName(r.bottleneck.kind);
}

// Strength-reduced constant multiplies must size their shift/add network
// from the variable operand regardless of operand order: `c * x` and
// `x * c` are the same hardware.
TEST(HlsTest, ConstMultiplyCostIsOperandOrderInvariant) {
  HlsResult lit_first = EstimateHls(ConstMulKernel(true));
  HlsResult lit_second = EstimateHls(ConstMulKernel(false));
  EXPECT_EQ(lit_first.util.lut, lit_second.util.lut);
  EXPECT_EQ(lit_first.util.ff, lit_second.util.ff);
  EXPECT_EQ(lit_first.util.dsp, lit_second.util.dsp);
  EXPECT_EQ(lit_first.cycles, lit_second.cycles);
}

TEST(HlsTest, WavefrontUnrollTanksFrequency) {
  kir::Kernel k = WavefrontKernel();
  DesignConfig mild, harsh;
  mild.loops[0] = {1, 1, PipelineMode::kOn};
  harsh.loops[0] = {1, 64, PipelineMode::kOn};
  HlsResult r_mild = EstimateHls(Transformed(k, mild));
  HlsResult r_harsh = EstimateHls(Transformed(k, harsh));
  EXPECT_GT(r_mild.freq_mhz, r_harsh.freq_mhz);
  EXPECT_LE(r_harsh.freq_mhz, 120.0);  // the S-W story (paper Table 2)
}

TEST(HlsTest, UnpipelinedWavefrontUnrollTanksFrequency) {
  // The wavefront penalty follows the unroll, not the pipeline pragma: a
  // sequential loop unrolled 64 wide ripples through the chain as well.
  DesignConfig cfg;
  cfg.loops[0] = {1, 64, PipelineMode::kOff};
  kir::Kernel t = Transformed(WavefrontKernel(), cfg);
  EstimatorOptions no_penalty;
  no_penalty.wavefront_slowdown = 0;
  HlsResult r = EstimateHls(t);
  HlsResult r_free = EstimateHls(t, no_penalty);
  EXPECT_LT(r.freq_mhz, r_free.freq_mhz);
  EXPECT_LE(r.freq_mhz, 120.0);
}

TEST(HlsTest, TreeReductionKeepsMemoryIIAndBottleneck) {
  // A tree-reduced accumulation pipelines at its memory II: u 32-bit reads
  // per initiation through a 32-bit port give II u off the AXI side, and
  // the add chain does not bind, whether or not the unroll is wide enough
  // (u > 16) for the estimator to analyse the recurrence.
  for (int u : {8, 32}) {
    DesignConfig cfg;
    cfg.loops[0] = {1, u, PipelineMode::kOn};
    cfg.buffer_bits["in"] = 32;
    kir::Kernel t = Transformed(ReduceKernel(), cfg);
    ASSERT_TRUE(merlin::HasTreeReduction(*kir::FindLoop(t.body, 0)));
    HlsResult r = EstimateHls(t);
    ASSERT_TRUE(r.feasible) << u;
    EXPECT_EQ(r.bottleneck.kind, BottleneckKind::kAxiBandwidth)
        << u << ": " << BottleneckKindName(r.bottleneck.kind);
    EXPECT_EQ(r.bottleneck.quantity, u) << u;
    EXPECT_EQ(r.bottleneck.margin, u - 1) << u;
    // 1024 / u initiations at II u dominate the cycle count.
    const double stalls = u * (1024.0 / u - 1);
    EXPECT_GE(r.cycles, stalls) << u;
    EXPECT_LT(r.cycles, stalls + 100) << u;
  }
}

TEST(HlsTest, PipelineIgnoredWithLiveSubloops) {
  // Outer loop containing a non-unrolled inner loop: pipelining the outer
  // is ineffective and the estimator notes it.
  kir::Kernel k = NestedKernel();
  DesignConfig cfg;
  cfg.loops[0] = {1, 1, PipelineMode::kOn};
  HlsResult r = EstimateHls(Transformed(k, cfg));
  bool noted = false;
  for (const auto& note : r.notes) {
    if (note.find("pipeline ignored") != std::string::npos) noted = true;
  }
  EXPECT_TRUE(noted);

  // Flatten fixes it: sub-loop fully unrolled, outer pipelines.
  DesignConfig flat;
  flat.loops[0] = {1, 1, PipelineMode::kFlatten};
  HlsResult r_flat = EstimateHls(Transformed(k, flat));
  EXPECT_LT(r_flat.cycles, r.cycles);
}

TEST(HlsTest, EvalMinutesGrowWithSpatialSize) {
  kir::Kernel k = StreamKernel();
  DesignConfig small, big;
  small.loops[0] = {1, 1, PipelineMode::kOn};
  big.loops[0] = {1, 128, PipelineMode::kOn};
  HlsResult r_small = EstimateHls(Transformed(k, small));
  HlsResult r_big = EstimateHls(Transformed(k, big));
  EXPECT_GT(r_big.eval_minutes, r_small.eval_minutes);
}

TEST(HlsTest, EstimationIsDeterministic) {
  kir::Kernel k = StreamKernel();
  DesignConfig cfg;
  cfg.loops[0] = {1, 4, PipelineMode::kOn};
  HlsResult a = EstimateHls(Transformed(k, cfg));
  HlsResult b = EstimateHls(Transformed(k, cfg));
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.freq_mhz, b.freq_mhz);
  EXPECT_EQ(a.eval_minutes, b.eval_minutes);
  EXPECT_EQ(a.util.lut, b.util.lut);
}

TEST(HlsTest, LocalBufferPartitioningCostsBram) {
  kir::Kernel k = WavefrontKernel();
  DesignConfig u1, u32;
  u1.loops[0] = {1, 1, PipelineMode::kOff};
  u32.loops[0] = {1, 32, PipelineMode::kOff};
  HlsResult r1 = EstimateHls(Transformed(k, u1));
  HlsResult r32 = EstimateHls(Transformed(k, u32));
  EXPECT_GT(r32.util.bram, r1.util.bram);
}

TEST(HlsTest, ExecMicrosecondsConsistent) {
  HlsResult r = EstimateHls(StreamKernel());
  EXPECT_NEAR(r.exec_us, r.cycles / r.freq_mhz, 1e-9);
}

// Parameterized sweep: cycles are monotonically non-increasing in the
// unroll factor for the streaming kernel with a wide interface.
class UnrollSweep : public ::testing::TestWithParam<int> {};

TEST_P(UnrollSweep, MonotoneCycles) {
  kir::Kernel k = StreamKernel();
  int u = GetParam();
  DesignConfig lo, hi;
  lo.loops[0] = {1, u, PipelineMode::kOn};
  lo.buffer_bits["in"] = 512;
  lo.buffer_bits["out"] = 512;
  hi.loops[0] = {1, u * 2, PipelineMode::kOn};
  hi.buffer_bits["in"] = 512;
  hi.buffer_bits["out"] = 512;
  HlsResult r_lo = EstimateHls(Transformed(k, lo));
  HlsResult r_hi = EstimateHls(Transformed(k, hi));
  EXPECT_LE(r_hi.cycles, r_lo.cycles);
}

INSTANTIATE_TEST_SUITE_P(Factors, UnrollSweep,
                         ::testing::Values(1, 2, 4, 8, 16, 32));


// ------------------------------------------------------ golden estimates
//
// Every HlsResult field of a fixed design set, pinned bit for bit: each
// kernel's untransformed baseline plus 16 seeded random legal designs
// (ones merlin::ValidateConfig accepts) of every evaluation app and of
// every hand-built kernel above. An estimator change that is meant to be
// pure speed must leave hls_golden.inc untouched; the table was printed by
// the disabled test below, run as
//
//   hls_test --gtest_also_run_disabled_tests
//            --gtest_filter=HlsGoldenTest.DISABLED_PrintTable
//
// and keeping its output from the BEGIN line to the END line.

constexpr int kGoldenDesignsPerKernel = 16;
constexpr std::uint64_t kGoldenSeed = 2018;

const char* const kGoldenTable[] = {
#include "hls_golden.inc"
};

struct GoldenBase {
  std::string name;
  kir::Kernel kernel;
};

std::vector<GoldenBase> GoldenBases() {
  std::vector<GoldenBase> bases;
  for (const apps::App& app : apps::AllApps()) {
    bases.push_back({app.name, b2c::CompileKernel(*app.pool, app.spec)});
  }
  kir::Kernel strict = ReduceKernel();
  kir::FindLoop(strict.body, 0)->set_is_reduction(false);
  bases.push_back({"stream", StreamKernel()});
  bases.push_back({"reduce", ReduceKernel()});
  bases.push_back({"reduce_strict", std::move(strict)});
  bases.push_back({"wave", WavefrontKernel()});
  bases.push_back({"nested", NestedKernel()});
  bases.push_back({"cmul_lit_first", ConstMulKernel(true)});
  bases.push_back({"cmul_lit_second", ConstMulKernel(false)});
  return bases;
}

// Exact hex-float text: equal strings mean bit-identical doubles.
std::string Hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::string GoldenLine(const std::string& design, const HlsResult& r) {
  const Utilization& u = r.util;
  std::string line = design + " | cycles=" + Hex(r.cycles) +
                     " freq=" + Hex(r.freq_mhz) + " exec_us=" +
                     Hex(r.exec_us) + " util=" + Hex(u.bram) + "," +
                     Hex(u.dsp) + "," + Hex(u.ff) + "," + Hex(u.lut) + "," +
                     Hex(u.bram_frac) + "," + Hex(u.dsp_frac) + "," +
                     Hex(u.ff_frac) + "," + Hex(u.lut_frac) +
                     " feasible=" + (r.feasible ? "1" : "0") + " reason=[" +
                     r.infeasible_reason + "] bottleneck=" +
                     BottleneckKindName(r.bottleneck.kind) + "," +
                     Hex(r.bottleneck.quantity) + "," +
                     Hex(r.bottleneck.margin) +
                     " minutes=" + Hex(r.eval_minutes) + " notes=";
  for (const auto& note : r.notes) line += "[" + note + "]";
  return line;
}

struct GoldenDesign {
  std::string name;
  kir::Kernel kernel;  // transformed (or the untransformed baseline)
};

// The whole design set, in a fixed order: each base kernel's baseline,
// then its seeded legal designs. Fails the calling test when a kernel
// yields fewer than the pinned number of legal designs.
std::vector<GoldenDesign> GoldenDesigns() {
  std::vector<GoldenDesign> designs;
  for (const GoldenBase& base : GoldenBases()) {
    designs.push_back({base.name + " baseline", base.kernel.Clone()});
    const tuner::DesignSpace space = tuner::BuildDesignSpace(base.kernel);
    Rng rng(kGoldenSeed);
    int found = 0;
    for (int draw = 0; found < kGoldenDesignsPerKernel && draw < 10000;
         ++draw) {
      const DesignConfig cfg = space.ToConfig(space.RandomPoint(rng));
      if (!merlin::ValidateConfig(base.kernel, cfg).empty()) continue;
      designs.push_back({base.name + " " + cfg.ToString(),
                         Transformed(base.kernel, cfg)});
      ++found;
    }
    EXPECT_EQ(found, kGoldenDesignsPerKernel) << base.name;
  }
  return designs;
}

std::vector<std::string> GoldenLines() {
  std::vector<std::string> lines;
  for (const GoldenDesign& design : GoldenDesigns()) {
    lines.push_back(GoldenLine(design.name, EstimateHls(design.kernel)));
  }
  return lines;
}

void PrintGoldenTable(const char* what, const std::vector<std::string>& lines) {
  std::printf("// BEGIN golden %s lines (see hls_test.cc)\n", what);
  for (const std::string& line : lines) {
    std::string escaped;
    for (char c : line) {
      if (c == '"' || c == '\\') escaped += '\\';
      escaped += c;
    }
    std::printf("\"%s\",\n", escaped.c_str());
  }
  std::printf("// END golden %s lines\n", what);
}

TEST(HlsGoldenTest, EveryFieldMatchesTheTable) {
  const std::vector<std::string> lines = GoldenLines();
  ASSERT_EQ(lines.size(), std::size(kGoldenTable));
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i], kGoldenTable[i]) << "row " << i;
  }
}

TEST(HlsGoldenTest, DISABLED_PrintTable) {
  PrintGoldenTable("HlsResult", GoldenLines());
}

// ----------------------------------------------- designs as pragma overlays
//
// The DSE estimates a DesignView over one shared DesignBase instead of a
// kernel materialized by merlin::ApplyDesign. The two must agree in every
// HlsResult field, notes and bottleneck included, for every legal config.

constexpr int kOverlayDesignsPerKernel = 200;

// A random legal config of `kernel`: a uniform point of its design space
// with illegal tile and parallel factors repaired, half of the repaired
// parallel factors set to the tile factor (a fully unrolled point loop).
DesignConfig RandomLegalConfig(const kir::Kernel& kernel,
                               const tuner::DesignSpace& space, Rng& rng) {
  DesignConfig cfg = space.ToConfig(space.RandomPoint(rng));
  for (auto& [id, loop] : cfg.loops) {
    const std::int64_t trip = kir::FindLoop(kernel.body, id)->trip_count();
    if (loop.tile >= trip || trip % loop.tile != 0) loop.tile = 1;
    if (loop.tile > 1 && loop.parallel > loop.tile) {
      loop.parallel = rng.NextBool() ? loop.tile : rng.NextInt(1, loop.tile);
    }
  }
  return cfg;
}

void ExpectViewMatchesMaterialized(const GoldenBase& base,
                                   const DesignBase& design_base,
                                   const DesignConfig& cfg) {
  ASSERT_TRUE(merlin::IsLegalConfig(base.kernel, cfg)) << cfg.ToString();
  ASSERT_TRUE(design_base.IsLegal(cfg)) << cfg.ToString();
  const std::string name = base.name + " " + cfg.ToString();
  EXPECT_EQ(GoldenLine(name, EstimateHls(DesignView(design_base, cfg))),
            GoldenLine(name, EstimateHls(Transformed(base.kernel, cfg))));
}

TEST(DesignViewTest, EstimateMatchesMaterializedDesign) {
  for (const GoldenBase& base : GoldenBases()) {
    const DesignBase design_base(base.kernel);
    // The base as it is: no config, no overlay.
    EXPECT_EQ(GoldenLine(base.name, EstimateHls(DesignView(design_base))),
              GoldenLine(base.name, EstimateHls(base.kernel)));
    const tuner::DesignSpace space = tuner::BuildDesignSpace(base.kernel);
    Rng rng(kGoldenSeed);
    int tiled = 0;
    for (int i = 0; i < kOverlayDesignsPerKernel; ++i) {
      const DesignConfig cfg = RandomLegalConfig(base.kernel, space, rng);
      for (const auto& [id, loop] : cfg.loops) tiled += loop.tile > 1;
      ExpectViewMatchesMaterialized(base, design_base, cfg);
    }
    EXPECT_GT(tiled, 0) << base.name;
  }
}

TEST(DesignViewTest, TilingCornersMatchMaterializedDesign) {
  const GoldenBase nested{"nested", NestedKernel()};
  const DesignBase nested_base(nested.kernel);
  DesignConfig both_tiled;  // outer and inner tiled, both pipelined
  both_tiled.loops[0] = {2, 2, PipelineMode::kOn};
  both_tiled.loops[1] = {4, 2, PipelineMode::kOn};
  DesignConfig flatten_over_tiled;  // the inner tile loop is flattened away
  flatten_over_tiled.loops[0] = {1, 1, PipelineMode::kFlatten};
  flatten_over_tiled.loops[1] = {2, 2, PipelineMode::kOn};
  DesignConfig flatten_on_tiled;  // the tile loop itself flattens
  flatten_on_tiled.loops[0] = {4, 1, PipelineMode::kFlatten};
  flatten_on_tiled.loops[1] = {2, 1, PipelineMode::kOff};
  DesignConfig const_multiply;  // in[8*i + j]: the tiled i feeds 8*i
  const_multiply.loops[0] = {4, 1, PipelineMode::kOff};
  for (const DesignConfig& cfg : {both_tiled, flatten_over_tiled,
                                  flatten_on_tiled, const_multiply}) {
    ExpectViewMatchesMaterialized(nested, nested_base, cfg);
  }

  // parallel == tile: the point loop is fully unrolled, so the tile loop
  // pipelines instead of being blocked by a live sub-loop.
  for (const GoldenBase& base :
       {GoldenBase{"stream", StreamKernel()},
        GoldenBase{"reduce", ReduceKernel()},
        GoldenBase{"wave", WavefrontKernel()}}) {
    const DesignBase design_base(base.kernel);
    DesignConfig cfg;
    cfg.loops[0] = {8, 8, PipelineMode::kOn};
    ExpectViewMatchesMaterialized(base, design_base, cfg);
    EXPECT_TRUE(EstimateHls(DesignView(design_base, cfg)).notes.empty())
        << base.name;
  }
}

// ------------------------------------------------------- golden C source
//
// The exact kir::EmitC text of the same design set, pinned as a 64-bit
// FNV-1a hash per design: the pragma lines Merlin attaches (their keys,
// values and order) and every rewritten loop must print byte for byte as
// when the table was made. Regenerate like the HlsResult table, with
// --gtest_filter=EmitCGoldenTest.DISABLED_PrintTable.

const char* const kEmitCGoldenTable[] = {
#include "emitc_golden.inc"
};

std::string Fnv1a(const std::string& text) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::vector<std::string> EmitCGoldenLines() {
  std::vector<std::string> lines;
  for (const GoldenDesign& design : GoldenDesigns()) {
    lines.push_back(design.name + " | emitc_fnv=" +
                    Fnv1a(kir::EmitC(design.kernel)));
  }
  return lines;
}

TEST(EmitCGoldenTest, EveryDesignPrintsTheSameC) {
  const std::vector<std::string> lines = EmitCGoldenLines();
  ASSERT_EQ(lines.size(), std::size(kEmitCGoldenTable));
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i], kEmitCGoldenTable[i]) << "row " << i;
  }
}

TEST(EmitCGoldenTest, DISABLED_PrintTable) {
  PrintGoldenTable("EmitC", EmitCGoldenLines());
}

}  // namespace
}  // namespace s2fa::hls
