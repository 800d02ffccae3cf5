#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <typeinfo>

#include "kir/analysis.h"
#include "kir/eval.h"
#include "kir/kernel.h"
#include "kir/printer.h"
#include "support/rng.h"

namespace s2fa::kir {
namespace {

using jvm::Value;

// ----------------------------------------------------------------- expr

TEST(ExprTest, LiteralFactoriesEnforceTypes) {
  EXPECT_NO_THROW(Expr::IntLit(5));
  EXPECT_NO_THROW(Expr::FloatLit(2.5, Type::Double()));
  EXPECT_THROW(Expr::IntLit(5, Type::Float()), InvalidArgument);
  EXPECT_THROW(Expr::FloatLit(2.5, Type::Int()), InvalidArgument);
}

TEST(ExprTest, BinaryResultTypes) {
  auto f = Expr::Var("x", Type::Float());
  auto cmp = Expr::Binary(BinaryOp::kLt, f, Expr::FloatLit(1.0f));
  EXPECT_EQ(cmp->type(), Type::Int());
  auto add = Expr::Binary(BinaryOp::kAdd, f, Expr::FloatLit(1.0f));
  EXPECT_EQ(add->type(), Type::Float());
}

TEST(ExprTest, SubstituteVarReplacesAllUses) {
  auto i = Expr::Var("i", Type::Int());
  auto e = Expr::Binary(BinaryOp::kAdd, Expr::Binary(BinaryOp::kMul, i, i),
                        Expr::Var("j", Type::Int()));
  auto r = SubstituteVar(e, "i", Expr::IntLit(3));
  EXPECT_EQ(r->ToString(), "((3 * 3) + j)");
  // Original untouched (immutability).
  EXPECT_EQ(e->ToString(), "((i * i) + j)");
}

TEST(ExprTest, TransformSharesUnchangedSubtrees) {
  auto a = Expr::Var("a", Type::Int());
  auto b = Expr::Var("b", Type::Int());
  auto e = Expr::Binary(BinaryOp::kAdd, a, b);
  auto same = TransformExpr(
      e, [](const Expr&, const std::vector<ExprPtr>&) { return ExprPtr(); });
  EXPECT_EQ(same.get(), e.get());  // no change -> same node
}

TEST(ExprTest, VisitCountsNodes) {
  auto e = Expr::Binary(
      BinaryOp::kAdd, Expr::Var("x", Type::Int()),
      Expr::ArrayRef("buf", Type::Int(), Expr::Var("i", Type::Int())));
  int nodes = 0;
  VisitExpr(e, [&nodes](const Expr&) { ++nodes; });
  EXPECT_EQ(nodes, 4);
}

TEST(ExprTest, CallArityChecked) {
  EXPECT_THROW(
      Expr::Call(Intrinsic::kPow, {Expr::FloatLit(1.0f)}, Type::Float()),
      InvalidArgument);
  EXPECT_NO_THROW(Expr::Call(Intrinsic::kExp, {Expr::FloatLit(1.0f)},
                             Type::Float()));
}

// ----------------------------------------------------------------- stmt

TEST(StmtTest, AssignRequiresLValue) {
  auto lit = Expr::IntLit(5);
  EXPECT_THROW(Stmt::Assign(lit, lit), InvalidArgument);
  EXPECT_NO_THROW(Stmt::Assign(Expr::Var("x", Type::Int()), lit));
}

TEST(StmtTest, ForRejectsBadTripCount) {
  auto body = Stmt::Block({});
  EXPECT_THROW(Stmt::For(0, "i", 0, body), InvalidArgument);
  EXPECT_NO_THROW(Stmt::For(0, "i", 1, body));
}

TEST(StmtTest, CloneIsDeep) {
  auto inner = Stmt::For(1, "j", 4, Stmt::Block({}));
  auto outer = Stmt::For(0, "i", 8, Stmt::Block({inner}));
  outer->pragmas().pipeline = LoopPragmas::Pipeline::kOn;
  inner->pragmas().parallel = 4;
  auto copy = outer->Clone();
  EXPECT_EQ(copy->pragmas(), outer->pragmas());
  EXPECT_EQ(FindLoop(copy, 1)->pragmas(), inner->pragmas());
  copy->set_trip_count(99);
  copy->pragmas().pipeline = LoopPragmas::Pipeline::kFlatten;
  FindLoop(copy, 1)->set_trip_count(77);
  FindLoop(copy, 1)->pragmas().parallel.reset();
  EXPECT_EQ(outer->trip_count(), 8);
  EXPECT_EQ(outer->pragmas().pipeline, LoopPragmas::Pipeline::kOn);
  EXPECT_EQ(inner->pragmas().parallel, std::optional<std::int64_t>(4));
  EXPECT_EQ(FindLoop(outer, 1), inner.get());
  EXPECT_EQ(inner->trip_count(), 4);
}

TEST(StmtTest, DefaultPragmasAreAbsentAndPrintNothing) {
  auto loop = Stmt::For(0, "i", 8, Stmt::Block({}));
  EXPECT_EQ(loop->pragmas(), LoopPragmas{});
  EXPECT_FALSE(loop->pragmas().parallel.has_value());
  EXPECT_EQ(loop->ToString(), "for (int i = 0; i < 8; i++) {  // L0\n\n}");
}

TEST(StmtTest, CollectLoopsPreOrder) {
  auto l2 = Stmt::For(2, "k", 2, Stmt::Block({}));
  auto l1 = Stmt::For(1, "j", 3, Stmt::Block({l2}));
  auto l0 = Stmt::For(0, "i", 4, Stmt::Block({l1}));
  auto root = Stmt::Block({l0});
  auto loops = CollectLoops(root);
  ASSERT_EQ(loops.size(), 3u);
  EXPECT_EQ(loops[0]->loop_id(), 0);
  EXPECT_EQ(loops[1]->loop_id(), 1);
  EXPECT_EQ(loops[2]->loop_id(), 2);
  EXPECT_EQ(FindLoop(root, 5), nullptr);
}

// --------------------------------------------------------------- kernel

// Builds kernel: out[i] = in[i] * 2 + 1 for i in [0, 16).
Kernel MakeScaleKernel() {
  Kernel k;
  k.name = "scale";
  k.pattern = ParallelPattern::kMap;
  k.scalars.push_back({"N", Type::Int()});
  k.buffers.push_back({"in", Type::Float(), 16, BufferKind::kInput, "in._1"});
  k.buffers.push_back(
      {"out", Type::Float(), 16, BufferKind::kOutput, "ret._1"});
  auto i = Expr::Var("i", Type::Int());
  auto body = Stmt::Assign(
      Expr::ArrayRef("out", Type::Float(), i),
      Expr::Binary(BinaryOp::kAdd,
                   Expr::Binary(BinaryOp::kMul,
                                Expr::ArrayRef("in", Type::Float(), i),
                                Expr::FloatLit(2.0f)),
                   Expr::FloatLit(1.0f)));
  auto loop = Stmt::For(0, "i", 16, Stmt::Block({body}));
  loop->set_inserted_by_template(true);
  k.body = Stmt::Block({loop});
  k.task_loop_id = 0;
  return k;
}

TEST(KernelTest, ValidatePasses) {
  EXPECT_NO_THROW(MakeScaleKernel().Validate());
}

TEST(KernelTest, ValidateCatchesUndeclaredBuffer) {
  Kernel k = MakeScaleKernel();
  k.buffers.pop_back();  // drop "out"
  EXPECT_THROW(k.Validate(), MalformedInput);
}

TEST(KernelTest, ValidateCatchesDuplicateLoopIds) {
  Kernel k = MakeScaleKernel();
  auto extra = Stmt::For(0, "j", 2, Stmt::Block({}));
  k.body->stmts().push_back(extra);
  EXPECT_THROW(k.Validate(), MalformedInput);
}

TEST(KernelTest, BufferQueries) {
  Kernel k = MakeScaleKernel();
  EXPECT_NE(k.FindBuffer("in"), nullptr);
  EXPECT_EQ(k.FindBuffer("nope"), nullptr);
  EXPECT_EQ(k.InputBuffers().size(), 1u);
  EXPECT_EQ(k.OutputBuffers().size(), 1u);
  EXPECT_EQ(k.LocalBuffers().size(), 0u);
  EXPECT_EQ(k.MaxLoopId(), 0);
  EXPECT_EQ(k.FindBuffer("in")->byte_size(), 64);
}

TEST(KernelTest, CloneIsIndependent) {
  Kernel k = MakeScaleKernel();
  Kernel c = k.Clone();
  FindLoop(c.body, 0)->set_trip_count(999);
  EXPECT_EQ(FindLoop(k.body, 0)->trip_count(), 16);
}

// -------------------------------------------------------------- printer

TEST(PrinterTest, EmitsCompilableLookingC) {
  std::string c = EmitC(MakeScaleKernel());
  EXPECT_NE(c.find("void scale(int N, float *in, float *out)"),
            std::string::npos);
  EXPECT_NE(c.find("for (int i = 0; i < 16; i++)"), std::string::npos);
  EXPECT_NE(c.find("out[i] = ((in[i] * 2.0f) + 1.0f);"), std::string::npos);
  EXPECT_NE(c.find("#include <math.h>"), std::string::npos);
}

TEST(PrinterTest, EmitsPragmas) {
  Kernel k = MakeScaleKernel();
  FindLoop(k.body, 0)->pragmas().pipeline = LoopPragmas::Pipeline::kFlatten;
  std::string c = EmitC(k);
  EXPECT_NE(c.find("#pragma ACCEL PIPELINE flatten"), std::string::npos);
}

TEST(PrinterTest, EmitsEveryPragmaInFixedOrder) {
  // Fields print as PARALLEL, PIPELINE, REDUCTION, TILE whatever order
  // they were set in, each indented like its loop, in both printers.
  Kernel k = MakeScaleKernel();
  LoopPragmas& p = FindLoop(k.body, 0)->pragmas();
  p.tile = LoopPragmas::Tile::kPointLoop;
  p.tile_factor = 4;
  p.tree_reduction = true;
  p.pipeline = LoopPragmas::Pipeline::kOn;
  p.parallel = 1;  // present even at 1
  const std::string lines =
      "#pragma ACCEL PARALLEL factor=1\n"
      "#pragma ACCEL PIPELINE\n"
      "#pragma ACCEL REDUCTION tree\n"
      "#pragma ACCEL TILE point factor=4\n";
  EXPECT_EQ(FindLoop(k.body, 0)->ToString().rfind(lines, 0), 0u);
  std::string indented;
  for (const char* line :
       {"#pragma ACCEL PARALLEL factor=1\n", "#pragma ACCEL PIPELINE\n",
        "#pragma ACCEL REDUCTION tree\n",
        "#pragma ACCEL TILE point factor=4\n"}) {
    indented += std::string("  ") + line;
  }
  EXPECT_NE(EmitC(k).find(indented + "  for (int i = 0;"), std::string::npos);

  p.tile = LoopPragmas::Tile::kTileLoop;
  p.pipeline = LoopPragmas::Pipeline::kFlatten;
  p.parallel.reset();
  p.tree_reduction = false;
  EXPECT_EQ(FindLoop(k.body, 0)->ToString().rfind(
                "#pragma ACCEL PIPELINE flatten\n"
                "#pragma ACCEL TILE factor=4\nfor (int i",
                0),
            0u);
}

TEST(PrinterTest, ClonedPragmasPrintTheSame) {
  Kernel k = MakeScaleKernel();
  LoopPragmas& p = FindLoop(k.body, 0)->pragmas();
  p.parallel = 8;
  p.pipeline = LoopPragmas::Pipeline::kOn;
  Kernel copy = k.Clone();
  EXPECT_EQ(EmitC(copy), EmitC(k));
  FindLoop(copy.body, 0)->pragmas().parallel = 2;
  EXPECT_NE(EmitC(k).find("#pragma ACCEL PARALLEL factor=8"),
            std::string::npos);
  EXPECT_NE(EmitC(copy).find("#pragma ACCEL PARALLEL factor=2"),
            std::string::npos);
}

TEST(PrinterTest, LocalBuffersBecomeStaticArrays) {
  Kernel k = MakeScaleKernel();
  k.buffers.push_back({"scratch", Type::Int(), 64, BufferKind::kLocal, ""});
  std::string c = EmitC(k);
  EXPECT_NE(c.find("static int scratch[64];"), std::string::npos);
}

TEST(PrinterTest, UnsignedShiftExpansion) {
  auto e = Expr::Binary(BinaryOp::kUShr, Expr::Var("x", Type::Int()),
                        Expr::IntLit(3));
  std::string c = EmitExprC(e);
  EXPECT_NE(c.find("unsigned int"), std::string::npos);
}

TEST(PrinterTest, MinMaxUseMacros) {
  auto e = Expr::Binary(BinaryOp::kMax, Expr::Var("x", Type::Int()),
                        Expr::IntLit(0));
  EXPECT_EQ(EmitExprC(e), "S2FA_MAX(x, 0)");
}

TEST(PrinterTest, FloatIntrinsicsGetSuffix) {
  auto e = Expr::Call(Intrinsic::kExp, {Expr::Var("x", Type::Float())},
                      Type::Float());
  EXPECT_EQ(EmitExprC(e), "expf(x)");
  auto d = Expr::Call(Intrinsic::kExp, {Expr::Var("x", Type::Double())},
                      Type::Double());
  EXPECT_EQ(EmitExprC(d), "exp(x)");
}

// ------------------------------------------------------------ evaluator

TEST(EvalTest, RunsMapKernel) {
  Kernel k = MakeScaleKernel();
  Evaluator ev(k);
  BufferMap buffers;
  for (int i = 0; i < 16; ++i) {
    buffers["in"].push_back(Value::OfFloat(static_cast<float>(i)));
  }
  ev.Run({{"N", Value::OfInt(16)}}, buffers);
  for (int i = 0; i < 16; ++i) {
    EXPECT_FLOAT_EQ(buffers["out"][static_cast<std::size_t>(i)].AsFloat(),
                    2.0f * i + 1.0f);
  }
}

TEST(EvalTest, MissingInputThrows) {
  Kernel k = MakeScaleKernel();
  Evaluator ev(k);
  BufferMap buffers;
  EXPECT_THROW(ev.Run({{"N", Value::OfInt(16)}}, buffers), InvalidArgument);
}

TEST(EvalTest, MissingScalarThrows) {
  Kernel k = MakeScaleKernel();
  Evaluator ev(k);
  BufferMap buffers;
  buffers["in"].assign(16, Value::OfFloat(0.0f));
  EXPECT_THROW(ev.Run({}, buffers), InvalidArgument);
}

TEST(EvalTest, OutOfBoundsWriteThrows) {
  Kernel k = MakeScaleKernel();
  FindLoop(k.body, 0)->set_trip_count(32);  // runs past the buffers
  Evaluator ev(k);
  BufferMap buffers;
  buffers["in"].assign(16, Value::OfFloat(0.0f));
  EXPECT_THROW(ev.Run({{"N", Value::OfInt(16)}}, buffers), InvalidArgument);
}

TEST(EvalTest, ConditionalAndSelectAgree) {
  // out[i] = (in[i] > 0) ? in[i] : -in[i]  both as If and as Select.
  auto i = Expr::Var("i", Type::Int());
  auto in_i = Expr::ArrayRef("in", Type::Float(), i);
  auto out_i = Expr::ArrayRef("out", Type::Float(), i);
  auto cond = Expr::Binary(BinaryOp::kGt, in_i, Expr::FloatLit(0.0f));

  Kernel k_if;
  k_if.name = "abs_if";
  k_if.buffers.push_back({"in", Type::Float(), 8, BufferKind::kInput, ""});
  k_if.buffers.push_back({"out", Type::Float(), 8, BufferKind::kOutput, ""});
  auto then_s = Stmt::Assign(out_i, in_i);
  auto else_s = Stmt::Assign(out_i, Expr::Unary(UnaryOp::kNeg, in_i));
  k_if.body = Stmt::Block({Stmt::For(0, "i", 8,
                                     Stmt::Block({Stmt::If(cond, then_s,
                                                           else_s)}))});

  Kernel k_sel;
  k_sel.name = "abs_sel";
  k_sel.buffers = k_if.buffers;
  k_sel.body = Stmt::Block({Stmt::For(
      0, "i", 8,
      Stmt::Block({Stmt::Assign(
          out_i, Expr::Select(cond, in_i, Expr::Unary(UnaryOp::kNeg, in_i)))}))});

  Rng rng(5);
  BufferMap b1, b2;
  for (int t = 0; t < 8; ++t) {
    float v = static_cast<float>(rng.NextDouble(-5, 5));
    b1["in"].push_back(Value::OfFloat(v));
    b2["in"].push_back(Value::OfFloat(v));
  }
  Evaluator(k_if).Run({}, b1);
  Evaluator(k_sel).Run({}, b2);
  for (int t = 0; t < 8; ++t) {
    EXPECT_EQ(b1["out"][static_cast<std::size_t>(t)].AsFloat(),
              b2["out"][static_cast<std::size_t>(t)].AsFloat());
    EXPECT_EQ(b1["out"][static_cast<std::size_t>(t)].AsFloat(),
              std::fabs(b1["in"][static_cast<std::size_t>(t)].AsFloat()));
  }
}

TEST(EvalTest, IntegerNarrowingOnByteBuffer) {
  Kernel k;
  k.name = "bytes";
  k.buffers.push_back({"out", Type::Byte(), 1, BufferKind::kOutput, ""});
  k.body = Stmt::Block({Stmt::Assign(
      Expr::ArrayRef("out", Type::Byte(), Expr::IntLit(0)),
      Expr::IntLit(300))});
  BufferMap buffers;
  Evaluator(k).Run({}, buffers);
  EXPECT_EQ(buffers["out"][0].AsInt(), 44);  // 300 mod 256
}

TEST(EvalTest, WideLongComparesAreExact) {
  // 2^53 and 2^53+1 are indistinguishable as doubles; Java long compares
  // must still see them as distinct (regression: comparisons used to route
  // integral operands through a double conversion).
  const std::int64_t big = std::int64_t{1} << 53;
  Kernel k;
  k.name = "longcmp";
  k.buffers.push_back({"out", Type::Int(), 2, BufferKind::kOutput, ""});
  auto a = Expr::IntLit(big, Type::Long());
  auto b = Expr::IntLit(big + 1, Type::Long());
  k.body = Stmt::Block(
      {Stmt::Assign(Expr::ArrayRef("out", Type::Int(), Expr::IntLit(0)),
                    Expr::Binary(BinaryOp::kEq, a, b)),
       Stmt::Assign(Expr::ArrayRef("out", Type::Int(), Expr::IntLit(1)),
                    Expr::Binary(BinaryOp::kLt, a, b))});
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE(pass == 0 ? "Evaluator" : "ReferenceEvaluator");
    BufferMap buffers;
    if (pass == 0) {
      Evaluator(k).Run({}, buffers);
    } else {
      ReferenceEvaluator(k).Run({}, buffers);
    }
    EXPECT_EQ(buffers["out"][0].AsInt(), 0);  // not equal
    EXPECT_EQ(buffers["out"][1].AsInt(), 1);  // strictly less
  }
}

TEST(EvalTest, FloatMinMaxFollowJavaSemantics) {
  // Java Math.min/max: NaN propagates, and the zeros are ordered
  // (-0.0 < +0.0). fmin/fmax get both wrong.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Kernel k;
  k.name = "minmax";
  k.buffers.push_back({"out", Type::Float(), 4, BufferKind::kOutput, ""});
  auto at = [](std::int64_t i) {
    return Expr::ArrayRef("out", Type::Float(), Expr::IntLit(i));
  };
  k.body = Stmt::Block(
      {Stmt::Assign(at(0), Expr::Binary(BinaryOp::kMin, Expr::FloatLit(0.0),
                                        Expr::FloatLit(-0.0))),
       Stmt::Assign(at(1), Expr::Binary(BinaryOp::kMax, Expr::FloatLit(-0.0),
                                        Expr::FloatLit(0.0))),
       Stmt::Assign(at(2), Expr::Binary(BinaryOp::kMin, Expr::FloatLit(nan),
                                        Expr::FloatLit(1.0))),
       Stmt::Assign(at(3), Expr::Binary(BinaryOp::kMax, Expr::FloatLit(1.0),
                                        Expr::FloatLit(nan)))});
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE(pass == 0 ? "Evaluator" : "ReferenceEvaluator");
    BufferMap buffers;
    if (pass == 0) {
      Evaluator(k).Run({}, buffers);
    } else {
      ReferenceEvaluator(k).Run({}, buffers);
    }
    EXPECT_TRUE(std::signbit(buffers["out"][0].AsFloat()));   // min(0,-0)=-0
    EXPECT_FALSE(std::signbit(buffers["out"][1].AsFloat()));  // max(-0,0)=+0
    EXPECT_TRUE(std::isnan(buffers["out"][2].AsFloat()));
    EXPECT_TRUE(std::isnan(buffers["out"][3].AsFloat()));
  }
}

TEST(EvalTest, SlotAndReferenceWalkersCountSameSteps) {
  // Both implementations charge one step per IR node visited, so the
  // runaway budget trips at the same point in either.
  Kernel k = MakeScaleKernel();
  BufferMap b1, b2;
  for (int i = 0; i < 16; ++i) {
    b1["in"].push_back(Value::OfFloat(static_cast<float>(i)));
    b2["in"].push_back(Value::OfFloat(static_cast<float>(i)));
  }
  Evaluator fast(k);
  fast.Run({{"N", Value::OfInt(16)}}, b1);
  ReferenceEvaluator ref(k);
  ref.Run({{"N", Value::OfInt(16)}}, b2);
  EXPECT_GT(fast.last_steps(), 0u);
  EXPECT_EQ(fast.last_steps(), ref.last_steps());
}

// ------------------------------------------------------- lane executor

Buffer Interface(std::string name, Type element, std::int64_t tasks,
                 BufferKind kind) {
  Buffer b;
  b.name = std::move(name);
  b.element = element;
  b.length = tasks;
  b.kind = kind;
  b.per_task = 1;
  return b;
}

// A map kernel over `tasks` tasks whose task-loop body is `body`.
Kernel TaskKernel(std::vector<Buffer> buffers, std::int64_t tasks,
                  std::vector<StmtPtr> body) {
  Kernel k;
  k.name = "lanes";
  k.scalars.push_back({"N", Type::Int()});
  k.buffers = std::move(buffers);
  auto loop = Stmt::For(0, "i", tasks, Stmt::Block(std::move(body)));
  loop->set_inserted_by_template(true);
  k.body = Stmt::Block({loop});
  k.task_loop_id = 0;
  return k;
}

// Runs both evaluators from the same inputs; requires identical buffers
// (kinds and bits) and step counts. Returns the lane width taken.
int ExpectLaneParity(const Kernel& k, const BufferMap& inputs,
                     std::int32_t n) {
  BufferMap fast_bufs = inputs;
  BufferMap ref_bufs = inputs;
  Evaluator fast(k);
  ReferenceEvaluator ref(k);
  fast.Run({{"N", Value::OfInt(n)}}, fast_bufs);
  ref.Run({{"N", Value::OfInt(n)}}, ref_bufs);
  EXPECT_EQ(fast.last_steps(), ref.last_steps());
  EXPECT_EQ(fast_bufs, ref_bufs);
  return fast.lane_width();
}

// The exception type and message `run` throws ("none" when it returns).
std::pair<std::string, std::string> Thrown(const std::function<void()>& run) {
  try {
    run();
  } catch (const std::exception& e) {
    return {typeid(e).name(), e.what()};
  }
  return {"none", ""};
}

BufferMap FloatInputs(std::int64_t tasks) {
  BufferMap b;
  for (std::int64_t t = 0; t < tasks; ++t) {
    b["in"].push_back(Value::OfFloat(0.25f * static_cast<float>(t) - 3.0f));
  }
  return b;
}

TEST(LaneEvalTest, LongArithmeticWrapsLikeJava) {
  // Java long + - * wrap modulo 2^64, and Long.MIN_VALUE / -1 is
  // Long.MIN_VALUE with remainder 0; in C++ each of these overflows.
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  struct Case {
    std::int64_t a, b, add, sub, mul, div, rem;
  };
  const std::vector<Case> cases = {
      {kMax, 1, kMin, kMax - 1, kMax, kMax, 0},
      {kMin, -1, kMax, kMin + 1, kMin, kMin, 0},
      {kMin, kMin, 0, 0, 0, 1, 0},
      {kMax, kMax, -2, 0, 1, 1, 0},
      {3037000500, 3037000500, 6074001000, 0, -9223372036709301616, 1, 0},
      {-7, 2, -5, -9, -14, -3, -1},
      {7, -1, 6, 8, -7, -7, 0},
  };
  const std::vector<std::pair<std::string, BinaryOp>> ops = {
      {"add", BinaryOp::kAdd}, {"sub", BinaryOp::kSub},
      {"mul", BinaryOp::kMul}, {"div", BinaryOp::kDiv},
      {"rem", BinaryOp::kRem}};
  const std::int64_t tasks = 280;  // 40 rounds of the seven cases
  const auto i = Expr::Var("i", Type::Int());
  std::vector<Buffer> buffers = {
      Interface("a", Type::Long(), tasks, BufferKind::kInput),
      Interface("b", Type::Long(), tasks, BufferKind::kInput)};
  std::vector<StmtPtr> body;
  for (const auto& [name, op] : ops) {
    buffers.push_back(Interface(name, Type::Long(), tasks, BufferKind::kOutput));
    body.push_back(Stmt::Assign(
        Expr::ArrayRef(name, Type::Long(), i),
        Expr::Binary(op, Expr::ArrayRef("a", Type::Long(), i),
                     Expr::ArrayRef("b", Type::Long(), i))));
  }
  const Kernel k = TaskKernel(buffers, tasks, std::move(body));
  BufferMap inputs;
  for (std::int64_t t = 0; t < tasks; ++t) {
    const Case& c = cases[static_cast<std::size_t>(t) % cases.size()];
    inputs["a"].push_back(Value::OfLong(c.a));
    inputs["b"].push_back(Value::OfLong(c.b));
  }
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE(pass == 0 ? "Evaluator" : "ReferenceEvaluator");
    BufferMap b = inputs;
    if (pass == 0) {
      Evaluator fast(k);
      fast.Run({{"N", Value::OfInt(static_cast<std::int32_t>(tasks))}}, b);
      EXPECT_EQ(fast.lane_width(), kLaneChunk);
    } else {
      ReferenceEvaluator(k).Run(
          {{"N", Value::OfInt(static_cast<std::int32_t>(tasks))}}, b);
    }
    for (std::int64_t t = 0; t < tasks; ++t) {
      const Case& c = cases[static_cast<std::size_t>(t) % cases.size()];
      const auto at = static_cast<std::size_t>(t);
      EXPECT_EQ(b["add"][at], Value::OfLong(c.add)) << "task " << t;
      EXPECT_EQ(b["sub"][at], Value::OfLong(c.sub)) << "task " << t;
      EXPECT_EQ(b["mul"][at], Value::OfLong(c.mul)) << "task " << t;
      EXPECT_EQ(b["div"][at], Value::OfLong(c.div)) << "task " << t;
      EXPECT_EQ(b["rem"][at], Value::OfLong(c.rem)) << "task " << t;
    }
  }
}

TEST(LaneEvalTest, CrossTaskReadModifyWriteFallsBackToWidthOne) {
  // out[0] = out[0] + in[i]: every task reads what the previous one wrote.
  const auto i = Expr::Var("i", Type::Int());
  const auto out0 = Expr::ArrayRef("out", Type::Float(), Expr::IntLit(0));
  Kernel k = TaskKernel(
      {Interface("in", Type::Float(), 300, BufferKind::kInput),
       Interface("out", Type::Float(), 1, BufferKind::kOutput)},
      300,
      {Stmt::Assign(out0, Expr::Binary(BinaryOp::kAdd, out0,
                                       Expr::ArrayRef("in", Type::Float(),
                                                      i)))});
  EXPECT_EQ(ExpectLaneParity(k, FloatInputs(300), 300), 1);
}

TEST(LaneEvalTest, ReadBeforeAssignmentFallsBackToWidthOne) {
  // if (i > 0) out[i] = t;  float t = in[i] * 2;
  // Task i reads the t left behind by task i - 1 (flat-map scoping).
  const auto i = Expr::Var("i", Type::Int());
  const auto t = Expr::Var("t", Type::Float());
  auto read_t = Stmt::If(Expr::Binary(BinaryOp::kGt, i, Expr::IntLit(0)),
                         Stmt::Assign(Expr::ArrayRef("out", Type::Float(), i),
                                      t),
                         nullptr);
  auto decl_t = Stmt::Decl(
      "t", Type::Float(),
      Expr::Binary(BinaryOp::kMul, Expr::ArrayRef("in", Type::Float(), i),
                   Expr::FloatLit(2.0f)));
  const std::vector<Buffer> buffers = {
      Interface("in", Type::Float(), 300, BufferKind::kInput),
      Interface("out", Type::Float(), 300, BufferKind::kOutput)};
  EXPECT_EQ(ExpectLaneParity(TaskKernel(buffers, 300, {read_t, decl_t}),
                             FloatInputs(300), 300),
            1);
  // Declared before the read, the same statements are independent.
  EXPECT_EQ(ExpectLaneParity(TaskKernel(buffers, 300, {decl_t, read_t}),
                             FloatInputs(300), 300),
            kLaneChunk);
}

TEST(LaneEvalTest, CallerSizedLocalRunsLaneByLane) {
  // tmp is declared with 4 elements and zero-filled per task, so it is
  // privatized; a caller handing in a longer tmp makes out[i] read an
  // element past the declared length that no task overwrites.
  const auto i = Expr::Var("i", Type::Int());
  const auto z = Expr::Var("z", Type::Int());
  Buffer tmp;
  tmp.name = "tmp";
  tmp.element = Type::Float();
  tmp.length = 4;
  tmp.kind = BufferKind::kLocal;
  auto at = [](std::int64_t e) {
    return Expr::ArrayRef("tmp", Type::Float(), Expr::IntLit(e));
  };
  Kernel k = TaskKernel(
      {Interface("in", Type::Float(), 300, BufferKind::kInput),
       Interface("out", Type::Float(), 300, BufferKind::kOutput), tmp},
      300,
      {Stmt::For(1, "z", 4,
                 Stmt::Block({Stmt::Assign(
                     Expr::ArrayRef("tmp", Type::Float(), z),
                     Expr::FloatLit(0.0f))})),
       Stmt::Assign(at(1), Expr::ArrayRef("in", Type::Float(), i)),
       Stmt::Assign(Expr::ArrayRef("out", Type::Float(), i),
                    Expr::Binary(BinaryOp::kAdd, at(1), at(5)))});
  BufferMap inputs = FloatInputs(300);
  for (int e = 0; e < 8; ++e) {
    inputs["tmp"].push_back(Value::OfFloat(10.0f + static_cast<float>(e)));
  }
  EXPECT_EQ(ExpectLaneParity(k, inputs, 300), kLaneChunk);
}

// q = 100 / d[i];  out[i] = in[idx[i]] + q  over 300 tasks, lane path.
Kernel DivideThenGather() {
  const auto i = Expr::Var("i", Type::Int());
  const auto q = Expr::Var("q", Type::Int());
  return TaskKernel(
      {Interface("in", Type::Int(), 300, BufferKind::kInput),
       Interface("d", Type::Int(), 300, BufferKind::kInput),
       Interface("idx", Type::Int(), 300, BufferKind::kInput),
       Interface("out", Type::Int(), 300, BufferKind::kOutput)},
      300,
      {Stmt::Decl("q", Type::Int(),
                  Expr::Binary(BinaryOp::kDiv, Expr::IntLit(100),
                               Expr::ArrayRef("d", Type::Int(), i))),
       Stmt::Assign(
           Expr::ArrayRef("out", Type::Int(), i),
           Expr::Binary(BinaryOp::kAdd,
                        Expr::ArrayRef("in", Type::Int(),
                                       Expr::ArrayRef("idx", Type::Int(), i)),
                        q))});
}

BufferMap DivideThenGatherInputs() {
  BufferMap b;
  for (int t = 0; t < 300; ++t) {
    b["in"].push_back(Value::OfInt(t * 3));
    b["d"].push_back(Value::OfInt(t % 7 + 1));
    b["idx"].push_back(Value::OfInt(299 - t));
  }
  return b;
}

TEST(LaneEvalTest, ErrorsMatchTheSequentialWalk) {
  const Kernel k = DivideThenGather();
  ASSERT_EQ(Evaluator(k).lane_width(), kLaneChunk);
  const auto run_both = [&](const BufferMap& inputs) {
    BufferMap fast_bufs = inputs;
    BufferMap ref_bufs = inputs;
    const auto fast = Thrown([&] {
      Evaluator(k).Run({{"N", Value::OfInt(300)}}, fast_bufs);
    });
    const auto ref = Thrown([&] {
      ReferenceEvaluator(k).Run({{"N", Value::OfInt(300)}}, ref_bufs);
    });
    EXPECT_EQ(fast, ref);
    return fast;
  };

  // An out-of-bounds gather in one lane mid-chunk.
  BufferMap oob = DivideThenGatherInputs();
  oob["idx"][137] = Value::OfInt(1000);
  auto [type, message] = run_both(oob);
  EXPECT_EQ(type, typeid(InvalidArgument).name());
  EXPECT_NE(message.find("index 1000 out of bounds for buffer in"),
            std::string::npos);

  // An integer division by zero in an active lane.
  BufferMap div = DivideThenGatherInputs();
  div["d"][61] = Value::OfInt(0);
  std::tie(type, message) = run_both(div);
  EXPECT_EQ(type, typeid(InvalidArgument).name());
  EXPECT_NE(message.find("division by zero"), std::string::npos);

  // Both: the lane pass meets task 150's division first, but task 40's
  // bad gather comes first in task order, so that is the error.
  BufferMap both = DivideThenGatherInputs();
  both["d"][150] = Value::OfInt(0);
  both["idx"][40] = Value::OfInt(-5);
  std::tie(type, message) = run_both(both);
  EXPECT_NE(message.find("index -5 out of bounds"), std::string::npos);
}

TEST(LaneEvalTest, GuardedDivisionNeverRunsOnPaddedLanes) {
  // Reduce template: if (i < N) acc = acc + 100 / d[i]; out[0] = acc.
  // Padded tasks carry d = 0 and must never divide.
  const auto i = Expr::Var("i", Type::Int());
  const auto acc = Expr::Var("acc", Type::Int());
  Kernel k;
  k.name = "guarded";
  k.pattern = ParallelPattern::kReduce;
  k.scalars.push_back({"N", Type::Int()});
  k.buffers = {Interface("d", Type::Int(), 300, BufferKind::kInput),
               Interface("out", Type::Int(), 1, BufferKind::kOutput)};
  auto update = Stmt::Assign(
      acc, Expr::Binary(BinaryOp::kAdd, acc,
                        Expr::Binary(BinaryOp::kDiv, Expr::IntLit(100),
                                     Expr::ArrayRef("d", Type::Int(), i))));
  auto loop = Stmt::For(
      0, "i", 300,
      Stmt::Block({Stmt::If(
          Expr::Binary(BinaryOp::kLt, i, Expr::Var("N", Type::Int())),
          Stmt::Block({update}), nullptr)}));
  k.body = Stmt::Block(
      {Stmt::Decl("acc", Type::Int(), Expr::IntLit(0)), loop,
       Stmt::Assign(Expr::ArrayRef("out", Type::Int(), Expr::IntLit(0)),
                    acc)});
  k.task_loop_id = 0;
  BufferMap inputs;
  for (int t = 0; t < 300; ++t) {
    inputs["d"].push_back(Value::OfInt(t < 270 ? t % 9 + 1 : 0));
  }
  EXPECT_EQ(ExpectLaneParity(k, inputs, 270), kLaneChunk);
}

// out[i] = 100 / d[i] over 300 tasks, on the lane path.
StmtPtr DivideInto(const ExprPtr& task) {
  return Stmt::Assign(
      Expr::ArrayRef("out", Type::Int(), task),
      Expr::Binary(BinaryOp::kDiv, Expr::IntLit(100),
                   Expr::ArrayRef("d", Type::Int(), task)));
}

std::vector<Buffer> DivideBuffers() {
  return {Interface("d", Type::Int(), 300, BufferKind::kInput),
          Interface("out", Type::Int(), 300, BufferKind::kOutput)};
}

// d for the first `rows` tasks, zero-padded like a short Blaze batch.
BufferMap PaddedDivisors(int rows) {
  BufferMap b;
  for (int t = 0; t < 300; ++t) {
    b["d"].push_back(Value::OfInt(t < rows ? t % 9 + 1 : 0));
  }
  return b;
}

// Live slots hold 100 / d, padded slots the zero default.
void ExpectDividedRows(const BufferMap& b, int rows) {
  ASSERT_EQ(b.at("out").size(), 300u);
  for (int t = 0; t < 300; ++t) {
    EXPECT_EQ(b.at("out")[static_cast<std::size_t>(t)],
              Value::OfInt(t < rows ? 100 / (t % 9 + 1) : 0))
        << "task " << t;
  }
}

TEST(LaneEvalTest, LiveTaskBoundSkipsPaddedTasks) {
  const Kernel k =
      TaskKernel(DivideBuffers(), 300, {DivideInto(Expr::Var("i", Type::Int()))});
  ASSERT_EQ(Evaluator(k).lane_width(), kLaneChunk);
  const std::map<std::string, Value> scalars = {{"N", Value::OfInt(3)}};

  // Three live rows: the padded divisors are never evaluated.
  BufferMap partial = PaddedDivisors(3);
  Evaluator fast(k);
  fast.Run(scalars, partial, 3);
  ExpectDividedRows(partial, 3);
  EXPECT_LT(fast.last_steps(), 300u);  // live lanes only

  // A full batch containing a zero still throws, bounded or not.
  BufferMap zero = PaddedDivisors(300);
  zero["d"][200] = Value::OfInt(0);
  EXPECT_THROW(Evaluator(k).Run(scalars, zero), InvalidArgument);
  EXPECT_THROW(Evaluator(k).Run(scalars, zero, 300), InvalidArgument);
  // A negative bound is rejected.
  EXPECT_THROW(Evaluator(k).Run(scalars, partial, -1), InvalidArgument);

  // A width-1 program runs the whole padded batch: out[0] += 100 / d[i]
  // reads what the previous task wrote.
  const auto i = Expr::Var("i", Type::Int());
  const auto out0 = Expr::ArrayRef("out", Type::Int(), Expr::IntLit(0));
  const Kernel serial = TaskKernel(
      DivideBuffers(), 300,
      {Stmt::Assign(out0,
                    Expr::Binary(BinaryOp::kAdd, out0,
                                 Expr::Binary(BinaryOp::kDiv,
                                              Expr::IntLit(100),
                                              Expr::ArrayRef("d", Type::Int(),
                                                             i))))});
  ASSERT_EQ(Evaluator(serial).lane_width(), 1);
  BufferMap padded = PaddedDivisors(3);
  EXPECT_THROW(Evaluator(serial).Run(scalars, padded, 3), InvalidArgument);
}

TEST(LaneEvalTest, LiveTaskBoundMapsToTheTiledNest) {
  // The task loop tiled 25 x 12, body rewritten to task i_t * 12 + i_p:
  // task t is lane t, so 30 live tasks are two full tiles and half a third.
  const auto task = Expr::Binary(
      BinaryOp::kAdd,
      Expr::Binary(BinaryOp::kMul, Expr::Var("i_t", Type::Int()),
                   Expr::IntLit(12)),
      Expr::Var("i_p", Type::Int()));
  Kernel k;
  k.name = "tiled";
  k.scalars.push_back({"N", Type::Int()});
  k.buffers = DivideBuffers();
  auto point = Stmt::For(1, "i_p", 12, Stmt::Block({DivideInto(task)}));
  auto tile = Stmt::For(0, "i_t", 25, Stmt::Block({point}));
  tile->set_inserted_by_template(true);
  k.body = Stmt::Block({tile});
  k.task_loop_id = 0;
  ASSERT_EQ(Evaluator(k).lane_width(), kLaneChunk);
  for (int rows : {1, 30, 299}) {
    SCOPED_TRACE("rows=" + std::to_string(rows));
    BufferMap b = PaddedDivisors(rows);
    Evaluator(k).Run({{"N", Value::OfInt(rows)}}, b, rows);
    ExpectDividedRows(b, rows);
  }
}

TEST(LaneEvalTest, AccumulatorsSkipPaddingOnlyUnderTheLiveGuard) {
  // acc = acc + 100 / d[i], unguarded or under `if (task < N)`; out[0] =
  // acc.
  const auto i = Expr::Var("i", Type::Int());
  const auto acc = Expr::Var("acc", Type::Int());
  auto reduce = [&](const ExprPtr& task) {
    Kernel k;
    k.name = "reduce";
    k.pattern = ParallelPattern::kReduce;
    k.scalars.push_back({"N", Type::Int()});
    k.buffers = {Interface("d", Type::Int(), 300, BufferKind::kInput),
                 Interface("out", Type::Int(), 1, BufferKind::kOutput)};
    StmtPtr update = Stmt::Assign(
        acc, Expr::Binary(BinaryOp::kAdd, acc,
                          Expr::Binary(BinaryOp::kDiv, Expr::IntLit(100),
                                       Expr::ArrayRef("d", Type::Int(), i))));
    if (task) {
      update = Stmt::If(
          Expr::Binary(BinaryOp::kLt, task, Expr::Var("N", Type::Int())),
          Stmt::Block({update}), nullptr);
    }
    auto loop = Stmt::For(0, "i", 300, Stmt::Block({update}));
    loop->set_inserted_by_template(true);
    k.body = Stmt::Block(
        {Stmt::Decl("acc", Type::Int(), Expr::IntLit(0)), loop,
         Stmt::Assign(Expr::ArrayRef("out", Type::Int(), Expr::IntLit(0)),
                      acc)});
    k.task_loop_id = 0;
    return k;
  };
  const BufferMap inputs = PaddedDivisors(270);
  const std::map<std::string, Value> n270 = {{"N", Value::OfInt(270)}};
  const Kernel guarded = reduce(i);
  ASSERT_EQ(Evaluator(guarded).lane_width(), kLaneChunk);
  BufferMap want = inputs;
  ReferenceEvaluator ref(guarded);
  ref.Run(n270, want);

  // N == live: the padded lanes are skipped, the sum is unchanged.
  BufferMap got = inputs;
  Evaluator bounded(guarded);
  bounded.Run(n270, got, 270);
  EXPECT_EQ(got, want);
  EXPECT_LT(bounded.last_steps(), ref.last_steps());
  // N != live: every lane runs, as without a bound.
  Evaluator mismatched(guarded);
  got = inputs;
  mismatched.Run(n270, got, 100);
  EXPECT_EQ(got, want);
  EXPECT_EQ(mismatched.last_steps(), ref.last_steps());

  // Unguarded, every task divides: the padded zeros throw despite the bound.
  const Kernel unguarded = reduce(nullptr);
  ASSERT_EQ(Evaluator(unguarded).lane_width(), kLaneChunk);
  got = inputs;
  EXPECT_THROW(Evaluator(unguarded).Run(n270, got, 270), InvalidArgument);
  // `i - 1 < N` is not the task bound: task 270 still divides by its
  // padded zero.
  const Kernel shifted =
      reduce(Expr::Binary(BinaryOp::kSub, i, Expr::IntLit(1)));
  ASSERT_EQ(Evaluator(shifted).lane_width(), kLaneChunk);
  got = inputs;
  EXPECT_THROW(Evaluator(shifted).Run(n270, got, 270), InvalidArgument);
}

// ------------------------------------------------------------- analysis

Kernel MakeNestedKernel() {
  // for i in 8: { acc = 0; for j in 4: acc += a[i*4+j] * b[j]; out[i] = acc }
  Kernel k;
  k.name = "dot";
  k.buffers.push_back({"a", Type::Float(), 32, BufferKind::kInput, ""});
  k.buffers.push_back({"b", Type::Float(), 4, BufferKind::kInput, ""});
  k.buffers.push_back({"out", Type::Float(), 8, BufferKind::kOutput, ""});
  auto i = Expr::Var("i", Type::Int());
  auto j = Expr::Var("j", Type::Int());
  auto acc = Expr::Var("acc", Type::Float());
  auto prod = Expr::Binary(
      BinaryOp::kMul,
      Expr::ArrayRef("a", Type::Float(),
                     Expr::Binary(BinaryOp::kAdd,
                                  Expr::Binary(BinaryOp::kMul, i,
                                               Expr::IntLit(4)),
                                  j)),
      Expr::ArrayRef("b", Type::Float(), j));
  auto inner_body =
      Stmt::Block({Stmt::Assign(acc, Expr::Binary(BinaryOp::kAdd, acc, prod))});
  auto inner = Stmt::For(1, "j", 4, inner_body);
  inner->set_is_reduction(true);
  auto outer_body = Stmt::Block(
      {Stmt::Decl("acc", Type::Float(), Expr::FloatLit(0.0f)), inner,
       Stmt::Assign(Expr::ArrayRef("out", Type::Float(), i), acc)});
  auto outer = Stmt::For(0, "i", 8, outer_body);
  outer->set_inserted_by_template(true);
  k.body = Stmt::Block({outer});
  k.task_loop_id = 0;
  return k;
}

TEST(AnalysisTest, LoopTreeShape) {
  Kernel k = MakeNestedKernel();
  LoopTree tree = BuildLoopTree(k);
  ASSERT_EQ(tree.roots.size(), 1u);
  EXPECT_EQ(tree.size(), 2u);
  EXPECT_EQ(tree.max_depth(), 1);
  EXPECT_EQ(tree.roots[0].loop->loop_id(), 0);
  ASSERT_EQ(tree.roots[0].children.size(), 1u);
  EXPECT_EQ(tree.roots[0].children[0].loop->loop_id(), 1);
  EXPECT_NE(tree.Find(1), nullptr);
  EXPECT_EQ(tree.Find(9), nullptr);
}

TEST(AnalysisTest, StraightLineOpsExcludeInnerLoops) {
  Kernel k = MakeNestedKernel();
  const Stmt* outer = FindLoop(k.body, 0);
  OpCounts counts = CountStraightLineOps(*outer);
  // Straight-line part of the outer body: decl init + the out[i] store.
  EXPECT_EQ(counts.mem_write, 1);
  EXPECT_EQ(counts.fp_mul, 0);  // the multiply is inside the inner loop
}

TEST(AnalysisTest, TotalOpsScaleByTripCount) {
  Kernel k = MakeNestedKernel();
  OpCounts counts = CountTotalOps(*k.body);
  // Inner loop: 1 fp mul per iteration * 4 iterations * 8 outer = 32.
  EXPECT_EQ(counts.fp_mul, 32);
  // out[i] writes: 8.
  EXPECT_EQ(counts.buffer_writes.at("out"), 8);
  EXPECT_EQ(counts.buffer_reads.at("a"), 32);
}

TEST(AnalysisTest, ReductionRecurrenceDetected) {
  Kernel k = MakeNestedKernel();
  const Stmt* inner = FindLoop(k.body, 1);
  LoopRecurrence rec = AnalyzeRecurrence(*inner);
  EXPECT_TRUE(rec.carried);
  ASSERT_FALSE(rec.carriers.empty());
  EXPECT_EQ(rec.carriers[0], "acc");
  ASSERT_FALSE(rec.cycle_exprs.empty());
}

TEST(AnalysisTest, OuterLoopNotCarriedWhenAccIsPrivate) {
  Kernel k = MakeNestedKernel();
  const Stmt* outer = FindLoop(k.body, 0);
  // acc is declared inside the outer body -> private to each i iteration.
  LoopRecurrence rec = AnalyzeRecurrence(*outer);
  EXPECT_FALSE(rec.carried);
}

TEST(AnalysisTest, WavefrontRecurrenceDetected) {
  // for i in 16: h[i] = max(h[i-0... different index], x) — model S-W row:
  // h[i] = h[i-1] + 1 (read index differs from write index).
  Kernel k;
  k.name = "wave";
  k.buffers.push_back({"h", Type::Int(), 17, BufferKind::kLocal, ""});
  auto i = Expr::Var("i", Type::Int());
  auto write_index = Expr::Binary(BinaryOp::kAdd, i, Expr::IntLit(1));
  auto body = Stmt::Block({Stmt::Assign(
      Expr::ArrayRef("h", Type::Int(), write_index),
      Expr::Binary(BinaryOp::kAdd, Expr::ArrayRef("h", Type::Int(), i),
                   Expr::IntLit(1)))});
  auto loop = Stmt::For(0, "i", 16, body);
  k.body = Stmt::Block({loop});
  LoopRecurrence rec = AnalyzeRecurrence(*loop);
  EXPECT_TRUE(rec.carried);
  EXPECT_EQ(rec.carriers[0], "h");
}

TEST(AnalysisTest, ReadAtTheWrittenIndexIsNotCarried) {
  // h[i] = h[i] + 1: each iteration touches only its own element. The two
  // index nodes are distinct objects that print alike.
  auto i = Expr::Var("i", Type::Int());
  auto loop = Stmt::For(
      0, "i", 16,
      Stmt::Block({Stmt::Assign(
          Expr::ArrayRef("h", Type::Int(), Expr::Var("i", Type::Int())),
          Expr::Binary(BinaryOp::kAdd, Expr::ArrayRef("h", Type::Int(), i),
                       Expr::IntLit(1)))}));
  LoopRecurrence rec = AnalyzeRecurrence(*loop);
  EXPECT_FALSE(rec.carried);
  EXPECT_TRUE(rec.carriers.empty());
  EXPECT_TRUE(rec.cycle_exprs.empty());
}

TEST(AnalysisTest, ReadInsideAnotherLhsIndexIsCarried) {
  // h[i+1] = x[i]; out[h[i]] = 1. The only read of h feeds the index of
  // another store, and it still counts as a read at a different index.
  auto i = Expr::Var("i", Type::Int());
  auto write_rhs = Expr::ArrayRef("x", Type::Int(), i);
  auto loop = Stmt::For(
      0, "i", 16,
      Stmt::Block(
          {Stmt::Assign(
               Expr::ArrayRef("h", Type::Int(),
                              Expr::Binary(BinaryOp::kAdd, i,
                                           Expr::IntLit(1))),
               write_rhs),
           Stmt::Assign(
               Expr::ArrayRef("out", Type::Int(),
                              Expr::ArrayRef("h", Type::Int(), i)),
               Expr::IntLit(1))}));
  LoopRecurrence rec = AnalyzeRecurrence(*loop);
  EXPECT_TRUE(rec.carried);
  EXPECT_EQ(rec.carriers, std::vector<std::string>{"h"});
  ASSERT_EQ(rec.cycle_exprs.size(), 1u);
  EXPECT_EQ(rec.cycle_exprs[0], write_rhs);
}

TEST(AnalysisTest, CarrierAndCycleOrderIsExact) {
  // a[i+1] = a[i] + 1; s = s + b[i]; b[i+2] = b[i] * 2.
  // Scalar carriers come first, then buffers in the order of their writes;
  // cycle_exprs follow the carriers they belong to.
  auto i = Expr::Var("i", Type::Int());
  auto s = Expr::Var("s", Type::Int());
  auto shifted = [&](std::int64_t by) {
    return Expr::Binary(BinaryOp::kAdd, i, Expr::IntLit(by));
  };
  auto a_rhs = Expr::Binary(BinaryOp::kAdd, Expr::ArrayRef("a", Type::Int(), i),
                            Expr::IntLit(1));
  auto s_rhs =
      Expr::Binary(BinaryOp::kAdd, s, Expr::ArrayRef("b", Type::Int(), i));
  auto b_rhs = Expr::Binary(BinaryOp::kMul, Expr::ArrayRef("b", Type::Int(), i),
                            Expr::IntLit(2));
  auto loop = Stmt::For(
      0, "i", 16,
      Stmt::Block(
          {Stmt::Assign(Expr::ArrayRef("a", Type::Int(), shifted(1)), a_rhs),
           Stmt::Assign(s, s_rhs),
           Stmt::Assign(Expr::ArrayRef("b", Type::Int(), shifted(2)),
                        b_rhs)}));
  LoopRecurrence rec = AnalyzeRecurrence(*loop);
  EXPECT_TRUE(rec.carried);
  EXPECT_EQ(rec.carriers, (std::vector<std::string>{"s", "a", "b"}));
  ASSERT_EQ(rec.cycle_exprs.size(), 3u);
  EXPECT_EQ(rec.cycle_exprs[0], s_rhs);
  EXPECT_EQ(rec.cycle_exprs[1], a_rhs);
  EXPECT_EQ(rec.cycle_exprs[2], b_rhs);
}

TEST(AnalysisTest, IndexComparisonIsSyntactic) {
  // h[i+1] = h[1+i] + 1 touches one element per iteration, but indices are
  // compared as printed text, not as affine forms, so `1 + i` differs from
  // `i + 1` and the loop counts as carried.
  auto i = Expr::Var("i", Type::Int());
  auto loop = Stmt::For(
      0, "i", 16,
      Stmt::Block({Stmt::Assign(
          Expr::ArrayRef("h", Type::Int(),
                         Expr::Binary(BinaryOp::kAdd, i, Expr::IntLit(1))),
          Expr::Binary(
              BinaryOp::kAdd,
              Expr::ArrayRef("h", Type::Int(),
                             Expr::Binary(BinaryOp::kAdd, Expr::IntLit(1), i)),
              Expr::IntLit(1)))}));
  LoopRecurrence rec = AnalyzeRecurrence(*loop);
  EXPECT_TRUE(rec.carried);
  EXPECT_EQ(rec.carriers, std::vector<std::string>{"h"});
}

TEST(AnalysisTest, IndependentElementwiseLoopNotCarried) {
  Kernel k = MakeScaleKernel();
  LoopRecurrence rec = AnalyzeRecurrence(*FindLoop(k.body, 0));
  EXPECT_FALSE(rec.carried);
}

TEST(AnalysisTest, ExprDepthCountsComputeNodes) {
  auto x = Expr::Var("x", Type::Float());
  EXPECT_EQ(ExprDepth(x), 0);
  auto e1 = Expr::Binary(BinaryOp::kAdd, x, x);
  EXPECT_EQ(ExprDepth(e1), 1);
  auto e2 = Expr::Call(Intrinsic::kExp, {e1}, Type::Float());
  EXPECT_EQ(ExprDepth(e2), 2);
  auto leaf_heavy = Expr::ArrayRef(
      "buf", Type::Float(), Expr::Binary(BinaryOp::kAdd, x, x));
  EXPECT_EQ(ExprDepth(leaf_heavy), 1);  // index math counts, ref itself not
}

TEST(PrinterTest, IfElseEmission) {
  auto x = Expr::Var("x", Type::Int());
  auto cond = Expr::Binary(BinaryOp::kLt, x, Expr::IntLit(0));
  auto then_s = Stmt::Assign(x, Expr::IntLit(0));
  auto else_s = Stmt::Assign(x, Expr::Binary(BinaryOp::kAdd, x,
                                             Expr::IntLit(1)));
  std::string c = EmitStmtC(Stmt::If(cond, Stmt::Block({then_s}),
                                     Stmt::Block({else_s})));
  EXPECT_NE(c.find("if ((x < 0)) {"), std::string::npos) << c;
  EXPECT_NE(c.find("} else {"), std::string::npos) << c;
  EXPECT_NE(c.find("x = 0;"), std::string::npos);
  EXPECT_NE(c.find("x = (x + 1);"), std::string::npos);
}

TEST(PrinterTest, SelectEmitsTernary) {
  auto x = Expr::Var("x", Type::Float());
  auto sel = Expr::Select(
      Expr::Binary(BinaryOp::kGt, x, Expr::FloatLit(0.0f)), x,
      Expr::Unary(UnaryOp::kNeg, x));
  EXPECT_EQ(EmitExprC(sel), "((x > 0.0f) ? x : -(x))");
}

TEST(PrinterTest, DeclWithoutInitializer) {
  std::string c = EmitStmtC(Stmt::Decl("t", Type::Double(), nullptr));
  EXPECT_EQ(c, "double t;\n");
}

TEST(PrinterTest, IndentedStatements) {
  auto s = Stmt::Assign(Expr::Var("x", Type::Int()), Expr::IntLit(1));
  EXPECT_EQ(EmitStmtC(s, 4), "    x = 1;\n");
}

TEST(PrinterTest, CTypeNames) {
  EXPECT_EQ(CTypeName(Type::Byte()), "char");
  EXPECT_EQ(CTypeName(Type::Long()), "long long");
  EXPECT_EQ(CTypeName(Type::Char()), "unsigned short");
  EXPECT_THROW(CTypeName(Type::Array(Type::Int())), InvalidArgument);
}

// Property sweep: evaluator on the dot kernel matches a native dot product
// across random inputs and several sizes.
class DotEvalTest : public ::testing::TestWithParam<int> {};

TEST_P(DotEvalTest, MatchesNativeDot) {
  Kernel k = MakeNestedKernel();
  Evaluator ev(k);
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 7);
  BufferMap buffers;
  std::vector<float> a(32), b(4);
  for (auto& v : a) v = static_cast<float>(rng.NextDouble(-2, 2));
  for (auto& v : b) v = static_cast<float>(rng.NextDouble(-2, 2));
  for (float v : a) buffers["a"].push_back(Value::OfFloat(v));
  for (float v : b) buffers["b"].push_back(Value::OfFloat(v));
  ev.Run({}, buffers);
  for (int i = 0; i < 8; ++i) {
    float expect = 0.0f;
    for (int j = 0; j < 4; ++j) {
      expect += a[static_cast<std::size_t>(i * 4 + j)] *
                b[static_cast<std::size_t>(j)];
    }
    EXPECT_FLOAT_EQ(
        buffers["out"][static_cast<std::size_t>(i)].AsFloat(), expect);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DotEvalTest, ::testing::Range(0, 10));

}  // namespace
}  // namespace s2fa::kir
