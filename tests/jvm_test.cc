#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "jvm/assembler.h"
#include "jvm/interpreter.h"
#include "jvm/klass.h"
#include "jvm_text.h"
#include "jvm/type.h"
#include "jvm/verifier.h"
#include "support/rng.h"

namespace s2fa::jvm {
namespace {

// ----------------------------------------------------------------- type

TEST(TypeTest, DescriptorsRoundTrip) {
  const char* descriptors[] = {"I", "J", "F", "D", "Z", "B", "C", "S",
                               "[I", "[[D", "LTuple2;", "[LPoint;"};
  for (const char* d : descriptors) {
    EXPECT_EQ(ParseDescriptor(d).Descriptor(), d) << d;
  }
}

TEST(TypeTest, MalformedDescriptorsThrow) {
  EXPECT_THROW(ParseDescriptor("LTuple2"), MalformedInput);
  EXPECT_THROW(ParseDescriptor("Q"), MalformedInput);
  EXPECT_THROW(ParseDescriptor("II"), MalformedInput);
  EXPECT_THROW(ParseDescriptor(""), MalformedInput);
}

TEST(TypeTest, Predicates) {
  EXPECT_TRUE(Type::Int().is_integral());
  EXPECT_TRUE(Type::Long().is_wide());
  EXPECT_TRUE(Type::Double().is_wide());
  EXPECT_FALSE(Type::Float().is_wide());
  EXPECT_TRUE(Type::Array(Type::Int()).is_reference());
  EXPECT_TRUE(Type::Class("Tuple2").is_reference());
  EXPECT_FALSE(Type::Class("Tuple2").is_primitive());
}

TEST(TypeTest, BitWidths) {
  EXPECT_EQ(Type::Byte().bit_width(), 8);
  EXPECT_EQ(Type::Char().bit_width(), 16);
  EXPECT_EQ(Type::Int().bit_width(), 32);
  EXPECT_EQ(Type::Float().bit_width(), 32);
  EXPECT_EQ(Type::Double().bit_width(), 64);
  EXPECT_THROW(Type::Array(Type::Int()).bit_width(), InvalidArgument);
}

TEST(TypeTest, StructuralEquality) {
  EXPECT_EQ(Type::Array(Type::Int()), Type::Array(Type::Int()));
  EXPECT_NE(Type::Array(Type::Int()), Type::Array(Type::Float()));
  EXPECT_EQ(Type::Class("A"), Type::Class("A"));
  EXPECT_NE(Type::Class("A"), Type::Class("B"));
}

TEST(TypeTest, MethodSignatureDescriptor) {
  MethodSignature sig;
  sig.params = {Type::Int(), Type::Array(Type::Float())};
  sig.ret = Type::Float();
  EXPECT_EQ(sig.Descriptor(), "(I[F)F");
}

// ------------------------------------------------------------ assembler

TEST(AssemblerTest, ResolvesForwardLabels) {
  Assembler a;
  auto end = a.NewLabel();
  a.IConst(1).If(Cond::kNe, end).IConst(0).Pop();
  a.Bind(end);
  a.IConst(7).Ret(Type::Int());
  auto code = a.Finish();
  ASSERT_EQ(code.size(), 6u);
  EXPECT_EQ(code[1].target, 4u);
}

TEST(AssemblerTest, UnboundLabelThrows) {
  Assembler a;
  auto l = a.NewLabel();
  a.Goto(l);
  EXPECT_THROW(a.Finish(), MalformedInput);
}

TEST(AssemblerTest, DoubleBindThrows) {
  Assembler a;
  auto l = a.NewLabel();
  a.Bind(l);
  EXPECT_THROW(a.Bind(l), InvalidArgument);
}

// Builds `static int sum(int n) { int s = 0; for (i=0;i<n;i++) s+=i; return s; }`
Method BuildSumMethod() {
  Assembler a;
  // locals: 0=n, 1=s, 2=i
  a.IConst(0).Store(Type::Int(), 1);
  a.IConst(0).Store(Type::Int(), 2);
  auto head = a.NewLabel();
  auto exit = a.NewLabel();
  a.Bind(head);
  a.Load(Type::Int(), 2).Load(Type::Int(), 0).IfICmp(Cond::kGe, exit);
  a.Load(Type::Int(), 1).Load(Type::Int(), 2).IAdd().Store(Type::Int(), 1);
  a.IInc(2, 1);
  a.Goto(head);
  a.Bind(exit);
  a.Load(Type::Int(), 1).Ret(Type::Int());
  MethodSignature sig;
  sig.params = {Type::Int()};
  sig.ret = Type::Int();
  return MakeMethod("sum", sig, /*is_static=*/true, /*max_locals=*/3,
                    a.Finish());
}

// ------------------------------------------------------------- verifier

TEST(VerifierTest, AcceptsWellFormedLoop) {
  ClassPool pool;
  Klass& k = pool.Define("Test");
  k.AddMethod(BuildSumMethod());
  VerifyResult r = Verify(pool, k.GetMethod("sum"));
  EXPECT_TRUE(r.ok) << (r.errors.empty() ? "" : r.errors[0]);
  EXPECT_GE(r.max_stack, 2);
}

TEST(VerifierTest, CatchesStackUnderflow) {
  ClassPool pool;
  Assembler a;
  a.Pop();
  a.IConst(0).Ret(Type::Int());
  MethodSignature sig;
  sig.ret = Type::Int();
  Method m = MakeMethod("bad", sig, true, 0, a.Finish());
  VerifyResult r = Verify(pool, m);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.errors[0].find("underflow"), std::string::npos);
}

TEST(VerifierTest, CatchesTypeMismatch) {
  ClassPool pool;
  Assembler a;
  a.IConst(1).FConst(2.0f).IAdd();  // int + float under an int add
  a.Ret(Type::Int());
  MethodSignature sig;
  sig.ret = Type::Int();
  Method m = MakeMethod("bad", sig, true, 0, a.Finish());
  EXPECT_FALSE(Verify(pool, m).ok);
}

TEST(VerifierTest, CatchesFallOffEnd) {
  ClassPool pool;
  Assembler a;
  a.IConst(1).Pop();
  MethodSignature sig;
  sig.ret = Type::Void();
  Method m = MakeMethod("bad", sig, true, 0, a.Finish());
  VerifyResult r = Verify(pool, m);
  EXPECT_FALSE(r.ok);
}

TEST(VerifierTest, CatchesBadLocalSlot) {
  ClassPool pool;
  Assembler a;
  a.Load(Type::Int(), 5).Ret(Type::Int());
  MethodSignature sig;
  sig.ret = Type::Int();
  Method m = MakeMethod("bad", sig, true, 1, a.Finish());
  EXPECT_FALSE(Verify(pool, m).ok);
}

TEST(VerifierTest, CatchesBranchOutOfRange) {
  ClassPool pool;
  std::vector<Insn> code;
  Insn g{};
  g.op = Opcode::kGoto;
  g.target = 99;
  code.push_back(g);
  MethodSignature sig;
  sig.ret = Type::Void();
  Method m = MakeMethod("bad", sig, true, 0, std::move(code));
  EXPECT_FALSE(Verify(pool, m).ok);
}

TEST(VerifierTest, CatchesInconsistentMergeDepth) {
  ClassPool pool;
  Assembler a;
  auto other = a.NewLabel();
  auto join = a.NewLabel();
  a.Load(Type::Int(), 0).If(Cond::kEq, other);
  a.IConst(1).Goto(join);        // one value on the stack
  a.Bind(other);                 // zero values on the stack
  a.Bind(join);
  a.Ret(Type::Int());
  MethodSignature sig;
  sig.params = {Type::Int()};
  sig.ret = Type::Int();
  Method m = MakeMethod("bad", sig, true, 1, a.Finish());
  EXPECT_FALSE(Verify(pool, m).ok);
}

TEST(VerifierTest, CatchesUnresolvedField) {
  ClassPool pool;
  pool.Define("Obj");
  Assembler a;
  a.Load(Type::Class("Obj"), 0).GetField("Obj", "missing").Ret(Type::Int());
  MethodSignature sig;
  sig.params = {Type::Class("Obj")};
  sig.ret = Type::Int();
  Method m = MakeMethod("bad", sig, true, 1, a.Finish());
  EXPECT_FALSE(Verify(pool, m).ok);
}

TEST(VerifierTest, CatchesResidualStackAtReturn) {
  ClassPool pool;
  Assembler a;
  a.IConst(1).IConst(2).Ret(Type::Int());
  MethodSignature sig;
  sig.ret = Type::Int();
  Method m = MakeMethod("bad", sig, true, 0, a.Finish());
  VerifyResult r = Verify(pool, m);
  EXPECT_FALSE(r.ok);
}

// ---------------------------------------------------------- interpreter

class InterpFixture : public ::testing::Test {
 protected:
  ClassPool pool_;
  Heap heap_;
};

TEST_F(InterpFixture, SumLoop) {
  Klass& k = pool_.Define("Test");
  k.AddMethod(BuildSumMethod());
  VerifyOrThrow(pool_, k.GetMethod("sum"));
  Interpreter interp(pool_, heap_);
  ExecResult r = interp.Invoke("Test", "sum", {Value::OfInt(100)});
  EXPECT_EQ(r.ret.AsInt(), 4950);
  EXPECT_GT(r.steps, 100u);
  EXPECT_GT(r.cost_ns, 0.0);
}

TEST_F(InterpFixture, FloatArithmeticMatchesNative) {
  Klass& k = pool_.Define("Test");
  Assembler a;
  // f(x, y) = (x * y + x) / (y - 1.5f)
  a.Load(Type::Float(), 0).Load(Type::Float(), 1).FMul();
  a.Load(Type::Float(), 0).FAdd();
  a.Load(Type::Float(), 1).FConst(1.5f).FSub();
  a.FDiv();
  a.Ret(Type::Float());
  MethodSignature sig;
  sig.params = {Type::Float(), Type::Float()};
  sig.ret = Type::Float();
  k.AddMethod(MakeMethod("f", sig, true, 2, a.Finish()));
  VerifyOrThrow(pool_, k.GetMethod("f"));

  Interpreter interp(pool_, heap_);
  Rng rng(17);
  for (int i = 0; i < 200; ++i) {
    float x = static_cast<float>(rng.NextDouble(-10, 10));
    float y = static_cast<float>(rng.NextDouble(-10, 10));
    ExecResult r =
        interp.Invoke("Test", "f", {Value::OfFloat(x), Value::OfFloat(y)});
    float expect = (x * y + x) / (y - 1.5f);
    EXPECT_EQ(r.ret.AsFloat(), expect) << "x=" << x << " y=" << y;
  }
}

TEST_F(InterpFixture, IntDivisionSemantics) {
  Klass& k = pool_.Define("Test");
  Assembler a;
  a.Load(Type::Int(), 0).Load(Type::Int(), 1).Bin(Type::Int(), BinOp::kDiv);
  a.Ret(Type::Int());
  MethodSignature sig;
  sig.params = {Type::Int(), Type::Int()};
  sig.ret = Type::Int();
  k.AddMethod(MakeMethod("div", sig, true, 2, a.Finish()));
  Interpreter interp(pool_, heap_);
  auto call = [&](std::int32_t x, std::int32_t y) {
    return interp
        .Invoke("Test", "div", {Value::OfInt(x), Value::OfInt(y)})
        .ret.AsInt();
  };
  EXPECT_EQ(call(7, 2), 3);
  EXPECT_EQ(call(-7, 2), -3);  // JVM idiv truncates toward zero
  EXPECT_EQ(call(INT32_MIN, -1), INT32_MIN);  // JVM overflow wrap case
  EXPECT_THROW(call(1, 0), InvalidArgument);
}

// Java defines integer overflow: int and long `+ - *` wrap modulo 2^32
// and 2^64, and MIN / -1 is MIN with remainder 0.
TEST_F(InterpFixture, IntegralArithmeticWrapsLikeJava) {
  Klass& k = pool_.Define("Test");
  const std::vector<std::pair<std::string, BinOp>> ops = {
      {"add", BinOp::kAdd}, {"sub", BinOp::kSub}, {"mul", BinOp::kMul},
      {"div", BinOp::kDiv}, {"rem", BinOp::kRem}};
  for (const Type& type : {Type::Int(), Type::Long()}) {
    for (const auto& [name, op] : ops) {
      Assembler a;
      a.Load(type, 0).Load(type, type.is_wide() ? 2 : 1).Bin(type, op);
      a.Ret(type);
      MethodSignature sig;
      sig.params = {type, type};
      sig.ret = type;
      k.AddMethod(MakeMethod((type.is_wide() ? "l" : "i") + name, sig, true,
                             4, a.Finish()));
    }
  }
  Interpreter interp(pool_, heap_);
  auto i32 = [&](const std::string& name, std::int32_t x, std::int32_t y) {
    return interp
        .Invoke("Test", "i" + name, {Value::OfInt(x), Value::OfInt(y)})
        .ret.AsInt();
  };
  auto i64 = [&](const std::string& name, std::int64_t x, std::int64_t y) {
    return interp
        .Invoke("Test", "l" + name, {Value::OfLong(x), Value::OfLong(y)})
        .ret.AsLong();
  };
  EXPECT_EQ(i32("add", INT32_MAX, 1), INT32_MIN);
  EXPECT_EQ(i32("add", 1800000003, 600000003), -1894967290);
  EXPECT_EQ(i32("sub", INT32_MIN, 1), INT32_MAX);
  EXPECT_EQ(i32("mul", 123456789, 987654321), -67153019);
  EXPECT_EQ(i32("mul", 65536, 65536), 0);
  EXPECT_EQ(i32("mul", INT32_MIN, -1), INT32_MIN);
  EXPECT_EQ(i32("rem", INT32_MIN, -1), 0);

  EXPECT_EQ(i64("add", INT64_MAX, 1), INT64_MIN);
  EXPECT_EQ(i64("sub", INT64_MIN, 1), INT64_MAX);
  EXPECT_EQ(i64("mul", 3037000500, 3037000500), -9223372036709301616);
  EXPECT_EQ(i64("mul", -9876543210123, 1234567890123),
            -2173396327366242361);
  EXPECT_EQ(i64("mul", INT64_MIN, -1), INT64_MIN);
  EXPECT_EQ(i64("div", INT64_MIN, -1), INT64_MIN);
  EXPECT_EQ(i64("rem", INT64_MIN, -1), 0);
  EXPECT_EQ(i64("div", -7, 2), -3);
  EXPECT_EQ(i64("rem", -7, 2), -1);
  EXPECT_THROW(i64("div", 1, 0), InvalidArgument);
  EXPECT_THROW(i64("rem", 1, 0), InvalidArgument);
}

// Conversions follow JLS 5.1.2-5.1.3 rather than a detour through double:
// integral narrowing keeps the low bits, long -> float rounds once, and
// float -> integral saturates with NaN -> 0. Negating MIN wraps.
TEST_F(InterpFixture, ConversionsAndNegationFollowJava) {
  Klass& k = pool_.Define("Test");
  const std::vector<std::pair<std::string, Type>> types = {
      {"i", Type::Int()},   {"l", Type::Long()},  {"f", Type::Float()},
      {"d", Type::Double()}, {"b", Type::Byte()}, {"c", Type::Char()},
      {"s", Type::Short()}};
  auto define = [&](const std::string& name, const Type& from,
                    const Type& to, bool negate) {
    Assembler a;
    a.Load(from, 0);
    if (negate) {
      a.Neg(from);
    } else {
      a.Convert(from, to);
    }
    const Type ret = to.is_integral() && !to.is_wide() ? Type::Int() : to;
    a.Ret(ret);
    MethodSignature sig;
    sig.params = {from};
    sig.ret = ret;
    k.AddMethod(MakeMethod(name, sig, true, 2, a.Finish()));
  };
  for (const auto& [f, from] : types) {
    if (f == "b" || f == "c" || f == "s") continue;
    for (const auto& [t, to] : types) {
      if (f != t) define(f + "2" + t, from, to, false);
    }
  }
  define("ineg", Type::Int(), Type::Int(), true);
  define("lneg", Type::Long(), Type::Long(), true);
  Interpreter interp(pool_, heap_);
  auto call = [&](const std::string& name, Value x) {
    return interp.Invoke("Test", name, {x}).ret;
  };
  const float nan_f = std::numeric_limits<float>::quiet_NaN();
  const double nan_d = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();

  // Integral narrowing keeps the low bits.
  EXPECT_EQ(call("l2i", Value::OfLong((std::int64_t{1} << 40) | 5)).AsInt(),
            5);
  EXPECT_EQ(call("l2i", Value::OfLong(0x1'8000'0000LL)).AsInt(), INT32_MIN);
  EXPECT_EQ(call("l2i", Value::OfLong(-1)).AsInt(), -1);
  EXPECT_EQ(call("l2b", Value::OfLong(0x1'0000'0180LL)).AsInt(), -128);
  EXPECT_EQ(call("l2c", Value::OfLong(-1)).AsInt(), 0xFFFF);
  EXPECT_EQ(call("i2s", Value::OfInt(0x18000)).AsInt(), -32768);
  EXPECT_EQ(call("i2l", Value::OfInt(INT32_MIN)).AsLong(), INT32_MIN);
  // long -> float rounds once: 2^60 + 2^36 + 1 lies just above the
  // midpoint between two floats, which a detour through double rounds
  // onto, and then down.
  const std::int64_t above_tie = (std::int64_t{1} << 60) +
                                 (std::int64_t{1} << 36) + 1;
  EXPECT_EQ(call("l2f", Value::OfLong(above_tie)).AsFloat(),
            static_cast<float>(above_tie));
  EXPECT_EQ(call("l2f", Value::OfLong(above_tie)).AsFloat(),
            0x1.000002p60f);
  EXPECT_EQ(call("l2d", Value::OfLong(INT64_MAX)).AsDouble(), 0x1p63);

  // float -> integral saturates, NaN -> 0, the rest truncates.
  EXPECT_EQ(call("f2i", Value::OfFloat(nan_f)).AsInt(), 0);
  EXPECT_EQ(call("f2l", Value::OfFloat(nan_f)).AsLong(), 0);
  EXPECT_EQ(call("d2i", Value::OfDouble(nan_d)).AsInt(), 0);
  EXPECT_EQ(call("d2l", Value::OfDouble(nan_d)).AsLong(), 0);
  EXPECT_EQ(call("f2i", Value::OfFloat(3e9f)).AsInt(), INT32_MAX);
  EXPECT_EQ(call("f2i", Value::OfFloat(-3e9f)).AsInt(), INT32_MIN);
  EXPECT_EQ(call("d2i", Value::OfDouble(inf)).AsInt(), INT32_MAX);
  EXPECT_EQ(call("d2i", Value::OfDouble(-inf)).AsInt(), INT32_MIN);
  EXPECT_EQ(call("d2i", Value::OfDouble(-2147483648.9)).AsInt(), INT32_MIN);
  EXPECT_EQ(call("d2i", Value::OfDouble(-7.9)).AsInt(), -7);
  EXPECT_EQ(call("f2l", Value::OfFloat(1e19f)).AsLong(), INT64_MAX);
  EXPECT_EQ(call("d2l", Value::OfDouble(-1e19)).AsLong(), INT64_MIN);
  EXPECT_EQ(call("d2l", Value::OfDouble(0x1p63)).AsLong(), INT64_MAX);
  EXPECT_EQ(call("d2l", Value::OfDouble(-0x1p63)).AsLong(), INT64_MIN);
  EXPECT_EQ(call("d2l", Value::OfDouble(123456789012.7)).AsLong(),
            123456789012);
  // Sub-int targets narrow the saturated int.
  EXPECT_EQ(call("d2b", Value::OfDouble(nan_d)).AsInt(), 0);
  EXPECT_EQ(call("d2s", Value::OfDouble(1e10)).AsInt(), -1);  // 0x7fffffff
  EXPECT_EQ(call("f2c", Value::OfFloat(65.7f)).AsInt(), 65);
  // Floating <-> floating.
  EXPECT_EQ(call("d2f", Value::OfDouble(0.1)).AsFloat(), 0.1f);
  EXPECT_EQ(call("f2d", Value::OfFloat(0.1f)).AsDouble(),
            static_cast<double>(0.1f));

  // Negating MIN wraps to MIN.
  EXPECT_EQ(call("ineg", Value::OfInt(INT32_MIN)).AsInt(), INT32_MIN);
  EXPECT_EQ(call("ineg", Value::OfInt(5)).AsInt(), -5);
  EXPECT_EQ(call("lneg", Value::OfLong(INT64_MIN)).AsLong(), INT64_MIN);
  EXPECT_EQ(call("lneg", Value::OfLong(-9)).AsLong(), 9);
}

TEST_F(InterpFixture, ArraysAndBoundsChecks) {
  Klass& k = pool_.Define("Test");
  Assembler a;
  // g(n) = { int[] v = new int[n]; v[0] = 42; return v[n-1] + v[0]; }
  a.Load(Type::Int(), 0).NewArray(Type::Int()).Store(Type::Array(Type::Int()), 1);
  a.Load(Type::Array(Type::Int()), 1).IConst(0).IConst(42).AStoreElem(Type::Int());
  a.Load(Type::Array(Type::Int()), 1).Load(Type::Int(), 0).IConst(1).ISub();
  a.ALoadElem(Type::Int());
  a.Load(Type::Array(Type::Int()), 1).IConst(0).ALoadElem(Type::Int());
  a.IAdd().Ret(Type::Int());
  MethodSignature sig;
  sig.params = {Type::Int()};
  sig.ret = Type::Int();
  k.AddMethod(MakeMethod("g", sig, true, 2, a.Finish()));
  VerifyOrThrow(pool_, k.GetMethod("g"));
  Interpreter interp(pool_, heap_);
  EXPECT_EQ(interp.Invoke("Test", "g", {Value::OfInt(5)}).ret.AsInt(), 42);
  EXPECT_EQ(interp.Invoke("Test", "g", {Value::OfInt(1)}).ret.AsInt(), 84);
  EXPECT_THROW(interp.Invoke("Test", "g", {Value::OfInt(0)}),
               InvalidArgument);  // v[0] out of bounds
}

TEST_F(InterpFixture, TupleFieldsThroughObjects) {
  // class Pair { double _1; double _2; }  f(p) = p._1 * p._2
  Klass& pair = pool_.Define("Pair");
  pair.AddField({"_1", Type::Double()});
  pair.AddField({"_2", Type::Double()});
  Klass& k = pool_.Define("Test");
  Assembler a;
  a.Load(Type::Class("Pair"), 0).GetField("Pair", "_1");
  a.Load(Type::Class("Pair"), 0).GetField("Pair", "_2");
  a.DMul().Ret(Type::Double());
  MethodSignature sig;
  sig.params = {Type::Class("Pair")};
  sig.ret = Type::Double();
  k.AddMethod(MakeMethod("f", sig, true, 1, a.Finish()));
  VerifyOrThrow(pool_, k.GetMethod("f"));

  Ref p = heap_.NewInstance(Type::Class("Pair"), 2);
  heap_.Get(p).slots[0] = Value::OfDouble(6.0);
  heap_.Get(p).slots[1] = Value::OfDouble(7.0);
  Interpreter interp(pool_, heap_);
  EXPECT_DOUBLE_EQ(
      interp.Invoke("Test", "f", {Value::OfRef(p)}).ret.AsDouble(), 42.0);
}

TEST_F(InterpFixture, MethodInvocation) {
  Klass& k = pool_.Define("Test");
  {
    Assembler a;
    a.Load(Type::Int(), 0).Load(Type::Int(), 0).IMul().Ret(Type::Int());
    MethodSignature sig;
    sig.params = {Type::Int()};
    sig.ret = Type::Int();
    k.AddMethod(MakeMethod("square", sig, true, 1, a.Finish()));
  }
  {
    Assembler a;
    a.Load(Type::Int(), 0).InvokeStatic("Test", "square");
    a.Load(Type::Int(), 1).InvokeStatic("Test", "square");
    a.IAdd().Ret(Type::Int());
    MethodSignature sig;
    sig.params = {Type::Int(), Type::Int()};
    sig.ret = Type::Int();
    k.AddMethod(MakeMethod("sumsq", sig, true, 2, a.Finish()));
  }
  VerifyOrThrow(pool_, k.GetMethod("sumsq"));
  Interpreter interp(pool_, heap_);
  EXPECT_EQ(interp.Invoke("Test", "sumsq",
                          {Value::OfInt(3), Value::OfInt(4)})
                .ret.AsInt(),
            25);
}

TEST_F(InterpFixture, MathIntrinsics) {
  Klass& k = pool_.Define("Test");
  Assembler a;
  // h(x) = exp(sqrt(abs(x)))
  a.Load(Type::Double(), 0);
  a.InvokeStatic("java/lang/Math", "abs");
  a.InvokeStatic("java/lang/Math", "sqrt");
  a.InvokeStatic("java/lang/Math", "exp");
  a.Ret(Type::Double());
  MethodSignature sig;
  sig.params = {Type::Double()};
  sig.ret = Type::Double();
  k.AddMethod(MakeMethod("h", sig, true, 2, a.Finish()));
  VerifyOrThrow(pool_, k.GetMethod("h"));
  Interpreter interp(pool_, heap_);
  double x = -2.25;
  EXPECT_DOUBLE_EQ(
      interp.Invoke("Test", "h", {Value::OfDouble(x)}).ret.AsDouble(),
      std::exp(std::sqrt(std::fabs(x))));
}

TEST_F(InterpFixture, MathMinMaxFollowJavaSemantics) {
  // Java's Math.max/min propagate NaN and order the zeros (-0.0 < +0.0);
  // fmax/fmin do neither (regression: the intrinsics used to lower to
  // fmax/fmin).
  Klass& k = pool_.Define("Test");
  {
    Assembler a;
    a.Load(Type::Double(), 0).Load(Type::Double(), 2)
        .InvokeStatic("java/lang/Math", "max");
    a.Ret(Type::Double());
    MethodSignature sig;
    sig.params = {Type::Double(), Type::Double()};
    sig.ret = Type::Double();
    k.AddMethod(MakeMethod("dmax", sig, true, 4, a.Finish()));
  }
  {
    Assembler a;
    a.Load(Type::Double(), 0).Load(Type::Double(), 2)
        .InvokeStatic("java/lang/Math", "min");
    a.Ret(Type::Double());
    MethodSignature sig;
    sig.params = {Type::Double(), Type::Double()};
    sig.ret = Type::Double();
    k.AddMethod(MakeMethod("dmin", sig, true, 4, a.Finish()));
  }
  VerifyOrThrow(pool_, k.GetMethod("dmax"));
  VerifyOrThrow(pool_, k.GetMethod("dmin"));
  Interpreter interp(pool_, heap_);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(
      interp.Invoke("Test", "dmax", {Value::OfDouble(nan),
                                     Value::OfDouble(1.0)}).ret.AsDouble()));
  EXPECT_TRUE(std::isnan(
      interp.Invoke("Test", "dmin", {Value::OfDouble(2.0),
                                     Value::OfDouble(nan)}).ret.AsDouble()));
  EXPECT_TRUE(std::signbit(
      interp.Invoke("Test", "dmin", {Value::OfDouble(0.0),
                                     Value::OfDouble(-0.0)}).ret.AsDouble()));
  EXPECT_FALSE(std::signbit(
      interp.Invoke("Test", "dmax", {Value::OfDouble(-0.0),
                                     Value::OfDouble(0.0)}).ret.AsDouble()));
}

TEST_F(InterpFixture, FloatBinOpMinMaxFollowJavaSemantics) {
  // Same Java semantics for the fmin/fmax-shaped BinOp path.
  Klass& k = pool_.Define("Test");
  Assembler a;
  a.Load(Type::Float(), 0).Load(Type::Float(), 1)
      .Bin(Type::Float(), BinOp::kMin);
  a.Ret(Type::Float());
  MethodSignature sig;
  sig.params = {Type::Float(), Type::Float()};
  sig.ret = Type::Float();
  k.AddMethod(MakeMethod("fmin2", sig, true, 2, a.Finish()));
  VerifyOrThrow(pool_, k.GetMethod("fmin2"));
  Interpreter interp(pool_, heap_);
  EXPECT_TRUE(std::signbit(
      interp.Invoke("Test", "fmin2", {Value::OfFloat(0.0f),
                                      Value::OfFloat(-0.0f)}).ret.AsFloat()));
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_TRUE(std::isnan(
      interp.Invoke("Test", "fmin2", {Value::OfFloat(nan),
                                      Value::OfFloat(3.0f)}).ret.AsFloat()));
}

TEST_F(InterpFixture, ConversionTruncation) {
  Klass& k = pool_.Define("Test");
  Assembler a;
  a.Load(Type::Double(), 0).Convert(Type::Double(), Type::Int());
  a.Ret(Type::Int());
  MethodSignature sig;
  sig.params = {Type::Double()};
  sig.ret = Type::Int();
  k.AddMethod(MakeMethod("d2i", sig, true, 2, a.Finish()));
  Interpreter interp(pool_, heap_);
  EXPECT_EQ(interp.Invoke("Test", "d2i", {Value::OfDouble(3.99)}).ret.AsInt(),
            3);
  EXPECT_EQ(interp.Invoke("Test", "d2i", {Value::OfDouble(-3.99)}).ret.AsInt(),
            -3);
}

TEST_F(InterpFixture, ByteArrayStoreNarrows) {
  Klass& k = pool_.Define("Test");
  Assembler a;
  // b(n) = { byte[] v = new byte[1]; v[0] = (byte)n; return v[0]; }
  a.IConst(1).NewArray(Type::Byte()).Store(Type::Array(Type::Byte()), 1);
  a.Load(Type::Array(Type::Byte()), 1).IConst(0).Load(Type::Int(), 0);
  a.AStoreElem(Type::Byte());
  a.Load(Type::Array(Type::Byte()), 1).IConst(0).ALoadElem(Type::Byte());
  a.Ret(Type::Int());
  MethodSignature sig;
  sig.params = {Type::Int()};
  sig.ret = Type::Int();
  k.AddMethod(MakeMethod("b", sig, true, 2, a.Finish()));
  Interpreter interp(pool_, heap_);
  EXPECT_EQ(interp.Invoke("Test", "b", {Value::OfInt(130)}).ret.AsInt(),
            -126);  // 130 wraps to signed byte
}

TEST_F(InterpFixture, CostGrowsWithWork) {
  Klass& k = pool_.Define("Test");
  k.AddMethod(BuildSumMethod());
  Interpreter interp(pool_, heap_);
  double c10 = interp.Invoke("Test", "sum", {Value::OfInt(10)}).cost_ns;
  double c1000 = interp.Invoke("Test", "sum", {Value::OfInt(1000)}).cost_ns;
  EXPECT_GT(c1000, c10 * 50);
}

TEST_F(InterpFixture, StepBudgetGuardsRunaways) {
  Klass& k = pool_.Define("Test");
  Assembler a;
  auto head = a.NewLabel();
  a.Bind(head);
  a.Goto(head);  // infinite loop
  MethodSignature sig;
  sig.ret = Type::Void();
  k.AddMethod(MakeMethod("spin", sig, true, 0, a.Finish()));
  Interpreter interp(pool_, heap_);
  interp.set_max_steps(10000);
  EXPECT_THROW(interp.Invoke("Test", "spin", {}), InternalError);
}

// Property sweep: interpreted Smith-Waterman-style max-recurrence inner cell
// matches a native implementation over random inputs.
class CellParamTest : public ::testing::TestWithParam<int> {};

TEST_P(CellParamTest, MaxOfThreeMatchesNative) {
  ClassPool pool;
  Heap heap;
  Klass& k = pool.Define("Test");
  Assembler a;
  // cell(a, b, c) = max(0, max(a, max(b, c)))
  a.Load(Type::Int(), 1).Load(Type::Int(), 2).Bin(Type::Int(), BinOp::kMax);
  a.Load(Type::Int(), 0).Bin(Type::Int(), BinOp::kMax);
  a.IConst(0).Bin(Type::Int(), BinOp::kMax);
  a.Ret(Type::Int());
  MethodSignature sig;
  sig.params = {Type::Int(), Type::Int(), Type::Int()};
  sig.ret = Type::Int();
  k.AddMethod(MakeMethod("cell", sig, true, 3, a.Finish()));
  VerifyOrThrow(pool, k.GetMethod("cell"));
  Interpreter interp(pool, heap);
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int i = 0; i < 50; ++i) {
    int x = static_cast<int>(rng.NextInt(-100, 100));
    int y = static_cast<int>(rng.NextInt(-100, 100));
    int z = static_cast<int>(rng.NextInt(-100, 100));
    int got = interp
                  .Invoke("Test", "cell",
                          {Value::OfInt(x), Value::OfInt(y), Value::OfInt(z)})
                  .ret.AsInt();
    EXPECT_EQ(got, std::max(0, std::max(x, std::max(y, z))));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CellParamTest, ::testing::Range(1, 9));

// -------------------------------------------------------------- classes

TEST(KlassTest, FieldIndexing) {
  Klass k("P");
  k.AddField({"x", Type::Int()});
  k.AddField({"y", Type::Float()});
  EXPECT_EQ(k.FieldIndex("x"), 0u);
  EXPECT_EQ(k.FieldIndex("y"), 1u);
  EXPECT_THROW(k.FieldIndex("z"), MalformedInput);
  EXPECT_THROW(k.AddField({"x", Type::Int()}), InvalidArgument);
}

TEST(KlassTest, MathIntrinsicDetection) {
  EXPECT_TRUE(ClassPool::IsMathIntrinsic("java/lang/Math", "exp"));
  EXPECT_TRUE(ClassPool::IsMathIntrinsic("java/lang/Math", "pow"));
  EXPECT_FALSE(ClassPool::IsMathIntrinsic("java/lang/Math", "tan"));
  EXPECT_FALSE(ClassPool::IsMathIntrinsic("Other", "exp"));
}

TEST(KlassTest, PoolRejectsDuplicates) {
  ClassPool pool;
  pool.Define("A");
  EXPECT_THROW(pool.Define("A"), InvalidArgument);
  EXPECT_THROW(pool.Get("Missing"), MalformedInput);
}

TEST(InsnTest, DisassembleProducesOneLinePerInsn) {
  Method m = BuildSumMethod();
  std::string text = Disassemble(m.code);
  std::size_t lines = static_cast<std::size_t>(
      std::count(text.begin(), text.end(), '\n'));
  EXPECT_EQ(lines, m.code.size());
  EXPECT_NE(text.find("if_icmp"), std::string::npos);
}

// --------------------------------------------------------- textual form

TEST(TextTest, RoundTripsTheSumLoop) {
  Method m = BuildSumMethod();
  std::vector<Insn> parsed = ParseCode(Disassemble(m.code));
  ASSERT_EQ(parsed.size(), m.code.size());
  for (std::size_t i = 0; i < m.code.size(); ++i) {
    EXPECT_EQ(parsed[i].ToString(), m.code[i].ToString()) << i;
  }
}

TEST(TextTest, ParsedCodeExecutesIdentically) {
  ClassPool pool;
  Klass& k = pool.Define("Test");
  Method original = BuildSumMethod();
  Method reparsed = original;
  reparsed.name = "sum2";
  reparsed.code = ParseCode(Disassemble(original.code));
  k.AddMethod(original);
  k.AddMethod(reparsed);
  Heap heap;
  Interpreter interp(pool, heap);
  EXPECT_EQ(interp.Invoke("Test", "sum", {Value::OfInt(50)}).ret.AsInt(),
            interp.Invoke("Test", "sum2", {Value::OfInt(50)}).ret.AsInt());
}

TEST(TextTest, CommentsAndBlankLinesIgnored) {
  std::vector<Insn> code = ParseCode(
      "# a comment\n"
      "\n"
      "  const int 7\n"
      "  12: return int\n");
  ASSERT_EQ(code.size(), 2u);
  EXPECT_EQ(code[0].const_i, 7);
  EXPECT_EQ(code[1].op, Opcode::kReturn);
}

TEST(TextTest, SyntaxErrorsCarryLineNumbers) {
  try {
    ParseCode("const int 1\nfrobnicate\n");
    FAIL() << "should have thrown";
  } catch (const MalformedInput& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(TextTest, ParsesEveryInstructionShape) {
  const char* lines[] = {
      "const float 2.5",        "const long -9",
      "load FPoint slot=0",     "store double[] slot=3",
      "aload_elem byte",        "astore_elem char",
      "newarray int",           "arraylength",
      "binop float max",        "neg double",
      "convert int->float",     "cmp double g",
      "if ne ->4",              "if_icmp le ->0",
      "goto ->2",               "iinc slot=2 +-3",
      "getfield P._1",          "putfield P._2",
      "new P",                  "invoke virtual P.f",
      "invoke static M.g",      "dup",
      "pop",                    "swap",
      "return void",
  };
  for (const char* line : lines) {
    Insn insn = ParseInsn(line);
    // Round trip through ToString and back.
    Insn again = ParseInsn(insn.ToString());
    EXPECT_EQ(again.ToString(), insn.ToString()) << line;
  }
}

}  // namespace
}  // namespace s2fa::jvm
