// Differential fuzzing of the whole front end.
//
// A generator produces random *structured* kernels at the bytecode level —
// tuple inputs with array/scalar fields, canonical counted loops, if/else
// over float comparisons, arithmetic with guarded divisions, math
// intrinsics, and helper-method calls — exactly the shape the supported
// Scala subset lowers to. Each kernel is then pinned three ways:
//
//   1. the bytecode interpreter (JVM semantics),
//   2. the b2c-compiled kernel IR run through the IR evaluator,
//   3. the IR evaluator again after a random legal Merlin transform.
//
// All three must agree bit-for-bit on random inputs: the compiler's
// end-to-end correctness obligation (paper Challenge 1), probed over many
// random programs instead of hand-picked ones. The served path -- columns
// serialized into device buffers, the registered lane program, results
// deserialized back into columns -- is held to the same bit-for-bit bar
// through BlazeRuntime::Map/Reduce.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>

#include "b2c/compiler.h"
#include "blaze/runtime.h"
#include "jvm/assembler.h"
#include "jvm/interpreter.h"
#include "jvm/verifier.h"
#include "kir/eval.h"
#include "merlin/transform.h"
#include "support/rng.h"

namespace s2fa {
namespace {

using jvm::Assembler;
using jvm::Cond;
using jvm::MethodSignature;
using jvm::Type;
using jvm::Value;

constexpr int kNumArrays = 2;   // float-array fields of the input tuple
constexpr int kArrayLen = 8;    // per-task elements of each array field

// Local variable slots of the generated `call` method, after `shift`
// leading slots (a reduce kernel's incoming accumulator):
//   +0 = in (ref), +1..kNumArrays = array refs, +3 = scalar field,
//   +4 = accumulator, +5 = loop index, +6 = scratch temp.
struct Slots {
  int shift = 0;
  int in() const { return shift; }
  int array(int k) const { return shift + 1 + k; }
  int scalar() const { return shift + 3; }
  int acc() const { return shift + 4; }
  int loop() const { return shift + 5; }
  int temp() const { return shift + 6; }
  int max_locals() const { return shift + 7; }
};

// The generated kernel's RDD pattern: a map, or a reduce folding the same
// per-record value into a float or double accumulator.
enum class FuzzShape { kMap, kReduceFloat, kReduceDouble };

// Emits bytecode that leaves one float on the operand stack.
class ExprGen {
 public:
  ExprGen(Assembler& a, Rng& rng, bool allow_acc, Slots slots)
      : a_(a), rng_(rng), allow_acc_(allow_acc), slots_(slots) {}

  void Emit(int depth) {
    const int max_choice = depth <= 0 ? 3 : 9;
    switch (rng_.NextInt(0, max_choice)) {
      case 0:
        a_.FConst(static_cast<float>(rng_.NextDouble(-2.0, 2.0)));
        break;
      case 1:
        a_.Load(Type::Float(), slots_.scalar());
        break;
      case 2: {
        int arr =
            slots_.array(static_cast<int>(rng_.NextIndex(kNumArrays)));
        a_.Load(Type::Array(Type::Float()), arr);
        a_.Load(Type::Int(), slots_.loop());
        a_.ALoadElem(Type::Float());
        break;
      }
      case 3:
        if (allow_acc_) {
          a_.Load(Type::Float(), slots_.acc());
        } else {
          a_.FConst(0.75f);
        }
        break;
      case 4:
      case 5: {
        Emit(depth - 1);
        Emit(depth - 1);
        switch (rng_.NextInt(0, 3)) {
          case 0: a_.FAdd(); break;
          case 1: a_.FSub(); break;
          case 2: a_.FMul(); break;
          default:
            // a / (|b| + 0.5): keeps the divisor away from zero.
            a_.Convert(Type::Float(), Type::Double());
            a_.InvokeStatic("java/lang/Math", "abs");
            a_.Convert(Type::Double(), Type::Float());
            a_.FConst(0.5f).FAdd();
            a_.FDiv();
            break;
        }
        break;
      }
      case 6:
        Emit(depth - 1);
        a_.Neg(Type::Float());
        break;
      case 7:
        Emit(depth - 1);
        Emit(depth - 1);
        a_.Bin(Type::Float(),
               rng_.NextBool() ? jvm::BinOp::kMin : jvm::BinOp::kMax);
        break;
      case 8:
        // sqrt(|x|) via Math intrinsics (domain stays valid).
        Emit(depth - 1);
        a_.Convert(Type::Float(), Type::Double());
        a_.InvokeStatic("java/lang/Math", "abs");
        a_.InvokeStatic("java/lang/Math", "sqrt");
        a_.Convert(Type::Double(), Type::Float());
        break;
      default:
        // Helper call (exercises the inliner).
        Emit(depth - 1);
        a_.InvokeStatic("FuzzKernel", "helper");
        break;
    }
  }

 private:
  Assembler& a_;
  Rng& rng_;
  bool allow_acc_;
  Slots slots_;
};

// Emits one random statement updating the accumulator (inside the loop).
void EmitLoopStatement(Assembler& a, Rng& rng, Slots slots) {
  const int acc = slots.acc();
  switch (rng.NextInt(0, 2)) {
    case 0: {
      // acc = acc + <expr>
      a.Load(Type::Float(), acc);
      ExprGen(a, rng, /*allow_acc=*/false, slots).Emit(2);
      a.FAdd().Store(Type::Float(), acc);
      break;
    }
    case 1: {
      // t = <expr>; acc = acc + t * t   (private temp)
      ExprGen(a, rng, false, slots).Emit(2);
      a.Store(Type::Float(), slots.temp());
      a.Load(Type::Float(), acc);
      a.Load(Type::Float(), slots.temp()).Load(Type::Float(), slots.temp()).FMul();
      a.FAdd().Store(Type::Float(), acc);
      break;
    }
    default: {
      // if (<e1> < <e2>) acc = acc + <e3>  [else acc = acc - <e4>]
      auto skip = a.NewLabel();
      ExprGen(a, rng, false, slots).Emit(1);
      ExprGen(a, rng, false, slots).Emit(1);
      a.Cmp(Type::Float());
      const bool has_else = rng.NextBool();
      if (!has_else) {
        a.If(Cond::kGe, skip);
        a.Load(Type::Float(), acc);
        ExprGen(a, rng, false, slots).Emit(1);
        a.FAdd().Store(Type::Float(), acc);
        a.Bind(skip);
      } else {
        auto done = a.NewLabel();
        a.If(Cond::kGe, skip);
        a.Load(Type::Float(), acc);
        ExprGen(a, rng, false, slots).Emit(1);
        a.FAdd().Store(Type::Float(), acc);
        a.Goto(done);
        a.Bind(skip);
        a.Load(Type::Float(), acc);
        ExprGen(a, rng, false, slots).Emit(1);
        a.FSub().Store(Type::Float(), acc);
        a.Bind(done);
      }
      break;
    }
  }
}

struct FuzzCase {
  std::shared_ptr<jvm::ClassPool> pool;
  b2c::KernelSpec spec;
};

FuzzCase GenerateKernel(std::uint64_t seed, FuzzShape shape = FuzzShape::kMap,
                        std::int64_t batch = 16) {
  const bool reduce = shape != FuzzShape::kMap;
  const Type result =
      shape == FuzzShape::kReduceDouble ? Type::Double() : Type::Float();
  const Slots slots{shape == FuzzShape::kMap ? 0 : result.is_wide() ? 2 : 1};
  Rng rng(seed);
  FuzzCase fc;
  fc.pool = std::make_shared<jvm::ClassPool>();

  jvm::Klass& in = fc.pool->Define("FuzzIn");
  in.AddField({"_1", Type::Array(Type::Float())});
  in.AddField({"_2", Type::Array(Type::Float())});
  in.AddField({"_3", Type::Float()});

  jvm::Klass& k = fc.pool->Define("FuzzKernel");
  {
    // static float helper(float x) { return x * 0.5f + 1.0f; }
    Assembler a;
    a.Load(Type::Float(), 0).FConst(0.5f).FMul().FConst(1.0f).FAdd();
    a.Ret(Type::Float());
    MethodSignature sig;
    sig.params = {Type::Float()};
    sig.ret = Type::Float();
    k.AddMethod(jvm::MakeMethod("helper", sig, true, 1, a.Finish()));
  }
  {
    Assembler a;
    const Type fa = Type::Array(Type::Float());
    const Type in_type = Type::Class("FuzzIn");
    a.Load(in_type, slots.in()).GetField("FuzzIn", "_1")
        .Store(fa, slots.array(0));
    a.Load(in_type, slots.in()).GetField("FuzzIn", "_2")
        .Store(fa, slots.array(1));
    a.Load(in_type, slots.in()).GetField("FuzzIn", "_3")
        .Store(Type::Float(), slots.scalar());
    a.FConst(0.0f).Store(Type::Float(), slots.acc());
    // One or two canonical counted loops, 1-3 statements each.
    const int loops = static_cast<int>(rng.NextInt(1, 2));
    for (int l = 0; l < loops; ++l) {
      a.IConst(0).Store(Type::Int(), slots.loop());
      auto head = a.NewLabel();
      auto exit = a.NewLabel();
      a.Bind(head);
      a.Load(Type::Int(), slots.loop()).IConst(kArrayLen)
          .IfICmp(Cond::kGe, exit);
      const int stmts = static_cast<int>(rng.NextInt(1, 3));
      for (int s = 0; s < stmts; ++s) EmitLoopStatement(a, rng, slots);
      a.IInc(slots.loop(), 1);
      a.Goto(head);
      a.Bind(exit);
    }
    MethodSignature sig;
    sig.params = {in_type};
    sig.ret = result;
    if (reduce) {
      // return acc_in + (R) value
      a.Load(result, 0).Load(Type::Float(), slots.acc());
      if (result.is_wide()) a.Convert(Type::Float(), result);
      a.Bin(result, jvm::BinOp::kAdd);
      sig.params = {result, in_type};
    } else {
      a.Load(Type::Float(), slots.acc());
    }
    a.Ret(result);
    k.AddMethod(
        jvm::MakeMethod("call", sig, true, slots.max_locals(), a.Finish()));
  }

  fc.spec.kernel_name = "fuzz_kernel";
  fc.spec.klass = "FuzzKernel";
  fc.spec.input.type = Type::Class("FuzzIn");
  fc.spec.input.fields = {{"_1", Type::Float(), kArrayLen, true},
                          {"_2", Type::Float(), kArrayLen, true},
                          {"_3", Type::Float(), 1, false}};
  fc.spec.pattern =
      reduce ? kir::ParallelPattern::kReduce : kir::ParallelPattern::kMap;
  fc.spec.output.type = result;
  fc.spec.output.fields = {{"ret", result, 1, false}};
  fc.spec.batch = batch;
  return fc;
}

// Draws a random legal Merlin config for `kernel`.
merlin::DesignConfig RandomLegalConfig(const kir::Kernel& kernel, Rng& rng) {
  merlin::DesignConfig cfg;
  for (const kir::Stmt* loop : kernel.Loops()) {
    merlin::LoopConfig lc;
    std::vector<std::int64_t> tiles{1};
    for (std::int64_t t = 2; t < loop->trip_count(); ++t) {
      if (loop->trip_count() % t == 0) tiles.push_back(t);
    }
    lc.tile = tiles[rng.NextIndex(tiles.size())];
    std::int64_t max_par = lc.tile > 1 ? lc.tile : loop->trip_count();
    lc.parallel = rng.NextInt(1, max_par);
    lc.pipeline = static_cast<merlin::PipelineMode>(rng.NextInt(0, 2));
    cfg.loops[loop->loop_id()] = lc;
  }
  for (const auto& buf : kernel.buffers) {
    if (buf.kind == kir::BufferKind::kLocal) continue;
    std::vector<int> widths;
    for (int w : {32, 64, 128, 256, 512}) {
      if (w >= buf.element.bit_width()) widths.push_back(w);
    }
    cfg.buffer_bits[buf.name] = widths[rng.NextIndex(widths.size())];
  }
  return cfg;
}

// Discriminates Value kinds for bit-exact comparison.
int ValueKind(const Value& v) {
  if (v.is_int()) return 0;
  if (v.is_long()) return 1;
  if (v.is_float()) return 2;
  if (v.is_double()) return 3;
  return 4;
}

// Raw bit pattern of a numeric Value (NaN payloads preserved).
std::uint64_t ValueBits(const Value& v) {
  if (v.is_int()) return static_cast<std::uint32_t>(v.AsInt());
  if (v.is_long()) return static_cast<std::uint64_t>(v.AsLong());
  if (v.is_float()) {
    float f = v.AsFloat();
    std::uint32_t b = 0;
    std::memcpy(&b, &f, sizeof(b));
    return b;
  }
  double d = v.AsDouble();
  std::uint64_t b = 0;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

// Requires the lane and reference evaluators to produce
// bit-identical buffer maps (every buffer, every element, including NaN
// bit patterns) and to charge the same step count on `kernel`.
void ExpectEvaluatorsBitIdentical(const kir::Kernel& kernel,
                                  const std::map<std::string, Value>& scalars,
                                  const kir::BufferMap& inputs) {
  kir::BufferMap fast_bufs = inputs;
  kir::BufferMap ref_bufs = inputs;
  kir::Evaluator fast(kernel);
  fast.Run(scalars, fast_bufs);
  kir::ReferenceEvaluator ref(kernel);
  ref.Run(scalars, ref_bufs);
  ASSERT_EQ(fast.last_steps(), ref.last_steps());
  ASSERT_EQ(fast_bufs.size(), ref_bufs.size());
  for (const auto& [name, fast_data] : fast_bufs) {
    auto it = ref_bufs.find(name);
    ASSERT_NE(it, ref_bufs.end()) << "buffer " << name;
    ASSERT_EQ(fast_data.size(), it->second.size()) << "buffer " << name;
    for (std::size_t e = 0; e < fast_data.size(); ++e) {
      ASSERT_EQ(ValueKind(fast_data[e]), ValueKind(it->second[e]))
          << "buffer " << name << " element " << e;
      ASSERT_EQ(ValueBits(fast_data[e]), ValueBits(it->second[e]))
          << "buffer " << name << " element " << e;
    }
  }
}

// The live-task bound against the unbounded reference walk on the same
// zero-padded input. On the lane path, live output slots and accumulator
// outputs must be bit-identical and padded output slots must hold the
// zero default; a width-1 kernel still runs, and matches, the full batch.
void ExpectLiveBoundMatchesReference(
    const kir::Kernel& kernel, const std::map<std::string, Value>& scalars,
    const kir::BufferMap& inputs, std::int64_t rows) {
  kir::BufferMap fast_bufs = inputs;
  kir::BufferMap ref_bufs = inputs;
  kir::Evaluator fast(kernel);
  fast.Run(scalars, fast_bufs, rows);
  kir::ReferenceEvaluator ref(kernel);
  ref.Run(scalars, ref_bufs);
  const bool lanes = fast.lane_width() > 1;
  // Every lane-path kernel here skips its padding: b2c's map bodies have no
  // accumulator and its reduce template guards them with `i < N`.
  if (lanes) {
    ASSERT_LT(fast.last_steps(), ref.last_steps());
  } else {
    ASSERT_EQ(fast.last_steps(), ref.last_steps());
  }
  for (const kir::Buffer& buf : kernel.buffers) {
    if (lanes && buf.kind != kir::BufferKind::kOutput) continue;
    SCOPED_TRACE("buffer " + buf.name);
    const std::vector<Value>& got = fast_bufs.at(buf.name);
    const std::vector<Value>& want = ref_bufs.at(buf.name);
    ASSERT_EQ(got.size(), want.size());
    // A reduce output holds the accumulators: compared whole.
    const std::size_t live =
        !lanes || kernel.pattern == kir::ParallelPattern::kReduce
            ? got.size()
            : static_cast<std::size_t>(rows * buf.per_task);
    const Value zero = jvm::DefaultValue(buf.element);
    for (std::size_t e = 0; e < got.size(); ++e) {
      const Value& expect = e < live ? want[e] : zero;
      ASSERT_EQ(ValueKind(got[e]), ValueKind(expect)) << "element " << e;
      ASSERT_EQ(ValueBits(got[e]), ValueBits(expect)) << "element " << e;
    }
  }
}

// Per-record inputs of a fuzz kernel: the two array fields (kArrayLen
// elements per record) and the scalar field.
struct Inputs {
  std::vector<float> a1;
  std::vector<float> a2;
  std::vector<float> scalar;
};

Inputs RandomInputs(std::size_t records, Rng& rng) {
  Inputs in;
  in.a1.resize(records * kArrayLen);
  in.a2.resize(records * kArrayLen);
  in.scalar.resize(records);
  for (auto& v : in.a1) v = static_cast<float>(rng.NextDouble(-3, 3));
  for (auto& v : in.a2) v = static_cast<float>(rng.NextDouble(-3, 3));
  for (auto& v : in.scalar) v = static_cast<float>(rng.NextDouble(-3, 3));
  return in;
}

// The kernel's input buffers for the first `rows` records, zero-padded to
// the full batch like Blaze's serializer pads a short final batch.
kir::BufferMap ToBuffers(const Inputs& in, std::size_t rows) {
  kir::BufferMap buffers;
  for (std::size_t e = 0; e < in.a1.size(); ++e) {
    const bool live = e < rows * kArrayLen;
    buffers["in_1"].push_back(Value::OfFloat(live ? in.a1[e] : 0.0f));
    buffers["in_2"].push_back(Value::OfFloat(live ? in.a2[e] : 0.0f));
  }
  for (std::size_t r = 0; r < in.scalar.size(); ++r) {
    buffers["in_3"].push_back(Value::OfFloat(r < rows ? in.scalar[r] : 0.0f));
  }
  return buffers;
}

// Record `r` as a FuzzIn object on the interpreter heap.
Value MakeRecord(jvm::Heap& heap, const Inputs& in, std::size_t r) {
  jvm::Ref v1 = heap.NewArray(Type::Array(Type::Float()), kArrayLen);
  jvm::Ref v2 = heap.NewArray(Type::Array(Type::Float()), kArrayLen);
  for (std::size_t e = 0; e < kArrayLen; ++e) {
    heap.Get(v1).slots[e] = Value::OfFloat(in.a1[r * kArrayLen + e]);
    heap.Get(v2).slots[e] = Value::OfFloat(in.a2[r * kArrayLen + e]);
  }
  jvm::Ref obj = heap.NewInstance(Type::Class("FuzzIn"), 3);
  heap.Get(obj).slots[0] = Value::OfRef(v1);
  heap.Get(obj).slots[1] = Value::OfRef(v2);
  heap.Get(obj).slots[2] = Value::OfFloat(in.scalar[r]);
  return Value::OfRef(obj);
}

// A random legal config that also tiles the task loop.
merlin::DesignConfig TaskTiledConfig(const kir::Kernel& kernel, Rng& rng) {
  merlin::DesignConfig cfg = RandomLegalConfig(kernel, rng);
  const std::int64_t trip =
      kir::FindLoop(kernel.body, kernel.task_loop_id)->trip_count();
  std::vector<std::int64_t> tiles;
  for (std::int64_t t = 2; t < trip; ++t) {
    if (trip % t == 0) tiles.push_back(t);
  }
  merlin::LoopConfig& lc = cfg.loops[kernel.task_loop_id];
  lc.tile = tiles[rng.NextIndex(tiles.size())];
  lc.parallel = rng.NextInt(1, lc.tile);
  return cfg;
}

// The lane path against the reference evaluator: `kernel`, a random
// transform and a task-loop-tiled transform of it, each on the full batch
// and on a partial batch of random N in [1, batch), the partial one also
// with N as the live-task bound.
void ExpectLanesMatchReference(const kir::Kernel& kernel, const Inputs& in,
                               Rng& rng) {
  const std::vector<kir::Kernel> kernels = {
      kernel,
      merlin::ApplyDesign(kernel, RandomLegalConfig(kernel, rng)).kernel,
      merlin::ApplyDesign(kernel, TaskTiledConfig(kernel, rng)).kernel};
  const auto batch = static_cast<std::int64_t>(in.scalar.size());
  for (std::int64_t rows : {batch, rng.NextInt(1, batch - 1)}) {
    SCOPED_TRACE("N=" + std::to_string(rows));
    const kir::BufferMap inputs =
        ToBuffers(in, static_cast<std::size_t>(rows));
    const std::map<std::string, Value> scalars = {
        {"N", Value::OfInt(static_cast<std::int32_t>(rows))}};
    for (std::size_t k = 0; k < kernels.size(); ++k) {
      SCOPED_TRACE("kernel " + std::to_string(k));
      ExpectEvaluatorsBitIdentical(kernels[k], scalars, inputs);
      if (rows < batch) {
        ExpectLiveBoundMatchesReference(kernels[k], scalars, inputs, rows);
      }
    }
  }
}

// Runs one fuzz case: interpreter vs compiled IR vs transformed IR.
void RunDifferential(std::uint64_t seed) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  FuzzCase fc = GenerateKernel(seed);

  // The generator must only produce verifiable bytecode.
  jvm::VerifyOrThrow(*fc.pool,
                     fc.pool->Get("FuzzKernel").GetMethod("call"));

  kir::Kernel kernel = b2c::CompileKernel(*fc.pool, fc.spec);

  // Random inputs for one batch.
  Rng drng(seed ^ 0xDA7AULL);
  const std::size_t batch = static_cast<std::size_t>(fc.spec.batch);
  std::vector<float> a1(batch * kArrayLen), a2(batch * kArrayLen);
  std::vector<float> s(batch);
  for (auto& v : a1) v = static_cast<float>(drng.NextDouble(-3, 3));
  for (auto& v : a2) v = static_cast<float>(drng.NextDouble(-3, 3));
  for (auto& v : s) v = static_cast<float>(drng.NextDouble(-3, 3));

  // 1. Interpreter, record by record.
  jvm::Heap heap;
  jvm::Interpreter interp(*fc.pool, heap);
  std::vector<float> expect(batch);
  for (std::size_t r = 0; r < batch; ++r) {
    jvm::Ref v1 = heap.NewArray(Type::Array(Type::Float()), kArrayLen);
    jvm::Ref v2 = heap.NewArray(Type::Array(Type::Float()), kArrayLen);
    for (int e = 0; e < kArrayLen; ++e) {
      heap.Get(v1).slots[static_cast<std::size_t>(e)] =
          Value::OfFloat(a1[r * kArrayLen + static_cast<std::size_t>(e)]);
      heap.Get(v2).slots[static_cast<std::size_t>(e)] =
          Value::OfFloat(a2[r * kArrayLen + static_cast<std::size_t>(e)]);
    }
    jvm::Ref obj = heap.NewInstance(Type::Class("FuzzIn"), 3);
    heap.Get(obj).slots[0] = Value::OfRef(v1);
    heap.Get(obj).slots[1] = Value::OfRef(v2);
    heap.Get(obj).slots[2] = Value::OfFloat(s[r]);
    expect[r] = interp.Invoke("FuzzKernel", "call", {Value::OfRef(obj)})
                    .ret.AsFloat();
  }

  // 2. Compiled IR through the evaluator.
  auto run_ir = [&](const kir::Kernel& k) {
    kir::BufferMap buffers;
    for (float v : a1) buffers["in_1"].push_back(Value::OfFloat(v));
    for (float v : a2) buffers["in_2"].push_back(Value::OfFloat(v));
    for (float v : s) buffers["in_3"].push_back(Value::OfFloat(v));
    kir::Evaluator(k).Run(
        {{"N", Value::OfInt(static_cast<std::int32_t>(batch))}}, buffers);
    std::vector<float> out(batch);
    for (std::size_t r = 0; r < batch; ++r) {
      out[r] = buffers["out_1"][r].AsFloat();
    }
    return out;
  };

  std::vector<float> compiled = run_ir(kernel);
  for (std::size_t r = 0; r < batch; ++r) {
    ASSERT_EQ(compiled[r], expect[r]) << "record " << r;
  }

  // 3. Three random Merlin transforms of the same kernel.
  Rng crng(seed ^ 0xC0F1ULL);
  for (int t = 0; t < 3; ++t) {
    merlin::DesignConfig cfg = RandomLegalConfig(kernel, crng);
    ASSERT_TRUE(merlin::ValidateConfig(kernel, cfg).empty())
        << cfg.ToString();
    kir::Kernel transformed = merlin::ApplyDesign(kernel, cfg).kernel;
    std::vector<float> got = run_ir(transformed);
    for (std::size_t r = 0; r < batch; ++r) {
      ASSERT_EQ(got[r], expect[r])
          << "record " << r << " config " << cfg.ToString();
    }
  }

  // 4. Lane and reference evaluators must agree bit-for-bit on every
  //    buffer (and on step counts) -- on the compiled kernel, a random
  //    transform of it and a transform tiling the task loop, for the full
  //    batch and for a partial one.
  Rng trng(seed ^ 0x51D3ULL);
  ExpectLanesMatchReference(kernel, {a1, a2, s}, trng);
}

// Lane-path differential on a batch spanning two lane chunks, for the map
// kernel and the reduce variants (float and double accumulators, whose
// per-lane values are folded in lane order).
void RunLaneDifferential(std::uint64_t seed, FuzzShape shape) {
  SCOPED_TRACE("seed=" + std::to_string(seed) + " shape=" +
               std::to_string(static_cast<int>(shape)));
  FuzzCase fc = GenerateKernel(seed, shape, kir::kLaneChunk + 44);
  jvm::VerifyOrThrow(*fc.pool, fc.pool->Get("FuzzKernel").GetMethod("call"));
  kir::Kernel kernel = b2c::CompileKernel(*fc.pool, fc.spec);
  ASSERT_EQ(kir::Evaluator(kernel).lane_width(), kir::kLaneChunk);
  Rng drng(seed ^ 0x1A7EULL);
  Inputs in = RandomInputs(static_cast<std::size_t>(fc.spec.batch), drng);
  if (shape != FuzzShape::kMap) {
    // The reduce kernel folds records in order, exactly like the JVM.
    jvm::Heap heap;
    jvm::Interpreter interp(*fc.pool, heap);
    const bool wide = shape == FuzzShape::kReduceDouble;
    Value acc = wide ? Value::OfDouble(0.0) : Value::OfFloat(0.0f);
    for (std::size_t r = 0; r < in.scalar.size(); ++r) {
      acc = interp.Invoke("FuzzKernel", "call",
                          {acc, MakeRecord(heap, in, r)})
                .ret;
    }
    kir::BufferMap buffers = ToBuffers(in, in.scalar.size());
    kir::Evaluator(kernel).Run(
        {{"N", Value::OfInt(static_cast<std::int32_t>(in.scalar.size()))}},
        buffers);
    ASSERT_EQ(ValueBits(buffers["out_1"][0]), ValueBits(acc));
  }
  Rng trng(seed ^ 0x7117ULL);
  ExpectLanesMatchReference(kernel, in, trng);
}

// The records [0, rows) of `in` as the runtime's input dataset: one
// column per input field of FuzzIn.
blaze::Dataset ToDataset(const Inputs& in, std::size_t rows) {
  blaze::Dataset data;
  auto add = [&](const char* field, const std::vector<float>& values,
                 std::size_t per_record) {
    blaze::Column column;
    column.field = field;
    column.element = Type::Float();
    column.per_record = static_cast<std::int64_t>(per_record);
    for (std::size_t e = 0; e < rows * per_record; ++e) {
      column.data.push_back(Value::OfFloat(values[e]));
    }
    data.AddColumn(std::move(column));
  };
  add("_1", in.a1, kArrayLen);
  add("_2", in.a2, kArrayLen);
  add("_3", in.scalar, 1);
  return data;
}

// The served path against the interpreter: the kernel (and, for a map, a
// task-tiled design of it) is registered with a BlazeRuntime, and Map/Reduce run on
// 1, 3, batch - 1 and batch rows (maps also on two and a bit batches, so
// the last invocation is partial). Every output record must equal the
// interpreter's bit for bit. A reduce runs only the compiled kernel, and
// within one invocation: a tiled reduce may re-associate its float sum,
// and across invocations the runtime sums partials in double, neither of
// which the JVM's sequential fold does.
void RunServedDifferential(std::uint64_t seed, FuzzShape shape,
                           std::int64_t batch_size) {
  SCOPED_TRACE("seed=" + std::to_string(seed) + " shape=" +
               std::to_string(static_cast<int>(shape)) + " batch=" +
               std::to_string(batch_size));
  FuzzCase fc = GenerateKernel(seed, shape, batch_size);
  jvm::VerifyOrThrow(*fc.pool, fc.pool->Get("FuzzKernel").GetMethod("call"));
  const kir::Kernel kernel = b2c::CompileKernel(*fc.pool, fc.spec);
  const bool reduce = shape != FuzzShape::kMap;
  const auto batch = static_cast<std::size_t>(batch_size);
  Rng drng(seed ^ 0x5E7EULL);
  const Inputs in = RandomInputs(3 * batch, drng);

  blaze::BlazeRuntime runtime;
  Rng crng(seed ^ 0xD351ULL);
  std::vector<kir::Kernel> designs;
  designs.push_back(kernel.Clone());
  if (!reduce) {
    designs.push_back(
        merlin::ApplyDesign(kernel, TaskTiledConfig(kernel, crng)).kernel);
  }
  for (std::size_t d = 0; d < designs.size(); ++d) {
    blaze::RegisteredAccelerator accel;
    accel.design = designs[d].Clone();
    accel.hls.exec_us = 1.0;
    accel.plan = blaze::MakeSerializationPlan(accel.design);
    runtime.manager().Register("d" + std::to_string(d), std::move(accel));
  }

  std::vector<std::size_t> row_counts = {1, 3, batch - 1, batch};
  if (!reduce) row_counts.push_back(2 * batch + 5);
  jvm::Heap heap;
  jvm::Interpreter interp(*fc.pool, heap);
  for (std::size_t rows : row_counts) {
    SCOPED_TRACE("rows=" + std::to_string(rows));
    const blaze::Dataset input = ToDataset(in, rows);
    std::vector<Value> want;
    if (reduce) {
      Value acc = shape == FuzzShape::kReduceDouble ? Value::OfDouble(0.0)
                                                    : Value::OfFloat(0.0f);
      for (std::size_t r = 0; r < rows; ++r) {
        acc = interp.Invoke("FuzzKernel", "call",
                            {acc, MakeRecord(heap, in, r)})
                  .ret;
      }
      want.push_back(acc);
    } else {
      for (std::size_t r = 0; r < rows; ++r) {
        want.push_back(
            interp.Invoke("FuzzKernel", "call", {MakeRecord(heap, in, r)})
                .ret);
      }
    }
    for (std::size_t d = 0; d < designs.size(); ++d) {
      SCOPED_TRACE("design " + std::to_string(d));
      const std::string id = "d" + std::to_string(d);
      const blaze::Dataset out = reduce ? runtime.Reduce(id, input)
                                        : runtime.Map(id, input);
      const blaze::Column& ret = out.ColumnByField("ret");
      ASSERT_EQ(ret.data.size(), want.size());
      for (std::size_t r = 0; r < want.size(); ++r) {
        ASSERT_EQ(ValueKind(ret.data[r]), ValueKind(want[r])) << "record " << r;
        ASSERT_EQ(ValueBits(ret.data[r]), ValueBits(want[r])) << "record " << r;
      }
    }
  }
}

class ServedDifferentialFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ServedDifferentialFuzz, RuntimeMatchesInterpreterPerRecord) {
  // A small batch, and one spanning two lane chunks.
  const std::int64_t batches[] = {24, kir::kLaneChunk + 44};
  for (int k = 0; k < 2; ++k) {
    const auto seed = static_cast<std::uint64_t>(GetParam()) * 1000 + 900 +
                      static_cast<std::uint64_t>(k);
    for (FuzzShape shape : {FuzzShape::kMap, FuzzShape::kReduceFloat,
                            FuzzShape::kReduceDouble}) {
      RunServedDifferential(seed, shape, batches[k]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServedDifferentialFuzz,
                         ::testing::Range(0, 8));

class DifferentialFuzz : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialFuzz, InterpreterCompilerAndMerlinAgree) {
  // 8 random kernels per gtest parameter.
  for (int k = 0; k < 8; ++k) {
    RunDifferential(static_cast<std::uint64_t>(GetParam()) * 1000 +
                    static_cast<std::uint64_t>(k));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialFuzz, ::testing::Range(0, 12));

class LaneDifferentialFuzz : public ::testing::TestWithParam<int> {};

TEST_P(LaneDifferentialFuzz, LanePathMatchesReference) {
  for (int k = 0; k < 2; ++k) {
    const auto seed =
        static_cast<std::uint64_t>(GetParam()) * 1000 + 700 +
        static_cast<std::uint64_t>(k);
    RunLaneDifferential(seed, FuzzShape::kMap);
    RunLaneDifferential(seed, FuzzShape::kReduceFloat);
    RunLaneDifferential(seed, FuzzShape::kReduceDouble);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LaneDifferentialFuzz,
                         ::testing::Range(0, 12));

TEST(FuzzGeneratorTest, ProducesVerifiableKernels) {
  for (std::uint64_t seed = 500; seed < 540; ++seed) {
    FuzzCase fc = GenerateKernel(seed);
    jvm::VerifyResult r = jvm::Verify(
        *fc.pool, fc.pool->Get("FuzzKernel").GetMethod("call"));
    EXPECT_TRUE(r.ok) << "seed " << seed << ": "
                      << (r.errors.empty() ? "" : r.errors[0]);
  }
}

// Negative fuzzing: corrupting structural invariants of valid bytecode
// (branch targets, local slots) must be caught by the verifier — never
// silently mis-verified.
class CorruptionFuzz : public ::testing::TestWithParam<int> {};

TEST_P(CorruptionFuzz, VerifierRejectsStructuralCorruption) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 37 + 5);
  for (int k = 0; k < 10; ++k) {
    FuzzCase fc = GenerateKernel(800 + static_cast<std::uint64_t>(
                                           GetParam() * 10 + k));
    jvm::Method method = fc.pool->Get("FuzzKernel").GetMethod("call");
    // Corrupt one instruction structurally.
    std::size_t pc = rng.NextIndex(method.code.size());
    jvm::Insn& insn = method.code[pc];
    switch (rng.NextInt(0, 2)) {
      case 0:  // branch target out of range
        if (!jvm::IsBranch(insn.op)) continue;
        insn.target = method.code.size() + 17;
        break;
      case 1:  // local slot out of range
        if (insn.op != jvm::Opcode::kLoad &&
            insn.op != jvm::Opcode::kStore) {
          continue;
        }
        insn.slot = method.max_locals + 3;
        break;
      default:  // truncate the method (drops the return / splits blocks)
        if (method.code.size() < 4) continue;
        method.code.resize(method.code.size() / 2);
        break;
    }
    jvm::VerifyResult r = jvm::Verify(*fc.pool, method);
    EXPECT_FALSE(r.ok) << "seed " << GetParam() << " case " << k
                       << " pc " << pc;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorruptionFuzz, ::testing::Range(0, 6));

TEST(FuzzGeneratorTest, KernelsAreDeterministicPerSeed) {
  FuzzCase a = GenerateKernel(42);
  FuzzCase b = GenerateKernel(42);
  const auto& ca = a.pool->Get("FuzzKernel").GetMethod("call").code;
  const auto& cb = b.pool->Get("FuzzKernel").GetMethod("call").code;
  ASSERT_EQ(ca.size(), cb.size());
  for (std::size_t i = 0; i < ca.size(); ++i) {
    EXPECT_EQ(ca[i].ToString(), cb[i].ToString()) << i;
  }
}


// --------------------------------------------------- Java edge values
//
// One JVM instruction per row, on the values where C++ and Java part:
// NaN, signed zeros, infinities, values past the target's range, MIN / -1,
// and shift counts outside [0, width). Each row runs through the
// interpreter, ReferenceEvaluator and the lane Evaluator at lane width and
// at width 1, and each result is checked against the value Java gives.

struct EdgeCase {
  Value a;
  Value b;  // the divisor or shift count of a binary row
  Value want;
};

struct EdgeRow {
  std::string name;
  Type from;
  Type to;
  enum class Form { kConvert, kNeg, kBinary } form = Form::kConvert;
  jvm::BinOp jvm_op = jvm::BinOp::kAdd;
  kir::BinaryOp kir_op = kir::BinaryOp::kAdd;
  std::vector<EdgeCase> cases = {};

  bool shift() const {
    return jvm_op == jvm::BinOp::kShl || jvm_op == jvm::BinOp::kShr ||
           jvm_op == jvm::BinOp::kUShr;
  }
  // The type of the second operand: an int shift count, else `from`.
  Type rhs() const { return shift() ? Type::Int() : from; }
};

Value RunInterpreter(const EdgeRow& row, const EdgeCase& c) {
  jvm::ClassPool pool;
  jvm::Heap heap;
  Assembler a;
  MethodSignature sig;
  sig.params = {row.from};
  a.Load(row.from, 0);
  switch (row.form) {
    case EdgeRow::Form::kConvert: a.Convert(row.from, row.to); break;
    case EdgeRow::Form::kNeg: a.Neg(row.from); break;
    case EdgeRow::Form::kBinary:
      a.Load(row.rhs(), row.from.is_wide() ? 2 : 1).Bin(row.from, row.jvm_op);
      sig.params.push_back(row.rhs());
      break;
  }
  // byte, char and short results travel as an int, as on the JVM stack.
  sig.ret = row.to.is_integral() && !row.to.is_wide() ? Type::Int() : row.to;
  a.Ret(sig.ret);
  pool.Define("Edge").AddMethod(
      jvm::MakeMethod("op", sig, true, 4, a.Finish()));
  std::vector<Value> args = {c.a};
  if (row.form == EdgeRow::Form::kBinary) args.push_back(c.b);
  return jvm::Interpreter(pool, heap).Invoke("Edge", "op", args).ret;
}

// out[i] = op(a[i], b[i]) over one task per case. `width_one` adds
// `pin[0] = pin[0]`, a read of a buffer the body writes, which keeps the
// lane executor's task loop at width 1.
kir::Kernel EdgeKernel(const EdgeRow& row, bool width_one) {
  const std::int64_t tasks = static_cast<std::int64_t>(row.cases.size());
  auto buffer = [tasks](std::string name, Type element, kir::BufferKind kind,
                        std::int64_t length) {
    kir::Buffer b;
    b.name = std::move(name);
    b.element = element;
    b.length = length;
    b.kind = kind;
    b.per_task = length == tasks ? 1 : 0;
    return b;
  };
  using kir::Expr;
  const auto i = Expr::Var("i", Type::Int());
  const auto a = Expr::ArrayRef("a", row.from, i);
  kir::Kernel k;
  k.name = "edge_" + row.name;
  k.scalars.push_back({"N", Type::Int()});
  k.buffers = {buffer("a", row.from, kir::BufferKind::kInput, tasks),
               buffer("out", row.to, kir::BufferKind::kOutput, tasks)};
  kir::ExprPtr value;
  switch (row.form) {
    case EdgeRow::Form::kConvert: value = Expr::Cast(row.to, a); break;
    case EdgeRow::Form::kNeg: value = Expr::Unary(kir::UnaryOp::kNeg, a); break;
    case EdgeRow::Form::kBinary:
      k.buffers.push_back(
          buffer("b", row.rhs(), kir::BufferKind::kInput, tasks));
      value = Expr::Binary(row.kir_op, a, Expr::ArrayRef("b", row.rhs(), i));
      break;
  }
  std::vector<kir::StmtPtr> body = {
      kir::Stmt::Assign(Expr::ArrayRef("out", row.to, i), value)};
  if (width_one) {
    k.buffers.push_back(
        buffer("pin", Type::Int(), kir::BufferKind::kOutput, 1));
    const auto pin = Expr::ArrayRef("pin", Type::Int(), Expr::IntLit(0));
    body.push_back(kir::Stmt::Assign(pin, pin));
  }
  auto loop = kir::Stmt::For(0, "i", tasks, kir::Stmt::Block(std::move(body)));
  loop->set_inserted_by_template(true);
  k.body = kir::Stmt::Block({loop});
  k.task_loop_id = 0;
  return k;
}

void ExpectJava(const EdgeRow& row, const std::string& oracle,
                const std::vector<Value>& got) {
  ASSERT_EQ(got.size(), row.cases.size()) << oracle;
  for (std::size_t c = 0; c < row.cases.size(); ++c) {
    const Value& want = row.cases[c].want;
    EXPECT_TRUE(ValueKind(got[c]) == ValueKind(want) &&
                ValueBits(got[c]) == ValueBits(want))
        << oracle << " " << row.name << "(" << row.cases[c].a.ToString()
        << (row.form == EdgeRow::Form::kBinary
                ? ", " + row.cases[c].b.ToString()
                : std::string())
        << ") = " << got[c].ToString() << ", Java gives "
        << want.ToString();
  }
}

std::vector<EdgeRow> EdgeTable() {
  using L = std::numeric_limits<std::int64_t>;
  using I = std::numeric_limits<std::int32_t>;
  const float nan_f = std::numeric_limits<float>::quiet_NaN();
  const float inf_f = std::numeric_limits<float>::infinity();
  const double nan_d = std::numeric_limits<double>::quiet_NaN();
  const double inf_d = std::numeric_limits<double>::infinity();
  const auto F = [](float v) { return Value::OfFloat(v); };
  const auto D = [](double v) { return Value::OfDouble(v); };
  const auto Int = [](std::int32_t v) { return Value::OfInt(v); };
  const auto Long = [](std::int64_t v) { return Value::OfLong(v); };

  // Floating -> int and long: the same inputs as float and as double,
  // with Java's int and long results.
  struct FloatingCase {
    double x;
    std::int32_t i;
    std::int64_t l;
  };
  const std::vector<FloatingCase> floating = {
      {nan_d, 0, 0},
      {0.0, 0, 0},
      {-0.0, 0, 0},
      {inf_d, I::max(), L::max()},
      {-inf_d, I::min(), L::min()},
      {1e10, I::max(), 10000000000},
      {-1e10, I::min(), -10000000000},
      {0x1p31, I::max(), 2147483648},
      {-0x1p31, I::min(), -2147483648},
      {0x1p63, I::max(), L::max()},
      {-0x1p63, I::min(), L::min()},
      {-7.9, -7, -7},
  };
  EdgeRow f2i{"f2i", Type::Float(), Type::Int()};
  EdgeRow f2l{"f2l", Type::Float(), Type::Long()};
  EdgeRow d2i{"d2i", Type::Double(), Type::Int()};
  EdgeRow d2l{"d2l", Type::Double(), Type::Long()};
  for (const FloatingCase& c : floating) {
    const float x = std::isnan(c.x) ? nan_f
                    : std::isinf(c.x) ? std::copysign(inf_f, c.x)
                                      : static_cast<float>(c.x);
    f2i.cases.push_back({F(x), {}, Int(c.i)});
    f2l.cases.push_back({F(x), {}, Long(c.l)});
    d2i.cases.push_back({D(c.x), {}, Int(c.i)});
    d2l.cases.push_back({D(c.x), {}, Long(c.l)});
  }
  // The smallest subnormals truncate to 0.
  for (EdgeRow* row : {&f2i, &f2l}) {
    row->cases.push_back({F(0x1p-149f), {}, row == &f2i ? Int(0) : Long(0)});
  }
  for (EdgeRow* row : {&d2i, &d2l}) {
    row->cases.push_back({D(0x1p-1074), {}, row == &d2i ? Int(0) : Long(0)});
  }

  EdgeRow l2i{"l2i", Type::Long(), Type::Int(), EdgeRow::Form::kConvert, {}, {},
              {{Long(10000000000), {}, Int(1410065408)},
               {Long(-10000000000), {}, Int(-1410065408)},
               {Long(2147483648), {}, Int(I::min())},
               {Long(-2147483649), {}, Int(I::max())},
               {Long(L::max()), {}, Int(-1)},
               {Long(L::min()), {}, Int(0)}}};
  // 2^60 + 2^36 + 1 lies just above the midpoint of two floats; a detour
  // through double rounds it onto the midpoint, and then down.
  EdgeRow l2f{"l2f", Type::Long(), Type::Float(), EdgeRow::Form::kConvert,
              {}, {},
              {{Long((std::int64_t{1} << 60) + (std::int64_t{1} << 36) + 1),
                {}, F(0x1.000002p60f)},
               {Long(L::max()), {}, F(0x1p63f)},
               {Long(L::min()), {}, F(-0x1p63f)}}};
  // int -> byte, char and short keep the low bits.
  const std::vector<std::int32_t> ints = {0,     -1,    128,      32768,
                                          65535, I::max(), I::min()};
  const std::vector<std::int32_t> as_b = {0, -1, -128, 0, -1, -1, 0};
  const std::vector<std::int32_t> as_c = {0, 65535, 128, 32768, 65535,
                                          65535, 0};
  const std::vector<std::int32_t> as_s = {0, -1, 128, -32768, -1, -1, 0};
  EdgeRow i2b{"i2b", Type::Int(), Type::Byte()};
  EdgeRow i2c{"i2c", Type::Int(), Type::Char()};
  EdgeRow i2s{"i2s", Type::Int(), Type::Short()};
  for (std::size_t c = 0; c < ints.size(); ++c) {
    i2b.cases.push_back({Int(ints[c]), {}, Int(as_b[c])});
    i2c.cases.push_back({Int(ints[c]), {}, Int(as_c[c])});
    i2s.cases.push_back({Int(ints[c]), {}, Int(as_s[c])});
  }

  EdgeRow ineg{"ineg", Type::Int(), Type::Int(), EdgeRow::Form::kNeg, {}, {},
               {{Int(1), {}, Int(-1)},
                {Int(I::max()), {}, Int(-I::max())},
                {Int(I::min()), {}, Int(I::min())}}};
  EdgeRow lneg{"lneg", Type::Long(), Type::Long(), EdgeRow::Form::kNeg, {},
               {},
               {{Long(1), {}, Long(-1)},
                {Long(L::max()), {}, Long(-L::max())},
                {Long(L::min()), {}, Long(L::min())}}};

  const auto binary = [](std::string name, Type type, jvm::BinOp jop,
                         kir::BinaryOp kop, std::vector<EdgeCase> cases) {
    return EdgeRow{std::move(name), type, type, EdgeRow::Form::kBinary,
                   jop, kop, std::move(cases)};
  };
  using JB = jvm::BinOp;
  using KB = kir::BinaryOp;
  std::vector<EdgeRow> rows = {f2i, f2l, d2i, d2l, l2i, l2f, i2b, i2c, i2s,
                               ineg, lneg};
  rows.push_back(binary("idiv", Type::Int(), JB::kDiv, KB::kDiv,
                        {{Int(I::min()), Int(-1), Int(I::min())},
                         {Int(-7), Int(2), Int(-3)}}));
  rows.push_back(binary("irem", Type::Int(), JB::kRem, KB::kRem,
                        {{Int(I::min()), Int(-1), Int(0)},
                         {Int(-7), Int(2), Int(-1)}}));
  rows.push_back(binary("ldiv", Type::Long(), JB::kDiv, KB::kDiv,
                        {{Long(L::min()), Long(-1), Long(L::min())},
                         {Long(-7), Long(2), Long(-3)}}));
  rows.push_back(binary("lrem", Type::Long(), JB::kRem, KB::kRem,
                        {{Long(L::min()), Long(-1), Long(0)},
                         {Long(-7), Long(2), Long(-1)}}));
  // -15 shifted by -1, 32, 33, 64 and 65: an int keeps the count's low 5
  // bits (31, 0, 1, 0, 1), a long its low 6 (63, 32, 33, 0, 1).
  const std::vector<std::int32_t> counts = {-1, 32, 33, 64, 65};
  const std::vector<std::int32_t> ishl = {I::min(), -15, -30, -15, -30};
  const std::vector<std::int32_t> ishr = {-1, -15, -8, -15, -8};
  const std::vector<std::int32_t> iushr = {1, -15, 2147483640, -15,
                                           2147483640};
  const std::vector<std::int64_t> lshl = {L::min(), -64424509440,
                                          -128849018880, -15, -30};
  const std::vector<std::int64_t> lshr = {-1, -1, -1, -15, -8};
  const std::vector<std::int64_t> lushr = {1, 4294967295, 2147483647, -15,
                                           9223372036854775800};
  const auto int_shift = [&](std::string name, JB jop, KB kop,
                             const std::vector<std::int32_t>& want) {
    std::vector<EdgeCase> cases;
    for (std::size_t c = 0; c < counts.size(); ++c) {
      cases.push_back({Int(-15), Int(counts[c]), Int(want[c])});
    }
    return binary(std::move(name), Type::Int(), jop, kop, std::move(cases));
  };
  const auto long_shift = [&](std::string name, JB jop, KB kop,
                              const std::vector<std::int64_t>& want) {
    std::vector<EdgeCase> cases;
    for (std::size_t c = 0; c < counts.size(); ++c) {
      cases.push_back({Long(-15), Int(counts[c]), Long(want[c])});
    }
    return binary(std::move(name), Type::Long(), jop, kop, std::move(cases));
  };
  rows.push_back(int_shift("ishl", JB::kShl, KB::kShl, ishl));
  rows.push_back(int_shift("ishr", JB::kShr, KB::kShr, ishr));
  rows.push_back(int_shift("iushr", JB::kUShr, KB::kUShr, iushr));
  rows.push_back(long_shift("lshl", JB::kShl, KB::kShl, lshl));
  rows.push_back(long_shift("lshr", JB::kShr, KB::kShr, lshr));
  rows.push_back(long_shift("lushr", JB::kUShr, KB::kUShr, lushr));
  return rows;
}

TEST(JavaEdgeValuesTest, EveryOracleGivesJavasResult) {
  for (const EdgeRow& row : EdgeTable()) {
    SCOPED_TRACE(row.name);
    std::vector<Value> interpreted;
    for (const EdgeCase& c : row.cases) {
      interpreted.push_back(RunInterpreter(row, c));
    }
    ExpectJava(row, "interpreter", interpreted);

    kir::BufferMap inputs;
    for (const EdgeCase& c : row.cases) {
      inputs["a"].push_back(c.a);
      if (row.form == EdgeRow::Form::kBinary) inputs["b"].push_back(c.b);
    }
    const auto n = static_cast<std::int32_t>(row.cases.size());
    const std::map<std::string, Value> scalars = {{"N", Value::OfInt(n)}};
    {
      kir::BufferMap b = inputs;
      kir::ReferenceEvaluator(EdgeKernel(row, false)).Run(scalars, b);
      ExpectJava(row, "ReferenceEvaluator", b["out"]);
    }
    for (const bool width_one : {false, true}) {
      kir::BufferMap b = inputs;
      kir::Evaluator lanes(EdgeKernel(row, width_one));
      lanes.Run(scalars, b);
      EXPECT_EQ(lanes.lane_width(), width_one ? 1 : n);
      ExpectJava(row, width_one ? "Evaluator at width 1" : "Evaluator",
                 b["out"]);
    }
  }
}

}  // namespace
}  // namespace s2fa
