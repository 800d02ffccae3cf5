#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <set>

#include "apps/app.h"
#include "b2c/compiler.h"
#include "blaze/runtime.h"
#include "blaze/serialization.h"
#include "hls/estimator.h"
#include "jvm/assembler.h"
#include "jvm/interpreter.h"
#include "merlin/transform.h"
#include "s2fa/framework.h"
#include "support/rng.h"

namespace s2fa::blaze {
namespace {

using jvm::Assembler;
using jvm::MethodSignature;
using jvm::Type;
using jvm::Value;

// ---------------------------------------------------------------- dataset

TEST(DatasetTest, ColumnsMustAgreeOnRecordCount) {
  Dataset d;
  Column a;
  a.field = "x";
  a.element = Type::Float();
  a.per_record = 2;
  a.data.assign(8, Value::OfFloat(0));  // 4 records
  d.AddColumn(a);
  Column b;
  b.field = "y";
  b.element = Type::Int();
  b.per_record = 1;
  b.data.assign(3, Value::OfInt(0));  // 3 records: mismatch
  EXPECT_THROW(d.AddColumn(b), InvalidArgument);
  EXPECT_EQ(d.num_records(), 4u);
}

TEST(DatasetTest, RejectsDuplicateFields) {
  Dataset d;
  Column a;
  a.field = "x";
  a.element = Type::Int();
  a.data.assign(2, Value::OfInt(0));
  d.AddColumn(a);
  EXPECT_THROW(d.AddColumn(a), InvalidArgument);
}

TEST(DatasetTest, RejectsRaggedColumn) {
  Dataset d;
  Column a;
  a.field = "x";
  a.element = Type::Int();
  a.per_record = 3;
  a.data.assign(7, Value::OfInt(0));  // not a multiple of 3
  EXPECT_THROW(d.AddColumn(a), InvalidArgument);
}

TEST(DatasetTest, TotalBytesSumsColumnWidths) {
  Dataset d;
  Column a;
  a.field = "f";
  a.element = Type::Float();  // 4 bytes
  a.data.assign(10, Value::OfFloat(0));
  d.AddColumn(a);
  Column b;
  b.field = "b";
  b.element = Type::Byte();  // 1 byte
  b.data.assign(10, Value::OfInt(0));
  d.AddColumn(b);
  EXPECT_DOUBLE_EQ(d.TotalBytes(), 40.0 + 10.0);
}

// Five records: x holds pairs (per_record 2), y one int each.
Dataset FiveRecordPairs() {
  Dataset d;
  Column x;
  x.field = "x";
  x.element = Type::Int();
  x.per_record = 2;
  for (int i = 0; i < 10; ++i) x.data.push_back(Value::OfInt(i));
  d.AddColumn(x);
  Column y;
  y.field = "y";
  y.element = Type::Int();
  for (int i = 0; i < 5; ++i) y.data.push_back(Value::OfInt(100 + i));
  d.AddColumn(y);
  return d;
}

TEST(DatasetTest, SliceRecordsCutsWholeRecordsOfWideColumns) {
  const Dataset slice = SliceRecords(FiveRecordPairs(), 1, 3);
  ASSERT_EQ(slice.num_records(), 3u);
  const Column& x = slice.ColumnByField("x");
  EXPECT_EQ(x.per_record, 2);
  ASSERT_EQ(x.data.size(), 6u);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(x.data[i].AsInt(), 2 + i);
  const Column& y = slice.ColumnByField("y");
  ASSERT_EQ(y.data.size(), 3u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(y.data[i].AsInt(), 101 + i);
}

TEST(DatasetTest, ZeroCountSliceKeepsTheSchema) {
  for (std::size_t begin : {0u, 2u, 5u}) {
    const Dataset slice = SliceRecords(FiveRecordPairs(), begin, 0);
    EXPECT_EQ(slice.num_records(), 0u);
    ASSERT_EQ(slice.num_columns(), 2u);
    EXPECT_EQ(slice.column(0).field, "x");
    EXPECT_EQ(slice.column(0).per_record, 2);
    EXPECT_EQ(slice.column(1).field, "y");
  }
}

TEST(DatasetTest, SliceRecordsRejectsARangePastTheEnd) {
  const Dataset d = FiveRecordPairs();
  EXPECT_THROW(SliceRecords(d, 4, 2), InvalidArgument);
  EXPECT_THROW(SliceRecords(d, 6, 0), InvalidArgument);
  EXPECT_THROW(SliceRecords(d, 1, static_cast<std::size_t>(-1)),
               InvalidArgument);
  EXPECT_EQ(SliceRecords(d, 4, 1).num_records(), 1u);
}

// Raw payload bits of a numeric Value (NaN payloads included).
std::uint64_t Bits(const Value& v) {
  std::uint64_t bits = 0;
  if (v.is_int()) return static_cast<std::uint32_t>(v.AsInt());
  if (v.is_long()) return static_cast<std::uint64_t>(v.AsLong());
  if (v.is_float()) {
    const float f = v.AsFloat();
    std::memcpy(&bits, &f, sizeof f);
  } else {
    const double d = v.AsDouble();
    std::memcpy(&bits, &d, sizeof d);
  }
  return bits;
}

Column MakeColumn(const std::string& field, const Type& element,
                  const std::vector<Value>& values,
                  std::int64_t per_record = 1) {
  Column c;
  c.field = field;
  c.element = element;
  c.per_record = per_record;
  for (const Value& v : values) c.data.push_back(v);
  return c;
}

TEST(ColumnTest, ValueViewRoundTripsEveryStorageClassBitForBit) {
  float nan_f = 0;
  const std::uint32_t nan_f_bits = 0x7fa00001u;  // a signaling NaN payload
  std::memcpy(&nan_f, &nan_f_bits, sizeof nan_f);
  double nan_d = 0;
  const std::uint64_t nan_d_bits = 0xfff8000000abcdefULL;
  std::memcpy(&nan_d, &nan_d_bits, sizeof nan_d);
  const std::int64_t past_2_53 = (std::int64_t{1} << 53) + 1;
  const std::vector<std::pair<Type, std::vector<Value>>> cases = {
      {Type::Int(),
       {Value::OfInt(std::numeric_limits<std::int32_t>::min()),
        Value::OfInt(-1), Value::OfInt(std::numeric_limits<std::int32_t>::max())}},
      {Type::Long(),
       {Value::OfLong(std::numeric_limits<std::int64_t>::min()),
        Value::OfLong(past_2_53), Value::OfLong(-past_2_53)}},
      {Type::Float(),
       {Value::OfFloat(-0.0f), Value::OfFloat(nan_f),
        Value::OfFloat(std::numeric_limits<float>::denorm_min())}},
      {Type::Double(),
       {Value::OfDouble(-0.0), Value::OfDouble(nan_d),
        Value::OfDouble(-std::numeric_limits<double>::infinity())}},
      // A byte column stores the sign-extended int, as the JVM stack does.
      {Type::Byte(),
       {Value::OfInt(static_cast<std::int8_t>(0xff)),
        Value::OfInt(static_cast<std::int8_t>(0x80)), Value::OfInt(127)}},
  };
  for (const auto& [type, values] : cases) {
    SCOPED_TRACE(type.ToString());
    Dataset d;
    d.AddColumn(MakeColumn("c", type, values));
    const Column& c = d.ColumnByField("c");
    EXPECT_EQ(c.data.storage(), jvm::StorageOf(type));
    ASSERT_EQ(c.data.size(), values.size());
    std::size_t i = 0;
    for (const Value& v : c.data) {  // range-for yields const Value&
      EXPECT_EQ(jvm::StorageOf(v), jvm::StorageOf(values[i]));
      EXPECT_EQ(Bits(v), Bits(values[i])) << i;
      EXPECT_EQ(Bits(c.data.at(i)), Bits(values[i])) << i;
      ++i;
    }
    // Copies, concatenation and slices carry the bits unchanged.
    const Dataset both = ConcatDatasets({&d, &d});
    const Dataset back = SliceRecords(both, values.size(), values.size());
    for (std::size_t e = 0; e < values.size(); ++e) {
      EXPECT_EQ(Bits(back.ColumnByField("c").data[e]), Bits(values[e])) << e;
    }
  }
  EXPECT_EQ(Value::OfInt(static_cast<std::int8_t>(0xff)).AsInt(), -1);
}

TEST(ColumnTest, AddColumnConvertsDataToTheElementStorageClass) {
  // Data pushed as doubles into a float column is stored as floats, and
  // int data in a long column as longs.
  Dataset d;
  d.AddColumn(MakeColumn("f", Type::Float(),
                         {Value::OfDouble(0.1), Value::OfDouble(-2.5)}));
  d.AddColumn(MakeColumn("l", Type::Long(), {Value::OfInt(-7), Value::OfInt(3)}));
  const Column& f = d.ColumnByField("f");
  EXPECT_EQ(f.data.storage(), jvm::Storage::kF32);
  EXPECT_TRUE(f.data[0].is_float());
  EXPECT_EQ(f.data[0].AsFloat(), static_cast<float>(0.1));
  const Column& l = d.ColumnByField("l");
  EXPECT_EQ(l.data.storage(), jvm::Storage::kI64);
  EXPECT_EQ(l.data[0].AsLong(), -7);
}

// Three records over a mixed schema: a float pair, a long, a byte triple.
Dataset MixedRecords(int base) {
  Dataset d;
  std::vector<Value> pairs, longs, bytes;
  for (int r = 0; r < 3; ++r) {
    pairs.push_back(Value::OfFloat(static_cast<float>(base + r) + 0.5f));
    pairs.push_back(Value::OfFloat(-static_cast<float>(base + r)));
    longs.push_back(Value::OfLong((std::int64_t{1} << 60) + base + r));
    for (int b = 0; b < 3; ++b) {
      bytes.push_back(Value::OfInt(static_cast<std::int8_t>(base * 40 + r + b)));
    }
  }
  d.AddColumn(MakeColumn("p", Type::Float(), pairs, 2));
  d.AddColumn(MakeColumn("l", Type::Long(), longs));
  d.AddColumn(MakeColumn("b", Type::Byte(), bytes, 3));
  return d;
}

TEST(ColumnTest, ConcatSliceAndBytesOnMixedSchemas) {
  const Dataset a = MixedRecords(0);
  const Dataset b = MixedRecords(3);
  // Per record: 2 floats (8 bytes) + 1 long (8) + 3 bytes (3).
  EXPECT_DOUBLE_EQ(a.TotalBytes(), 3 * 19.0);
  const Dataset both = ConcatDatasets({&a, &b});
  ASSERT_EQ(both.num_records(), 6u);
  EXPECT_DOUBLE_EQ(both.TotalBytes(), 6 * 19.0);
  for (std::size_t c = 0; c < both.num_columns(); ++c) {
    const Column& got = both.column(c);
    const Column& head = a.column(c);
    const Column& tail = b.column(c);
    SCOPED_TRACE(got.field);
    EXPECT_EQ(got.data.storage(), head.data.storage());
    ASSERT_EQ(got.data.size(), head.data.size() + tail.data.size());
    for (std::size_t e = 0; e < got.data.size(); ++e) {
      const Value want = e < head.data.size()
                             ? head.data[e]
                             : tail.data[e - head.data.size()];
      EXPECT_EQ(Bits(got.data[e]), Bits(want)) << e;
    }
  }
  // Records 2..4 straddle the two members.
  const Dataset mid = SliceRecords(both, 2, 3);
  ASSERT_EQ(mid.num_records(), 3u);
  EXPECT_DOUBLE_EQ(mid.TotalBytes(), 3 * 19.0);
  EXPECT_EQ(mid.ColumnByField("p").data[0].AsFloat(), 2.5f);
  EXPECT_EQ(mid.ColumnByField("p").data[2].AsFloat(), 3.5f);
  EXPECT_EQ(mid.ColumnByField("l").data[2].AsLong(),
            (std::int64_t{1} << 60) + 4);
  EXPECT_EQ(mid.ColumnByField("b").data[8].AsInt(),
            static_cast<std::int8_t>(3 * 40 + 1 + 2));
  // Members that disagree on the schema are a caller bug.
  Dataset other;
  other.AddColumn(MakeColumn("p", Type::Float(), {Value::OfFloat(1)}, 1));
  other.AddColumn(MakeColumn("l", Type::Long(), {Value::OfLong(1)}));
  other.AddColumn(MakeColumn("b", Type::Byte(), {Value::OfInt(1)}, 1));
  EXPECT_THROW(ConcatDatasets({&a, &other}), InternalError);
}

// ------------------------------------------------- inline array storage

using jvm::PrimitiveArray;
using jvm::Storage;

constexpr Storage kStorages[] = {Storage::kI32, Storage::kI64, Storage::kF32,
                                 Storage::kF64};

// True when the array's elements live inside the array object itself.
bool IsInline(const PrimitiveArray& a) {
  const auto* self = reinterpret_cast<const std::byte*>(&a);
  const auto* data = static_cast<const std::byte*>(a.raw());
  const std::less<const std::byte*> less;
  return !less(data, self) && less(data, self + sizeof a);
}

// `n` elements of class `s` valued base, base + 1, ...
PrimitiveArray Counting(Storage s, std::size_t n, int base) {
  PrimitiveArray a(s, n);
  for (std::size_t e = 0; e < n; ++e) {
    a.Set(e, Value::OfInt(base + static_cast<int>(e)));
  }
  return a;
}

// Checks class, size and values through both typed accessors and raw().
void ExpectCounting(const PrimitiveArray& a, Storage s, std::size_t n,
                    int base) {
  ASSERT_EQ(a.storage(), s);
  ASSERT_EQ(a.size(), n);
  jvm::WithStorage(s, [&](auto zero) {
    using T = decltype(zero);
    const std::span<const T> typed = a.values<T>();
    EXPECT_EQ(static_cast<const void*>(typed.data()), a.raw());
    for (std::size_t e = 0; e < n; ++e) {
      const T want = jvm::java::Cast<T>(base + static_cast<int>(e));
      EXPECT_EQ(typed[e], want) << e;
      EXPECT_EQ(static_cast<const T*>(a.raw())[e], want) << e;
    }
  });
}

TEST(PrimitiveArrayTest, UpToEightBytesOfElementsLiveInline) {
  for (Storage s : kStorages) {
    SCOPED_TRACE(static_cast<int>(s));
    const std::size_t fit = 8 / jvm::BytesOf(s);
    EXPECT_TRUE(IsInline(PrimitiveArray(s)));
    EXPECT_TRUE(IsInline(Counting(s, fit, 1)));
    EXPECT_FALSE(IsInline(Counting(s, fit + 1, 1)));
  }
  // A one-record double column (a streamed record's input and output).
  Dataset d;
  d.AddColumn(MakeColumn("x", Type::Double(), {Value::OfDouble(1.5)}));
  EXPECT_TRUE(IsInline(d.ColumnByField("x").data));
  const Dataset copy = d;
  EXPECT_TRUE(IsInline(copy.ColumnByField("x").data));
  EXPECT_EQ(copy.ColumnByField("x").data[0].AsDouble(), 1.5);
}

TEST(PrimitiveArrayTest, CopyMoveAndAssignInEveryStorageClass) {
  for (Storage s : kStorages) {
    // Sizes on both sides of the inline capacity (0, 1, 2 and 3, 5).
    for (std::size_t n : {0, 1, 2, 3, 5}) {
      SCOPED_TRACE(testing::Message() << static_cast<int>(s) << " x " << n);
      const PrimitiveArray source = Counting(s, n, 10);

      PrimitiveArray copy(source);
      ExpectCounting(copy, s, n, 10);
      if (n > 0) {
        copy.Set(0, Value::OfInt(99));
        ExpectCounting(source, s, n, 10);  // the copy is independent
      }

      PrimitiveArray from = Counting(s, n, 30);
      PrimitiveArray to(std::move(from));
      ExpectCounting(to, s, n, 30);
      EXPECT_EQ(from.size(), 0u);  // NOLINT(bugprone-use-after-move)
      EXPECT_EQ(from.storage(), s);
      from.Append(source);  // a moved-from array is reusable
      ExpectCounting(from, s, n, 10);

      // Self-move leaves the array as it was.
      PrimitiveArray self = Counting(s, n, 40);
      PrimitiveArray& alias = self;
      self = std::move(alias);
      ExpectCounting(self, s, n, 40);

      // Copy- and move-assign over inline and heap targets of every size.
      for (std::size_t m : {0, 1, 4}) {
        PrimitiveArray target = Counting(s, m, 50);
        target = source;
        ExpectCounting(target, s, n, 10);
        PrimitiveArray other_class = Counting(Storage::kI64, m, 50);
        other_class = source;
        ExpectCounting(other_class, s, n, 10);
        PrimitiveArray move_target = Counting(Storage::kF32, m, 60);
        PrimitiveArray donor = Counting(s, n, 70);
        move_target = std::move(donor);
        ExpectCounting(move_target, s, n, 70);
        EXPECT_EQ(donor.size(), 0u);  // NOLINT(bugprone-use-after-move)
      }
    }
  }
}

TEST(PrimitiveArrayTest, AppendGrowsPastTheInlineBytes) {
  for (Storage s : kStorages) {
    SCOPED_TRACE(static_cast<int>(s));
    PrimitiveArray grown(s);
    for (int k = 0; k < 6; ++k) {
      grown.Append(Counting(s, 1, k));
      ExpectCounting(grown, s, static_cast<std::size_t>(k) + 1, 0);
    }
    EXPECT_FALSE(IsInline(grown));
    // push_back grows the same way, one element at a time.
    PrimitiveArray pushed(s);
    for (int k = 0; k < 6; ++k) {
      pushed.push_back(Counting(s, 1, k)[0]);
    }
    ExpectCounting(pushed, s, 6, 0);
    // An array appended to itself doubles, inline and then on the heap.
    PrimitiveArray twice = Counting(s, 1, 7);
    twice.Append(twice);
    twice.Append(twice);
    ASSERT_EQ(twice.size(), 4u);
    for (std::size_t e = 0; e < 4; ++e) {
      EXPECT_EQ(jvm::FromValue<double>(twice[e]), 7.0) << e;
    }
  }
}

TEST(PrimitiveArrayTest, ConvertToMovesAnInlinePairToTheHeap) {
  PrimitiveArray pair = {Value::OfInt(-3), Value::OfInt(7)};
  ASSERT_EQ(pair.storage(), Storage::kI32);
  EXPECT_TRUE(IsInline(pair));
  pair.ConvertTo(Storage::kF64);
  EXPECT_EQ(pair.storage(), Storage::kF64);
  ASSERT_EQ(pair.size(), 2u);
  EXPECT_FALSE(IsInline(pair));
  EXPECT_EQ(pair.values<double>()[0], -3.0);
  EXPECT_EQ(pair.values<double>()[1], 7.0);
  // And back: two doubles narrow to two inline floats.
  PrimitiveArray narrowed = pair;
  narrowed.ConvertTo(Storage::kF32);
  EXPECT_EQ(narrowed.values<float>()[1], 7.0f);
  const PrimitiveArray moved = std::move(pair);
  EXPECT_EQ(moved.values<double>()[0], -3.0);
  EXPECT_EQ(moved.values<double>()[1], 7.0);
}

TEST(PrimitiveArrayTest, AssignZeroToASmallerSize) {
  for (Storage s : kStorages) {
    SCOPED_TRACE(static_cast<int>(s));
    // Heap to fewer elements of the same class keeps the allocation.
    PrimitiveArray heap = Counting(s, 5, 1);
    const void* allocation = heap.raw();
    heap.AssignZero(s, 1);
    EXPECT_EQ(heap.raw(), allocation);
    ExpectCounting(heap, s, 1, 0);
    heap.AssignZero(s, 0);
    EXPECT_EQ(heap.size(), 0u);
    // Inline to fewer elements.
    PrimitiveArray small = Counting(s, 8 / jvm::BytesOf(s), 1);
    small.AssignZero(s, 1);
    EXPECT_TRUE(IsInline(small));
    ExpectCounting(small, s, 1, 0);
    // A new class starts inline again.
    PrimitiveArray recast = Counting(s, 5, 1);
    const Storage other = s == Storage::kF64 ? Storage::kI32 : Storage::kF64;
    recast.AssignZero(other, 1);
    EXPECT_TRUE(IsInline(recast));
    ExpectCounting(recast, other, 1, 0);
  }
}

// ------------------------------------------------- serialization plan

// Simple map kernel for plan tests: double in, double out.
jvm::ClassPool MakePool() {
  jvm::ClassPool pool;
  Assembler a;
  a.Load(Type::Double(), 0).DConst(2.0).DMul().Ret(Type::Double());
  MethodSignature sig;
  sig.params = {Type::Double()};
  sig.ret = Type::Double();
  pool.Define("Doubler").AddMethod(
      jvm::MakeMethod("call", sig, true, 2, a.Finish()));
  return pool;
}

b2c::KernelSpec MakeSpec(std::int64_t batch = 8) {
  b2c::KernelSpec spec;
  spec.kernel_name = "doubler";
  spec.klass = "Doubler";
  spec.input.type = Type::Double();
  spec.input.fields = {{"x", Type::Double(), 1, false}};
  spec.output.type = Type::Double();
  spec.output.fields = {{"y", Type::Double(), 1, false}};
  spec.batch = batch;
  return spec;
}

TEST(SerializationTest, PlanReflectsInterface) {
  jvm::ClassPool pool = MakePool();
  kir::Kernel k = b2c::CompileKernel(pool, MakeSpec());
  SerializationPlan plan = MakeSerializationPlan(k);
  EXPECT_EQ(plan.batch, 8);
  ASSERT_EQ(plan.entries.size(), 2u);
  EXPECT_TRUE(plan.entries[0].is_input);
  EXPECT_EQ(plan.entries[0].source_field, "x");
  EXPECT_FALSE(plan.entries[1].is_input);
  EXPECT_EQ(plan.entries[1].source_field, "y");
  EXPECT_NE(plan.FindBuffer("in_1"), nullptr);
  EXPECT_EQ(plan.FindBuffer("nope"), nullptr);
}

TEST(SerializationTest, RoundTripWithPadding) {
  jvm::ClassPool pool = MakePool();
  kir::Kernel k = b2c::CompileKernel(pool, MakeSpec(8));
  SerializationPlan plan = MakeSerializationPlan(k);

  Dataset input;
  Column x;
  x.field = "x";
  x.element = Type::Double();
  for (int i = 0; i < 5; ++i) x.data.push_back(Value::OfDouble(i + 0.5));
  input.AddColumn(x);

  kir::BufferMap buffers;
  SerializeBatch(plan, input, 0, 5, buffers);
  // Zero-padded to the batch size.
  ASSERT_EQ(buffers["in_1"].size(), 8u);
  EXPECT_DOUBLE_EQ(buffers["in_1"][4].AsDouble(), 4.5);
  EXPECT_DOUBLE_EQ(buffers["in_1"][5].AsDouble(), 0.0);

  buffers["out_1"].assign(8, Value::OfDouble(7.0));
  Dataset out = MakeOutputShell(plan, 5);
  DeserializeBatch(plan, buffers, 0, 5, out);
  EXPECT_DOUBLE_EQ(out.ColumnByField("y").data[4].AsDouble(), 7.0);
}

TEST(SerializationTest, BatchOneReduceKernelIsPerInvocation) {
  // A reduce kernel instantiated with task-loop trip count 1 is still a
  // reduce: its output buffer holds one result per invocation (regression:
  // the old `batch > 1` heuristic misfiled it as a map output).
  jvm::ClassPool pool;
  Assembler a;
  // call(acc: double, x: double) = acc + x * x
  a.Load(Type::Double(), 0);
  a.Load(Type::Double(), 2).Load(Type::Double(), 2).DMul();
  a.DAdd().Ret(Type::Double());
  MethodSignature sig;
  sig.params = {Type::Double(), Type::Double()};
  sig.ret = Type::Double();
  pool.Define("SumSq").AddMethod(
      jvm::MakeMethod("call", sig, true, 4, a.Finish()));

  b2c::KernelSpec spec;
  spec.kernel_name = "sumsq";
  spec.klass = "SumSq";
  spec.pattern = kir::ParallelPattern::kReduce;
  spec.input.type = Type::Double();
  spec.input.fields = {{"x", Type::Double(), 1, false}};
  spec.output.type = Type::Double();
  spec.output.fields = {{"ret", Type::Double(), 1, false}};
  spec.batch = 1;
  kir::Kernel k = b2c::CompileKernel(pool, spec);
  SerializationPlan plan = MakeSerializationPlan(k);
  const PlanEntry* out = plan.FindBuffer("out_1");
  ASSERT_NE(out, nullptr);
  EXPECT_TRUE(out->per_invocation);

  // Round trip at batch 1: serialize one record, run the kernel, pull the
  // reduce result back out of the invocation slot.
  Dataset input;
  Column x;
  x.field = "x";
  x.element = Type::Double();
  x.data = {Value::OfDouble(3.0)};
  input.AddColumn(x);
  kir::BufferMap buffers;
  SerializeBatch(plan, input, 0, 1, buffers);
  kir::Evaluator(k).Run({{"N", Value::OfInt(1)}}, buffers);
  Dataset out_ds = MakeOutputShell(plan, 1);
  DeserializeBatch(plan, buffers, 0, 1, out_ds);
  EXPECT_DOUBLE_EQ(out_ds.ColumnByField("ret").data[0].AsDouble(), 9.0);
}

TEST(SerializationTest, NarrowedColumnFallsBackToElementConversion) {
  // A double column feeding a float buffer takes the per-element
  // conversion path (the block-copy fast path requires matching kinds).
  jvm::ClassPool pool;
  Assembler a;
  a.Load(Type::Float(), 0).FConst(1.0f).FAdd().Ret(Type::Float());
  MethodSignature sig;
  sig.params = {Type::Float()};
  sig.ret = Type::Float();
  pool.Define("Inc").AddMethod(
      jvm::MakeMethod("call", sig, true, 1, a.Finish()));

  b2c::KernelSpec spec;
  spec.kernel_name = "inc";
  spec.klass = "Inc";
  spec.input.type = Type::Float();
  spec.input.fields = {{"x", Type::Float(), 1, false}};
  spec.output.type = Type::Float();
  spec.output.fields = {{"y", Type::Float(), 1, false}};
  spec.batch = 4;
  kir::Kernel k = b2c::CompileKernel(pool, spec);
  SerializationPlan plan = MakeSerializationPlan(k);

  Dataset input;
  Column x;
  x.field = "x";
  x.element = Type::Double();  // wider than the kernel's float buffer
  for (int i = 0; i < 4; ++i) x.data.push_back(Value::OfDouble(i + 0.25));
  input.AddColumn(x);
  kir::BufferMap buffers;
  SerializeBatch(plan, input, 0, 4, buffers);
  ASSERT_EQ(buffers["in_1"].size(), 4u);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(buffers["in_1"][static_cast<std::size_t>(i)].is_float());
    EXPECT_FLOAT_EQ(buffers["in_1"][static_cast<std::size_t>(i)].AsFloat(),
                    static_cast<float>(i + 0.25));
  }

  // The typed device buffers see the same narrowing, in the buffer's
  // storage class.
  kir::DeviceBuffers device;
  SerializeBatch(plan, input, 0, 3, device);
  ASSERT_EQ(device.size(), k.buffers.size());
  const jvm::PrimitiveArray& in_1 = device[plan.FindBuffer("in_1")->slot];
  EXPECT_EQ(in_1.storage(), jvm::Storage::kF32);
  ASSERT_EQ(in_1.size(), 4u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(in_1.values<float>()[static_cast<std::size_t>(i)],
              static_cast<float>(i + 0.25));
  }
  EXPECT_EQ(Bits(in_1[3]), 0u);  // zero padding
  kir::Evaluator(k).Run({{"N", Value::OfInt(3)}}, device, 3);

  // And back out: float kernel results land in a double output column.
  Dataset typed_out;
  Column ty;
  ty.field = "y";
  ty.element = Type::Double();
  ty.data.assign(4, Value::OfDouble(-1.0));
  typed_out.AddColumn(ty);
  DeserializeBatch(plan, device, 0, 3, typed_out);
  for (int i = 0; i < 4; ++i) {
    const Value v = typed_out.ColumnByField("y").data[static_cast<std::size_t>(i)];
    ASSERT_TRUE(v.is_double());
    EXPECT_EQ(v.AsDouble(), i < 3 ? static_cast<double>(
                                        static_cast<float>(i + 0.25) + 1.0f)
                                  : -1.0);
  }
  buffers["out_1"].assign(4, Value::OfFloat(2.5f));
  Dataset out_ds;
  Column y;
  y.field = "y";
  y.element = Type::Double();
  y.data.assign(4, Value::OfDouble(0.0));
  out_ds.AddColumn(y);
  DeserializeBatch(plan, buffers, 0, 4, out_ds);
  for (int i = 0; i < 4; ++i) {
    const Value& v = out_ds.ColumnByField("y").data[static_cast<std::size_t>(i)];
    ASSERT_TRUE(v.is_double());
    EXPECT_DOUBLE_EQ(v.AsDouble(), 2.5);
  }
}

TEST(SerializationTest, ScalaHelperMentionsBuffersAndReflection) {
  jvm::ClassPool pool = MakePool();
  kir::Kernel k = b2c::CompileKernel(pool, MakeSpec());
  SerializationPlan plan = MakeSerializationPlan(k);
  std::string scala = RenderScalaHelper(plan);
  EXPECT_NE(scala.find("object doublerSerde"), std::string::npos);
  EXPECT_NE(scala.find("in_1"), std::string::npos);
  EXPECT_NE(scala.find("reflect"), std::string::npos);
}

TEST(SerializationTest, MissingBroadcastThrows) {
  jvm::ClassPool pool;
  Assembler a;
  // call(P in) where P = {x: double, w: double broadcast}: return x * w.
  jvm::Klass& p = pool.Define("P");
  p.AddField({"x", Type::Double()});
  p.AddField({"w", Type::Double()});
  a.Load(Type::Class("P"), 0).GetField("P", "x");
  a.Load(Type::Class("P"), 0).GetField("P", "w");
  a.DMul().Ret(Type::Double());
  MethodSignature sig;
  sig.params = {Type::Class("P")};
  sig.ret = Type::Double();
  pool.Define("WMul").AddMethod(
      jvm::MakeMethod("call", sig, true, 1, a.Finish()));

  b2c::KernelSpec spec;
  spec.kernel_name = "wmul";
  spec.klass = "WMul";
  spec.input.type = Type::Class("P");
  b2c::FieldSpec fx{"x", Type::Double(), 1, false};
  b2c::FieldSpec fw{"w", Type::Double(), 1, false};
  fw.broadcast = true;
  spec.input.fields = {fx, fw};
  spec.output.type = Type::Double();
  spec.output.fields = {{"y", Type::Double(), 1, false}};
  spec.batch = 4;
  kir::Kernel k = b2c::CompileKernel(pool, spec);
  SerializationPlan plan = MakeSerializationPlan(k);

  Dataset input;
  Column x;
  x.field = "x";
  x.element = Type::Double();
  x.data.assign(4, Value::OfDouble(1.0));
  input.AddColumn(x);
  kir::BufferMap buffers;
  EXPECT_THROW(SerializeBatch(plan, input, 0, 4, buffers, nullptr),
               InvalidArgument);
}

// ---------------------------------------------------------------- runtime

TEST(RuntimeTest, MapAcrossMultipleBatches) {
  jvm::ClassPool pool = MakePool();
  Artifact artifact =
      BuildWithConfig(pool, MakeSpec(8), merlin::DesignConfig{});
  BlazeRuntime runtime;
  RegisterWithBlaze(runtime, "doubler", artifact);

  Dataset input;
  Column x;
  x.field = "x";
  x.element = Type::Double();
  for (int i = 0; i < 21; ++i) x.data.push_back(Value::OfDouble(i));
  input.AddColumn(x);

  ExecutionStats stats;
  Dataset out = runtime.Map("doubler", input, nullptr, &stats);
  EXPECT_EQ(stats.invocations, 3u);  // ceil(21 / 8)
  EXPECT_GT(stats.total_us, 0.0);
  for (int i = 0; i < 21; ++i) {
    EXPECT_DOUBLE_EQ(
        out.ColumnByField("y").data[static_cast<std::size_t>(i)].AsDouble(),
        2.0 * i);
  }
}

TEST(RuntimeTest, UnknownAcceleratorThrows) {
  BlazeRuntime runtime;
  Dataset empty;
  EXPECT_THROW(runtime.Map("nope", empty), InvalidArgument);
}

TEST(RuntimeTest, DuplicateRegistrationThrows) {
  jvm::ClassPool pool = MakePool();
  Artifact artifact =
      BuildWithConfig(pool, MakeSpec(8), merlin::DesignConfig{});
  BlazeRuntime runtime;
  RegisterWithBlaze(runtime, "doubler", artifact);
  EXPECT_THROW(RegisterWithBlaze(runtime, "doubler", artifact),
               InvalidArgument);
  EXPECT_TRUE(runtime.manager().Has("doubler"));
  EXPECT_EQ(runtime.manager().size(), 1u);
}

TEST(RuntimeTest, StatsBreakdownSumsToTotal) {
  jvm::ClassPool pool = MakePool();
  Artifact artifact =
      BuildWithConfig(pool, MakeSpec(8), merlin::DesignConfig{});
  BlazeRuntime runtime;
  RegisterWithBlaze(runtime, "doubler", artifact);
  Dataset input;
  Column x;
  x.field = "x";
  x.element = Type::Double();
  x.data.assign(16, Value::OfDouble(1.0));
  input.AddColumn(x);
  ExecutionStats stats;
  runtime.Map("doubler", input, nullptr, &stats);
  EXPECT_NEAR(stats.total_us,
              stats.serialize_us + stats.transfer_us + stats.compute_us +
                  stats.overhead_us,
              1e-9);
}

// ------------------------------------------------------------ cost ledger

Dataset DoublerInput(int n) {
  Dataset input;
  Column x;
  x.field = "x";
  x.element = Type::Double();
  for (int i = 0; i < n; ++i) x.data.push_back(Value::OfDouble(i));
  input.AddColumn(x);
  return input;
}

TEST(RuntimeTest, UnknownAcceleratorErrorListsRegisteredIds) {
  AcceleratorManager manager;
  try {
    manager.Get("ghost");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("(none)"), std::string::npos);
  }

  jvm::ClassPool pool = MakePool();
  Artifact artifact = BuildWithConfig(pool, MakeSpec(8), merlin::DesignConfig{});
  BlazeRuntime runtime;
  RegisterWithBlaze(runtime, "doubler", artifact);
  RegisterWithBlaze(runtime, "tripler", artifact);
  try {
    runtime.manager().Get("ghost");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("doubler"), std::string::npos);
    EXPECT_NE(message.find("tripler"), std::string::npos);
  }
}

TEST(RuntimeTest, ExecutionStatsMergeAggregates) {
  ExecutionStats a;
  a.invocations = 2;
  a.serialize_us = 1;
  a.transfer_us = 2;
  a.compute_us = 3;
  a.overhead_us = 4;
  a.total_us = 10;
  ExecutionStats b;
  b.invocations = 3;
  b.serialize_us = 0.5;
  b.compute_us = 6.5;
  b.total_us = 7;
  a.Merge(b);
  EXPECT_EQ(a.invocations, 5u);
  EXPECT_DOUBLE_EQ(a.serialize_us, 1.5);
  EXPECT_DOUBLE_EQ(a.transfer_us, 2.0);
  EXPECT_DOUBLE_EQ(a.compute_us, 9.5);
  EXPECT_DOUBLE_EQ(a.overhead_us, 4.0);
  EXPECT_DOUBLE_EQ(a.total_us, 17.0);
}

TEST(RuntimeTest, PerInvocationCostMatchesStatsBreakdown) {
  jvm::ClassPool pool = MakePool();
  Artifact artifact = BuildWithConfig(pool, MakeSpec(8), merlin::DesignConfig{});
  BlazeRuntime runtime;
  RegisterWithBlaze(runtime, "doubler", artifact);
  ExecutionStats per = runtime.PerInvocationCost("doubler");
  EXPECT_EQ(per.invocations, 1u);
  EXPECT_DOUBLE_EQ(per.total_us, per.serialize_us + per.transfer_us +
                                     per.compute_us + per.overhead_us);
  // Two clean invocations cost exactly twice the per-invocation charge.
  ExecutionStats stats;
  runtime.Map("doubler", DoublerInput(16), nullptr, &stats);
  EXPECT_EQ(stats.invocations, 2u);
  EXPECT_DOUBLE_EQ(stats.total_us, 2 * per.total_us);
  EXPECT_THROW(runtime.PerInvocationCost("ghost"), InvalidArgument);
}

// call(acc, x) = acc + x over `type` (int or long), a batch-4 reduce.
Artifact SumReducer(jvm::ClassPool& pool, const Type& type) {
  const int width = type.is_wide() ? 2 : 1;
  Assembler a;
  a.Load(type, 0).Load(type, width).Bin(type, jvm::BinOp::kAdd).Ret(type);
  MethodSignature sig;
  sig.params = {type, type};
  sig.ret = type;
  pool.Define("Sum").AddMethod(
      jvm::MakeMethod("call", sig, true, 2 * width, a.Finish()));
  b2c::KernelSpec spec;
  spec.kernel_name = "sum";
  spec.klass = "Sum";
  spec.pattern = kir::ParallelPattern::kReduce;
  spec.input.type = type;
  spec.input.fields = {{"x", type, 1, false}};
  spec.output.type = type;
  spec.output.fields = {{"ret", type, 1, false}};
  spec.batch = 4;
  return BuildWithConfig(pool, spec, merlin::DesignConfig{});
}

TEST(RuntimeTest, IntegralReduceWrapsAcrossInvocationsLikeJava) {
  // Ten records over three invocations. The int total passes INT32_MAX;
  // the long one passes 2^53 (where a double sum drops low bits) and
  // wraps past INT64_MAX.
  for (const Type& type : {Type::Int(), Type::Long()}) {
    SCOPED_TRACE(type.ToString());
    jvm::ClassPool pool;
    BlazeRuntime runtime;
    RegisterWithBlaze(runtime, "sum", SumReducer(pool, type));
    Column x;
    x.field = "x";
    x.element = type;
    for (std::int64_t r = 0; r < 10; ++r) {
      x.data.push_back(type.is_wide()
                           ? Value::OfLong((std::int64_t{1} << 60) + 7 * r + 1)
                           : Value::OfInt(600'000'000 + static_cast<int>(r)));
    }
    Dataset input;
    input.AddColumn(x);

    jvm::Heap heap;
    jvm::Interpreter interp(pool, heap);
    Value want = type.is_wide() ? Value::OfLong(0) : Value::OfInt(0);
    for (const Value& v : x.data) {
      want = interp.Invoke("Sum", "call", {want, v}).ret;
    }
    ExecutionStats stats;
    const Dataset got = runtime.Reduce("sum", input, nullptr, &stats);
    EXPECT_EQ(stats.invocations, 3u);
    EXPECT_EQ(got.ColumnByField("ret").data.at(0), want);
  }
}


// ------------------------------------------------------- lane evaluator

// A random legal Merlin design: tiling (including the task loop),
// parallel and pipeline factors, interface widths.
merlin::DesignConfig RandomDesign(
    const kir::Kernel& kernel, Rng& rng,
    std::int64_t max_parallel = std::numeric_limits<std::int64_t>::max()) {
  merlin::DesignConfig cfg;
  for (const kir::Stmt* loop : kernel.Loops()) {
    merlin::LoopConfig lc;
    std::vector<std::int64_t> tiles{1};
    for (std::int64_t t = 2; t < loop->trip_count(); ++t) {
      if (loop->trip_count() % t == 0) tiles.push_back(t);
    }
    lc.tile = tiles[rng.NextIndex(tiles.size())];
    lc.parallel = rng.NextInt(
        1, std::min(max_parallel, lc.tile > 1 ? lc.tile : loop->trip_count()));
    lc.pipeline = static_cast<merlin::PipelineMode>(rng.NextInt(0, 2));
    cfg.loops[loop->loop_id()] = lc;
  }
  return cfg;
}

// Bit-exact buffer-map comparison: same buffers, same Value kinds, same
// payload bits (NaN payloads included).
void ExpectBitIdentical(const kir::BufferMap& got, const kir::BufferMap& want) {
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [name, data] : want) {
    auto it = got.find(name);
    ASSERT_NE(it, got.end()) << name;
    ASSERT_EQ(it->second.size(), data.size()) << name;
    for (std::size_t e = 0; e < data.size(); ++e) {
      const Value& a = it->second[e];
      const Value& b = data[e];
      ASSERT_EQ(a.is_int(), b.is_int()) << name << "[" << e << "]";
      ASSERT_EQ(a.is_long(), b.is_long()) << name << "[" << e << "]";
      ASSERT_EQ(a.is_float(), b.is_float()) << name << "[" << e << "]";
      std::uint64_t x = 0;
      std::uint64_t y = 0;
      if (a.is_int()) {
        x = static_cast<std::uint32_t>(a.AsInt());
        y = static_cast<std::uint32_t>(b.AsInt());
      } else if (a.is_long()) {
        x = static_cast<std::uint64_t>(a.AsLong());
        y = static_cast<std::uint64_t>(b.AsLong());
      } else if (a.is_float()) {
        const float fa = a.AsFloat();
        const float fb = b.AsFloat();
        std::memcpy(&x, &fa, sizeof(fa));
        std::memcpy(&y, &fb, sizeof(fb));
      } else {
        const double da = a.AsDouble();
        const double db = b.AsDouble();
        std::memcpy(&x, &da, sizeof(da));
        std::memcpy(&y, &db, sizeof(db));
      }
      ASSERT_EQ(x, y) << name << "[" << e << "]";
    }
  }
}

TEST(LaneEvaluatorTest, AppsMatchReferenceOnFullAndPartialBatches) {
  // The reference walker is slow, so batches shrink to just over one lane
  // chunk (S-W's tasks are 16k cells each, so it keeps a handful); the
  // second chunk is then a partial one.
  const std::set<std::string> lane_apps = {"PR",  "KMeans", "KNN", "LR",
                                           "SVM", "LLS",    "AES"};
  for (apps::App app : apps::AllApps()) {
    SCOPED_TRACE(app.name);
    app.spec.batch = app.name == "S-W" ? 4 : kir::kLaneChunk + 4;
    const kir::Kernel generated = b2c::CompileKernel(*app.pool, app.spec);
    std::vector<kir::Kernel> kernels{generated};
    Rng crng(0x1A4E5ULL ^ std::hash<std::string>{}(app.name));
    for (int d = 0; d < 4; ++d) {
      kernels.push_back(
          merlin::ApplyDesign(generated, RandomDesign(generated, crng)).kernel);
    }
    if (lane_apps.count(app.name) != 0) {
      EXPECT_EQ(kir::Evaluator(generated).lane_width(), kir::kLaneChunk);
    }

    const SerializationPlan plan = MakeSerializationPlan(generated);
    const auto batch = static_cast<std::size_t>(plan.batch);
    Rng rng(23);
    const Dataset input = app.make_input(batch, rng);
    Dataset broadcast;
    if (app.make_broadcast) {
      Rng brng(29);
      broadcast = app.make_broadcast(brng);
    }
    for (std::size_t rows : {batch, std::size_t{3}}) {
      SCOPED_TRACE("rows=" + std::to_string(rows));
      kir::BufferMap inputs;
      SerializeBatch(plan, input, 0, rows, inputs,
                     app.make_broadcast ? &broadcast : nullptr);
      const std::map<std::string, Value> scalars = {
          {"N", Value::OfInt(static_cast<std::int32_t>(rows))}};
      for (std::size_t k = 0; k < kernels.size(); ++k) {
        SCOPED_TRACE("kernel " + std::to_string(k));
        kir::BufferMap fast_bufs = inputs;
        kir::BufferMap ref_bufs = inputs;
        kir::Evaluator fast(kernels[k]);
        kir::ReferenceEvaluator ref(kernels[k]);
        fast.Run(scalars, fast_bufs);
        ref.Run(scalars, ref_bufs);
        EXPECT_EQ(fast.last_steps(), ref.last_steps());
        ExpectBitIdentical(fast_bufs, ref_bufs);
      }
    }
  }
}

double AsNumber(const Value& v) {
  if (v.is_int()) return v.AsInt();
  if (v.is_long()) return static_cast<double>(v.AsLong());
  if (v.is_float()) return v.AsFloat();
  return v.AsDouble();
}

// `got` equals the native reference within the tolerance float sums in
// another order need.
void ExpectMatchesReference(const Dataset& got, const Dataset& want) {
  ASSERT_EQ(got.num_records(), want.num_records());
  for (std::size_t c = 0; c < want.num_columns(); ++c) {
    const Column& w = want.column(c);
    const Column& g = got.ColumnByField(w.field);
    ASSERT_EQ(g.data.size(), w.data.size()) << w.field;
    for (std::size_t e = 0; e < w.data.size(); ++e) {
      const double expect = AsNumber(w.data[e]);
      EXPECT_NEAR(AsNumber(g.data[e]), expect,
                  1e-4 * std::max(1.0, std::fabs(expect)))
          << w.field << "[" << e << "]";
    }
  }
}

TEST(LaneEvaluatorTest, PartialBatchesThroughTheRuntimeMatchReference) {
  // Every served app (all but S-W) at its real batch size, on the compiled
  // design and four random feasible ones -- the first tiling the task
  // loop -- with 1, 3 and batch - 1 live rows: the runtime bounds the
  // lane executor by those rows, and the answers must not move.
  for (apps::App app : apps::AllApps()) {
    if (app.name == "S-W") continue;
    SCOPED_TRACE(app.name);
    const kir::Kernel generated = b2c::CompileKernel(*app.pool, app.spec);
    const SerializationPlan plan = MakeSerializationPlan(generated);
    BlazeRuntime runtime;
    RegisterWithBlaze(runtime, "d0",
                      BuildWithConfig(*app.pool, app.spec,
                                      merlin::DesignConfig{}));
    Rng crng(0x9AD5ULL ^ std::hash<std::string>{}(app.name));
    int designs = 1;
    for (int attempt = 0; attempt < 64 && designs < 5; ++attempt) {
      merlin::DesignConfig cfg = RandomDesign(generated, crng, 8);
      if (designs == 1) {
        // Tile the task loop into 64-task tiles.
        cfg.loops[generated.task_loop_id] = {64, 1,
                                             merlin::PipelineMode::kOff};
      }
      RegisteredAccelerator accel;
      accel.design = merlin::ApplyDesign(generated, cfg).kernel;
      accel.hls = hls::EstimateHls(accel.design);
      if (!accel.hls.feasible) continue;
      accel.plan = plan;
      runtime.manager().Register("d" + std::to_string(designs++),
                                 std::move(accel));
    }
    ASSERT_EQ(designs, 5);

    Dataset broadcast;
    if (app.make_broadcast) {
      Rng brng(31);
      broadcast = app.make_broadcast(brng);
    }
    const Dataset* bc = app.make_broadcast ? &broadcast : nullptr;
    const bool reduce = app.spec.pattern == kir::ParallelPattern::kReduce;
    const auto batch = static_cast<std::size_t>(plan.batch);
    for (std::size_t rows : {std::size_t{1}, std::size_t{3}, batch - 1}) {
      SCOPED_TRACE("rows=" + std::to_string(rows));
      Rng rng(37 + rows);
      const Dataset input = app.make_input(rows, rng);
      const Dataset want = app.reference(input, bc);
      for (int d = 0; d < designs; ++d) {
        SCOPED_TRACE("design " + std::to_string(d));
        const std::string id = "d" + std::to_string(d);
        ExpectMatchesReference(reduce ? runtime.Reduce(id, input, bc)
                                      : runtime.Map(id, input, bc),
                               want);
      }
    }
  }
}

TEST(LaneEvaluatorTest, RegisteredDesignIsCompiledOnceAndShared) {
  jvm::ClassPool pool = MakePool();
  Artifact artifact =
      BuildWithConfig(pool, MakeSpec(8), merlin::DesignConfig{});
  BlazeRuntime runtime;
  RegisterWithBlaze(runtime, "doubler", artifact);
  const RegisteredAccelerator& accel = runtime.manager().Get("doubler");
  ASSERT_NE(accel.program, nullptr);
  const long uses = accel.program.use_count();
  runtime.Map("doubler", DoublerInput(21));
  // Map borrowed the registered program instead of compiling its own.
  EXPECT_EQ(accel.program.use_count(), uses);
  EXPECT_EQ(kir::Evaluator(accel.program).lane_width(), 8);  // the batch
}

}  // namespace
}  // namespace s2fa::blaze
