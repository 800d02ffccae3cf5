#include "apps/jvm_baseline.h"

#include <functional>

#include "jvm/interpreter.h"
#include "support/error.h"

namespace s2fa::apps {

namespace {

using blaze::Column;
using blaze::Dataset;
using jvm::Heap;
using jvm::Ref;
using jvm::Type;
using jvm::Value;

// Allocates a heap array holding `count` elements of `col` starting at
// `offset`.
Ref MakeArray(Heap& heap, const Column& col, std::size_t offset,
              std::size_t count) {
  Ref ref = heap.NewArray(Type::Array(col.element), count);
  jvm::Object& obj = heap.Get(ref);
  for (std::size_t e = 0; e < count; ++e) {
    obj.slots[e] = col.data[offset + e];
  }
  return ref;
}

// Builds the JVM value for input field `f` (dotted path `path`) of
// record `r`. Composite fields recurse, building nested instances.
Value FieldValue(Heap& heap, const b2c::FieldSpec& f, const std::string& path,
                 const blaze::Dataset& input, const blaze::Dataset* broadcast,
                 std::size_t r, std::map<std::string, Value>& bcast_cache) {
  if (f.is_composite()) {
    Ref obj = heap.NewInstance(Type::Class(f.klass), f.members.size());
    for (std::size_t m = 0; m < f.members.size(); ++m) {
      heap.Get(obj).slots[m] =
          FieldValue(heap, f.members[m], path + "." + f.members[m].name,
                     input, broadcast, r, bcast_cache);
    }
    return Value::OfRef(obj);
  }
  if (f.broadcast) {
    auto it = bcast_cache.find(path);
    if (it != bcast_cache.end()) return it->second;
    S2FA_REQUIRE(broadcast != nullptr,
                 "app needs broadcast data for field " << path);
    const Column& col = broadcast->ColumnByField(path);
    Value v;
    if (f.is_array) {
      v = Value::OfRef(MakeArray(heap, col, 0, col.data.size()));
    } else {
      v = col.data.at(0);
    }
    bcast_cache.emplace(path, v);
    return v;
  }
  const Column& col = input.ColumnByField(path);
  const std::size_t stride = static_cast<std::size_t>(f.length);
  if (f.is_array) {
    return Value::OfRef(MakeArray(heap, col, r * stride, stride));
  }
  return col.data.at(r);
}

// Writes a map-kernel result into the output dataset at record r.
void StoreResult(Heap& heap, const b2c::IoSpec& out_spec, const Value& ret,
                 Dataset& output, std::size_t r) {
  std::function<void(const b2c::FieldSpec&, const std::string&, const Value&)>
      store_any;
  auto store_field = [&](const b2c::FieldSpec& f, const std::string& path,
                         const Value& v) {
    Column& col = output.MutableColumnByField(path);
    const std::size_t stride = static_cast<std::size_t>(f.length);
    if (f.is_array) {
      const jvm::Object& arr = heap.Get(v.AsRef());
      S2FA_REQUIRE(arr.slots.size() >= stride,
                   "returned array shorter than field " << f.name);
      for (std::size_t e = 0; e < stride; ++e) {
        col.data.Set(r * stride + e, arr.slots[e]);
      }
    } else {
      col.data.Set(r, v);
    }
  };
  store_any = [&](const b2c::FieldSpec& f, const std::string& path,
                  const Value& v) {
    if (f.is_composite()) {
      const jvm::Object& obj = heap.Get(v.AsRef());
      S2FA_REQUIRE(obj.slots.size() == f.members.size(),
                   "nested object has wrong field count");
      for (std::size_t m = 0; m < f.members.size(); ++m) {
        store_any(f.members[m], path + "." + f.members[m].name,
                  obj.slots[m]);
      }
      return;
    }
    store_field(f, path, v);
  };
  if (out_spec.type.is_class()) {
    const jvm::Object& obj = heap.Get(ret.AsRef());
    S2FA_REQUIRE(obj.slots.size() == out_spec.fields.size(),
                 "returned object has wrong field count");
    for (std::size_t k = 0; k < out_spec.fields.size(); ++k) {
      store_any(out_spec.fields[k], out_spec.fields[k].name, obj.slots[k]);
    }
  } else {
    store_any(out_spec.fields[0], out_spec.fields[0].name, ret);
  }
}

Dataset MakeOutputShellFromSpec(const b2c::IoSpec& out_spec,
                                std::size_t records) {
  Dataset out;
  b2c::ForEachLeaf(out_spec.fields, "",
                   [&](const b2c::FieldSpec& f, const std::string& path) {
                     Column col;
                     col.field = path;
                     col.element = f.element;
                     col.per_record = f.length;
                     col.data.assign(
                         records * static_cast<std::size_t>(f.length),
                         jvm::DefaultValue(f.element));
                     out.AddColumn(std::move(col));
                   });
  return out;
}

}  // namespace

JvmRunResult RunOnJvm(const App& app, const blaze::Dataset& input,
                      const blaze::Dataset* broadcast) {
  const b2c::KernelSpec& spec = app.spec;
  const jvm::Method& method =
      app.pool->Get(spec.klass).GetMethod(spec.method);
  S2FA_REQUIRE(method.is_static,
               "JVM baseline expects static kernel methods");

  Heap heap;
  jvm::Interpreter interp(*app.pool, heap);
  std::map<std::string, Value> bcast_cache;

  JvmRunResult result;
  const bool is_reduce = spec.pattern == kir::ParallelPattern::kReduce;

  if (is_reduce) {
    // Zero-identity accumulator, updated record by record.
    std::vector<Value> acc_values;
    for (const auto& f : spec.output.fields) {
      acc_values.push_back(jvm::DefaultValue(f.element));
    }
    for (std::size_t r = 0; r < input.num_records(); ++r) {
      Value acc_arg;
      if (spec.output.type.is_class()) {
        Ref obj = heap.NewInstance(spec.output.type,
                                   spec.output.fields.size());
        for (std::size_t k = 0; k < acc_values.size(); ++k) {
          heap.Get(obj).slots[k] = acc_values[k];
        }
        acc_arg = Value::OfRef(obj);
      } else {
        acc_arg = acc_values[0];
      }
      Value elem;
      if (spec.input.type.is_class()) {
        Ref obj =
            heap.NewInstance(spec.input.type, spec.input.fields.size());
        for (std::size_t k = 0; k < spec.input.fields.size(); ++k) {
          heap.Get(obj).slots[k] =
              FieldValue(heap, spec.input.fields[k],
                         spec.input.fields[k].name, input, broadcast, r,
                         bcast_cache);
        }
        elem = Value::OfRef(obj);
      } else {
        elem = FieldValue(heap, spec.input.fields[0],
                          spec.input.fields[0].name, input, broadcast, r,
                          bcast_cache);
      }
      jvm::ExecResult exec =
          interp.Invoke(spec.klass, spec.method, {acc_arg, elem});
      result.total_ns += exec.cost_ns * app.jvm_cost_scale +
                         app.spark_record_overhead_ns;
      if (spec.output.type.is_class()) {
        const jvm::Object& obj = heap.Get(exec.ret.AsRef());
        for (std::size_t k = 0; k < acc_values.size(); ++k) {
          acc_values[k] = obj.slots[k];
        }
      } else {
        acc_values[0] = exec.ret;
      }
    }
    result.output = MakeOutputShellFromSpec(spec.output, 1);
    for (std::size_t k = 0; k < spec.output.fields.size(); ++k) {
      result.output.MutableColumnByField(spec.output.fields[k].name)
          .data.Set(0, acc_values[k]);
    }
    return result;
  }

  result.output = MakeOutputShellFromSpec(spec.output, input.num_records());
  for (std::size_t r = 0; r < input.num_records(); ++r) {
    Value arg;
    if (spec.input.type.is_class()) {
      Ref obj = heap.NewInstance(spec.input.type, spec.input.fields.size());
      for (std::size_t k = 0; k < spec.input.fields.size(); ++k) {
        heap.Get(obj).slots[k] =
            FieldValue(heap, spec.input.fields[k],
                       spec.input.fields[k].name, input, broadcast, r,
                       bcast_cache);
      }
      arg = Value::OfRef(obj);
    } else {
      arg = FieldValue(heap, spec.input.fields[0],
                       spec.input.fields[0].name, input, broadcast, r,
                       bcast_cache);
    }
    jvm::ExecResult exec = interp.Invoke(spec.klass, spec.method, {arg});
    result.total_ns += exec.cost_ns * app.jvm_cost_scale +
                       app.spark_record_overhead_ns;
    StoreResult(heap, spec.output, exec.ret, result.output, r);
  }
  return result;
}

}  // namespace s2fa::apps
