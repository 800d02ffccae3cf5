#include "blaze/serialization.h"

#include <algorithm>
#include <sstream>

#include "support/error.h"
#include "support/strings.h"

namespace s2fa::blaze {

namespace {

// "in._1" -> "_1", "ret.ret" -> "ret".
std::string FieldOfSource(const std::string& source) {
  std::size_t dot = source.find('.');
  if (dot == std::string::npos) return source;
  return source.substr(dot + 1);
}

bool IsBroadcastSource(const std::string& source) {
  return source.rfind("bcast.", 0) == 0;
}

// Column-to-buffer element conversion for the narrowed-type fallback: a
// double column feeding a float buffer narrows like the generated C's
// buffer store would.
jvm::Value CoerceToElement(const jvm::Type& element, const jvm::Value& v) {
  auto to_double = [&]() -> double {
    if (v.is_int()) return v.AsInt();
    if (v.is_long()) return static_cast<double>(v.AsLong());
    if (v.is_float()) return v.AsFloat();
    return v.AsDouble();
  };
  auto to_long = [&]() -> std::int64_t {
    if (v.is_int()) return v.AsInt();
    if (v.is_long()) return v.AsLong();
    if (v.is_float()) return static_cast<std::int64_t>(v.AsFloat());
    return static_cast<std::int64_t>(v.AsDouble());
  };
  switch (element.kind()) {
    case jvm::TypeKind::kFloat:
      return jvm::Value::OfFloat(static_cast<float>(to_double()));
    case jvm::TypeKind::kDouble:
      return jvm::Value::OfDouble(to_double());
    case jvm::TypeKind::kLong:
      return jvm::Value::OfLong(to_long());
    default:
      return jvm::Value::OfInt(static_cast<std::int32_t>(to_long()));
  }
}

// True when `col` values can be block-copied into a buffer of `element`
// without per-element conversion.
bool SameElementKind(const jvm::Type& col, const jvm::Type& element) {
  return col.kind() == element.kind();
}

}  // namespace

const PlanEntry* SerializationPlan::FindBuffer(
    const std::string& buffer) const {
  for (const auto& e : entries) {
    if (e.buffer == buffer) return &e;
  }
  return nullptr;
}

SerializationPlan MakeSerializationPlan(const kir::Kernel& kernel) {
  kernel.Validate();
  SerializationPlan plan;
  plan.kernel_name = kernel.name;
  const kir::Stmt* task_loop =
      kir::FindLoop(kernel.body, kernel.task_loop_id);
  S2FA_REQUIRE(task_loop != nullptr,
               "kernel has no task loop; not a template-generated kernel");
  plan.batch = task_loop->trip_count();
  for (const auto& buf : kernel.buffers) {
    if (buf.kind == kir::BufferKind::kLocal) continue;
    PlanEntry entry;
    entry.buffer = buf.name;
    entry.source_field = FieldOfSource(buf.source_field);
    entry.element = buf.element;
    entry.per_task = buf.per_task > 0 ? buf.per_task : 1;
    entry.is_input = buf.kind == kir::BufferKind::kInput;
    entry.broadcast = entry.is_input && IsBroadcastSource(buf.source_field);
    // A reduce kernel's output buffer holds one result per invocation.
    // Classified from the kernel's pattern, not the batch size: a reduce
    // kernel instantiated with task-loop trip count 1 is still a reduce
    // (the old `batch > 1` heuristic misfiled it as a map output).
    entry.per_invocation = !entry.is_input &&
                           kernel.pattern == kir::ParallelPattern::kReduce &&
                           buf.length == entry.per_task;
    plan.entries.push_back(std::move(entry));
  }
  S2FA_REQUIRE(!plan.entries.empty(), "kernel has no interface buffers");
  return plan;
}

void SerializeBatch(const SerializationPlan& plan, const Dataset& dataset,
                    std::size_t first_record, std::size_t count,
                    kir::BufferMap& buffers, const Dataset* broadcast) {
  S2FA_REQUIRE(count <= static_cast<std::size_t>(plan.batch),
               "batch overflow: " << count << " > " << plan.batch);
  S2FA_REQUIRE(first_record + count <= dataset.num_records(),
               "record range out of bounds");
  for (const auto& entry : plan.entries) {
    if (!entry.is_input) continue;
    if (entry.broadcast) {
      S2FA_REQUIRE(broadcast != nullptr,
                   "plan needs broadcast data for " << entry.source_field);
      const Column& bc = broadcast->ColumnByField(entry.source_field);
      S2FA_REQUIRE(bc.per_record == entry.per_task &&
                       broadcast->num_records() == 1,
                   "broadcast column " << entry.source_field
                                       << " has wrong shape");
      buffers[entry.buffer] = bc.data;
      continue;
    }
    const Column& col = dataset.ColumnByField(entry.source_field);
    S2FA_REQUIRE(col.per_record == entry.per_task,
                 "column " << entry.source_field << " has per_record "
                           << col.per_record << ", accelerator expects "
                           << entry.per_task);
    auto& buf = buffers[entry.buffer];
    const std::size_t stride = static_cast<std::size_t>(entry.per_task);
    const std::size_t total = static_cast<std::size_t>(plan.batch) * stride;
    const std::size_t used = count * stride;
    // Short final batches are zero-padded to the full batch size: one pass
    // writes the default everywhere, then the live prefix is copied over.
    buf.assign(total, jvm::DefaultValue(entry.element));
    const jvm::Value* src = col.data.data() + first_record * stride;
    if (SameElementKind(col.element, entry.element)) {
      // Zero-copy fast path: the record range is one contiguous slice of
      // the column (records are `stride` consecutive elements), and Value
      // is trivially copyable, so the whole batch is a single block copy.
      std::copy_n(src, used, buf.data());
    } else {
      // Narrowed-type fallback: per-element conversion to the buffer's
      // element kind.
      for (std::size_t e = 0; e < used; ++e) {
        buf[e] = CoerceToElement(entry.element, src[e]);
      }
    }
  }
}

void DeserializeBatch(const SerializationPlan& plan,
                      const kir::BufferMap& buffers,
                      std::size_t first_record, std::size_t count,
                      Dataset& out) {
  for (const auto& entry : plan.entries) {
    if (entry.is_input) continue;
    auto it = buffers.find(entry.buffer);
    S2FA_REQUIRE(it != buffers.end(),
                 "missing output buffer " << entry.buffer);
    Column& col = out.MutableColumnByField(entry.source_field);
    const std::size_t stride = static_cast<std::size_t>(entry.per_task);
    const std::vector<jvm::Value>& buf = it->second;
    if (entry.per_invocation) {
      // Reduce result: a single record per invocation; store at
      // first_record (the runtime later combines invocation results).
      S2FA_REQUIRE(buf.size() >= stride,
                   "output buffer " << entry.buffer << " too small");
      std::copy_n(buf.data(), stride,
                  col.data.data() + first_record * stride);
      continue;
    }
    const std::size_t used = count * stride;
    S2FA_REQUIRE(buf.size() >= used,
                 "output buffer " << entry.buffer << " too small");
    if (SameElementKind(entry.element, col.element)) {
      // Zero-copy fast path (mirror of SerializeBatch).
      std::copy_n(buf.data(), used,
                  col.data.data() + first_record * stride);
    } else {
      jvm::Value* dst = col.data.data() + first_record * stride;
      for (std::size_t e = 0; e < used; ++e) {
        dst[e] = CoerceToElement(col.element, buf[e]);
      }
    }
  }
}

Dataset MakeOutputShell(const SerializationPlan& plan,
                        std::size_t num_records) {
  Dataset out;
  for (const auto& entry : plan.entries) {
    if (entry.is_input) continue;
    Column col;
    col.field = entry.source_field;
    col.element = entry.element;
    col.per_record = entry.per_task;
    col.data.assign(num_records * static_cast<std::size_t>(entry.per_task),
                    jvm::DefaultValue(entry.element));
    out.AddColumn(std::move(col));
  }
  return out;
}

std::string RenderScalaHelper(const SerializationPlan& plan) {
  std::ostringstream oss;
  oss << "// Generated by the S2FA data processing method generator.\n"
      << "object " << plan.kernel_name << "Serde {\n";
  oss << "  def serialize(items: Array[AnyRef]): Map[String, Array[_]] = {\n"
      << "    val n = items.length\n";
  for (const auto& entry : plan.entries) {
    if (!entry.is_input) continue;
    oss << "    val " << entry.buffer << " = new Array["
        << entry.element.ToString() << "](n * " << entry.per_task << ")\n";
  }
  oss << "    for (i <- 0 until n) {\n"
      << "      val obj = items(i)\n";
  for (const auto& entry : plan.entries) {
    if (!entry.is_input) continue;
    oss << "      // field via reflection: obj.getClass.getField(\""
        << entry.source_field << "\")\n";
    if (entry.per_task == 1) {
      oss << "      " << entry.buffer << "(i) = reflectGet(obj, \""
          << entry.source_field << "\")\n";
    } else {
      oss << "      System.arraycopy(reflectGet(obj, \""
          << entry.source_field << "\"), 0, " << entry.buffer << ", i * "
          << entry.per_task << ", " << entry.per_task << ")\n";
    }
  }
  oss << "    }\n    Map(";
  bool first = true;
  for (const auto& entry : plan.entries) {
    if (!entry.is_input) continue;
    if (!first) oss << ", ";
    first = false;
    oss << "\"" << entry.buffer << "\" -> " << entry.buffer;
  }
  oss << ")\n  }\n";
  oss << "  def deserialize(bufs: Map[String, Array[_]], n: Int)"
      << ": Array[AnyRef] = {\n"
      << "    (0 until n).map { i =>\n      makeResult(";
  first = true;
  for (const auto& entry : plan.entries) {
    if (entry.is_input) continue;
    if (!first) oss << ", ";
    first = false;
    if (entry.per_task == 1) {
      oss << "bufs(\"" << entry.buffer << "\")(i)";
    } else {
      oss << "slice(bufs(\"" << entry.buffer << "\"), i * " << entry.per_task
          << ", " << entry.per_task << ")";
    }
  }
  oss << ")\n    }.toArray\n  }\n}\n";
  return oss.str();
}

}  // namespace s2fa::blaze
