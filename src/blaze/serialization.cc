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
  plan.num_buffers = kernel.buffers.size();
  for (std::size_t slot = 0; slot < kernel.buffers.size(); ++slot) {
    const kir::Buffer& buf = kernel.buffers[slot];
    if (buf.kind == kir::BufferKind::kLocal) continue;
    PlanEntry entry;
    entry.buffer = buf.name;
    entry.slot = slot;
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
                    kir::DeviceBuffers& buffers, const Dataset* broadcast) {
  S2FA_REQUIRE(count <= static_cast<std::size_t>(plan.batch),
               "batch overflow: " << count << " > " << plan.batch);
  S2FA_REQUIRE(first_record + count <= dataset.num_records(),
               "record range out of bounds");
  buffers.resize(plan.num_buffers);
  for (const auto& entry : plan.entries) {
    if (!entry.is_input) continue;
    jvm::PrimitiveArray& buf = buffers[entry.slot];
    const jvm::Storage storage = jvm::StorageOf(entry.element);
    if (entry.broadcast) {
      S2FA_REQUIRE(broadcast != nullptr,
                   "plan needs broadcast data for " << entry.source_field);
      const Column& bc = broadcast->ColumnByField(entry.source_field);
      S2FA_REQUIRE(bc.per_record == entry.per_task &&
                       broadcast->num_records() == 1,
                   "broadcast column " << entry.source_field
                                       << " has wrong shape");
      buf.AssignZero(storage, 0);
      buf.Append(bc.data);
      continue;
    }
    const Column& col = dataset.ColumnByField(entry.source_field);
    S2FA_REQUIRE(col.per_record == entry.per_task,
                 "column " << entry.source_field << " has per_record "
                           << col.per_record << ", accelerator expects "
                           << entry.per_task);
    const std::size_t stride = static_cast<std::size_t>(entry.per_task);
    // Short final batches are zero-padded to the full batch size: the
    // buffer is zero-filled, then the live prefix -- one contiguous slice
    // of the column, records being `stride` consecutive elements -- is
    // copied over (a block copy, cast per element only when the column's
    // storage class differs from the buffer's).
    buf.AssignZero(storage, static_cast<std::size_t>(plan.batch) * stride);
    buf.CopyRange(col.data, first_record * stride, count * stride, 0);
  }
}

void SerializeBatch(const SerializationPlan& plan, const Dataset& dataset,
                    std::size_t first_record, std::size_t count,
                    kir::BufferMap& buffers, const Dataset* broadcast) {
  kir::DeviceBuffers typed;
  SerializeBatch(plan, dataset, first_record, count, typed, broadcast);
  for (const auto& entry : plan.entries) {
    if (!entry.is_input) continue;
    const jvm::PrimitiveArray& buf = typed[entry.slot];
    buffers[entry.buffer] = jvm::ToValues(buf);
  }
}

void DeserializeBatch(const SerializationPlan& plan,
                      const kir::DeviceBuffers& buffers,
                      std::size_t first_record, std::size_t count,
                      Dataset& out) {
  S2FA_REQUIRE(buffers.size() == plan.num_buffers,
               "plan has " << plan.num_buffers << " buffers, "
                           << buffers.size() << " given");
  for (const auto& entry : plan.entries) {
    if (entry.is_input) continue;
    const jvm::PrimitiveArray& buf = buffers[entry.slot];
    Column& col = out.MutableColumnByField(entry.source_field);
    const std::size_t stride = static_cast<std::size_t>(entry.per_task);
    // A reduce result is a single record per invocation, stored at
    // first_record (the runtime later combines invocation results).
    const std::size_t used = entry.per_invocation ? stride : count * stride;
    S2FA_REQUIRE(buf.size() >= used,
                 "output buffer " << entry.buffer << " too small");
    col.data.CopyRange(buf, 0, used, first_record * stride);
  }
}

void DeserializeBatch(const SerializationPlan& plan,
                      const kir::BufferMap& buffers,
                      std::size_t first_record, std::size_t count,
                      Dataset& out) {
  kir::DeviceBuffers typed(plan.num_buffers);
  for (const auto& entry : plan.entries) {
    if (entry.is_input) continue;
    auto it = buffers.find(entry.buffer);
    S2FA_REQUIRE(it != buffers.end(),
                 "missing output buffer " << entry.buffer);
    typed[entry.slot] =
        jvm::FromValues(jvm::StorageOf(entry.element), it->second);
  }
  DeserializeBatch(plan, typed, first_record, count, out);
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
    col.data = jvm::PrimitiveArray(
        jvm::StorageOf(entry.element),
        num_records * static_cast<std::size_t>(entry.per_task));
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
