#include "blaze/runtime.h"

#include <algorithm>
#include <cstdint>
#include <type_traits>

#include "jvm/java_numeric.h"
#include "obs/obs.h"
#include "support/error.h"
#include "support/strings.h"

namespace s2fa::blaze {

namespace {

// Bytes crossing the accelerator interface in one invocation (local
// buffers stay on-chip and are excluded).
double InterfaceBytes(const RegisteredAccelerator& accel) {
  double bytes = 0;
  for (const auto& buf : accel.design.buffers) {
    if (buf.kind == kir::BufferKind::kLocal) continue;
    bytes += static_cast<double>(buf.byte_size());
  }
  return bytes;
}

// Adds one invocation's partial into the running total of a reduce
// output element. Floating partials sum in double (narrowed once at the
// end); integral ones wrap in their own width, like Java's `+`.
template <typename T>
auto AddPartial(T sum, T partial) {
  if constexpr (std::is_floating_point_v<T>) {
    return sum + partial;
  } else {
    return jvm::java::Add(sum, partial);
  }
}

// Serializes and executes one batch and charges it one invocation.
void RunBatch(const RegisteredAccelerator& accel, const Dataset& input,
              const Dataset* broadcast, std::size_t first, std::size_t count,
              const ExecutionStats& per_invocation, kir::Evaluator& evaluator,
              kir::DeviceBuffers& buffers, ExecutionStats& total) {
  SerializeBatch(accel.plan, input, first, count, buffers, broadcast);
  // The zero-padded tasks past `count` are only host work: the modeled
  // invocation (InvocationCost) still charges the full batch.
  evaluator.Run({{"N", jvm::Value::OfInt(static_cast<std::int32_t>(count))}},
                buffers, static_cast<std::int64_t>(count));
  total.serialize_us += per_invocation.serialize_us;
  total.transfer_us += per_invocation.transfer_us;
  total.compute_us += per_invocation.compute_us;
  total.overhead_us += per_invocation.overhead_us;
  ++total.invocations;
}

// Closes a Map/Reduce call: sums the charges, counts the traffic, and
// reports `total` through `stats` when non-null.
void Finish(const RegisteredAccelerator& accel [[maybe_unused]],
            ExecutionStats& total, ExecutionStats* stats) {
  total.total_us = total.serialize_us + total.transfer_us +
                   total.compute_us + total.overhead_us;
  S2FA_COUNT("blaze.invocations",
             static_cast<std::int64_t>(total.invocations));
  S2FA_COUNT("blaze.serialized_bytes",
             static_cast<std::int64_t>(InterfaceBytes(accel) *
                                       static_cast<double>(total.invocations)));
  if (stats != nullptr) *stats = total;
}

}  // namespace

void AcceleratorManager::Register(const std::string& id,
                                  RegisteredAccelerator accelerator) {
  S2FA_REQUIRE(!id.empty(), "accelerator id must be non-empty");
  S2FA_REQUIRE(accelerators_.count(id) == 0,
               "accelerator " << id << " already registered");
  S2FA_REQUIRE(accelerator.hls.feasible,
               "cannot register an infeasible design for " << id);
  accelerator.program = kir::CompileLaneProgram(accelerator.design);
  accelerators_.emplace(id, std::move(accelerator));
}

bool AcceleratorManager::Has(const std::string& id) const {
  return accelerators_.count(id) != 0;
}

const RegisteredAccelerator& AcceleratorManager::Get(
    const std::string& id) const {
  auto it = accelerators_.find(id);
  if (it == accelerators_.end()) {
    std::vector<std::string> ids;
    ids.reserve(accelerators_.size());
    for (const auto& [registered_id, accel] : accelerators_) {
      (void)accel;
      ids.push_back(registered_id);
    }
    throw InvalidArgument(
        "no accelerator registered as " + id + "; registered: " +
        (ids.empty() ? "(none)" : Join(ids, ", ")));
  }
  return it->second;
}

void ExecutionStats::Merge(const ExecutionStats& other) {
  invocations += other.invocations;
  serialize_us += other.serialize_us;
  transfer_us += other.transfer_us;
  compute_us += other.compute_us;
  overhead_us += other.overhead_us;
  total_us += other.total_us;
}

BlazeRuntime::BlazeRuntime(OffloadCostModel model) : model_(model) {}

ExecutionStats BlazeRuntime::InvocationCost(
    const RegisteredAccelerator& accel) const {
  ExecutionStats stats;
  const double bytes = InterfaceBytes(accel);
  stats.serialize_us = bytes * model_.jvm_pack_ns_per_byte / 1000.0;
  stats.transfer_us = bytes / (model_.pcie_gbps * 1e3);  // GB/s -> B/us
  stats.compute_us = accel.hls.exec_us;
  stats.overhead_us = model_.invoke_overhead_us;
  stats.total_us = stats.serialize_us + stats.transfer_us +
                   stats.compute_us + stats.overhead_us;
  stats.invocations = 1;
  return stats;
}

ExecutionStats BlazeRuntime::PerInvocationCost(
    const std::string& accel_id) const {
  return InvocationCost(manager_.Get(accel_id));
}

Dataset BlazeRuntime::Map(const std::string& accel_id, const Dataset& input,
                          const Dataset* broadcast, ExecutionStats* stats) {
  S2FA_SPAN("blaze.map");
  const RegisteredAccelerator& accel = manager_.Get(accel_id);
  const SerializationPlan& plan = accel.plan;
  S2FA_REQUIRE(plan.batch > 0, "bad serialization plan");

  Dataset out = MakeOutputShell(plan, input.num_records());
  kir::Evaluator evaluator(accel.program);
  ExecutionStats total;
  const ExecutionStats per_invocation = InvocationCost(accel);

  const std::size_t batch = static_cast<std::size_t>(plan.batch);
  // Device buffers live across the call's batches: each batch overwrites
  // its inputs and the evaluator resets its outputs and locals.
  kir::DeviceBuffers buffers;
  for (std::size_t first = 0; first < input.num_records(); first += batch) {
    const std::size_t count =
        std::min(batch, input.num_records() - first);
    RunBatch(accel, input, broadcast, first, count, per_invocation,
             evaluator, buffers, total);
    DeserializeBatch(plan, buffers, first, count, out);
  }
  Finish(accel, total, stats);
  return out;
}

Dataset BlazeRuntime::Reduce(const std::string& accel_id,
                             const Dataset& input, const Dataset* broadcast,
                             ExecutionStats* stats) {
  S2FA_SPAN("blaze.reduce");
  const RegisteredAccelerator& accel = manager_.Get(accel_id);
  const SerializationPlan& plan = accel.plan;
  S2FA_REQUIRE(accel.design.pattern == kir::ParallelPattern::kReduce,
               accel_id << " is not a reduce accelerator");

  kir::Evaluator evaluator(accel.program);
  ExecutionStats total;
  const ExecutionStats per_invocation = InvocationCost(accel);
  const std::size_t batch = static_cast<std::size_t>(plan.batch);

  Dataset result = MakeOutputShell(plan, 1);
  // Additive accumulators, one per output element, in the element's
  // storage class except that float partials are carried as doubles.
  std::vector<jvm::PrimitiveArray> partials;
  for (const auto& entry : plan.entries) {
    if (entry.is_input) continue;
    const jvm::Storage storage = jvm::StorageOf(entry.element);
    partials.emplace_back(
        storage == jvm::Storage::kF32 ? jvm::Storage::kF64 : storage,
        static_cast<std::size_t>(entry.per_task));
  }

  kir::DeviceBuffers buffers;
  for (std::size_t first = 0; first < input.num_records(); first += batch) {
    const std::size_t count = std::min(batch, input.num_records() - first);
    RunBatch(accel, input, broadcast, first, count, per_invocation,
             evaluator, buffers, total);
    // Combine invocation partials additively on the host.
    std::size_t k = 0;
    for (const auto& entry : plan.entries) {
      if (entry.is_input) continue;
      jvm::PrimitiveArray& sums = partials[k++];
      const jvm::PrimitiveArray& buf = buffers[entry.slot];
      jvm::WithStorage(buf.storage(), [&](auto tag) {
        using T = decltype(tag);
        using Sum = std::conditional_t<std::is_same_v<T, float>, double, T>;
        const T* got = buf.values<T>().data();
        const std::span<Sum> sum = sums.values<Sum>();
        for (std::size_t e = 0; e < sum.size(); ++e) {
          sum[e] = first == 0 ? static_cast<Sum>(got[e])
                              : AddPartial(sum[e], static_cast<Sum>(got[e]));
        }
      });
    }
  }

  // Narrowed once into the result (no input: it stays zero).
  std::size_t k = 0;
  for (const auto& entry : plan.entries) {
    if (entry.is_input) continue;
    Column& col = result.MutableColumnByField(entry.source_field);
    col.data.CopyRange(partials[k], 0, partials[k].size(), 0);
    ++k;
  }
  Finish(accel, total, stats);
  return result;
}

}  // namespace s2fa::blaze
