// The Blaze runtime simulation (paper §2, [14]).
//
// Accelerators are registered as a service by id; Spark-side code wraps a
// dataset and runs transformations by id (Code 1). Execution is
// functionally real — every batch is serialized, evaluated through the
// kernel IR evaluator, and deserialized — while timing comes from the HLS
// result plus an offload cost model (JVM-side repacking, PCIe transfer,
// invocation overhead). PR/AES-style kernels whose compute is cheap
// relative to their bytes become transfer-bound here, reproducing the
// paper's "bounded by external memory bandwidth" behaviour.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "blaze/serialization.h"
#include "hls/estimator.h"
#include "kir/eval.h"

namespace s2fa::blaze {

struct OffloadCostModel {
  double pcie_gbps = 8.0;            // effective host->FPGA bandwidth
  double invoke_overhead_us = 30.0;  // DMA setup + driver per invocation
  double jvm_pack_ns_per_byte = 0.30;  // reflection-based (de)serialization
  // Host-path cost of a batch the serving layer runs on the JVM instead
  // (SparkCL-style): `host_slowdown` times the accelerator's compute time,
  // with no PCIe transfer or invocation overhead.
  double host_slowdown = 25.0;
};

struct RegisteredAccelerator {
  kir::Kernel design;        // Merlin-transformed kernel (best config)
  hls::HlsResult hls;        // its synthesis result
  SerializationPlan plan;    // interface layout
  // `design` compiled for the lane executor. AcceleratorManager::Register
  // fills it once; every Map/Reduce call and exec thread then shares it
  // read-only, each with its own Evaluator scratch.
  std::shared_ptr<const kir::LaneProgram> program;
};

struct ExecutionStats {
  std::size_t invocations = 0;
  double serialize_us = 0;  // JVM-side pack/unpack
  double transfer_us = 0;   // PCIe both directions
  double compute_us = 0;    // accelerator execution
  double overhead_us = 0;   // per-invocation driver overhead
  double total_us = 0;

  // Folds `other` into this: invocations and charges add up. Multi-stage
  // pipelines sum their stages with it.
  void Merge(const ExecutionStats& other);
};

class AcceleratorManager {
 public:
  // Registers an accelerator under `id`; rejects duplicates.
  void Register(const std::string& id, RegisteredAccelerator accelerator);
  bool Has(const std::string& id) const;
  const RegisteredAccelerator& Get(const std::string& id) const;
  std::size_t size() const { return accelerators_.size(); }

 private:
  std::map<std::string, RegisteredAccelerator> accelerators_;
};

class BlazeRuntime {
 public:
  explicit BlazeRuntime(OffloadCostModel model = {});

  AcceleratorManager& manager() { return manager_; }
  const AcceleratorManager& manager() const { return manager_; }
  const OffloadCostModel& cost_model() const { return model_; }

  // The cost-model charge for one invocation (one batch) of a registered
  // accelerator: serialize/transfer/compute/overhead and their total, with
  // invocations = 1. The serving layer plans dispatch timing from this.
  ExecutionStats PerInvocationCost(const std::string& accel_id) const;

  // Runs a map accelerator over every record. `broadcast` supplies the
  // one-record shared data if the kernel declares broadcast fields.
  // Returns the output dataset; fills `stats` when non-null.
  Dataset Map(const std::string& accel_id, const Dataset& input,
              const Dataset* broadcast = nullptr,
              ExecutionStats* stats = nullptr);

  // Runs a reduce accelerator: per-invocation partial results are combined
  // additively on the host (the reduce template assumes a zero-identity
  // additive reduction; see b2c). Returns a single-record dataset.
  Dataset Reduce(const std::string& accel_id, const Dataset& input,
                 const Dataset* broadcast = nullptr,
                 ExecutionStats* stats = nullptr);

 private:
  ExecutionStats InvocationCost(const RegisteredAccelerator& accel) const;

  OffloadCostModel model_;
  AcceleratorManager manager_;
};

}  // namespace s2fa::blaze
