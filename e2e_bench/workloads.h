// The benchmark's four workloads. Each one generates its inputs from the
// seed up front, builds what it serves in Setup(), and replays the same
// inputs in every Run(). Run() only executes, dropping the last run's
// outcomes first so two runs' outcomes never share the heap; Check()
// inspects the outcomes outside the timed window.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "blaze/runtime.h"

namespace s2fa::e2e {

// A design the workload serves or produced, for the kernel-layer probes
// (one full batch through serialization and the evaluator).
struct KernelProbe {
  std::string name;
  const blaze::RegisteredAccelerator* accel = nullptr;
  const blaze::Dataset* input = nullptr;  // at least one batch of records
  const blaze::Dataset* broadcast = nullptr;
};

// What the last run produced, judged against the references.
struct RepCheck {
  std::size_t attempted = 0;  // explorations or rows
  std::size_t failed = 0;     // threw, found nothing, mismatched, or lost
  std::uint64_t hash = 0;     // canonical hash of the modeled outcomes
  double goodput_frac = 0;    // correct units within their goal / attempted
  std::vector<double> unit_ms;  // explore8: host ms per exploration
  // Modeled outcomes and runtime stats of the run, by per-layer metric name.
  std::map<std::string, double> layer;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Builds the accelerators the runs use, replacing any earlier build.
  virtual void Setup() = 0;
  // When `generator_s` is not null, the host seconds spent in the
  // harness's own stream generator callbacks are added to it.
  virtual void Run(double* generator_s) = 0;
  virtual RepCheck Check() = 0;
  virtual std::vector<KernelProbe> Probes() const = 0;
};

// The four workload names, in the order a full run visits them.
const std::vector<std::string>& WorkloadNames();

// Generates the workload's inputs from `seed`. `quick` shrinks the inputs
// about fiftyfold for smoke tests. Throws InvalidArgument on an unknown
// name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed, bool quick);

}  // namespace s2fa::e2e
