// Multi-stage accelerator pipelines: chain several registered accelerators
// (Map or Reduce, chosen from each design's parallel pattern) over one
// dataset, the way a Spark job strings transformations together (paper §2,
// Code 1). The per-stage cost ledgers add up via ExecutionStats::Merge.
// Stages run through BlazeRuntime, which only executes: accelerator faults,
// retries and host fallback live in the serving layer (each BlazeCluster
// shard's replica health). Only apps_test chains stages, so this lives
// beside it.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "blaze/runtime.h"

namespace s2fa::apps {

struct PipelineStage {
  std::string accel_id;  // must be registered with the runtime
  // One-record shared data for this stage; null when the kernel takes none.
  const blaze::Dataset* broadcast = nullptr;
  // Reshapes the previous stage's output into this stage's input (column
  // renames, record regrouping). Identity when null. Host-side, unbilled.
  std::function<blaze::Dataset(const blaze::Dataset&)> adapt;
};

struct PipelineResult {
  blaze::Dataset output;            // the final stage's output
  blaze::ExecutionStats stats;      // all stages, merged
  std::vector<blaze::ExecutionStats> per_stage;
};

// Runs `input` through every stage in order. Throws on an empty stage list
// or an unknown accelerator id.
PipelineResult RunPipeline(blaze::BlazeRuntime& runtime,
                           const std::vector<PipelineStage>& stages,
                           const blaze::Dataset& input);

}  // namespace s2fa::apps
