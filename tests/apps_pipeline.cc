#include "apps_pipeline.h"

#include "obs/obs.h"
#include "support/error.h"

namespace s2fa::apps {

PipelineResult RunPipeline(blaze::BlazeRuntime& runtime,
                           const std::vector<PipelineStage>& stages,
                           const blaze::Dataset& input) {
  S2FA_REQUIRE(!stages.empty(), "pipeline needs at least one stage");
  S2FA_SPAN("apps.pipeline");

  PipelineResult result;
  blaze::Dataset current = input;
  for (const PipelineStage& stage : stages) {
    const blaze::RegisteredAccelerator& accel =
        runtime.manager().Get(stage.accel_id);
    if (stage.adapt) current = stage.adapt(current);
    blaze::ExecutionStats stage_stats;
    current = accel.design.pattern == kir::ParallelPattern::kReduce
                  ? runtime.Reduce(stage.accel_id, current, stage.broadcast,
                                   &stage_stats)
                  : runtime.Map(stage.accel_id, current, stage.broadcast,
                                &stage_stats);
    result.stats.Merge(stage_stats);
    result.per_stage.push_back(std::move(stage_stats));
  }
  result.output = std::move(current);
  return result;
}

}  // namespace s2fa::apps
