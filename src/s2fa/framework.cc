#include "s2fa/framework.h"

#include <algorithm>
#include <limits>
#include <memory>

#include "kir/printer.h"
#include "obs/obs.h"
#include "support/error.h"
#include "support/logging.h"

namespace s2fa {

tuner::EvalFn MakeHlsEvaluator(const kir::Kernel& kernel,
                               const hls::EstimatorOptions& options,
                               FrequencyModel frequency) {
  // One base per space, shared by every evaluation on every worker
  // thread: it is immutable once built. Each evaluation overlays its
  // design on it; nothing is cloned or rewritten.
  auto base = std::make_shared<const hls::DesignBase>(kernel);
  return [base, options, frequency](
             const merlin::DesignConfig& config) -> tuner::EvalOutcome {
    tuner::EvalOutcome outcome;
    if (!base->IsLegal(config)) {
      // Illegal factor combination: the HLS job fails fast, with no
      // message rendered (most uniform draws are illegal).
      S2FA_COUNT("merlin.rejected_configs", 1);
      outcome.feasible = false;
      outcome.cost = tuner::kInfeasibleCost;
      outcome.eval_minutes = 3.0;
      return outcome;
    }
    const hls::HlsResult hls_result =
        hls::EstimateHls(hls::DesignView(*base, config), options);
    if (!hls_result.Plausible()) {
      // The tool returned, but its numbers can't be trusted. Surface the
      // outcome as garbage (NaN objective) so the resilience layer
      // classifies it as kGarbageResult and retries instead of letting a
      // corrupt result steer the search.
      outcome.feasible = true;
      outcome.cost = std::numeric_limits<double>::quiet_NaN();
      outcome.eval_minutes = std::max(1.0, hls_result.eval_minutes);
      return outcome;
    }
    outcome.feasible = hls_result.feasible;
    // Objective: execution time, with a small area term that breaks ties
    // between equal-performance designs toward the cheaper one (the
    // Merlin flow's preference; also keeps synthesis times down).
    const double exec_us =
        frequency == FrequencyModel::kEstimated
            ? hls_result.exec_us
            : hls_result.cycles / options.device.target_mhz;
    outcome.cost = exec_us * (1.0 + 0.05 * hls_result.util.MaxFraction());
    outcome.eval_minutes = hls_result.eval_minutes;
    // Attribution rides along for the landscape-aware arms; the garbage
    // and illegal-config paths above keep the default kNone.
    outcome.bottleneck = hls_result.bottleneck;
    return outcome;
  };
}

namespace {

Artifact CompileFrontEnd(const jvm::ClassPool& pool,
                         const b2c::KernelSpec& spec) {
  Artifact artifact;
  artifact.generated_kernel = b2c::CompileKernel(pool, spec);
  artifact.c_source = kir::EmitC(artifact.generated_kernel);
  artifact.space = tuner::BuildDesignSpace(artifact.generated_kernel);
  artifact.plan = blaze::MakeSerializationPlan(artifact.generated_kernel);
  artifact.scala_helper = blaze::RenderScalaHelper(artifact.plan);
  return artifact;
}

void ApplyBestConfig(Artifact& artifact, const merlin::DesignConfig& config,
                     const hls::EstimatorOptions& options) {
  artifact.best_config = config;
  merlin::TransformResult transformed =
      merlin::ApplyDesign(artifact.generated_kernel, config);
  artifact.best_design = std::move(transformed.kernel);
  artifact.best_hls = hls::EstimateHls(artifact.best_design, options);
  artifact.best_c_source = kir::EmitC(artifact.best_design);
}

}  // namespace

Artifact BuildAccelerator(const jvm::ClassPool& pool,
                          const b2c::KernelSpec& spec,
                          const FrameworkOptions& options) {
  Artifact artifact = CompileFrontEnd(pool, spec);
  tuner::EvalFn evaluate =
      MakeHlsEvaluator(artifact.generated_kernel, options.hls);
  artifact.exploration = dse::RunS2faDse(
      artifact.space, artifact.generated_kernel, evaluate, options.dse);
  if (!artifact.exploration.found_feasible) {
    throw Error("DSE found no feasible design for kernel " +
                artifact.generated_kernel.name);
  }
  ApplyBestConfig(artifact, artifact.exploration.best_config, options.hls);
  S2FA_LOG_INFO("kernel " << artifact.generated_kernel.name << ": best "
                          << artifact.best_hls.exec_us << "us @ "
                          << artifact.best_hls.freq_mhz << "MHz after "
                          << artifact.exploration.evaluations
                          << " evaluations");
  return artifact;
}

Artifact BuildWithConfig(const jvm::ClassPool& pool,
                         const b2c::KernelSpec& spec,
                         const merlin::DesignConfig& config,
                         const hls::EstimatorOptions& options) {
  Artifact artifact = CompileFrontEnd(pool, spec);
  ApplyBestConfig(artifact, config, options);
  if (!artifact.best_hls.feasible) {
    throw Error("design for " + artifact.generated_kernel.name +
                " is infeasible: " + artifact.best_hls.infeasible_reason);
  }
  return artifact;
}

void RegisterWithBlaze(blaze::BlazeRuntime& runtime, const std::string& id,
                       const Artifact& artifact) {
  blaze::RegisteredAccelerator accelerator;
  accelerator.design = artifact.best_design.Clone();
  accelerator.hls = artifact.best_hls;
  accelerator.plan = artifact.plan;
  runtime.manager().Register(id, std::move(accelerator));
}

}  // namespace s2fa
