#include "bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "b2c/compiler.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "support/strings.h"

namespace s2fa::bench {

PreparedApp Prepare(apps::App app) {
  PreparedApp prepared;
  prepared.generated = b2c::CompileKernel(*app.pool, app.spec);
  prepared.space = tuner::BuildDesignSpace(prepared.generated);
  prepared.evaluate = MakeHlsEvaluator(prepared.generated);

  kir::Kernel manual_base = app.manual_kernel
                                ? app.manual_kernel(prepared.generated)
                                : prepared.generated.Clone();
  merlin::TransformResult t =
      merlin::ApplyDesign(manual_base, app.manual_config);
  prepared.manual_design = std::move(t.kernel);
  prepared.manual_hls = hls::EstimateHls(prepared.manual_design);
  prepared.app = std::move(app);
  return prepared;
}

DseComparison RunComparison(const PreparedApp& prepared,
                            const EvalSetup& setup, dse::StopKind stop) {
  DseComparison cmp;
  dse::ExplorerOptions options;
  options.time_limit_minutes = setup.time_limit_minutes;
  options.num_cores = setup.num_cores;
  options.seed = setup.seed;
  options.stop = stop;
  // The baseline gets the identical evaluation stack so the Fig. 3
  // comparison is tuner-vs-tuner, not stack-vs-stack.
  cmp.vanilla =
      dse::RunVanillaOpenTuner(prepared.space, prepared.evaluate, options);
  cmp.s2fa = dse::RunS2faDse(prepared.space, prepared.generated,
                             prepared.evaluate, options);
  cmp.normalization_cost = cmp.vanilla.trace.empty()
                               ? 1.0
                               : cmp.vanilla.trace.front().best_cost;
  return cmp;
}

namespace {

bool SameTrajectory(const dse::DseResult& a, const dse::DseResult& b) {
  if (a.best_cost != b.best_cost || a.found_feasible != b.found_feasible ||
      a.trace.size() != b.trace.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    if (a.trace[i].time_minutes != b.trace[i].time_minutes ||
        a.trace[i].best_cost != b.trace[i].best_cost) {
      return false;
    }
  }
  return true;
}

}  // namespace

SchedulerAblation RunSchedulerAblation(const PreparedApp& prepared,
                                       const EvalSetup& setup) {
  dse::ExplorerOptions options;
  options.time_limit_minutes = setup.time_limit_minutes;
  options.num_cores = setup.num_cores;
  options.seed = setup.seed;

  SchedulerAblation ablation;
  options.stop = dse::StopKind::kEntropy;
  options.scheduler = dse::SchedulerKind::kAdaptive;
  ablation.adaptive = dse::RunS2faDse(prepared.space, prepared.generated,
                                      prepared.evaluate, options);
  options.scheduler = dse::SchedulerKind::kFcfs;
  ablation.fcfs = dse::RunS2faDse(prepared.space, prepared.generated,
                                  prepared.evaluate, options);
  // (inf <= inf counts as not-worse: neither run found a feasible point.)
  ablation.adaptive_not_worse =
      !(ablation.adaptive.best_cost > ablation.fcfs.best_cost);

  options.stop = dse::StopKind::kTimeOnly;
  options.scheduler = dse::SchedulerKind::kAdaptive;
  dse::DseResult adaptive_full = dse::RunS2faDse(
      prepared.space, prepared.generated, prepared.evaluate, options);
  options.scheduler = dse::SchedulerKind::kFcfs;
  dse::DseResult fcfs_full = dse::RunS2faDse(
      prepared.space, prepared.generated, prepared.evaluate, options);
  ablation.identical_without_stopping =
      SameTrajectory(adaptive_full, fcfs_full) &&
      adaptive_full.evaluations == fcfs_full.evaluations &&
      adaptive_full.schedule.grants == 0;
  return ablation;
}

TechniqueAblation RunTechniqueAblation(const PreparedApp& prepared,
                                       const EvalSetup& setup,
                                       bool check_threads) {
  dse::ExplorerOptions options;
  options.time_limit_minutes = setup.time_limit_minutes;
  options.num_cores = setup.num_cores;
  options.seed = setup.seed;

  TechniqueAblation ablation;
  ablation.baseline = dse::RunS2faDse(prepared.space, prepared.generated,
                                      prepared.evaluate, options);
  options.techniques = {"bandit", "bottleneck"};
  ablation.bottleneck = dse::RunS2faDse(prepared.space, prepared.generated,
                                        prepared.evaluate, options);
  // (inf <= inf counts as not-worse: neither run found a feasible point.)
  ablation.not_worse = !(ablation.bottleneck.best_cost >
                         ablation.baseline.best_cost * (1 + kQorNoiseBand));
  ablation.strictly_better = ablation.bottleneck.best_cost <
                             ablation.baseline.best_cost * (1 - kQorNoiseBand);
  if (check_threads) {
    // exec_threads only changes wall clock, never results — the commit
    // order is the proposal order regardless of which worker finishes
    // first. Pin the bandit+bottleneck roster across 1/2/8 workers.
    for (int threads : {1, 2, 8}) {
      options.exec_threads = threads;
      dse::DseResult rerun = dse::RunS2faDse(
          prepared.space, prepared.generated, prepared.evaluate, options);
      if (!SameTrajectory(rerun, ablation.bottleneck) ||
          rerun.evaluations != ablation.bottleneck.evaluations) {
        ablation.thread_invariant = false;
      }
    }
  }
  return ablation;
}

double CostAt(const std::vector<tuner::TracePoint>& trace, double minutes,
              double norm) {
  double best = std::numeric_limits<double>::infinity();
  for (const auto& tp : trace) {
    if (tp.time_minutes > minutes) break;
    best = tp.best_cost;
  }
  if (norm > 0 && std::isfinite(best)) return best / norm;
  return best;
}

double AcceleratorMicros(const kir::Kernel& design,
                         const hls::HlsResult& hls_result,
                         std::size_t records) {
  blaze::OffloadCostModel model;
  double bytes = 0;
  std::int64_t batch = 1;
  for (const auto& buf : design.buffers) {
    if (buf.kind == kir::BufferKind::kLocal) continue;
    bytes += static_cast<double>(buf.byte_size());
  }
  const kir::Stmt* task = kir::FindLoop(design.body, design.task_loop_id);
  if (task != nullptr) batch = task->trip_count();
  const double invocations =
      std::ceil(static_cast<double>(records) / static_cast<double>(batch));
  const double per_invocation =
      bytes * model.jvm_pack_ns_per_byte / 1000.0 +   // (de)serialization
      bytes / (model.pcie_gbps * 1e3) +               // PCIe
      hls_result.exec_us +                            // accelerator
      model.invoke_overhead_us;                       // driver
  return invocations * per_invocation;
}

double JvmMicros(const apps::App& app, std::size_t records,
                 std::uint64_t seed) {
  // Interpret a sample and scale: workloads are i.i.d. records.
  const std::size_t sample = std::min<std::size_t>(records, 128);
  Rng rng(seed);
  blaze::Dataset input = app.make_input(sample, rng);
  blaze::Dataset broadcast;
  const blaze::Dataset* bc = nullptr;
  if (app.make_broadcast) {
    Rng brng(seed ^ 0xBCA57ULL);
    broadcast = app.make_broadcast(brng);
    bc = &broadcast;
  }
  apps::JvmRunResult run = apps::RunOnJvm(app, input, bc);
  const double scale =
      static_cast<double>(records) / static_cast<double>(sample);
  return run.total_ns * scale / 1000.0;
}

std::string RenderTraceRow(const std::string& label,
                           const std::vector<tuner::TracePoint>& trace,
                           const std::vector<double>& sample_minutes,
                           double norm) {
  std::string row = PadRight(label, 18) + " |";
  for (double m : sample_minutes) {
    double v = CostAt(trace, m, norm);
    row += " " + PadLeft(std::isfinite(v) ? FormatDouble(v, 4) : "--", 9);
  }
  return row;
}

std::string OutPath(const std::string& filename) {
  std::filesystem::path dir = "bench_out";
  if (const char* env = std::getenv("S2FA_BENCH_OUT")) {
    if (*env != '\0') dir = env;
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // best-effort; write errors
                                                 // surface at the caller
  return (dir / filename).string();
}

std::string PerfLedgerPath() {
  if (const char* env = std::getenv("S2FA_PERF_LEDGER")) return env;
  return "BENCH_micro.json";
}

std::string ServingLedgerPath() {
  if (const char* env = std::getenv("S2FA_PERF_LEDGER")) return env;
  return "BENCH_serving.json";
}

std::string UpdatePerfLedger(
    const std::map<std::string, obs::LedgerEntry>& benchmarks,
    const std::string& path) {
  const std::string resolved = path.empty() ? PerfLedgerPath() : path;
  obs::PerfLedger update;
  update.benchmarks = benchmarks;
  obs::MetricsSnapshot snapshot = obs::Registry::Global().Snapshot();
  update.counters = snapshot.counters;
  update.histograms = snapshot.histograms;
  obs::StampLedgerFromEnv(update);
  // A corrupt existing ledger throws (loudly) rather than being clobbered.
  obs::PerfLedger merged = update;
  if (std::optional<obs::PerfLedger> previous =
          obs::TryLoadLedgerFile(resolved)) {
    merged = obs::MergeLedgers(std::move(*previous), update);
  }
  obs::WriteLedgerFile(resolved, merged);
  return resolved;
}

MetricsScope::MetricsScope(std::string name)
    : name_(std::move(name)), was_enabled_(obs::Enabled()) {
  obs::SetEnabled(true);
  obs::Registry::Global().Reset();
  obs::Tracer::Global().Reset();
}

MetricsScope::~MetricsScope() {
  const std::string path = OutPath(name_ + "_metrics.json");
  try {
    obs::WriteSummaryFile(path, obs::CaptureSummary());
    std::fprintf(stderr, "metrics snapshot: %s\n", path.c_str());
  } catch (...) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
  }
  obs::SetEnabled(was_enabled_);
}

}  // namespace s2fa::bench
