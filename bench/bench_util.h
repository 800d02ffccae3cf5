// Shared plumbing for the reproduction harness binaries: standard DSE
// settings (the paper's 4-hour / 8-core setup), per-app artifact builders,
// and table/trace rendering.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "apps/app.h"
#include "apps/jvm_baseline.h"
#include "dse/explorer.h"
#include "obs/ledger.h"
#include "s2fa/framework.h"

namespace s2fa::bench {

// The paper's evaluation setup (§5.1-5.2).
struct EvalSetup {
  double time_limit_minutes = 240;  // fixed 4-hour budget
  int num_cores = 8;                // f1.2xlarge host CPU
  std::uint64_t seed = 2018;        // DAC'18 vintage
};

// One app fully prepared for experiments.
struct PreparedApp {
  apps::App app;
  kir::Kernel generated;           // b2c output
  tuner::DesignSpace space;
  tuner::EvalFn evaluate;          // Merlin+HLS black box
  // Manual design (expert config, possibly on a hand-written kernel).
  kir::Kernel manual_design;       // transformed
  hls::HlsResult manual_hls;
};

PreparedApp Prepare(apps::App app);

// Runs the two explorations of Fig. 3 for one app.
struct DseComparison {
  dse::DseResult s2fa;
  dse::DseResult vanilla;
  double normalization_cost = 0;  // vanilla's first feasible (random seed)
};

DseComparison RunComparison(const PreparedApp& prepared,
                            const EvalSetup& setup,
                            dse::StopKind stop = dse::StopKind::kEntropy);

// Same-seed S2FA run under the adaptive vs the FCFS partition scheduler.
// The contract (dse/scheduler.h): with the entropy stop the adaptive
// run's best at the budget is never worse — its FCFS phase is unchanged
// and reclaim grants only add exploration — and with early stopping
// disabled no budget frees, so the two schedules produce bit-identical
// trajectories.
struct SchedulerAblation {
  dse::DseResult adaptive;  // entropy stop, adaptive scheduler
  dse::DseResult fcfs;      // entropy stop, FCFS scheduler
  bool adaptive_not_worse = false;
  bool identical_without_stopping = false;  // kTimeOnly runs bit-identical
};

SchedulerAblation RunSchedulerAblation(const PreparedApp& prepared,
                                       const EvalSetup& setup);

// Same-seed S2FA run with the default four-arm bandit vs the same bandit
// plus the bottleneck-guided arm. The extra arm perturbs the shared RNG
// stream, so not-worse is an empirical gate (checked per app by
// bench_fig3), not a structural guarantee like the scheduler ablation's.
//
// Both rosters routinely land on the same design plateau with best costs
// a few 1e-5 apart (different tie-break points, same QoR): comparisons use
// a relative noise band — losing within the band is a tie, and "strictly
// better" has to clear the band too.
inline constexpr double kQorNoiseBand = 1e-3;

struct TechniqueAblation {
  dse::DseResult baseline;    // default roster
  dse::DseResult bottleneck;  // bandit + bottleneck-guided arm
  bool not_worse = false;       // bottleneck best <= baseline best + band
  bool strictly_better = false;
  // Bandit+bottleneck trajectories bit-identical across exec_threads
  // 1/2/8 (only checked when requested; stays true otherwise).
  bool thread_invariant = true;
};

TechniqueAblation RunTechniqueAblation(const PreparedApp& prepared,
                                       const EvalSetup& setup,
                                       bool check_threads = false);

// Best-so-far cost at simulated `minutes` (normalized when norm > 0).
double CostAt(const std::vector<tuner::TracePoint>& trace, double minutes,
              double norm);

// Accelerator wall time for `records` records under a design, through the
// Blaze offload cost model.
double AcceleratorMicros(const kir::Kernel& design,
                         const hls::HlsResult& hls_result,
                         std::size_t records);

// JVM baseline microseconds for `records` records of the app's workload.
double JvmMicros(const apps::App& app, std::size_t records,
                 std::uint64_t seed);

// Renders an ASCII sparkline-ish trace row sampled at `sample_minutes`.
std::string RenderTraceRow(const std::string& label,
                           const std::vector<tuner::TracePoint>& trace,
                           const std::vector<double>& sample_minutes,
                           double norm);

// Resolves an output-file path for harness artifacts (metrics snapshots,
// trace CSVs): `filename` under the S2FA_BENCH_OUT directory when that is
// set, else under bench_out/ in the working directory. The directory is
// created on first use. Keeps bench runs from scattering artifacts into
// whatever CWD the harness was launched from (which is how stray
// *_metrics.json files ended up committed at the repo root).
std::string OutPath(const std::string& filename);

// Merges `benchmarks` into the perf ledger at the S2FA_PERF_LEDGER
// environment variable's path, or BENCH_micro.json in the working
// directory, stamping git_rev/timestamp from S2FA_GIT_REV /
// S2FA_BENCH_TIMESTAMP. Existing entries under other names survive.
// Returns the path written.
std::string UpdatePerfLedger(
    const std::map<std::string, obs::LedgerEntry>& benchmarks);

// Enables the obs layer for the lifetime of a harness main() and writes
// OutPath("<name>_metrics.json") on destruction — next to the harness's
// other outputs, never bare CWD — so every reproduction figure ships with
// its pipeline metrics snapshot.
class MetricsScope {
 public:
  explicit MetricsScope(std::string name);
  ~MetricsScope();

  MetricsScope(const MetricsScope&) = delete;
  MetricsScope& operator=(const MetricsScope&) = delete;

 private:
  std::string name_;
  bool was_enabled_ = false;
};

}  // namespace s2fa::bench
