// Fig. 3 reproduction: the design space exploration process of S2FA
// (solid) vs vanilla OpenTuner (dashed) for each application.
//
// Per app it prints the best-so-far execution time over simulated
// exploration wall time — normalized to the vanilla tuner's first random
// point, exactly as the paper's y-axis — plus a summary reproducing the
// §5.2 claims: average exploration-time saving, final-QoR ratio, and mean
// termination time (paper: 52.5% time saved, ~35x QoR, S2FA stops at
// ~1.9h vs the fixed 4h). Results are averaged over several RNG seeds
// (the traces shown come from the first seed).
// The technique ablation (the bottleneck-guided bandit arm vs the default
// roster) gates the exit code: per app, the bandit+bottleneck arm set must
// be not-worse than the default set (min over the seeds), strictly better
// on at least two apps, and bit-identical across exec_threads 1/2/8.
//
// Full mode also gates on the scheduler ablation (adaptive vs FCFS).
// Quick mode (S2FA_BENCH_QUICK=1, used by the fig3_smoke ctest) runs two
// of the ten seeds and keeps only the technique-ablation gate, so the
// smoke test finishes in CI time.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>

#include "bench_util.h"
#include "support/strings.h"

using namespace s2fa;
using namespace s2fa::bench;

namespace {

bool QuickMode() {
  const char* env = std::getenv("S2FA_BENCH_QUICK");
  return env != nullptr && env[0] != '\0' && std::string(env) != "0";
}

}  // namespace

int main() {
  MetricsScope metrics("fig3");
  const bool quick = QuickMode();
  // Quick mode keeps the full 240-minute budget and picks two of the full
  // roster's ten seeds, so its technique-gate verdict matches the full
  // run's on the seeds it shares: everything is deterministic, making the
  // smoke a regression pin rather than a noisy subsample.
  const std::vector<std::uint64_t> seeds =
      quick ? std::vector<std::uint64_t>{2018, 2027}
            : std::vector<std::uint64_t>{2018, 2019, 2020, 2021, 2022,
                                         2023, 2024, 2025, 2026, 2027};
  const double budget_minutes = 240;
  // Plot-ready dump of the first-seed traces.
  const std::string csv_path = OutPath("fig3_trace.csv");
  std::ofstream csv(csv_path);
  csv << "app,tuner,minutes,normalized_best\n";
  std::vector<double> samples{10, 30, 60, 90, 120, 150, 180, 210, 240};

  std::printf("=== Fig. 3: DSE process, S2FA vs vanilla OpenTuner ===\n");
  std::printf("normalized best-so-far execution time; x = minutes; "
              "summaries averaged over %zu seeds\n\n",
              seeds.size());
  std::string header = PadRight("trace", 18) + " |";
  for (double m : samples) {
    header += " " + PadLeft(FormatDouble(m, 0) + "m", 9);
  }

  double sum_time_saving = 0;
  double sum_log_qor = 0;
  double sum_s2fa_stop = 0;
  double sum_vanilla_stop = 0;
  double total_reclaimed_minutes = 0;
  int apps_with_reclaim = 0;
  bool all_adaptive_not_worse = true;
  bool all_sched_identical_without_stop = true;
  bool all_bneck_not_worse = true;
  bool all_bneck_thread_invariant = true;
  int apps_bneck_strictly_better = 0;
  int n = 0;

  for (apps::App& app : apps::AllApps()) {
    PreparedApp prepared = Prepare(std::move(app));

    double app_log_qor = 0;
    double app_saving = 0;
    double app_s2fa_stop = 0;
    double app_vanilla_stop = 0;
    std::size_t app_s2fa_evals = 0;
    std::size_t app_vanilla_evals = 0;
    bool first_seed = true;

    for (std::uint64_t seed : seeds) {
      EvalSetup setup;
      setup.seed = seed;
      setup.time_limit_minutes = budget_minutes;
      DseComparison cmp = RunComparison(prepared, setup);

      if (first_seed) {
        std::printf("--- %s (space: 10^%.1f points; seed %llu trace) ---\n",
                    prepared.app.name.c_str(),
                    prepared.space.Log10Cardinality(),
                    static_cast<unsigned long long>(seed));
        std::printf("%s\n", header.c_str());
        std::printf("%s\n",
                    RenderTraceRow("S2FA", cmp.s2fa.trace, samples,
                                   cmp.normalization_cost)
                        .c_str());
        std::printf("%s\n",
                    RenderTraceRow("OpenTuner", cmp.vanilla.trace, samples,
                                   cmp.normalization_cost)
                        .c_str());
        for (const auto& tp : cmp.s2fa.trace) {
          csv << prepared.app.name << ",s2fa," << tp.time_minutes << ","
              << tp.best_cost / cmp.normalization_cost << "\n";
        }
        for (const auto& tp : cmp.vanilla.trace) {
          csv << prepared.app.name << ",opentuner," << tp.time_minutes << ","
              << tp.best_cost / cmp.normalization_cost << "\n";
        }
        first_seed = false;
      }

      const double s2fa_final =
          CostAt(cmp.s2fa.trace, setup.time_limit_minutes, 0);
      const double vanilla_final =
          CostAt(cmp.vanilla.trace, setup.time_limit_minutes, 0);
      app_log_qor += std::log(std::max(vanilla_final / s2fa_final, 1e-6));
      app_saving += 1.0 - cmp.s2fa.elapsed_minutes /
                              cmp.vanilla.elapsed_minutes;
      app_s2fa_stop += cmp.s2fa.elapsed_minutes;
      app_vanilla_stop += cmp.vanilla.elapsed_minutes;
      app_s2fa_evals += cmp.s2fa.evaluations;
      app_vanilla_evals += cmp.vanilla.evaluations;
    }

    const double k = static_cast<double>(seeds.size());
    std::printf(
        "mean over seeds: S2FA stops %.0f min (%.0f evals), OpenTuner "
        "%.0f min (%.0f evals); QoR ratio %.2fx; time saved %.1f%%\n",
        app_s2fa_stop / k, static_cast<double>(app_s2fa_evals) / k,
        app_vanilla_stop / k, static_cast<double>(app_vanilla_evals) / k,
        std::exp(app_log_qor / k), 100.0 * app_saving / k);

    // Technique ablation: the bottleneck-guided arm joins the bandit and
    // must pay its way. Per app the gate compares the best either arm set
    // reached over the seeds (min-over-seeds smooths the RNG-stream
    // perturbation the extra arm causes); thread invariance is checked on
    // the first seed only — one bit-identity certificate per app.
    double bneck_base_best = std::numeric_limits<double>::infinity();
    double bneck_guided_best = std::numeric_limits<double>::infinity();
    bool bneck_thread_invariant = true;
    for (std::size_t si = 0; si < seeds.size(); ++si) {
      EvalSetup setup;
      setup.seed = seeds[si];
      setup.time_limit_minutes = budget_minutes;
      TechniqueAblation tech =
          RunTechniqueAblation(prepared, setup, /*check_threads=*/si == 0);
      bneck_base_best = std::min(bneck_base_best, tech.baseline.best_cost);
      bneck_guided_best =
          std::min(bneck_guided_best, tech.bottleneck.best_cost);
      bneck_thread_invariant &= tech.thread_invariant;
      if (std::getenv("S2FA_BENCH_PER_SEED") != nullptr) {
        std::printf("    seed %llu: %.10g us (bandit) vs %.10g us (+bneck)\n",
                    static_cast<unsigned long long>(seeds[si]),
                    tech.baseline.best_cost, tech.bottleneck.best_cost);
      }
    }
    // Min-over-seeds with the kQorNoiseBand tie band: both rosters settle
    // on the same plateau on several apps and differ only in which
    // tie-break point they report, a few 1e-5 of cost apart.
    const bool bneck_not_worse =
        !(bneck_guided_best > bneck_base_best * (1 + kQorNoiseBand));
    const bool bneck_strictly =
        bneck_guided_best < bneck_base_best * (1 - kQorNoiseBand);
    std::printf(
        "technique ablation: best over seeds %.4g us (bandit) vs %.4g us "
        "(bandit+bottleneck) — %s; exec-thread trajectories %s\n",
        bneck_base_best, bneck_guided_best,
        bneck_strictly ? "strictly better"
                       : (bneck_not_worse ? "not worse" : "WORSE (gate!)"),
        bneck_thread_invariant ? "identical" : "DIVERGED (bug!)");
    all_bneck_not_worse &= bneck_not_worse;
    all_bneck_thread_invariant &= bneck_thread_invariant;
    if (bneck_strictly) ++apps_bneck_strictly_better;

    // The scheduler ablation (four extra full DSE runs) and its exit-code
    // gate are full-mode only, so the smoke test stays inside CI time.
    if (!quick) {
      // Scheduler ablation on the first seed: with the entropy stop the
      // adaptive scheduler reinvests freed budget and must never end up
      // worse; with stopping disabled it must match FCFS bit-for-bit.
      EvalSetup ablation_setup;
      ablation_setup.seed = seeds.front();
      ablation_setup.time_limit_minutes = budget_minutes;
      SchedulerAblation sched = RunSchedulerAblation(prepared, ablation_setup);
      std::printf(
          "scheduler ablation (seed %llu): best@%.0fm adaptive %.4g us vs "
          "fcfs %.4g us (%s), %.0f min reclaimed / %.0f re-granted in %zu "
          "slices (%zu preemptions, %zu extra evals); no-early-stop "
          "trajectories %s\n",
          static_cast<unsigned long long>(seeds.front()),
          ablation_setup.time_limit_minutes, sched.adaptive.best_cost,
          sched.fcfs.best_cost,
          sched.adaptive_not_worse ? "not worse" : "WORSE (bug!)",
          sched.adaptive.schedule.reclaimed_minutes,
          sched.adaptive.schedule.regranted_minutes,
          sched.adaptive.schedule.grants, sched.adaptive.schedule.preemptions,
          sched.adaptive.schedule.reclaim_evaluations,
          sched.identical_without_stopping ? "identical" : "DIVERGED (bug!)");
      total_reclaimed_minutes += sched.adaptive.schedule.reclaimed_minutes;
      if (sched.adaptive.schedule.reclaimed_minutes > 0) ++apps_with_reclaim;
      all_adaptive_not_worse &= sched.adaptive_not_worse;
      all_sched_identical_without_stop &= sched.identical_without_stopping;
    }
    std::printf("\n");

    sum_time_saving += app_saving / k;
    sum_log_qor += app_log_qor / k;
    sum_s2fa_stop += app_s2fa_stop / k;
    sum_vanilla_stop += app_vanilla_stop / k;
    ++n;
  }

  std::printf("=== Summary (paper: 52.5%% avg time saved, ~35x QoR, stop "
              "~1.9h vs 4h) ===\n");
  std::printf("average exploration-time saving: %.1f%%\n",
              100.0 * sum_time_saving / n);
  std::printf("geomean QoR improvement over OpenTuner: %.1fx\n",
              std::exp(sum_log_qor / n));
  std::printf("mean termination: S2FA %.2f h, OpenTuner %.2f h\n",
              sum_s2fa_stop / n / 60.0, sum_vanilla_stop / n / 60.0);
  if (!quick) {
    std::printf("adaptive scheduler: %s vs fcfs on every app; %.0f min of "
                "early-stop budget reclaimed across apps (%d of %d apps "
                "reclaimed > 0); no-early-stop trajectories %s\n",
                all_adaptive_not_worse ? "never worse"
                                       : "WORSE somewhere (bug!)",
                total_reclaimed_minutes, apps_with_reclaim, n,
                all_sched_identical_without_stop ? "identical everywhere"
                                                 : "DIVERGED (bug!)");
  }
  std::printf("bottleneck arm: %s on every app, strictly better on %d of "
              "%d; exec-thread trajectories %s\n",
              all_bneck_not_worse ? "not worse" : "WORSE somewhere (gate!)",
              apps_bneck_strictly_better, n,
              all_bneck_thread_invariant ? "identical everywhere"
                                         : "DIVERGED (bug!)");
  std::printf("(first-seed traces written to %s)\n", csv_path.c_str());
  const bool technique_ok = all_bneck_not_worse &&
                            apps_bneck_strictly_better >= 2 &&
                            all_bneck_thread_invariant;
  if (quick) return technique_ok ? 0 : 1;
  const bool scheduler_ok = all_adaptive_not_worse &&
                            all_sched_identical_without_stop &&
                            apps_with_reclaim > 0;
  return (scheduler_ok && technique_ok) ? 0 : 1;
}
