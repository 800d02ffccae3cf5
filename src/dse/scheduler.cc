#include "dse/scheduler.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/obs.h"
#include "support/error.h"
#include "support/logging.h"
#include "support/thread_pool.h"

namespace s2fa::dse {

namespace {

// Boundary tolerance for "is there any budget left on this core". Grants
// themselves use exact arithmetic (session clocks chain additively).
constexpr double kSpanEps = 1e-9;

// Rate awarded to an infeasible→feasible transition: large enough to
// outrank any log-cost refinement, finite so tie-breaks stay ordered.
constexpr double kFirstFeasibleRate = 1e9;

double SafeLog(double cost) { return std::log(std::max(cost, 1e-300)); }

}  // namespace

std::optional<SchedulerKind> ParseSchedulerKind(const std::string& text) {
  if (text == "fcfs") return SchedulerKind::kFcfs;
  if (text == "adaptive") return SchedulerKind::kAdaptive;
  return std::nullopt;
}

const char* SchedulerKindName(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kFcfs: return "fcfs";
    case SchedulerKind::kAdaptive: return "adaptive";
  }
  S2FA_UNREACHABLE("bad scheduler kind");
}

double GrantImprovementRate(double best_before, double best_after,
                            double used_minutes) {
  if (!(best_after < best_before)) return 0;
  const double minutes = std::max(used_minutes, 1e-9);
  if (!std::isfinite(best_before)) return kFirstFeasibleRate;
  return (SafeLog(best_before) - SafeLog(best_after)) / minutes;
}

double MainImprovementRate(const tuner::TuneResult& result) {
  const double span = result.elapsed_minutes;
  if (span <= 0) return 0;
  const double mid = span / 2;
  double best_mid = std::numeric_limits<double>::infinity();
  double best_end = std::numeric_limits<double>::infinity();
  for (const tuner::BestUpdate& up : result.improvements) {
    if (up.time_minutes > span) break;
    if (up.time_minutes <= mid) best_mid = up.cost;
    best_end = up.cost;
  }
  return GrantImprovementRate(best_mid, best_end, span - mid);
}

std::optional<double> MapSessionTimeToGlobal(
    const std::vector<ReclaimGrant>& grants, double session_minutes) {
  for (const ReclaimGrant& grant : grants) {
    if (session_minutes > grant.session_start_minutes &&
        session_minutes <= grant.session_start_minutes + grant.used_minutes) {
      return grant.start_minutes +
             (session_minutes - grant.session_start_minutes);
    }
  }
  return std::nullopt;
}

ScheduleResult RunBudgetReclaim(std::vector<ReclaimJob> jobs,
                                std::vector<double> core_free_minutes,
                                double time_limit_minutes,
                                const SchedulerOptions& options,
                                std::size_t threads) {
  S2FA_REQUIRE(options.slice_minutes > 0, "slice must be positive");
  S2FA_SPAN("dse.schedule");
  ScheduleResult result;

  // The ledger: tails of cores that hosted work and freed up early. Cores
  // the FCFS pass never touched stay out — they are idle capacity, not
  // budget released by an early stop, and charging them would make a run
  // with early stopping disabled diverge from FCFS.
  std::vector<bool> usable(core_free_minutes.size(), false);
  for (std::size_t c = 0; c < core_free_minutes.size(); ++c) {
    if (core_free_minutes[c] > kSpanEps &&
        core_free_minutes[c] < time_limit_minutes - kSpanEps) {
      usable[c] = true;
      result.stats.reclaimed_minutes +=
          time_limit_minutes - core_free_minutes[c];
    }
  }

  struct JobState {
    double rate = 0;
    double best_prev = tuner::kInfeasibleCost;
    double last_end_minutes = 0;  // global end of the job's last grant
    bool live = true;
  };
  std::vector<JobState> state(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    S2FA_CHECK(jobs[j].session != nullptr, "reclaim job without a session");
    state[j].rate = jobs[j].initial_rate;
    state[j].best_prev = jobs[j].baseline_best;
    state[j].last_end_minutes = jobs[j].earliest_start_minutes;
    state[j].live = !jobs[j].session->finished();
  }

  struct Planned {
    std::size_t job;
    std::size_t core;
    double start;
    double slice;
    double session_start;
  };

  while (true) {
    // Plan one wave: each live job gets at most one slice, best recent
    // improvement rate first (ties: lowest partition id). Decisions read
    // only simulated state, so the plan is independent of pool size.
    std::vector<std::size_t> order;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      if (state[j].live) order.push_back(j);
    }
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                if (state[a].rate != state[b].rate) {
                  return state[a].rate > state[b].rate;
                }
                return jobs[a].partition < jobs[b].partition;
              });
    std::vector<Planned> wave;
    std::vector<bool> taken(core_free_minutes.size(), false);
    for (std::size_t j : order) {
      std::size_t best_core = core_free_minutes.size();
      double best_start = std::numeric_limits<double>::infinity();
      for (std::size_t c = 0; c < core_free_minutes.size(); ++c) {
        if (!usable[c] || taken[c]) continue;
        // A job's stream is serial in global time: a grant can't start
        // before its previous grant ended, even on another core.
        const double start =
            std::max(core_free_minutes[c], state[j].last_end_minutes);
        if (start >= time_limit_minutes - kSpanEps) continue;
        if (start < best_start) {
          best_start = start;
          best_core = c;
        }
      }
      if (best_core == core_free_minutes.size()) continue;
      taken[best_core] = true;
      wave.push_back({j, best_core, best_start,
                      std::min(options.slice_minutes,
                               time_limit_minutes - best_start),
                      jobs[j].session->clock_minutes()});
    }
    if (wave.empty()) break;

    // Execute the wave concurrently (every entry is a distinct session),
    // the caller running slices alongside the workers.
    std::vector<double> used_minutes(wave.size(), 0.0);
    ForkJoin(wave.size(), threads, [&](std::size_t i) {
      used_minutes[i] = jobs[wave[i].job].session->RunFor(wave[i].slice);
    });

    // Commit in plan order so the grant log and all rate updates are
    // deterministic regardless of completion order.
    for (std::size_t i = 0; i < wave.size(); ++i) {
      const Planned& p = wave[i];
      ReclaimJob& job = jobs[p.job];
      JobState& js = state[p.job];
      const double used = used_minutes[i];

      ReclaimGrant grant;
      grant.partition = job.partition;
      grant.core = static_cast<int>(p.core);
      grant.start_minutes = p.start;
      grant.slice_minutes = p.slice;
      grant.used_minutes = used;
      grant.session_start_minutes = p.session_start;
      grant.finished = job.session->finished();
      grant.preempted = !grant.finished;

      // The gap between the core freeing and the recipient's stream
      // becoming schedulable is budget nobody could use.
      result.stats.idle_minutes += p.start - core_free_minutes[p.core];
      core_free_minutes[p.core] = p.start + used;
      js.last_end_minutes = p.start + used;
      result.stats.regranted_minutes += used;
      result.stats.grants += 1;
      if (grant.preempted) result.stats.preemptions += 1;
      if (grant.finished || used <= kSpanEps) js.live = false;

      const double best_now =
          job.session->has_best()
              ? std::min(job.session->best_cost(), job.baseline_best)
              : job.baseline_best;
      js.rate = GrantImprovementRate(js.best_prev, best_now, used);
      js.best_prev = best_now;

      S2FA_COUNT("dse.sched.grants", 1);
      if (grant.preempted) S2FA_COUNT("dse.sched.preemptions", 1);
      result.stats.exploration_end_minutes =
          std::max(result.stats.exploration_end_minutes,
                   std::min(js.last_end_minutes, time_limit_minutes));
      result.grants.push_back(grant);
    }
  }

  // Whatever the ledger could not place (no live recipient, or streams
  // serialised past the limit) stays idle.
  for (std::size_t c = 0; c < core_free_minutes.size(); ++c) {
    if (usable[c]) {
      result.stats.idle_minutes +=
          std::max(0.0, time_limit_minutes - core_free_minutes[c]);
    }
  }
  S2FA_GAUGE("dse.sched.reclaimed_minutes", result.stats.reclaimed_minutes);
  if (result.stats.grants > 0) {
    S2FA_LOG_DEBUG("budget reclaim: " << result.stats.grants << " grants, "
                                      << result.stats.regranted_minutes
                                      << " of "
                                      << result.stats.reclaimed_minutes
                                      << " reclaimed minutes re-spent");
  }
  return result;
}

}  // namespace s2fa::dse
