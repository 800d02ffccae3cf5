#include "blaze/cluster.h"

#include <algorithm>
#include <limits>

#include "blaze/internal.h"
#include "obs/obs.h"
#include "resilience/fault.h"
#include "support/error.h"
#include "support/logging.h"
#include "support/thread_pool.h"

namespace s2fa::blaze {

namespace {

using detail::QuantileNearestRank;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kNoShard = ClusterRequestOutcome::kNoShard;
// Failovers per request before the host path finishes it.
constexpr int kMaxRedirects = 2;
// Tenants first seen on a request join with this weight and no quota.
constexpr double kDefaultTenantWeight = 1.0;
constexpr std::size_t kNone = static_cast<std::size_t>(-1);

// Fixed health policy (ClusterOptions documents each where it applies).
constexpr int kQuarantineConsecutive = 3;       // failures in a row
constexpr std::size_t kHealthMinSamples = 4;    // capped at health_window
constexpr double kDegradeThreshold = 0.30;      // window failure rate
constexpr double kQuarantineThreshold = 0.60;   // window failure rate
constexpr double kLatencyDegradeFactor = 2.5;   // mean vs cost-model latency
constexpr double kProbeBackoffMultiplier = 2.0;
constexpr double kTimeoutDetectMultiplier = 4.0;  // x expected latency

// Min-heap order on (time, seq) for the event and health-sample heaps.
constexpr auto kLater = [](const auto& a, const auto& b) {
  if (a.time_us != b.time_us) return a.time_us > b.time_us;
  return a.seq > b.seq;
};

// Invocations a request of `records` records needs at `batch` per call.
std::size_t Invocations(std::size_t records, std::size_t batch) {
  return std::max<std::size_t>(1, (records + batch - 1) / batch);
}

// Whether a failed attempt manifests as kCrash or kTimeout. Stateless, like
// the fault plans: the same dispatch always manifests the same way
// regardless of thread count or drain batching.
resilience::FailureKind ClassifyFailure(std::uint64_t seed,
                                        const std::string& accel_id,
                                        std::size_t invocation, int attempt) {
  const double roll = resilience::detail::HashRoll(
      seed ^ 0x5E61CEULL, accel_id + "#" + std::to_string(invocation),
      attempt);
  return roll < 0.5 ? resilience::FailureKind::kCrash
                    : resilience::FailureKind::kTimeout;
}

}  // namespace

const char* HealthName(AcceleratorHealth health) {
  switch (health) {
    case AcceleratorHealth::kHealthy: return "healthy";
    case AcceleratorHealth::kDegraded: return "degraded";
    case AcceleratorHealth::kQuarantined: return "quarantined";
  }
  S2FA_UNREACHABLE("bad health state");
}

const char* ClusterServeName(ClusterServe outcome) {
  switch (outcome) {
    case ClusterServe::kRejectedFull: return "rejected-full";
    case ClusterServe::kTenantThrottled: return "tenant-throttled";
    case ClusterServe::kAccelerator: return "accelerator";
    case ClusterServe::kHost: return "host";
    case ClusterServe::kHedgedHost: return "hedged-host";
  }
  S2FA_UNREACHABLE("bad cluster outcome");
}

double TenantStats::LatencyQuantile(double q) const {
  S2FA_REQUIRE(q >= 0 && q <= 1.0, "quantile must be in [0, 1]");
  return QuantileNearestRank(latencies_us, q);
}

double ClusterStats::LatencyQuantile(double q) const {
  S2FA_REQUIRE(q >= 0 && q <= 1.0, "quantile must be in [0, 1]");
  return QuantileNearestRank(latencies_us, q);
}

// -------------------------------------------------------- drain structures

struct BlazeCluster::LifecycleEvent {
  double time_us = 0;
  bool kill = false;
  std::size_t shard = 0;
};

struct BlazeCluster::Slot {
  ClusterRequest request;
  std::size_t id = 0;
  double arrival_us = 0;
  double enqueue_us = 0;
  bool synthetic = false;  // chaos-flood request: served, not returned
  bool poisoned = false;
  int redirects = 0;
  std::size_t unit = kNone;  // exec unit that committed it (kNone: alone)
  bool queued = false;
  bool committed = false;
  bool hedged = false;
  ClusterServe outcome = ClusterServe::kRejectedFull;
  std::size_t shard = kNoShard;
  std::string replica;
  std::size_t batch_size = 1;
  double dispatch_us = 0;
  double complete_us = 0;
  Dataset output;
};

struct BlazeCluster::CommitRec {
  std::size_t slot = 0;
  ClusterServe outcome = ClusterServe::kHost;
  std::size_t shard = kNoShard;
  std::string replica;
  std::size_t batch_size = 1;
  double dispatch_us = 0;
  std::size_t unit = kNone;
};

struct BlazeCluster::RequeueRec {
  std::vector<std::size_t> slots;
};

struct BlazeCluster::Event {
  double time_us = 0;
  std::size_t seq = 0;
  enum Kind {
    kLifecycle,
    kArrival,
    kRequeue,
    kCommit,
    kHedgeStart,
    kHedgeDone,
    kShardFree,
    kBatchTimer,
  } kind = kArrival;
  std::size_t index = 0;
};

struct BlazeCluster::HealthSample {
  double time_us = 0;
  std::size_t seq = 0;  // tie-break: creation order
  std::size_t replica = 0;
  bool failed = false;
  resilience::FailureKind kind = resilience::FailureKind::kNone;
  double latency_per_invocation_us = 0;
  bool is_probe = false;
};

// ----------------------------------------------------------------- cluster

BlazeCluster::BlazeCluster(BlazeRuntime& runtime, ClusterOptions options)
    : runtime_(runtime), options_(options) {
  S2FA_REQUIRE(options_.queue_capacity > 0, "queue capacity must be >= 1");
  S2FA_REQUIRE(options_.batch_max_requests > 0, "batch size must be >= 1");
  S2FA_REQUIRE(options_.exec_threads >= 1, "exec_threads must be >= 1");
  S2FA_REQUIRE(options_.health_window >= 2,
               "health window must hold at least 2 samples");
}

BlazeCluster::~BlazeCluster() = default;
BlazeCluster::BlazeCluster(BlazeCluster&&) noexcept = default;

BlazeCluster::Replica BlazeCluster::MakeReplica(
    const std::string& kernel, const std::string& accel_id) const {
  const RegisteredAccelerator& accel = runtime_.manager().Get(accel_id);
  S2FA_REQUIRE(accel.plan.batch > 0, "bad serialization plan");
  Replica replica;
  replica.kernel = kernel;
  replica.accel_id = accel_id;
  replica.per_invocation = runtime_.PerInvocationCost(accel_id);
  replica.batch = static_cast<std::size_t>(accel.plan.batch);
  replica.host_us_per_invocation =
      replica.per_invocation.compute_us * runtime_.cost_model().host_slowdown;
  replica.probe_backoff_us = options_.probe_backoff_us;
  return replica;
}

std::size_t BlazeCluster::AddShard() {
  const std::size_t index = shards_.size();
  shards_.emplace_back();
  shards_.back().injector = MakeShardFaultInjector(plan_, index);
  // Distinct failure-classification streams per fault domain.
  shards_.back().seed = options_.seed + 0x9E37 * (index + 1);
  stats_.shards.emplace_back();
  dead_windows_.emplace_back();
  return index;
}

void BlazeCluster::AddReplica(std::size_t shard, const std::string& kernel,
                              const std::string& accel_id) {
  S2FA_REQUIRE(shard < shards_.size(), "no such shard: " << shard);
  S2FA_REQUIRE(!kernel.empty(), "kernel id must be non-empty");
  S2FA_REQUIRE(replica_ids_.insert(accel_id).second,
               "replica " << accel_id << " already enlisted on a shard");
  const RegisteredAccelerator& accel = runtime_.manager().Get(accel_id);
  if (kernels_.count(kernel) == 0) {
    const ExecutionStats per = runtime_.PerInvocationCost(accel_id);
    KernelInfo info;
    info.exec_accel = accel_id;
    info.pattern = accel.design.pattern;
    info.batch = static_cast<std::size_t>(accel.plan.batch);
    info.accel_us_per_invocation = per.total_us;
    info.detect_us_per_invocation =
        per.serialize_us + per.transfer_us + per.overhead_us;
    info.host_us_per_invocation =
        per.compute_us * runtime_.cost_model().host_slowdown;
    kernels_[kernel] = std::move(info);
  }
  shards_[shard].replicas.push_back(MakeReplica(kernel, accel_id));
}

void BlazeCluster::AddTenant(const std::string& name, double weight,
                             std::size_t quota) {
  S2FA_REQUIRE(!name.empty(), "tenant name must be non-empty");
  S2FA_REQUIRE(weight > 0, "tenant weight must be > 0");
  S2FA_REQUIRE(tenants_.count(name) == 0,
               "tenant " << name << " already registered");
  Tenant tenant;
  tenant.name = name;
  tenant.weight = weight;
  tenant.quota = quota;
  tenant.pass_us = stride_vtime_;
  tenants_[name] = std::move(tenant);
  TenantStats& ts = stats_.tenants[name];
  ts.weight = weight;
  ts.quota = quota;
}

BlazeCluster::Tenant& BlazeCluster::TenantFor(const std::string& name) {
  auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    AddTenant(name, kDefaultTenantWeight, /*quota=*/0);
    it = tenants_.find(name);
  }
  return it->second;
}

const BlazeCluster::KernelInfo& BlazeCluster::KernelFor(
    const std::string& kernel) const {
  auto it = kernels_.find(kernel);
  S2FA_REQUIRE(it != kernels_.end(),
               "no replicas enlisted for kernel " << kernel);
  return it->second;
}

double BlazeCluster::HostUs(const KernelInfo& info,
                            std::size_t records) const {
  return static_cast<double>(Invocations(records, info.batch)) *
         info.host_us_per_invocation;
}

double BlazeCluster::DetectUs(const KernelInfo& info,
                              std::size_t records) const {
  return static_cast<double>(Invocations(records, info.batch)) *
         info.detect_us_per_invocation;
}

void BlazeCluster::SetChaosPlan(ChaosPlan plan) {
  // ChaosPlan is a public struct: re-validate instead of trusting that it
  // came from ParseChaosPlan (the dead-window pairing below relies on the
  // per-shard kill/restart alternation this enforces).
  ValidateChaosPlan(plan);
  for (const ChaosKill& kill : plan.kills) {
    S2FA_REQUIRE(kill.shard < shards_.size(),
                 "chaos plan kills unknown shard " << kill.shard);
  }
  for (const ChaosRestart& restart : plan.restarts) {
    S2FA_REQUIRE(restart.shard < shards_.size(),
                 "chaos plan restarts unknown shard " << restart.shard);
  }
  for (const ChaosBurst& burst : plan.bursts) {
    S2FA_REQUIRE(!burst.shard || *burst.shard < shards_.size(),
                 "chaos plan bursts unknown shard " << *burst.shard);
  }
  for (const ChaosFlood& flood : plan.floods) {
    S2FA_REQUIRE(tenants_.count(flood.tenant) != 0,
                 "chaos plan floods unknown tenant '"
                     << flood.tenant << "' (AddTenant it first)");
  }
  plan_ = std::move(plan);

  // Per-shard dead windows [kill, restart-or-inf), and the merged
  // lifecycle timeline that drives kills and restarts.
  dead_windows_.assign(shards_.size(), {});
  lifecycle_.clear();
  lifecycle_done_ = 0;
  std::vector<std::vector<std::pair<double, bool>>> per_shard(shards_.size());
  for (const ChaosKill& kill : plan_.kills) {
    per_shard[kill.shard].emplace_back(kill.at_us, true);
    lifecycle_.push_back({kill.at_us, true, kill.shard});
  }
  for (const ChaosRestart& restart : plan_.restarts) {
    per_shard[restart.shard].emplace_back(restart.at_us, false);
    lifecycle_.push_back({restart.at_us, false, restart.shard});
  }
  for (std::size_t s = 0; s < per_shard.size(); ++s) {
    auto& timeline = per_shard[s];
    std::sort(timeline.begin(), timeline.end());
    // ValidateChaosPlan enforced alternation: kill, restart, kill, ...
    for (std::size_t i = 0; i < timeline.size(); i += 2) {
      const double kill_at = timeline[i].first;
      const double restart_at =
          i + 1 < timeline.size() ? timeline[i + 1].first : kInf;
      dead_windows_[s].emplace_back(kill_at, restart_at);
    }
  }
  std::sort(lifecycle_.begin(), lifecycle_.end(),
            [](const LifecycleEvent& a, const LifecycleEvent& b) {
              if (a.time_us != b.time_us) return a.time_us < b.time_us;
              if (a.shard != b.shard) return a.shard < b.shard;
              return a.kill < b.kill;  // restart before kill at a tie
            });

  floods_pending_.clear();
  std::size_t ordinal = 0;
  for (std::size_t f = 0; f < plan_.floods.size(); ++f) {
    const ChaosFlood& flood = plan_.floods[f];
    for (std::size_t i = 0; i < flood.requests; ++i) {
      const double at =
          flood.start_us + flood.duration_us * static_cast<double>(i) /
                               static_cast<double>(flood.requests);
      floods_pending_.push_back({at, ordinal++, f});
    }
  }
  std::stable_sort(floods_pending_.begin(), floods_pending_.end(),
                   [](const PendingFlood& a, const PendingFlood& b) {
                     return a.at_us < b.at_us;
                   });

  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s].injector = MakeShardFaultInjector(plan_, s);
  }
}

void BlazeCluster::SetFloodGenerator(
    std::function<ClusterRequest(std::size_t)> generator) {
  flood_generator_ = std::move(generator);
}

bool BlazeCluster::ShardAliveAt(std::size_t shard, double t_us) const {
  S2FA_REQUIRE(shard < shards_.size(), "no such shard: " << shard);
  for (const auto& [kill_at, restart_at] : dead_windows_[shard]) {
    if (t_us >= kill_at && t_us < restart_at) return false;
  }
  return true;
}

double BlazeCluster::NextKillAfter(std::size_t shard, double t_us) const {
  for (const auto& [kill_at, restart_at] : dead_windows_[shard]) {
    (void)restart_at;
    if (kill_at > t_us) return kill_at;
  }
  return kInf;
}

double BlazeCluster::AccelUsFor(const std::string& kernel,
                                std::size_t records) const {
  const KernelInfo& info = KernelFor(kernel);
  return static_cast<double>(Invocations(records, info.batch)) *
         info.accel_us_per_invocation;
}

double BlazeCluster::HostUsFor(const std::string& kernel,
                               std::size_t records) const {
  return HostUs(KernelFor(kernel), records);
}

bool BlazeCluster::IsReduceKernel(const std::string& kernel) const {
  return KernelFor(kernel).pattern == kir::ParallelPattern::kReduce;
}

const std::string& BlazeCluster::ExecAccelFor(
    const std::string& kernel) const {
  return KernelFor(kernel).exec_accel;
}

std::size_t BlazeCluster::LiveLanesAt(double t_us) const {
  std::size_t lanes = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (ShardAliveAt(s, t_us)) lanes += shards_[s].replicas.size();
  }
  return lanes;
}

AcceleratorHealth BlazeCluster::ReplicaHealth(
    const std::string& accel_id) const {
  const Replica* found = nullptr;
  for (const Shard& shard : shards_) {
    for (const Replica& replica : shard.replicas) {
      if (replica.accel_id == accel_id) found = &replica;
    }
  }
  S2FA_REQUIRE(found != nullptr, "no replica enlisted as " << accel_id);
  return found->health;
}

void BlazeCluster::Submit(ClusterRequest request) {
  S2FA_REQUIRE(kernels_.count(request.kernel) != 0,
               "no replicas enlisted for kernel " << request.kernel);
  S2FA_REQUIRE(!request.tenant.empty(), "tenant name must be non-empty");
  backlog_.push_back(std::move(request));
}

std::vector<ClusterRequestOutcome> BlazeCluster::Run(
    std::vector<ClusterRequest> requests) {
  for (auto& request : requests) Submit(std::move(request));
  return Drain();
}

// ---------------------------------------------------------- replica health

bool BlazeCluster::ApplyHealthSample(ShardStats& stats, Replica& replica,
                                     const HealthSample& sample) const {
  const double t = sample.time_us;
  auto count_failure = [&] {
    ++stats.accel_failures;
    if (sample.kind == resilience::FailureKind::kCrash) ++stats.crashes;
    if (sample.kind == resilience::FailureKind::kTimeout) ++stats.timeouts;
    S2FA_COUNT("blaze.cluster.accel_failures", 1);
  };
  if (sample.is_probe) {
    replica.probe_inflight = false;
    if (sample.failed) {
      ++stats.probe_failures;
      count_failure();
      replica.probe_backoff_us =
          std::min(replica.probe_backoff_us * kProbeBackoffMultiplier,
                   options_.probe_backoff_max_us);
      replica.probe_eligible_us = t + replica.probe_backoff_us;
      S2FA_LOG_INFO("cluster: probe of " << replica.accel_id
                                         << " failed; next eligible at "
                                         << replica.probe_eligible_us
                                         << " us");
    } else {
      ++stats.probe_successes;
      ++stats.reenlistments;
      S2FA_COUNT("blaze.cluster.reenlistments", 1);
      replica.health = AcceleratorHealth::kDegraded;
      replica.window_failed.assign(1, false);
      replica.window_latency_us.assign(1, sample.latency_per_invocation_us);
      replica.consecutive_failures = 0;
      replica.probe_backoff_us = options_.probe_backoff_us;
      S2FA_LOG_INFO("cluster: probe re-enlisted " << replica.accel_id);
    }
    return false;
  }
  // A sample from before the replica was quarantined is stale: the
  // quarantine decision already absorbed that evidence window.
  if (replica.health == AcceleratorHealth::kQuarantined) return false;

  replica.window_failed.push_back(sample.failed);
  replica.window_latency_us.push_back(sample.latency_per_invocation_us);
  while (replica.window_failed.size() > options_.health_window) {
    replica.window_failed.pop_front();
    replica.window_latency_us.pop_front();
  }
  replica.consecutive_failures =
      sample.failed ? replica.consecutive_failures + 1 : 0;
  if (sample.failed) count_failure();

  const std::size_t size = replica.window_failed.size();
  const auto failures = static_cast<std::size_t>(std::count(
      replica.window_failed.begin(), replica.window_failed.end(), true));
  const double rate =
      static_cast<double>(failures) / static_cast<double>(size);
  const bool enough =
      size >= std::min(kHealthMinSamples, options_.health_window);
  double mean_latency = 0;
  for (double latency : replica.window_latency_us) mean_latency += latency;
  mean_latency /= static_cast<double>(size);
  const bool slow =
      enough &&
      mean_latency > kLatencyDegradeFactor * replica.per_invocation.total_us;

  if (replica.consecutive_failures >= kQuarantineConsecutive ||
      (enough && rate >= kQuarantineThreshold)) {
    replica.health = AcceleratorHealth::kQuarantined;
    replica.window_failed.clear();
    replica.window_latency_us.clear();
    replica.consecutive_failures = 0;
    replica.probe_backoff_us = options_.probe_backoff_us;
    replica.probe_eligible_us = t + replica.probe_backoff_us;
    ++stats.quarantines;
    S2FA_COUNT("blaze.cluster.quarantines", 1);
    S2FA_LOG_WARN("cluster: quarantined " << replica.accel_id
                                          << " (window failure rate " << rate
                                          << ")");
    return true;
  }
  if (enough && (rate >= kDegradeThreshold || slow)) {
    if (replica.health == AcceleratorHealth::kHealthy) {
      replica.health = AcceleratorHealth::kDegraded;
      ++stats.degradations;
      S2FA_COUNT("blaze.cluster.degradations", 1);
      S2FA_LOG_INFO("cluster: degraded " << replica.accel_id);
    }
  } else if (replica.health == AcceleratorHealth::kDegraded && enough &&
             rate <= kDegradeThreshold / 2 && !slow) {
    replica.health = AcceleratorHealth::kHealthy;
    S2FA_LOG_INFO("cluster: " << replica.accel_id << " recovered to healthy");
  }
  return false;
}

std::vector<BlazeCluster::NodePlan> BlazeCluster::PlanNodes(
    std::size_t s, const std::string& kernel,
    const std::vector<std::pair<double, std::size_t>>& nodes) {
  Shard& shard = shards_[s];
  ShardStats& stats = stats_.shards[s];
  std::vector<NodePlan> plans(nodes.size());

  // The planner wakes at node arrivals (`node` set; bisect arrivals never
  // decrease, so the FIFO below is arrival order), freed lanes and probe
  // eligibility; every wake advances the shard clock.
  struct Wake {
    double time_us = 0;
    std::size_t seq = 0;
    std::size_t node = kNone;
  };
  std::vector<Wake> wakes;
  std::size_t wake_seq = 0;
  auto wake_at = [&](double t, std::size_t node) {
    wakes.push_back({t, wake_seq++, node});
    std::push_heap(wakes.begin(), wakes.end(), kLater);
  };
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    wake_at(std::max(nodes[i].first, shard.clock_us), i);
  }

  // Health samples wait in a min-heap until the simulated time they are
  // observed at; a batch's remaining samples are absorbed when it is done.
  // A quarantine raised while the batch is planned wakes the planner at
  // the replica's probe eligibility even when no node waits, so the shard
  // clock (the backlog depth routing reads) jumps there. A known quirk,
  // kept so routing stays as it was: see the FOUND note on the probe
  // timers in CHANGES.md.
  auto probe_due_advances_clock = [&](const Replica& replica) {
    wake_at(replica.probe_eligible_us, kNone);
  };
  std::vector<HealthSample> samples;
  std::size_t sample_seq = 0;
  auto apply_samples_to = [&](double t, bool wake_probes) {
    while (!samples.empty() && samples.front().time_us <= t) {
      std::pop_heap(samples.begin(), samples.end(), kLater);
      const HealthSample sample = samples.back();
      samples.pop_back();
      Replica& replica = shard.replicas[sample.replica];
      if (ApplyHealthSample(stats, replica, sample) && wake_probes) {
        probe_due_advances_clock(replica);
      }
    }
  };

  // Replica selection: free healthy replicas first (registration order is
  // the tie-break), then a probe of an eligible quarantined replica, then
  // free degraded ones. Probing before the degraded spill lets a
  // quarantined replica rejoin while a re-enlisted sibling serves: a shard
  // plans one batch at a time, so waiting for every live lane to be busy
  // would never probe. `any_live` tells waiting for a lane from a dark
  // group, which serves host-direct.
  struct Choice {
    std::size_t replica = kNone;
    bool probe = false;
    bool any_live = false;
  };
  auto select = [&](double t) {
    Choice choice;
    auto first_free = [&](AcceleratorHealth want) {
      for (std::size_t r = 0; r < shard.replicas.size(); ++r) {
        const Replica& replica = shard.replicas[r];
        if (replica.kernel != kernel || replica.health != want) continue;
        choice.any_live = true;
        if (replica.free_us > t) continue;
        choice.replica = r;
        return true;
      }
      return false;
    };
    if (first_free(AcceleratorHealth::kHealthy)) return choice;
    for (std::size_t r = 0; r < shard.replicas.size(); ++r) {
      const Replica& replica = shard.replicas[r];
      if (replica.kernel != kernel ||
          replica.health != AcceleratorHealth::kQuarantined ||
          replica.free_us > t || replica.probe_inflight ||
          replica.probe_eligible_us > t) {
        continue;
      }
      choice.replica = r;
      choice.probe = true;
      return choice;
    }
    first_free(AcceleratorHealth::kDegraded);
    return choice;
  };

  // One dispatch of node `i` on replica `r` at `t`: a probe gets one
  // attempt, a regular dispatch retries once, then falls back to the host
  // (SparkCL's degradation policy). The lane frees when the accelerator
  // succeeds or when the host takes over.
  auto dispatch = [&](std::size_t i, std::size_t r, double t, bool probe) {
    Replica& replica = shard.replicas[r];
    const ExecutionStats& per = replica.per_invocation;
    const double scale =
        static_cast<double>(Invocations(nodes[i].second, replica.batch));
    const double accel_us = scale * per.total_us;
    const double crash_detect_us =
        scale * (per.serialize_us + per.transfer_us + per.overhead_us);
    const std::size_t invocation = replica.invocations++;
    NodePlan& plan = plans[i];
    plan.replica = replica.accel_id;
    plan.exec_accel = replica.accel_id;
    plan.dispatch_us = t;
    double cursor = t;
    int attempts = 0;
    while (!plan.accel && attempts < (probe ? 1 : 2)) {
      HealthSample sample;
      sample.failed = shard.injector &&
                      shard.injector(replica.accel_id, invocation, attempts);
      double cost = accel_us;
      if (sample.failed) {
        sample.kind =
            ClassifyFailure(shard.seed, replica.accel_id, invocation, attempts);
        cost = sample.kind == resilience::FailureKind::kCrash
                   ? crash_detect_us
                   : kTimeoutDetectMultiplier * accel_us;
      }
      plan.accel = !sample.failed;
      cursor += cost;
      sample.time_us = cursor;
      sample.seq = sample_seq++;
      sample.replica = r;
      sample.latency_per_invocation_us = cost / scale;
      sample.is_probe = probe;
      samples.push_back(sample);
      std::push_heap(samples.begin(), samples.end(), kLater);
      ++attempts;
    }
    replica.free_us = cursor;
    plan.complete_us =
        plan.accel ? cursor : cursor + scale * replica.host_us_per_invocation;
    if (attempts == 2) {
      ++stats.retries;
      S2FA_COUNT("blaze.cluster.retries", 1);
    }
    if (probe) {
      ++stats.probes;
      S2FA_COUNT("blaze.cluster.probes", 1);
      replica.probe_inflight = true;
    }
    wake_at(replica.free_us, kNone);
  };

  // Every replica of the kernel quarantined, no probe due: the node runs
  // on the host, costed and executed as the group's first replica.
  auto host_direct = [&](std::size_t i, double t) {
    const Replica* basis = nullptr;
    for (const Replica& replica : shard.replicas) {
      if (replica.kernel == kernel && basis == nullptr) basis = &replica;
    }
    NodePlan& plan = plans[i];
    plan.exec_accel = basis->accel_id;
    plan.dispatch_us = t;
    plan.complete_us =
        t + static_cast<double>(Invocations(nodes[i].second, basis->batch)) *
                basis->host_us_per_invocation;
  };

  std::deque<std::size_t> waiting;
  while (!wakes.empty()) {
    std::pop_heap(wakes.begin(), wakes.end(), kLater);
    const Wake wake = wakes.back();
    wakes.pop_back();
    const double t = wake.time_us;
    shard.clock_us = std::max(shard.clock_us, t);
    if (wake.node != kNone) waiting.push_back(wake.node);
    while (true) {
      apply_samples_to(t, /*wake_probes=*/true);
      if (waiting.empty()) break;
      const Choice choice = select(t);
      if (choice.replica == kNone && choice.any_live) break;  // wait
      if (choice.replica == kNone) {
        host_direct(waiting.front(), t);
      } else {
        dispatch(waiting.front(), choice.replica, t, choice.probe);
      }
      waiting.pop_front();
    }
  }
  S2FA_CHECK(waiting.empty(), "shard planning left nodes waiting");
  // No traffic is left to probe with: pending probe eligibility expires.
  apply_samples_to(kInf, /*wake_probes=*/false);
  // Host completions free no lane, so only they can end past the last wake.
  for (const NodePlan& plan : plans) {
    shard.clock_us = std::max(shard.clock_us, plan.complete_us);
  }
  return plans;
}

// ------------------------------------------------------------------- drain

std::vector<ClusterRequestOutcome> BlazeCluster::Drain() {
  S2FA_SPAN("blaze.cluster.drain");
  S2FA_REQUIRE(floods_pending_.empty() || flood_generator_,
               "chaos plan has floods but no flood generator is installed");

  // Tenant queues hold indices into this drain's slots vector. A slot
  // committed by a winning hedge while still queued is popped lazily
  // (clean_head), so entries can survive the drain — left in place they
  // would alias (or overrun) the next drain's slots. Reset them.
  for (auto& [name, tenant] : tenants_) {
    tenant.queue.clear();
    tenant.queued = 0;
  }

  // ---- materialize this drain's slots (real, then in-horizon floods)
  std::vector<Slot> slots;
  slots.reserve(backlog_.size());
  // Floods are due once the cluster clock (or any real arrival) passes
  // them, so an empty drain still materializes already-due floods.
  double horizon = clock_us_;
  for (auto& request : backlog_) {
    Slot slot;
    slot.id = next_id_++;
    slot.arrival_us = std::max(request.arrival_us, clock_us_);
    horizon = std::max(horizon, slot.arrival_us);
    slot.request = std::move(request);
    slots.push_back(std::move(slot));
  }
  const std::size_t real_count = slots.size();
  backlog_.clear();
  // Floods ride the real request stream: inject the pending synthetic
  // requests whose arrival falls inside this drain's traffic horizon.
  std::size_t injected = 0;
  while (injected < floods_pending_.size() &&
         floods_pending_[injected].at_us <= horizon) {
    const PendingFlood& pending = floods_pending_[injected];
    ClusterRequest request = flood_generator_(pending.ordinal);
    S2FA_REQUIRE(kernels_.count(request.kernel) != 0,
                 "flood generator returned unknown kernel " << request.kernel);
    request.tenant = plan_.floods[pending.flood].tenant;
    Slot slot;
    slot.id = next_id_++;
    slot.arrival_us = std::max(pending.at_us, clock_us_);
    slot.request = std::move(request);
    slot.synthetic = true;
    slots.push_back(std::move(slot));
    ++injected;
  }
  floods_pending_.erase(floods_pending_.begin(),
                        floods_pending_.begin() +
                            static_cast<std::ptrdiff_t>(injected));
  stats_.flood_injected += injected;
  if (injected > 0) {
    S2FA_COUNT("blaze.cluster.flood_injected",
               static_cast<std::int64_t>(injected));
  }
  if (!floods_pending_.empty()) {
    // Never silent: a flood gate that measured zero injected requests
    // should be visible in the log, not mistaken for surviving the flood.
    S2FA_LOG_WARN("cluster: " << floods_pending_.size()
                              << " scheduled flood request(s) fall past this "
                                 "drain's horizon; they stay pending until a "
                                 "later drain reaches t="
                              << floods_pending_.front().at_us << " us");
  }
  if (!plan_.Empty()) {
    for (Slot& slot : slots) slot.poisoned = IsPoisoned(plan_, slot.id);
  }

  // ---- event machinery
  std::vector<Event> events;
  std::size_t seq = 0;
  auto later = [](const Event& a, const Event& b) {
    if (a.time_us != b.time_us) return a.time_us > b.time_us;
    return a.seq > b.seq;
  };
  auto push_event = [&](double t, Event::Kind kind, std::size_t index) {
    events.push_back({t, seq++, kind, index});
    std::push_heap(events.begin(), events.end(), later);
  };
  std::vector<CommitRec> commits;
  std::vector<RequeueRec> requeues;
  // Functional work left for the end of the drain: one unit per planned
  // clean node, computing the outputs of the members it commits.
  struct ExecUnit {
    std::string accel;
    const Dataset* broadcast = nullptr;
    std::vector<std::size_t> members;
    bool host = false;  // one host-path or hedge commit
  };
  std::vector<ExecUnit> units;
  using BatchKey = std::pair<std::string, const Dataset*>;
  auto key_of = [&](const Slot& slot) {
    return BatchKey{slot.request.kernel, slot.request.broadcast};
  };
  std::map<BatchKey, std::size_t> key_count;
  std::size_t queued_total = 0;
  std::set<double> armed_timers;

  for (std::size_t i = 0; i < slots.size(); ++i) {
    push_event(slots[i].arrival_us, Event::kArrival, i);
  }
  for (std::size_t i = lifecycle_done_; i < lifecycle_.size(); ++i) {
    push_event(lifecycle_[i].time_us, Event::kLifecycle, i);
  }
  lifecycle_done_ = lifecycle_.size();

  // ---- exactly-once commit
  auto try_commit = [&](const CommitRec& rec, double t) {
    Slot& slot = slots[rec.slot];
    // Even a suppressed completion is work the cluster ran until `t`.
    clock_us_ = std::max(clock_us_, t);
    if (slot.committed) {
      ++stats_.commit_conflicts;
      S2FA_COUNT("blaze.cluster.commit_conflicts", 1);
      return false;
    }
    slot.committed = true;
    if (slot.queued) {  // a hedge won while the request sat in the queue
      slot.queued = false;
      --queued_total;
      --key_count[key_of(slot)];
      --TenantFor(slot.request.tenant).queued;
    }
    slot.outcome = rec.outcome;
    slot.shard = rec.shard;
    slot.replica = rec.replica;
    slot.batch_size = rec.batch_size;
    slot.dispatch_us = rec.dispatch_us;
    slot.complete_us = t;
    slot.unit = rec.unit;
    TenantStats& ts = stats_.tenants.at(slot.request.tenant);
    ++stats_.completed;
    ++ts.completed;
    ts.records_completed += slot.request.input.num_records();
    const double latency = t - slot.arrival_us;
    stats_.latencies_us.push_back(latency);
    ts.latencies_us.push_back(latency);
    switch (rec.outcome) {
      case ClusterServe::kAccelerator:
        ++stats_.completed_accel;
        ++ts.completed_accel;
        break;
      case ClusterServe::kHost:
        ++stats_.completed_host;
        ++ts.completed_host;
        break;
      case ClusterServe::kHedgedHost:
        ++stats_.completed_hedge;
        ++ts.completed_hedge;
        break;
      default: S2FA_UNREACHABLE("shed outcomes are committed at admission");
    }
    if (rec.shard != kNoShard) ++stats_.shards[rec.shard].requests;
    S2FA_COUNT("blaze.cluster.completed", 1);
    S2FA_OBSERVE("blaze.cluster.latency_us", latency);
    return true;
  };

  // ---- routing
  struct Route {
    bool wait = false;
    bool host = false;
    std::size_t shard = 0;
  };
  auto choose_shard = [&](const std::string& kernel, double t) {
    Route route;
    std::size_t best_live = kNoShard;
    double best_backlog = kInf;
    double best_occupancy = kInf;
    std::size_t best_live_count = 0;
    std::size_t best_probe = kNoShard;
    bool busy_any = false;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const Shard& shard = shards_[s];
      std::size_t enlisted = 0;
      std::size_t live = 0;
      std::size_t probe_ready = 0;
      for (const Replica& replica : shard.replicas) {
        if (replica.kernel != kernel) continue;
        ++enlisted;
        if (replica.health != AcceleratorHealth::kQuarantined) {
          ++live;
        } else if (replica.probe_eligible_us <= t) {
          ++probe_ready;
        }
      }
      if (enlisted == 0 || !ShardAliveAt(s, t)) continue;
      if (live > 0) {
        if (shard.busy_until_us <= t) {
          // Depth routing (see the header): least outstanding backlog, then
          // least busy time per live replica, then more live replicas, then
          // the lower index.
          const double backlog = std::max(shard.clock_us - t, 0.0);
          const double occupancy =
              stats_.shards[s].busy_us / static_cast<double>(live);
          if (backlog < best_backlog ||
              (backlog == best_backlog &&
               (occupancy < best_occupancy ||
                (occupancy == best_occupancy && live > best_live_count)))) {
            best_backlog = backlog;
            best_occupancy = occupancy;
            best_live = s;
            best_live_count = live;
          }
        } else {
          busy_any = true;
        }
      } else if (probe_ready > 0) {
        if (shard.busy_until_us <= t) {
          if (best_probe == kNoShard) best_probe = s;
        } else {
          busy_any = true;
        }
      }
      // Dark shards with no probe ready take no traffic; waiting on them
      // would wedge the queue, so they don't count as busy either.
    }
    if (best_live != kNoShard) {
      route.shard = best_live;
    } else if (best_probe != kNoShard) {
      route.shard = best_probe;  // recovery traffic for a dark shard
    } else if (busy_any) {
      route.wait = true;
    } else {
      route.host = true;  // no shard can take this kernel: host-direct
    }
    return route;
  };

  auto clean_head = [&](Tenant& tenant) {
    while (!tenant.queue.empty()) {
      const Slot& slot = slots[tenant.queue.front()];
      if (slot.queued && !slot.committed) break;
      tenant.queue.pop_front();  // popped by dispatch or committed by hedge
    }
  };

  // Weighted-fair pick: min (pass, name) over tenants whose head is not a
  // held batch key. Returns nullptr when nothing is dispatchable.
  auto pick_tenant = [&](const std::set<BatchKey>& held) -> Tenant* {
    Tenant* best = nullptr;
    for (auto& [name, tenant] : tenants_) {
      clean_head(tenant);
      if (tenant.queue.empty()) continue;
      if (held.count(key_of(slots[tenant.queue.front()])) != 0) continue;
      if (best == nullptr || tenant.pass_us < best->pass_us) best = &tenant;
    }
    return best;
  };

  // Pops up to the batch cap of key-matching requests, charging each
  // tenant's stride pass as its requests leave the queue.
  auto form_batch = [&](const BatchKey& key) {
    std::vector<std::size_t> members;
    const KernelInfo& info = KernelFor(key.first);
    const std::size_t cap = info.pattern == kir::ParallelPattern::kReduce
                                ? 1
                                : options_.batch_max_requests;
    while (members.size() < cap) {
      Tenant* best = nullptr;
      for (auto& [name, tenant] : tenants_) {
        clean_head(tenant);
        if (tenant.queue.empty()) continue;
        if (!(key_of(slots[tenant.queue.front()]) == key)) continue;
        if (best == nullptr || tenant.pass_us < best->pass_us) best = &tenant;
      }
      if (best == nullptr) break;
      const std::size_t index = best->queue.front();
      best->queue.pop_front();
      Slot& slot = slots[index];
      stride_vtime_ = best->pass_us;
      best->pass_us +=
          static_cast<double>(
              std::max<std::size_t>(1, slot.request.input.num_records())) /
          best->weight;
      slot.queued = false;
      --best->queued;
      --queued_total;
      --key_count[key];
      members.push_back(index);
    }
    return members;
  };

  auto host_commit_members = [&](const std::vector<std::size_t>& members,
                                 double t) {
    for (std::size_t index : members) {
      const Slot& slot = slots[index];
      const KernelInfo& info = KernelFor(slot.request.kernel);
      CommitRec rec;
      rec.slot = index;
      rec.outcome = ClusterServe::kHost;
      rec.batch_size = 1;
      rec.dispatch_us = t;
      commits.push_back(std::move(rec));
      push_event(t + HostUs(info, slot.request.input.num_records()),
                 Event::kCommit, commits.size() - 1);
    }
  };

  // ---- batch dispatch onto one shard, with bisect isolation and the
  // kill-interruption pre/post checks.
  auto dispatch_batch = [&](std::size_t shard_index, const BatchKey& key,
                            const std::vector<std::size_t>& members,
                            double t) {
    Shard& shard = shards_[shard_index];
    ShardStats& sstats = stats_.shards[shard_index];
    const KernelInfo& info = KernelFor(key.first);
    const double spike = SpikeFactorAt(plan_, t);
    const double kill_at = NextKillAfter(shard_index, t);
    auto records_of = [&](std::size_t index) {
      return slots[index].request.input.num_records();
    };

    // Bisect schedule: depth-first, left half first. Failing nodes burn
    // the crash-detect round trip on a virtual probe lane (cursor); clean
    // nodes are planned on the shard's replicas at the cursor where they
    // were proven clean. Poison singletons degrade to the host path after
    // their final failed attempt. The cursor runs on the raw (unspiked)
    // timeline — like the planned completions below — so the spike factor
    // is applied exactly once, when raw offsets convert to absolute times.
    struct CleanNode {
      double arrival_us = 0;
      std::size_t records = 0;
      std::vector<std::size_t> members;
    };
    std::vector<CleanNode> clean;
    struct PoisonExit {
      std::size_t slot = 0;
      double burn_end_us = 0;
    };
    std::vector<PoisonExit> poison_exits;
    std::size_t burn_count = 0;
    double cursor = t;
    {
      std::vector<std::vector<std::size_t>> stack;
      stack.push_back(members);
      while (!stack.empty()) {
        std::vector<std::size_t> node = std::move(stack.back());
        stack.pop_back();
        std::size_t node_records = 0;
        bool has_poison = false;
        for (std::size_t index : node) {
          node_records += records_of(index);
          has_poison = has_poison || slots[index].poisoned;
        }
        if (!has_poison) {
          clean.push_back({cursor, node_records, std::move(node)});
          continue;
        }
        ++burn_count;
        cursor += DetectUs(info, node_records);
        if (node.size() == 1) {
          poison_exits.push_back({node.front(), cursor});
        } else {
          const auto mid =
              node.begin() + static_cast<std::ptrdiff_t>(node.size() / 2);
          stack.emplace_back(mid, node.end());    // right half, later
          stack.emplace_back(node.begin(), mid);  // left half, next
        }
      }
    }

    // Kill pre-check: conservative single-lane fault-free estimate. A kill
    // inside the window means the shard dies before acking the batch — the
    // whole batch requeues at the kill, nothing is committed from it. The
    // estimate is raw; the spike scales the whole window once.
    double clean_accel_us = 0;
    for (const CleanNode& node : clean) {
      clean_accel_us +=
          static_cast<double>(Invocations(node.records, info.batch)) *
          info.accel_us_per_invocation;
    }
    if (kill_at < t + spike * (cursor - t + clean_accel_us)) {
      ++stats_.failovers;
      S2FA_COUNT("blaze.cluster.failovers", 1);
      sstats.wasted_us += kill_at - t;
      shard.busy_until_us = kill_at;
      requeues.push_back({members});
      push_event(kill_at, Event::kRequeue, requeues.size() - 1);
      return;
    }

    ++stats_.batches;
    stats_.batched_requests += members.size();
    stats_.max_batch = std::max(stats_.max_batch, members.size());
    S2FA_COUNT("blaze.cluster.batches", 1);
    S2FA_COUNT("blaze.cluster.batched_requests",
               static_cast<std::int64_t>(members.size()));
    stats_.bisect_attempts += burn_count;
    if (burn_count > 0) {
      S2FA_COUNT("blaze.cluster.bisect_attempts",
                 static_cast<std::int64_t>(burn_count));
    }

    for (const PoisonExit& exit : poison_exits) {
      ++stats_.poison_isolated;
      S2FA_COUNT("blaze.cluster.poison_isolated", 1);
      CommitRec rec;
      rec.slot = exit.slot;
      rec.outcome = ClusterServe::kHost;
      rec.batch_size = 1;
      rec.dispatch_us = t;
      commits.push_back(std::move(rec));
      // burn_end_us is a raw offset; the spike dilates the burn window
      // once. The host execution after the final failed attempt runs off
      // the congested interconnect, so it is not dilated.
      push_event(t + spike * (exit.burn_end_us - t) +
                     HostUs(info, records_of(exit.slot)),
                 Event::kCommit, commits.size() - 1);
    }

    double busy_raw = cursor;  // burns occupy the virtual probe lane
    double busy_cap_us = kInf;  // absolute-time cap (kill interruption)
    if (!clean.empty()) {
      std::vector<std::pair<double, std::size_t>> arrivals;
      for (const CleanNode& node : clean) {
        arrivals.emplace_back(node.arrival_us, node.records);
      }
      const std::vector<NodePlan> plans =
          PlanNodes(shard_index, key.first, arrivals);

      std::vector<std::size_t> interrupted;
      for (std::size_t n = 0; n < clean.size(); ++n) {
        const CleanNode& node = clean[n];
        const NodePlan& plan = plans[n];
        const double complete =
            t + spike * (plan.complete_us - t);  // interconnect congestion
        // Lane occupancy: an accelerator completion frees the lane at the
        // completion; a host fallback frees it when the host takes over.
        double lane_free_raw = plan.complete_us;
        if (!plan.accel) {
          lane_free_raw = std::max(
              plan.dispatch_us, plan.complete_us - HostUs(info, node.records));
        }
        busy_raw = std::max(busy_raw, lane_free_raw);
        if (complete > kill_at) {
          // Post-check: injected faults stretched this sub-batch past the
          // kill; its result is never acked.
          interrupted.insert(interrupted.end(), node.members.begin(),
                             node.members.end());
          continue;
        }
        units.push_back({plan.exec_accel, key.second, node.members, false});
        for (std::size_t index : node.members) {
          CommitRec rec;
          rec.slot = index;
          rec.outcome =
              plan.accel ? ClusterServe::kAccelerator : ClusterServe::kHost;
          rec.shard = plan.accel ? shard_index : kNoShard;
          rec.replica = plan.replica;
          rec.batch_size = node.members.size();
          rec.dispatch_us = t;
          rec.unit = units.size() - 1;
          commits.push_back(std::move(rec));
          push_event(complete, Event::kCommit, commits.size() - 1);
        }
      }
      if (!interrupted.empty()) {
        ++stats_.failovers;
        S2FA_COUNT("blaze.cluster.failovers", 1);
        sstats.wasted_us += std::max(0.0, kill_at - t);
        requeues.push_back({std::move(interrupted)});
        push_event(kill_at, Event::kRequeue, requeues.size() - 1);
        busy_cap_us = kill_at;  // the shard is dead past the kill
      }
    }

    const double busy_until =
        std::min(busy_cap_us, std::max(t, t + spike * (busy_raw - t)));
    shard.busy_until_us = busy_until;
    sstats.busy_us += busy_until - t;
    ++sstats.batches;
    push_event(busy_until, Event::kShardFree, shard_index);
  };

  // ---- the dispatch loop: stride-pick a tenant, coalesce a batch, route
  auto try_dispatch_all = [&](double t) {
    std::set<BatchKey> held;
    while (queued_total > 0) {
      Tenant* tenant = pick_tenant(held);
      if (tenant == nullptr) break;
      const BatchKey key = key_of(slots[tenant->queue.front()]);
      const KernelInfo& info = KernelFor(key.first);
      const std::size_t cap =
          info.pattern == kir::ParallelPattern::kReduce
              ? 1
              : options_.batch_max_requests;
      if (options_.batch_window_us > 0 && key_count[key] < cap) {
        // Hold a partial batch until its window expires.
        double oldest = kInf;
        for (const auto& [name, tn] : tenants_) {
          for (std::size_t index : tn.queue) {
            const Slot& slot = slots[index];
            if (!slot.queued || slot.committed) continue;
            if (!(key_of(slot) == key)) continue;
            oldest = std::min(oldest, slot.enqueue_us);
          }
        }
        const double fire_at = oldest + options_.batch_window_us;
        if (t < fire_at) {
          if (armed_timers.insert(fire_at).second) {
            push_event(fire_at, Event::kBatchTimer, 0);
          }
          held.insert(key);
          continue;
        }
      }
      const Route route = choose_shard(key.first, t);
      if (route.wait) {
        held.insert(key);
        continue;
      }
      const std::vector<std::size_t> members = form_batch(key);
      S2FA_CHECK(!members.empty(), "dispatch pick with empty batch");
      if (route.host) {
        host_commit_members(members, t);
      } else {
        dispatch_batch(route.shard, key, members, t);
      }
    }
  };

  // ---- admission
  auto admit = [&](std::size_t index, double t) {
    Slot& slot = slots[index];
    Tenant& tenant = TenantFor(slot.request.tenant);
    TenantStats& ts = stats_.tenants.at(tenant.name);
    ++stats_.submitted;
    ++ts.submitted;
    S2FA_COUNT("blaze.cluster.submitted", 1);
    if (tenant.quota > 0 && tenant.queued >= tenant.quota) {
      slot.committed = true;
      slot.outcome = ClusterServe::kTenantThrottled;
      slot.dispatch_us = t;
      slot.complete_us = t;
      ++stats_.tenant_throttled;
      ++ts.throttled;
      S2FA_COUNT("blaze.cluster.tenant_throttled", 1);
      return;
    }
    if (queued_total >= options_.queue_capacity) {
      slot.committed = true;
      slot.outcome = ClusterServe::kRejectedFull;
      slot.dispatch_us = t;
      slot.complete_us = t;
      ++stats_.rejected_full;
      ++ts.rejected_full;
      S2FA_COUNT("blaze.cluster.rejected_full", 1);
      return;
    }
    ++stats_.admitted;
    ++ts.admitted;
    S2FA_COUNT("blaze.cluster.admitted", 1);
    if (tenant.queued == 0) {
      // Virtual-time catch-up: an idle tenant must not bank credit.
      tenant.pass_us = std::max(tenant.pass_us, stride_vtime_);
    }
    slot.queued = true;
    slot.enqueue_us = t;
    tenant.queue.push_back(index);
    ++tenant.queued;
    ++queued_total;
    ++key_count[key_of(slot)];
    stats_.max_queue_depth = std::max(stats_.max_queue_depth, queued_total);
    S2FA_GAUGE_MAX("blaze.cluster.max_queue_depth",
                   static_cast<double>(queued_total));
    if (options_.queue_hedge_us > 0) {
      push_event(t + options_.queue_hedge_us, Event::kHedgeStart, index);
    }
    try_dispatch_all(t);
  };

  // ---- failover requeue
  auto process_requeue = [&](const RequeueRec& rec, double t) {
    for (std::size_t index : rec.slots) {
      Slot& slot = slots[index];
      if (slot.committed) continue;  // a hedge got there first
      ++slot.redirects;
      ++stats_.redirects;
      S2FA_COUNT("blaze.cluster.redirects", 1);
      if (slot.redirects > kMaxRedirects) {
        ++stats_.redirect_exhausted;
        S2FA_COUNT("blaze.cluster.redirect_exhausted", 1);
        const KernelInfo& info = KernelFor(slot.request.kernel);
        CommitRec commit;
        commit.slot = index;
        commit.outcome = ClusterServe::kHost;
        commit.batch_size = 1;
        commit.dispatch_us = t;
        commits.push_back(std::move(commit));
        push_event(t + HostUs(info, slot.request.input.num_records()),
                   Event::kCommit, commits.size() - 1);
        continue;
      }
      Tenant& tenant = TenantFor(slot.request.tenant);
      if (tenant.queued == 0) {
        tenant.pass_us = std::max(tenant.pass_us, stride_vtime_);
      }
      slot.queued = true;
      slot.enqueue_us = t;
      tenant.queue.push_back(index);
      ++tenant.queued;
      ++queued_total;
      ++key_count[key_of(slot)];
    }
    try_dispatch_all(t);
  };

  // ---- main event loop
  while (!events.empty()) {
    std::pop_heap(events.begin(), events.end(), later);
    const Event event = events.back();
    events.pop_back();
    const double t = event.time_us;
    switch (event.kind) {
      case Event::kLifecycle: {
        const LifecycleEvent& life = lifecycle_[event.index];
        Shard& shard = shards_[life.shard];
        if (life.kill) {
          ++stats_.shards[life.shard].kills;
          S2FA_COUNT("blaze.cluster.kills", 1);
          S2FA_LOG_WARN("cluster: shard " << life.shard << " killed at "
                                          << t << " us");
        } else {
          // A restart is a fresh process: replica health, latency windows,
          // invocation counters and the planning clock all reset.
          for (Replica& replica : shard.replicas) {
            replica = MakeReplica(replica.kernel, replica.accel_id);
          }
          shard.clock_us = 0;
          shard.busy_until_us = t;
          ++stats_.shards[life.shard].restarts;
          S2FA_COUNT("blaze.cluster.restarts", 1);
          S2FA_LOG_INFO("cluster: shard " << life.shard << " restarted at "
                                          << t << " us");
          try_dispatch_all(t);
        }
        break;
      }
      case Event::kArrival:
        admit(event.index, t);
        break;
      case Event::kRequeue:
        process_requeue(requeues[event.index], t);
        break;
      case Event::kCommit:
        try_commit(commits[event.index], t);
        break;
      case Event::kHedgeStart: {
        Slot& slot = slots[event.index];
        if (slot.committed) break;
        slot.hedged = true;
        ++stats_.hedges_launched;
        S2FA_COUNT("blaze.cluster.hedges", 1);
        const KernelInfo& info = KernelFor(slot.request.kernel);
        push_event(t + HostUs(info, slot.request.input.num_records()),
                   Event::kHedgeDone, event.index);
        break;
      }
      case Event::kHedgeDone: {
        CommitRec rec;
        rec.slot = event.index;
        rec.outcome = ClusterServe::kHedgedHost;
        rec.batch_size = 1;
        rec.dispatch_us = t;
        if (try_commit(rec, t)) {
          ++stats_.hedges_won;
          S2FA_COUNT("blaze.cluster.hedge_wins", 1);
        } else {
          ++stats_.hedges_cancelled;
          S2FA_COUNT("blaze.cluster.hedge_losses", 1);
        }
        break;
      }
      case Event::kShardFree:
        try_dispatch_all(t);
        break;
      case Event::kBatchTimer:
        armed_timers.erase(t);
        try_dispatch_all(t);
        break;
    }
  }

  for (const Slot& slot : slots) {
    S2FA_CHECK(slot.committed, "cluster drain lost request " << slot.id);
  }

  // ---- functional execution, one pass: each committed slot runs on the
  // design that committed it. A unit computes the members its node
  // committed in one call (a kill-interrupted node commits none and never
  // runs); every other slot (host paths, hedges) runs alone on its
  // kernel's design. Nobody reads flood outputs, so floods never run.
  {
    for (std::size_t u = 0; u < units.size(); ++u) {
      std::vector<std::size_t>& members = units[u].members;
      members.erase(std::remove_if(members.begin(), members.end(),
                                   [&](std::size_t index) {
                                     return slots[index].unit != u ||
                                            slots[index].synthetic;
                                   }),
                    members.end());
    }
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const Slot& slot = slots[i];
      if (slot.synthetic || slot.unit != kNone ||
          slot.outcome == ClusterServe::kRejectedFull ||
          slot.outcome == ClusterServe::kTenantThrottled ||
          slot.request.input.num_records() == 0) {
        continue;
      }
      units.push_back({kernels_.at(slot.request.kernel).exec_accel,
                       slot.request.broadcast, {i}, true});
    }
    auto execute = [&](const ExecUnit& job) {
      if (job.members.empty()) return;
      const bool reduce = runtime_.manager().Get(job.accel).design.pattern ==
                          kir::ParallelPattern::kReduce;
      auto run = [&](const Dataset& input) {
        return reduce ? runtime_.Reduce(job.accel, input, job.broadcast)
                      : runtime_.Map(job.accel, input, job.broadcast);
      };
      if (job.host) {
        S2FA_SPAN("blaze.cluster.host_exec");
        Slot& slot = slots[job.members.front()];
        slot.output = run(slot.request.input);
        return;
      }
      std::vector<const Dataset*> inputs;
      for (std::size_t index : job.members) {
        inputs.push_back(&slots[index].request.input);
      }
      Dataset output = run(ConcatDatasets(inputs));
      if (reduce) {
        // A reduce collapses its batch to one record; reduce batches are
        // singletons (form_batch caps them at 1), so the lone member owns
        // the output unsliced.
        S2FA_CHECK(job.members.size() == 1, "reduce batches must be singletons");
        slots[job.members.front()].output = std::move(output);
        return;
      }
      std::size_t row = 0;
      for (std::size_t index : job.members) {
        Slot& slot = slots[index];
        const std::size_t count = slot.request.input.num_records();
        slot.output = SliceRecords(output, row, count);
        row += count;
      }
    };
    ForkJoin(units.size(), static_cast<std::size_t>(options_.exec_threads),
             [&](std::size_t u) { execute(units[u]); });
  }

  // ---- assemble outcomes for the real requests, submission order
  std::vector<ClusterRequestOutcome> outcomes;
  outcomes.reserve(real_count);
  for (std::size_t i = 0; i < real_count; ++i) {
    Slot& slot = slots[i];
    ClusterRequestOutcome outcome;
    outcome.id = slot.id;
    outcome.outcome = slot.outcome;
    outcome.shard = slot.shard;
    outcome.replica = slot.replica;
    outcome.tenant = slot.request.tenant;
    outcome.batch_size = slot.batch_size;
    outcome.redirects = slot.redirects;
    outcome.hedged = slot.hedged;
    outcome.poisoned = slot.poisoned;
    outcome.dispatch_us = slot.dispatch_us;
    outcome.complete_us = slot.complete_us;
    outcome.latency_us =
        slot.committed && slot.outcome != ClusterServe::kRejectedFull &&
                slot.outcome != ClusterServe::kTenantThrottled
            ? slot.complete_us - slot.arrival_us
            : 0;
    outcome.output = std::move(slot.output);
    outcomes.push_back(std::move(outcome));
  }
  return outcomes;
}

}  // namespace s2fa::blaze
