// BlazeCluster: fault-domain-aware sharded serving on one deterministic
// simulated clock (paper §2: the accelerator as a shared datacenter
// service behind Blaze). One node is served as a 1-shard cluster.
//
// Each shard is one fault domain: its own replicas, their health, and its
// fault injector. The cluster plans at micro-batch granularity and is the
// serving stack's only admission gate and only host hedge:
//
//   * replica health, per shard — a per-replica state machine (healthy →
//     degraded → quarantined) driven by a rolling failure-rate / latency
//     window. An injected fault manifests as a kCrash (detected at the
//     driver round trip) or a kTimeout (detected after 4x the expected
//     latency), by a stateless hash of the shard's seed. A failed attempt
//     is retried once, then the host path finishes the node. Quarantined
//     replicas take no traffic until a probe, dispatched after an
//     exponentially backed-off delay, succeeds and re-enlists them.
//     Selection prefers free healthy replicas, then a probe-ready
//     quarantined one, then free degraded ones; a shard whose replicas of
//     the kernel all go dark mid-batch serves the rest of it host-direct;
//   * failover with exactly-once commit — a scripted kill (ChaosPlan) or a
//     fully-quarantined shard re-routes in-flight and queued requests to
//     sibling shards. Redirects are bounded (two per request), then the
//     host path finishes the job. Every request has an idempotent id and a
//     single commit slot: the first completion (accelerator, failover
//     retry, or hedge) wins; later ones are suppressed and counted as
//     commit conflicts, so an outcome is committed exactly once even when
//     a hedge and a failover race;
//   * depth routing — each batch goes to the free live shard with the
//     least outstanding backlog: how far the shard's planning clock is
//     ahead of now. Lane occupancy alone is blind to work a shard owes
//     that never held its dispatch lane (a host fallback frees the lane at
//     failure detection while the planning clock runs on to the host
//     completion). Ties go to less busy time per live replica, then more
//     live replicas, then the lower index;
//   * dynamic micro-batching with poison isolation — queued requests with
//     the same (kernel, broadcast) coalesce into one accelerator
//     invocation, up to `batch_max_requests` (Reduce kernels never batch
//     across requests) and an optional `batch_window_us` deadline. A batch
//     containing a poison request (ChaosPlan) crashes; the cluster bisects
//     it deterministically — each failing half burns the crash-detect
//     round trip — until the poison request is alone, degrades only it to
//     the host path, and serves the clean sub-batches normally;
//   * multi-tenant weighted-fair admission — stride scheduling over
//     per-tenant FIFO queues (virtual-time pass, weight = share), with
//     per-tenant queued quotas and a cluster-wide queue capacity, so a
//     flooding tenant is throttled instead of starving the others — under
//     degraded capacity too, because the stride pick runs at every
//     dispatch regardless of how many shards survive;
//   * age hedging — with `queue_hedge_us` set, a request still uncommitted
//     that long after it was enqueued starts a host-path hedge, whether it
//     is still queued or already in flight; the commit slot keeps the first
//     finisher;
//   * scripted chaos — kills/restarts (a restart is a fresh process:
//     replica health, invocation counters and the planning clock reset),
//     accelerator faults (bursts and `fault-rate`) through each shard's
//     injector, latency spikes (dispatch-time dilation, modeling
//     interconnect congestion), and tenant floods materialized through a
//     caller-provided generator.
//
// Determinism: the cluster is a sequential discrete-event simulator (an
// event heap ordered by (time, seq)), and each batch is planned on its
// shard sequentially too. Only functional kernel execution fans out, once
// per drain, and each output lands in its request's slot — so outcomes
// are bit-identical across `exec_threads`.
//
// Conservative timing approximations (documented, deterministic): the
// kill-interruption pre-check uses a single-lane fault-free estimate of
// the batch (a kill inside that window requeues the whole batch — results
// are acked at batch granularity, so a shard death before the ack loses
// the ack, never the request); bisect retry burns occupy a virtual probe
// lane while clean sub-batches flow through the replica lanes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "blaze/chaos.h"
#include "blaze/runtime.h"

namespace s2fa::blaze {

// How one cluster request ended.
enum class ClusterServe {
  kRejectedFull,     // shed at admission: cluster queue was full
  kTenantThrottled,  // shed at admission: tenant over its queued quota
  kAccelerator,      // completed on some shard's accelerator replica
  kHost,             // host path (direct, redirect-exhausted, or poison)
  kHedgedHost,       // a host hedge beat the accelerator path
};
const char* ClusterServeName(ClusterServe outcome);

enum class AcceleratorHealth { kHealthy, kDegraded, kQuarantined };
const char* HealthName(AcceleratorHealth health);

struct ClusterOptions {
  std::size_t queue_capacity = 1024;    // cluster-wide waiting cap
  std::size_t batch_max_requests = 16;  // micro-batch coalescing bound
  double batch_window_us = 0;   // wait this long to fill a batch; 0 = none
  double queue_hedge_us = 0;    // host hedge for requests older than this
  int exec_threads = 1;         // functional execution fan-out
  // Replica health (per replica, over the last `health_window` finished
  // attempts, once 4 have landed): a window failure rate of 0.30, or a
  // mean latency 2.5x the cost model's, degrades; 0.60 or 3 failures in a
  // row quarantine. Failed probes double the backoff up to
  // `probe_backoff_max_us`.
  std::size_t health_window = 16;
  double probe_backoff_us = 50e3;  // first probe after quarantine
  double probe_backoff_max_us = 1.6e6;
  // Crash-or-timeout classification of failed attempts; each shard offsets
  // it by its index, so the streams differ across fault domains.
  std::uint64_t seed = 1;
};

struct ClusterRequest {
  std::string kernel;
  Dataset input;
  // One-record shared data; must outlive the drain. Requests batch only
  // with requests sharing the same broadcast pointer.
  const Dataset* broadcast = nullptr;
  double arrival_us = 0;
  std::string tenant = "default";
};

struct ClusterRequestOutcome {
  std::size_t id = 0;  // submission order, idempotent commit key
  ClusterServe outcome = ClusterServe::kRejectedFull;
  std::size_t shard = kNoShard;  // shard that committed it
  std::string replica;           // serving replica ("" = host path)
  std::string tenant;
  std::size_t batch_size = 1;    // members of its final dispatch batch
  int redirects = 0;             // failover re-dispatches
  bool hedged = false;
  bool poisoned = false;         // isolated by bisection
  double dispatch_us = 0;
  double complete_us = 0;
  double latency_us = 0;         // complete - arrival (0 for shed)
  Dataset output;                // empty for shed requests

  static constexpr std::size_t kNoShard = static_cast<std::size_t>(-1);
};

struct TenantStats {
  double weight = 1.0;
  std::size_t quota = 0;
  std::size_t submitted = 0;
  std::size_t admitted = 0;
  std::size_t throttled = 0;      // shed: over quota
  std::size_t rejected_full = 0;  // shed: cluster queue full
  std::size_t completed = 0;
  // Per-path completion breakdown (accelerator / host / winning hedge) so
  // fairness diagnostics can see *how* a tenant's traffic was served, not
  // just how much.
  std::size_t completed_accel = 0;
  std::size_t completed_host = 0;
  std::size_t completed_hedge = 0;
  std::size_t records_completed = 0;
  std::vector<double> latencies_us;  // commit order
  double LatencyQuantile(double q) const;
};

// Cumulative across restarts, health counters included.
struct ShardStats {
  std::size_t batches = 0;
  std::size_t requests = 0;  // committed members served on this shard
  std::size_t kills = 0;
  std::size_t restarts = 0;
  double busy_us = 0;        // cumulative lane occupancy
  double wasted_us = 0;      // occupancy lost to kill-interrupted batches

  std::size_t accel_failures = 0;  // failed attempts, probes included
  std::size_t crashes = 0;         // failures manifesting as kCrash
  std::size_t timeouts = 0;        // failures manifesting as kTimeout
  std::size_t retries = 0;
  std::size_t degradations = 0;    // healthy -> degraded transitions
  std::size_t quarantines = 0;     // -> quarantined transitions
  std::size_t probes = 0;
  std::size_t probe_successes = 0;
  std::size_t probe_failures = 0;
  std::size_t reenlistments = 0;   // quarantined -> degraded via probe
};

struct ClusterStats {
  std::size_t submitted = 0;
  std::size_t admitted = 0;
  std::size_t rejected_full = 0;
  std::size_t tenant_throttled = 0;
  std::size_t completed = 0;
  std::size_t completed_accel = 0;
  std::size_t completed_host = 0;
  std::size_t completed_hedge = 0;

  std::size_t batches = 0;           // accelerator dispatches (incl. bisect)
  std::size_t batched_requests = 0;  // members across those dispatches
  std::size_t max_batch = 0;

  std::size_t failovers = 0;           // kill-interrupted batch dispatches
  std::size_t redirects = 0;           // member re-dispatches after failover
  std::size_t redirect_exhausted = 0;  // members that fell back to host
  std::size_t bisect_attempts = 0;     // failing (sub-)batch attempts burned
  std::size_t poison_isolated = 0;     // poison requests degraded alone

  std::size_t hedges_launched = 0;
  std::size_t hedges_won = 0;
  std::size_t hedges_cancelled = 0;
  std::size_t commit_conflicts = 0;  // duplicate completions suppressed

  std::size_t flood_injected = 0;  // synthetic chaos-flood requests
  std::size_t max_queue_depth = 0;

  std::vector<double> latencies_us;  // completed requests, commit order
  std::map<std::string, TenantStats> tenants;
  std::vector<ShardStats> shards;

  double LatencyQuantile(double q) const;
};

class BlazeCluster {
 public:
  // The runtime supplies registered accelerators and the cost model; it
  // must outlive the cluster.
  explicit BlazeCluster(BlazeRuntime& runtime, ClusterOptions options = {});
  // Out of line: members hold vectors of nested types declared below.
  ~BlazeCluster();
  BlazeCluster(BlazeCluster&&) noexcept;
  BlazeCluster& operator=(BlazeCluster&&) = delete;

  // Topology. AddShard returns the new shard's index; AddReplica enlists
  // an accelerator (registered with the runtime) on one shard. Replica ids
  // are cluster-unique (each serves exactly one shard).
  std::size_t AddShard();
  std::size_t num_shards() const { return shards_.size(); }
  void AddReplica(std::size_t shard, const std::string& kernel,
                  const std::string& accel_id);

  // Registers a tenant with an explicit weight (relative share; > 0) and
  // queued-request quota (0 = unlimited). Unknown tenants named by a
  // request are auto-registered with weight 1 and no quota. Rejects
  // duplicates.
  void AddTenant(const std::string& name, double weight, std::size_t quota);

  // Installs the scripted fault schedule. Validates shard indices, flood
  // tenants, and (at Drain) that floods have a generator. Accelerator
  // faults reach each shard as MakeShardFaultInjector(plan, s).
  void SetChaosPlan(ChaosPlan plan);
  // Supplies synthetic requests for chaos floods: called with the global
  // flood-request ordinal; the returned request's tenant/arrival are
  // overridden by the flood directive.
  void SetFloodGenerator(std::function<ClusterRequest(std::size_t)> generator);

  // Enqueues a request for the next Drain. Arrival times before the
  // cluster clock are clamped to it.
  void Submit(ClusterRequest request);

  // Serves every pending request to completion (nothing is lost: shed
  // requests get terminal outcomes, everything else commits exactly once)
  // and returns outcomes in submission order. Synthetic flood requests are
  // served and counted but not returned.
  std::vector<ClusterRequestOutcome> Drain();
  std::vector<ClusterRequestOutcome> Run(std::vector<ClusterRequest> requests);

  const ClusterStats& stats() const { return stats_; }
  double clock_us() const { return clock_us_; }
  // Whether `shard` is alive (not inside a kill..restart window) at `t_us`.
  bool ShardAliveAt(std::size_t shard, double t_us) const;
  // Health of replica `accel_id` since its shard's last (re)start; throws
  // on unknown ids.
  AcceleratorHealth ReplicaHealth(const std::string& accel_id) const;

  // Capacity/cost introspection for layers planning above the cluster
  // (the streaming session's backlog model). All are derived from the
  // registered replicas and the runtime cost model — deterministic.
  //
  // Accelerator service time for `records` records of `kernel` on one
  // lane (whole-invocation granularity, like dispatch planning uses).
  double AccelUsFor(const std::string& kernel, std::size_t records) const;
  // Host-path time for the same work.
  double HostUsFor(const std::string& kernel, std::size_t records) const;
  // True when `kernel` is a reduce pattern (never batches across requests).
  bool IsReduceKernel(const std::string& kernel) const;
  // The design used for functional execution of `kernel` (first replica).
  const std::string& ExecAccelFor(const std::string& kernel) const;
  // Replicas on shards alive at `t_us` (chaos kills shrink this). This
  // counts replicas, not dispatch lanes: the cluster dispatches one batch
  // per shard at a time, so with several replicas per shard it overstates
  // the lanes that serve at once.
  std::size_t LiveLanesAt(double t_us) const;
  BlazeRuntime& runtime() { return runtime_; }

 private:
  struct KernelInfo {
    std::string exec_accel;  // functional-execution design (first replica)
    kir::ParallelPattern pattern = kir::ParallelPattern::kMap;
    std::size_t batch = 1;   // serialization batch per invocation
    double accel_us_per_invocation = 0;
    double detect_us_per_invocation = 0;  // serialize+transfer+overhead
    double host_us_per_invocation = 0;
  };

  // One accelerator enlisted on a shard, with its health state machine.
  struct Replica {
    std::string kernel;
    std::string accel_id;
    ExecutionStats per_invocation;  // cost model for one batch
    std::size_t batch = 1;          // serialization batch per invocation
    double host_us_per_invocation = 0;
    AcceleratorHealth health = AcceleratorHealth::kHealthy;
    std::deque<bool> window_failed;
    std::deque<double> window_latency_us;
    int consecutive_failures = 0;
    double free_us = 0;  // lane busy until this time
    double probe_eligible_us = 0;
    double probe_backoff_us = 0;
    bool probe_inflight = false;
    std::size_t invocations = 0;  // per-replica dispatch counter (faults)
  };

  struct Shard {
    std::vector<Replica> replicas;  // registration order: the tie-break
    AccelFaultInjector injector;
    std::uint64_t seed = 0;  // failure-classification stream
    // Where batch planning has reached; a restart resets it to 0.
    double clock_us = 0;
    double busy_until_us = 0;
  };

  struct Tenant {
    std::string name;
    double weight = 1.0;
    std::size_t quota = 0;
    double pass_us = 0;              // stride virtual time
    std::deque<std::size_t> queue;   // slot indices, FIFO
    std::size_t queued = 0;          // uncommitted members of `queue`
  };

  // One request in the current drain.
  struct Slot;
  struct Event;
  struct CommitRec;
  struct RequeueRec;
  struct LifecycleEvent;
  struct DrainState;
  struct HealthSample;
  // The planned fate of one clean bisect node on its shard.
  struct NodePlan {
    bool accel = false;        // served on `replica` (else the host path)
    std::string replica;       // "" when the group was dark: host-direct
    std::string exec_accel;    // design that computes its output
    double dispatch_us = 0;
    double complete_us = 0;
  };

  const KernelInfo& KernelFor(const std::string& kernel) const;
  Tenant& TenantFor(const std::string& name);
  // A healthy replica as a fresh process enlists it.
  Replica MakeReplica(const std::string& kernel,
                      const std::string& accel_id) const;
  // Plans clean nodes, given as (arrival, records) in arrival order, onto
  // `shard`'s replicas of `kernel` against their health, and advances the
  // shard clock past them.
  std::vector<NodePlan> PlanNodes(
      std::size_t shard, const std::string& kernel,
      const std::vector<std::pair<double, std::size_t>>& nodes);
  // Feeds one finished attempt to its replica's health state machine;
  // true when it quarantined the replica.
  bool ApplyHealthSample(ShardStats& stats, Replica& replica,
                         const HealthSample& sample) const;
  double HostUs(const KernelInfo& info, std::size_t records) const;
  double DetectUs(const KernelInfo& info, std::size_t records) const;
  double NextKillAfter(std::size_t shard, double t_us) const;

  BlazeRuntime& runtime_;
  ClusterOptions options_;
  std::vector<Shard> shards_;
  std::map<std::string, KernelInfo> kernels_;
  std::map<std::string, Tenant> tenants_;
  std::set<std::string> replica_ids_;  // cluster-wide uniqueness

  ChaosPlan plan_;
  std::function<ClusterRequest(std::size_t)> flood_generator_;
  // Per-shard sorted [kill, restart-or-inf) windows from the plan.
  std::vector<std::vector<std::pair<double, double>>> dead_windows_;
  std::vector<LifecycleEvent> lifecycle_;  // merged kills+restarts, sorted
  std::size_t lifecycle_done_ = 0;         // fired in earlier drains
  // Flood requests not yet materialized: each drain injects the ones whose
  // arrival falls inside its real-traffic horizon.
  struct PendingFlood {
    double at_us = 0;
    std::size_t ordinal = 0;  // global flood-request counter (generator arg)
    std::size_t flood = 0;    // index into plan_.floods
  };
  std::vector<PendingFlood> floods_pending_;
  double stride_vtime_ = 0;  // pass of the last scheduled tenant

  std::vector<ClusterRequest> backlog_;
  std::size_t next_id_ = 0;
  double clock_us_ = 0;
  ClusterStats stats_;
};

}  // namespace s2fa::blaze
