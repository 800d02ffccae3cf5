// BlazeService: the serving front-end over BlazeRuntime (paper §2 — the
// accelerator as a shared datacenter service behind Blaze).
//
// BlazeRuntime only executes; the service serves *streams* of requests
// against a deterministic simulated clock and owns the accelerator failure
// policy (retry once, then the host). It is one fault domain of a
// BlazeCluster, which owns admission, batching and hedging (deadlines
// belong to the streaming session above the cluster); the service adds
// what a group of replicas needs between "works" and "falls over":
//
//   * a per-replica health state machine (healthy → degraded →
//     quarantined) driven by a rolling failure-rate / latency window.
//     Failures reuse the resilience taxonomy: an injected fault manifests
//     either as a kCrash (detected at the driver round-trip cost) or as a
//     kTimeout (detected only after a multiple of the expected latency).
//     Quarantined replicas take no traffic until a probe request —
//     dispatched after an exponentially backed-off eligibility delay —
//     succeeds and re-enlists them;
//   * replica selection: several accelerators may be registered for one
//     kernel id; dispatch prefers free healthy replicas, then probes an
//     eligible quarantined one, then spills to degraded ones, and only
//     then falls back to the host path — which always succeeds, so no
//     submitted request is ever lost;
//   * graceful drain: Drain() stops the clock only after every submitted
//     request has completed and returns the per-request outcomes.
//
// Determinism: the service plans every dispatch, failure, and health
// transition sequentially on the simulated clock (all costs come from the
// offload cost model and the stateless fault injector). Only the
// functional kernel execution fans out on a thread pool, and outcomes are
// committed in submission order — so results are bit-identical across
// `exec_threads` values, exactly like the DSE scheduler's plan-order
// commit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "blaze/runtime.h"
#include "resilience/failure.h"

namespace s2fa::blaze {

// The plan-time fault hook: true when accelerator attempt `attempt` (0 =
// first try, 1 = the retry) of replica `accel_id`'s per-replica dispatch
// `invocation` fails. Chaos plans build one per shard
// (MakeShardFaultInjector in blaze/chaos.h); tests may pass lambdas.
using AccelFaultInjector = std::function<bool(
    const std::string& accel_id, std::size_t invocation, int attempt)>;

enum class AcceleratorHealth { kHealthy, kDegraded, kQuarantined };
const char* HealthName(AcceleratorHealth health);

// Read-only roll-up of one kernel group's replica health, so a router
// layered above the service (BlazeCluster) can pick shards without friend
// access to the per-replica state machine.
struct ReplicaHealthCounts {
  std::size_t healthy = 0;
  std::size_t degraded = 0;
  std::size_t quarantined = 0;
  // Quarantined replicas whose probe-eligibility delay has elapsed at the
  // query time (a dispatch would be accepted as a probe).
  std::size_t probe_ready = 0;
  // Earliest future probe-eligibility time among quarantined replicas;
  // +inf when none is pending.
  double next_probe_us = 0;

  // Replicas that take regular (non-probe) traffic.
  std::size_t live() const { return healthy + degraded; }
};

// How one submitted request ended.
enum class ServeOutcome {
  kAccelerator,  // completed on an accelerator replica
  kHost,         // completed on the host path (direct or after failures)
};
const char* ServeOutcomeName(ServeOutcome outcome);

struct ServiceOptions {
  // Health state machine (per replica, over the last `health_window`
  // finished attempts, once 4 have landed): a window failure rate of 0.30,
  // or a mean latency 2.5x the cost model's, degrades; 0.60 or 3 failures
  // in a row quarantine. Failed probes double the backoff up to
  // `probe_backoff_max_us`.
  std::size_t health_window = 16;
  double probe_backoff_us = 50e3;      // first probe after quarantine
  double probe_backoff_max_us = 1.6e6;

  int exec_threads = 1;     // functional execution fan-out (plan-order commit)
  // Failure manifestation (resilience taxonomy): a failed attempt is
  // classified kCrash or kTimeout by a hash of this seed. A crash is
  // detected after the serialize+transfer+driver round trip; a timeout
  // only after 4x the expected latency.
  std::uint64_t seed = 1;
};

struct ServiceRequest {
  std::string kernel;  // replica-group id (see BlazeService::AddReplica)
  Dataset input;
  // One-record shared data; must outlive the drain that serves the request.
  const Dataset* broadcast = nullptr;
  double arrival_us = 0;  // simulated arrival (clamped to the service clock)
};

struct RequestOutcome {
  std::size_t id = 0;  // submission order
  ServeOutcome outcome = ServeOutcome::kHost;
  std::string replica;      // accelerator that served it ("" = none)
  int attempts = 0;         // accelerator attempts planned
  bool probe = false;       // served as a quarantine probe
  double dispatch_us = 0;   // simulated dispatch time
  double complete_us = 0;   // simulated completion time
  double latency_us = 0;    // complete - arrival
  double charged_us = 0;    // billed work time (failed attempts included)
  Dataset output;
};

// Everything the serving layer counts.
struct ServiceStats {
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t completed_accel = 0;
  std::size_t completed_host = 0;      // host fallback or host-direct

  std::size_t accel_attempts = 0;
  std::size_t accel_failures = 0;
  std::size_t crashes = 0;   // failures manifesting as kCrash
  std::size_t timeouts = 0;  // failures manifesting as kTimeout
  std::size_t retries = 0;

  std::size_t probes = 0;
  std::size_t probe_successes = 0;
  std::size_t probe_failures = 0;
  std::size_t degradations = 0;    // healthy -> degraded transitions
  std::size_t quarantines = 0;     // -> quarantined transitions
  std::size_t reenlistments = 0;   // quarantined -> degraded via probe

  std::vector<double> latencies_us;  // completed requests, submission order

  // Nearest-rank quantile over the completed-request latencies (obs-style);
  // 0 when nothing completed. q in [0, 1].
  double LatencyQuantile(double q) const;
};

class BlazeService {
 public:
  // The runtime supplies registered accelerators and the offload cost
  // model; it must outlive the service. The service never mutates the
  // runtime.
  explicit BlazeService(BlazeRuntime& runtime, ServiceOptions options = {});
  // Out-of-line: HealthEvent is incomplete here (vector member).
  BlazeService(BlazeService&& other);
  ~BlazeService();

  // Adds accelerator `accel_id` (already registered with the runtime) as a
  // replica serving `kernel`. Replica order is the deterministic dispatch
  // tie-break. Rejects duplicates and unknown accelerators.
  void AddReplica(const std::string& kernel, const std::string& accel_id);
  std::size_t num_replicas(const std::string& kernel) const;

  // Installs (or clears) the plan-time fault injector. A failed attempt is
  // retried once (probes are not), then the request runs on the host.
  void SetFaultInjector(AccelFaultInjector injector);

  // Enqueues a request for the next Drain(). Arrival times before the
  // current service clock are clamped to it.
  void Submit(ServiceRequest request);

  // Graceful drain: serves every pending request to completion (nothing is
  // abandoned), advances the clock, and returns outcomes in submission
  // order. The service stays usable; stats and health carry over.
  std::vector<RequestOutcome> Drain();

  // Submit all + Drain, as one call.
  std::vector<RequestOutcome> Run(std::vector<ServiceRequest> requests);

  const ServiceStats& stats() const { return stats_; }
  double clock_us() const { return clock_us_; }
  // Health of one replica by accelerator id; throws on unknown ids.
  AcceleratorHealth health(const std::string& accel_id) const;
  // Health roll-up for `kernel`'s replica group at simulated time `now_us`
  // (probe readiness is time-dependent); throws on unknown kernels.
  ReplicaHealthCounts CountHealth(const std::string& kernel,
                                  double now_us) const;

 private:
  struct Replica {
    std::string accel_id;
    ExecutionStats per_invocation;   // cost model for one batch
    double host_us_per_invocation = 0;
    AcceleratorHealth health = AcceleratorHealth::kHealthy;
    std::deque<bool> window_failed;
    std::deque<double> window_latency_us;
    int consecutive_failures = 0;
    double free_us = 0;              // lane busy until this time
    double probe_eligible_us = 0;
    double probe_backoff_us = 0;
    bool probe_inflight = false;
    std::size_t invocations = 0;     // per-replica dispatch counter
  };

  struct KernelGroup {
    std::vector<std::size_t> replicas;  // indices into replicas_
  };

  // One queued request while planning.
  struct Pending;
  // The fully planned fate of one request.
  struct Plan;
  // A health-window sample waiting for its simulated timestamp.
  struct HealthEvent;

  Replica& ReplicaFor(const std::string& accel_id);
  const Replica& ReplicaFor(const std::string& accel_id) const;

  // The replica-selection policy, extracted so the tier ordering (free
  // healthy -> probe-ready quarantined -> free degraded -> wait -> host)
  // is named and testable in one place. `replica` is an index into
  // `replicas_` when `found`; `any_live_lane` reports whether some
  // healthy/degraded lane exists at all (busy lanes included), which is
  // what separates "wait for a lane" from "host-direct".
  struct ReplicaChoice {
    bool found = false;
    std::size_t replica = 0;
    bool probe = false;
    bool any_live_lane = false;
  };
  ReplicaChoice SelectReplica(const KernelGroup& group, double t) const;

  // Deterministic sequential planner (the only place the clock advances).
  void PlanAll(std::vector<Pending>& pending, std::vector<Plan>& plans);
  // Plans the dispatch of one request starting at `t`; returns its plan.
  void PlanDispatch(Pending& request, Plan& plan, std::size_t replica_index,
                    double t, bool probe);
  // Applies queued health-window samples with time <= t, in time order.
  void ApplyHealthEventsUpTo(double t);
  void ApplyHealthSample(Replica& replica, const HealthEvent& event);
  // Classifies a planned failure as kCrash or kTimeout (stateless hash).
  resilience::FailureKind ClassifyFailure(const std::string& accel_id,
                                          std::size_t invocation,
                                          int attempt) const;

  BlazeRuntime& runtime_;
  ServiceOptions options_;
  std::map<std::string, KernelGroup> kernels_;
  std::vector<Replica> replicas_;
  std::map<std::string, std::size_t> replica_index_;
  AccelFaultInjector injector_;

  std::vector<ServiceRequest> backlog_;  // submitted, not yet drained
  std::size_t next_id_ = 0;
  double clock_us_ = 0;
  ServiceStats stats_;
  std::vector<HealthEvent> health_events_;  // min-heap by (time, seq)
  std::size_t health_event_seq_ = 0;
  // Probe-eligibility timers raised while applying health samples; the
  // planner drains these into its event heap (quarantine can fire inside
  // ApplyHealthEventsUpTo, which cannot see the planner's heap directly).
  std::vector<std::pair<double, std::size_t>> probe_timers_pending_;
};

}  // namespace s2fa::blaze
