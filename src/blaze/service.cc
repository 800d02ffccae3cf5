#include "blaze/service.h"

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

// Fixed serving policy (ServiceOptions documents each where it applies).
constexpr int kQuarantineConsecutive = 3;       // failures in a row
constexpr std::size_t kHealthMinSamples = 4;    // capped at health_window
constexpr double kDegradeThreshold = 0.30;      // window failure rate
constexpr double kQuarantineThreshold = 0.60;   // window failure rate
constexpr double kLatencyDegradeFactor = 2.5;   // mean vs cost-model latency
constexpr double kProbeBackoffMultiplier = 2.0;
constexpr double kTimeoutDetectMultiplier = 4.0;  // x expected latency

}  // namespace

const char* HealthName(AcceleratorHealth health) {
  switch (health) {
    case AcceleratorHealth::kHealthy: return "healthy";
    case AcceleratorHealth::kDegraded: return "degraded";
    case AcceleratorHealth::kQuarantined: return "quarantined";
  }
  S2FA_UNREACHABLE("bad health state");
}

const char* ServeOutcomeName(ServeOutcome outcome) {
  switch (outcome) {
    case ServeOutcome::kAccelerator: return "accelerator";
    case ServeOutcome::kHost: return "host";
  }
  S2FA_UNREACHABLE("bad serve outcome");
}

double ServiceStats::LatencyQuantile(double q) const {
  S2FA_REQUIRE(q >= 0 && q <= 1.0, "quantile must be in [0, 1]");
  return QuantileNearestRank(latencies_us, q);
}

// ------------------------------------------------------- planner structures

struct BlazeService::Pending {
  std::size_t id = 0;
  std::size_t request_index = 0;  // into the drained backlog
  double arrival_us = 0;
};

struct BlazeService::Plan {
  std::size_t id = 0;
  std::size_t request_index = 0;
  ServeOutcome outcome = ServeOutcome::kHost;
  std::string replica;     // replica that served the accelerator path
  std::string exec_accel;  // design used for functional execution
  int attempts = 0;
  bool probe = false;
  double dispatch_us = 0;
  double complete_us = 0;
  double latency_us = 0;
  double charged_us = 0;
  Dataset output;  // filled by the execution phase
};

struct BlazeService::HealthEvent {
  double time_us = 0;
  std::size_t seq = 0;  // tie-break: creation order
  std::size_t replica = 0;
  bool failed = false;
  resilience::FailureKind kind = resilience::FailureKind::kNone;
  double latency_per_invocation_us = 0;
  bool is_probe = false;
};

// ----------------------------------------------------------------- service

BlazeService::BlazeService(BlazeRuntime& runtime, ServiceOptions options)
    : runtime_(runtime), options_(options) {
  S2FA_REQUIRE(options_.health_window >= 2,
               "health window must hold at least 2 samples");
  S2FA_REQUIRE(options_.exec_threads >= 1, "exec_threads must be >= 1");
}

BlazeService::BlazeService(BlazeService&& other) = default;
BlazeService::~BlazeService() = default;

void BlazeService::AddReplica(const std::string& kernel,
                              const std::string& accel_id) {
  S2FA_REQUIRE(!kernel.empty(), "kernel id must be non-empty");
  S2FA_REQUIRE(replica_index_.count(accel_id) == 0,
               "replica " << accel_id << " already enlisted");
  const RegisteredAccelerator& accel = runtime_.manager().Get(accel_id);
  Replica replica;
  replica.accel_id = accel_id;
  replica.per_invocation = runtime_.PerInvocationCost(accel_id);
  replica.host_us_per_invocation =
      replica.per_invocation.compute_us * runtime_.cost_model().host_slowdown;
  replica.probe_backoff_us = options_.probe_backoff_us;
  S2FA_REQUIRE(accel.plan.batch > 0, "bad serialization plan");
  replica_index_[accel_id] = replicas_.size();
  kernels_[kernel].replicas.push_back(replicas_.size());
  replicas_.push_back(std::move(replica));
}

std::size_t BlazeService::num_replicas(const std::string& kernel) const {
  auto it = kernels_.find(kernel);
  return it == kernels_.end() ? 0 : it->second.replicas.size();
}

void BlazeService::SetFaultInjector(AccelFaultInjector injector) {
  injector_ = std::move(injector);
}

BlazeService::Replica& BlazeService::ReplicaFor(const std::string& accel_id) {
  auto it = replica_index_.find(accel_id);
  S2FA_REQUIRE(it != replica_index_.end(),
               "no replica enlisted as " << accel_id);
  return replicas_[it->second];
}

const BlazeService::Replica& BlazeService::ReplicaFor(
    const std::string& accel_id) const {
  return const_cast<BlazeService*>(this)->ReplicaFor(accel_id);
}

AcceleratorHealth BlazeService::health(const std::string& accel_id) const {
  return ReplicaFor(accel_id).health;
}

ReplicaHealthCounts BlazeService::CountHealth(const std::string& kernel,
                                              double now_us) const {
  auto it = kernels_.find(kernel);
  S2FA_REQUIRE(it != kernels_.end(),
               "no replicas enlisted for kernel " << kernel);
  ReplicaHealthCounts counts;
  counts.next_probe_us = kInf;
  for (std::size_t index : it->second.replicas) {
    const Replica& replica = replicas_[index];
    switch (replica.health) {
      case AcceleratorHealth::kHealthy: ++counts.healthy; break;
      case AcceleratorHealth::kDegraded: ++counts.degraded; break;
      case AcceleratorHealth::kQuarantined:
        ++counts.quarantined;
        if (!replica.probe_inflight && replica.probe_eligible_us <= now_us) {
          ++counts.probe_ready;
        } else if (!replica.probe_inflight) {
          counts.next_probe_us =
              std::min(counts.next_probe_us, replica.probe_eligible_us);
        }
        break;
    }
  }
  return counts;
}

void BlazeService::Submit(ServiceRequest request) {
  S2FA_REQUIRE(kernels_.count(request.kernel) != 0,
               "no replicas enlisted for kernel " << request.kernel);
  backlog_.push_back(std::move(request));
}

std::vector<RequestOutcome> BlazeService::Run(
    std::vector<ServiceRequest> requests) {
  for (auto& request : requests) Submit(std::move(request));
  return Drain();
}

// ------------------------------------------------------ failure taxonomy

resilience::FailureKind BlazeService::ClassifyFailure(
    const std::string& accel_id, std::size_t invocation, int attempt) const {
  // Stateless, like the fault plans: the same dispatch always manifests the
  // same way regardless of thread count or drain batching.
  const double roll = resilience::detail::HashRoll(
      options_.seed ^ 0x5E61CEULL,
      accel_id + "#" + std::to_string(invocation), attempt);
  return roll < 0.5 ? resilience::FailureKind::kCrash
                    : resilience::FailureKind::kTimeout;
}

// ------------------------------------------------------ health application

void BlazeService::ApplyHealthEventsUpTo(double t) {
  // health_events_ is kept as a min-heap on (time, seq).
  auto later = [](const HealthEvent& a, const HealthEvent& b) {
    if (a.time_us != b.time_us) return a.time_us > b.time_us;
    return a.seq > b.seq;
  };
  while (!health_events_.empty() && health_events_.front().time_us <= t) {
    std::pop_heap(health_events_.begin(), health_events_.end(), later);
    HealthEvent event = std::move(health_events_.back());
    health_events_.pop_back();
    ApplyHealthSample(replicas_[event.replica], event);
  }
}

void BlazeService::ApplyHealthSample(Replica& replica,
                                     const HealthEvent& event) {
  const double t = event.time_us;
  if (event.is_probe) {
    replica.probe_inflight = false;
    if (event.failed) {
      ++stats_.probe_failures;
      // Probe attempts land in accel_attempts (PlanDispatch), so their
      // failures must land in the failure ledger too or attempts and
      // crashes+timeouts diverge from accel_failures.
      ++stats_.accel_failures;
      if (event.kind == resilience::FailureKind::kCrash) ++stats_.crashes;
      if (event.kind == resilience::FailureKind::kTimeout) ++stats_.timeouts;
      S2FA_COUNT("blaze.svc.accel_failures", 1);
      replica.probe_backoff_us =
          std::min(replica.probe_backoff_us * kProbeBackoffMultiplier,
                   options_.probe_backoff_max_us);
      replica.probe_eligible_us = t + replica.probe_backoff_us;
      S2FA_LOG_INFO("service: probe of " << replica.accel_id
                                         << " failed; next eligible at "
                                         << replica.probe_eligible_us
                                         << " us");
    } else {
      ++stats_.probe_successes;
      ++stats_.reenlistments;
      S2FA_COUNT("blaze.svc.reenlistments", 1);
      replica.health = AcceleratorHealth::kDegraded;
      replica.window_failed.clear();
      replica.window_latency_us.clear();
      replica.window_failed.push_back(false);
      replica.window_latency_us.push_back(event.latency_per_invocation_us);
      replica.consecutive_failures = 0;
      replica.probe_backoff_us = options_.probe_backoff_us;
      S2FA_LOG_INFO("service: probe re-enlisted " << replica.accel_id);
    }
    return;
  }
  // A sample from before the replica was quarantined is stale: the
  // quarantine decision already absorbed that evidence window.
  if (replica.health == AcceleratorHealth::kQuarantined) return;

  replica.window_failed.push_back(event.failed);
  replica.window_latency_us.push_back(event.latency_per_invocation_us);
  while (replica.window_failed.size() > options_.health_window) {
    replica.window_failed.pop_front();
    replica.window_latency_us.pop_front();
  }
  replica.consecutive_failures =
      event.failed ? replica.consecutive_failures + 1 : 0;
  if (event.failed) {
    ++stats_.accel_failures;
    if (event.kind == resilience::FailureKind::kCrash) ++stats_.crashes;
    if (event.kind == resilience::FailureKind::kTimeout) ++stats_.timeouts;
    S2FA_COUNT("blaze.svc.accel_failures", 1);
  }

  const std::size_t size = replica.window_failed.size();
  const std::size_t failures = static_cast<std::size_t>(
      std::count(replica.window_failed.begin(), replica.window_failed.end(),
                 true));
  const double rate =
      static_cast<double>(failures) / static_cast<double>(size);
  const bool enough =
      size >= std::min(kHealthMinSamples, options_.health_window);
  double mean_latency = 0;
  for (double sample : replica.window_latency_us) mean_latency += sample;
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
    replica.probe_inflight = false;
    probe_timers_pending_.emplace_back(replica.probe_eligible_us,
                                       replica_index_[replica.accel_id]);
    ++stats_.quarantines;
    S2FA_COUNT("blaze.svc.quarantines", 1);
    S2FA_LOG_WARN("service: quarantined " << replica.accel_id
                                          << " (window failure rate "
                                          << rate << ")");
  } else if (enough && (rate >= kDegradeThreshold || slow)) {
    if (replica.health == AcceleratorHealth::kHealthy) {
      replica.health = AcceleratorHealth::kDegraded;
      ++stats_.degradations;
      S2FA_COUNT("blaze.svc.degradations", 1);
      S2FA_LOG_INFO("service: degraded " << replica.accel_id);
    }
  } else if (replica.health == AcceleratorHealth::kDegraded && enough &&
             rate <= kDegradeThreshold / 2 && !slow) {
    replica.health = AcceleratorHealth::kHealthy;
    S2FA_LOG_INFO("service: " << replica.accel_id << " recovered to healthy");
  }
}

// --------------------------------------------------------------- planning

BlazeService::ReplicaChoice BlazeService::SelectReplica(
    const KernelGroup& group, double t) const {
  // Selection: free healthy replicas first (registration order is the
  // deterministic tie-break), then a probe of an eligible quarantined
  // replica, then free degraded ones. Probing before spilling to a degraded
  // replica lets a quarantined replica rejoin while a re-enlisted sibling
  // serves: a cluster shard hands its service one batch at a time, so
  // waiting for every live lane to be busy would never probe. The caller
  // waits while `any_live_lane` and nothing was found, and host-directs
  // only when the whole group is dark.
  ReplicaChoice choice;
  auto first_free = [&](AcceleratorHealth want) {
    for (std::size_t index : group.replicas) {
      const Replica& replica = replicas_[index];
      if (replica.health != want) continue;
      choice.any_live_lane = true;
      if (replica.free_us > t) continue;
      choice.found = true;
      choice.replica = index;
      return;
    }
  };
  first_free(AcceleratorHealth::kHealthy);
  if (choice.found) return choice;
  for (std::size_t index : group.replicas) {
    const Replica& replica = replicas_[index];
    if (replica.health != AcceleratorHealth::kQuarantined) continue;
    if (replica.free_us > t || replica.probe_inflight) continue;
    if (replica.probe_eligible_us > t) continue;
    choice.found = true;
    choice.replica = index;
    choice.probe = true;
    return choice;
  }
  first_free(AcceleratorHealth::kDegraded);
  return choice;
}

void BlazeService::PlanDispatch(Pending& request, Plan& plan,
                                std::size_t replica_index, double t,
                                bool probe) {
  Replica& replica = replicas_[replica_index];
  const ServiceRequest& rq = backlog_[request.request_index];
  const RegisteredAccelerator& accel =
      runtime_.manager().Get(replica.accel_id);
  const auto batch = static_cast<std::size_t>(accel.plan.batch);
  const std::size_t invocations =
      std::max<std::size_t>(1, (rq.input.num_records() + batch - 1) / batch);
  const double scale = static_cast<double>(invocations);
  const double accel_us = scale * replica.per_invocation.total_us;
  const double crash_detect_us =
      scale * (replica.per_invocation.serialize_us +
               replica.per_invocation.transfer_us +
               replica.per_invocation.overhead_us);
  const double timeout_detect_us = kTimeoutDetectMultiplier * accel_us;
  const double host_us = scale * replica.host_us_per_invocation;
  const std::size_t invocation = replica.invocations++;

  plan.replica = replica.accel_id;
  plan.exec_accel = replica.accel_id;
  plan.probe = probe;
  plan.dispatch_us = t;

  // Attempt segments on the simulated clock. A probe gets one attempt; a
  // regular dispatch retries once, then falls back to the host (SparkCL's
  // degradation policy; the only place accelerator failures are handled).
  struct Segment {
    double end_us = 0, cost_us = 0;
    bool failed = false;
    resilience::FailureKind kind = resilience::FailureKind::kNone;
  };
  std::vector<Segment> segments;
  const int max_attempts = probe ? 1 : 2;
  double cursor = t;
  bool succeeded = false;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    Segment segment;
    const bool failed =
        injector_ && injector_(replica.accel_id, invocation, attempt);
    if (!failed) {
      segment.end_us = cursor + accel_us;
      segment.cost_us = accel_us;
      segments.push_back(segment);
      succeeded = true;
      break;
    }
    segment.failed = true;
    segment.kind = ClassifyFailure(replica.accel_id, invocation, attempt);
    const double burn = segment.kind == resilience::FailureKind::kCrash
                            ? crash_detect_us
                            : timeout_detect_us;
    segment.end_us = cursor + burn;
    segment.cost_us = burn;
    segments.push_back(segment);
    cursor = segment.end_us;
  }

  double charged = 0;
  for (const Segment& segment : segments) charged += segment.cost_us;
  double complete;
  if (succeeded) {
    complete = segments.back().end_us;
    plan.outcome = ServeOutcome::kAccelerator;
    replica.free_us = complete;
  } else {
    // All accelerator attempts failed: host fallback, which frees the lane
    // the moment the host takes over.
    complete = cursor + host_us;
    plan.outcome = ServeOutcome::kHost;
    charged += host_us;
    replica.free_us = cursor;
  }

  // Queue the health-window samples at their simulated observation times.
  auto later = [](const HealthEvent& a, const HealthEvent& b) {
    if (a.time_us != b.time_us) return a.time_us > b.time_us;
    return a.seq > b.seq;
  };
  for (const Segment& segment : segments) {
    HealthEvent event;
    event.time_us = segment.end_us;
    event.seq = health_event_seq_++;
    event.replica = replica_index;
    event.failed = segment.failed;
    event.kind = segment.kind;
    event.latency_per_invocation_us = segment.cost_us / scale;
    event.is_probe = probe;
    health_events_.push_back(std::move(event));
    std::push_heap(health_events_.begin(), health_events_.end(), later);
  }
  const int attempts = static_cast<int>(segments.size());
  stats_.accel_attempts += segments.size();
  if (attempts == 2) {
    ++stats_.retries;
    S2FA_COUNT("blaze.svc.retries", 1);
  }
  if (probe) {
    ++stats_.probes;
    S2FA_COUNT("blaze.svc.probes", 1);
    replica.probe_inflight = true;
  }

  plan.attempts = attempts;
  plan.complete_us = complete;
  plan.latency_us = complete - request.arrival_us;
  plan.charged_us = charged;
}

void BlazeService::PlanAll(std::vector<Pending>& pending,
                           std::vector<Plan>& plans) {
  struct SimEvent {
    double time_us = 0;
    std::size_t seq = 0;
    enum Kind { kArrival, kLaneFree, kProbeTimer } kind = kArrival;
    std::size_t index = 0;  // pending index or replica index
  };
  auto later = [](const SimEvent& a, const SimEvent& b) {
    if (a.time_us != b.time_us) return a.time_us > b.time_us;
    return a.seq > b.seq;
  };
  std::vector<SimEvent> events;
  std::size_t seq = 0;
  auto push_event = [&](double t, SimEvent::Kind kind, std::size_t index) {
    events.push_back({t, seq++, kind, index});
    std::push_heap(events.begin(), events.end(), later);
  };
  for (std::size_t i = 0; i < pending.size(); ++i) {
    push_event(pending[i].arrival_us, SimEvent::kArrival, i);
  }
  std::vector<std::size_t> waiting;  // pending indices, FIFO

  // Dispatches every waiting request that can start at `t`. Skip-scans the
  // FIFO so one kernel's busy replicas never block another kernel's queue.
  auto try_dispatch = [&](double t) {
    bool progress = true;
    while (progress) {
      progress = false;
      ApplyHealthEventsUpTo(t);
      for (auto [probe_at, replica] : probe_timers_pending_) {
        push_event(probe_at, SimEvent::kProbeTimer, replica);
      }
      probe_timers_pending_.clear();
      for (std::size_t w = 0; w < waiting.size(); ++w) {
        Pending& request = pending[waiting[w]];
        Plan& plan = plans[waiting[w]];
        KernelGroup& group = kernels_[backlog_[request.request_index].kernel];
        const ReplicaChoice choice = SelectReplica(group, t);
        if (!choice.found && choice.any_live_lane) continue;  // wait
        if (!choice.found) {
          // Whole group quarantined with no probe ready: host-direct.
          const Replica& basis = replicas_[group.replicas.front()];
          const ServiceRequest& rq = backlog_[request.request_index];
          const auto batch = static_cast<std::size_t>(
              runtime_.manager().Get(basis.accel_id).plan.batch);
          const std::size_t invocations = std::max<std::size_t>(
              1, (rq.input.num_records() + batch - 1) / batch);
          plan.outcome = ServeOutcome::kHost;
          plan.exec_accel = basis.accel_id;
          plan.dispatch_us = t;
          plan.complete_us =
              t + static_cast<double>(invocations) *
                      basis.host_us_per_invocation;
          plan.latency_us = plan.complete_us - request.arrival_us;
          plan.charged_us = plan.complete_us - t;
        } else {
          PlanDispatch(request, plan, choice.replica, t, choice.probe);
          push_event(replicas_[choice.replica].free_us, SimEvent::kLaneFree,
                     choice.replica);
        }
        waiting.erase(waiting.begin() + static_cast<std::ptrdiff_t>(w));
        progress = true;
        break;
      }
    }
  };

  while (!events.empty()) {
    std::pop_heap(events.begin(), events.end(), later);
    SimEvent event = events.back();
    events.pop_back();
    clock_us_ = std::max(clock_us_, event.time_us);
    if (event.kind == SimEvent::kArrival) waiting.push_back(event.index);
    try_dispatch(event.time_us);
  }
  ApplyHealthEventsUpTo(kInf);  // absorb trailing samples
  for (auto [probe_at, replica] : probe_timers_pending_) {
    (void)probe_at;
    (void)replica;  // no traffic left to probe with; timers expire inertly
  }
  probe_timers_pending_.clear();
  S2FA_CHECK(waiting.empty(), "drain left requests in the queue");
  // Host-direct and host-fallback completions emit no lane event, so the
  // event loop alone can leave the clock before the last completion; the
  // drain contract stops the clock only once every request is done.
  for (const Plan& plan : plans) {
    clock_us_ = std::max(clock_us_, plan.complete_us);
  }
}

// ----------------------------------------------------------------- drain

std::vector<RequestOutcome> BlazeService::Drain() {
  S2FA_SPAN("blaze.svc.drain");
  std::vector<Pending> pending(backlog_.size());
  std::vector<Plan> plans(backlog_.size());
  for (std::size_t i = 0; i < backlog_.size(); ++i) {
    pending[i].id = next_id_++;
    pending[i].request_index = i;
    pending[i].arrival_us = std::max(backlog_[i].arrival_us, clock_us_);
    ++stats_.submitted;
    S2FA_COUNT("blaze.svc.submitted", 1);
  }
  std::stable_sort(pending.begin(), pending.end(),
                   [](const Pending& a, const Pending& b) {
                     return a.arrival_us < b.arrival_us;
                   });
  // The planner indexes pending and plans with the same index, so plans
  // must be aligned with the *sorted* order or every outcome (and the
  // design the execution phase runs) belongs to a different request.
  for (std::size_t i = 0; i < pending.size(); ++i) {
    plans[i].id = pending[i].id;
    plans[i].request_index = pending[i].request_index;
  }

  PlanAll(pending, plans);

  // Functional execution: embarrassingly parallel, one slot per request,
  // committed in submission order below (plan-order commit). ForkJoin
  // reuses its workers, so a drain (BlazeCluster drains per batch) starts
  // no threads, and exec_threads == 1 runs every plan on this thread.
  {
    auto execute = [this](Plan& plan) {
      S2FA_SPAN("blaze.svc.request");
      const ServiceRequest& rq = backlog_[plan.request_index];
      const RegisteredAccelerator& accel =
          runtime_.manager().Get(plan.exec_accel);
      plan.output =
          accel.design.pattern == kir::ParallelPattern::kReduce
              ? runtime_.Reduce(plan.exec_accel, rq.input, rq.broadcast)
              : runtime_.Map(plan.exec_accel, rq.input, rq.broadcast);
    };
    ForkJoin(plans.size(), static_cast<std::size_t>(options_.exec_threads),
             [&](std::size_t i) { execute(plans[i]); });
  }

  std::vector<RequestOutcome> outcomes(plans.size());
  for (Plan& plan : plans) {
    RequestOutcome& outcome = outcomes[plan.request_index];
    outcome.id = plan.id;
    outcome.outcome = plan.outcome;
    outcome.replica = plan.replica;
    outcome.attempts = plan.attempts;
    outcome.probe = plan.probe;
    outcome.dispatch_us = plan.dispatch_us;
    outcome.complete_us = plan.complete_us;
    outcome.latency_us = plan.latency_us;
    outcome.charged_us = plan.charged_us;
    outcome.output = std::move(plan.output);
    if (plan.outcome == ServeOutcome::kAccelerator) {
      ++stats_.completed_accel;
    } else {
      ++stats_.completed_host;
    }
    ++stats_.completed;
    stats_.latencies_us.push_back(plan.latency_us);
    S2FA_COUNT("blaze.svc.completed", 1);
    S2FA_OBSERVE("blaze.svc.latency_us", plan.latency_us);
    S2FA_OBSERVE("blaze.svc.charged_us", plan.charged_us);
  }
  backlog_.clear();
  return outcomes;
}

}  // namespace s2fa::blaze
