#include "blaze/cluster.h"

#include <algorithm>
#include <limits>

#include "blaze/internal.h"
#include "obs/obs.h"
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

}  // namespace

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

// ----------------------------------------------------------------- cluster

BlazeCluster::BlazeCluster(BlazeRuntime& runtime, ClusterOptions options)
    : runtime_(runtime), options_(options) {
  S2FA_REQUIRE(options_.queue_capacity > 0, "queue capacity must be >= 1");
  S2FA_REQUIRE(options_.batch_max_requests > 0, "batch size must be >= 1");
  S2FA_REQUIRE(options_.exec_threads >= 1, "exec_threads must be >= 1");
}

BlazeCluster::~BlazeCluster() = default;
BlazeCluster::BlazeCluster(BlazeCluster&&) noexcept = default;

std::unique_ptr<BlazeService> BlazeCluster::MakeService(
    std::size_t shard) const {
  ServiceOptions so = options_.shard_options;
  so.exec_threads = options_.exec_threads;
  // Distinct failure-classification streams per fault domain.
  so.seed = options_.shard_options.seed + 0x9E37 * (shard + 1);
  auto service = std::make_unique<BlazeService>(runtime_, so);
  for (const auto& [kernel, accel_id] : shards_[shard].replicas) {
    service->AddReplica(kernel, accel_id);
  }
  service->SetFaultInjector(MakeShardFaultInjector(plan_, shard));
  return service;
}

std::size_t BlazeCluster::AddShard() {
  const std::size_t index = shards_.size();
  shards_.emplace_back();
  shards_.back().service = MakeService(index);
  stats_.shards.emplace_back();
  dead_windows_.emplace_back();
  return index;
}

void BlazeCluster::AddReplica(std::size_t shard, const std::string& kernel,
                              const std::string& accel_id) {
  S2FA_REQUIRE(shard < shards_.size(), "no such shard: " << shard);
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
  shards_[shard].replicas.emplace_back(kernel, accel_id);
  shards_[shard].service->AddReplica(kernel, accel_id);
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

std::size_t BlazeCluster::InvocationsFor(const KernelInfo& info,
                                         std::size_t records) const {
  return std::max<std::size_t>(1, (records + info.batch - 1) / info.batch);
}

double BlazeCluster::HostUs(const KernelInfo& info,
                            std::size_t records) const {
  return static_cast<double>(InvocationsFor(info, records)) *
         info.host_us_per_invocation;
}

double BlazeCluster::DetectUs(const KernelInfo& info,
                              std::size_t records) const {
  return static_cast<double>(InvocationsFor(info, records)) *
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
  // lifecycle timeline that drives service recreation.
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
    shards_[s].service->SetFaultInjector(MakeShardFaultInjector(plan_, s));
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
  return static_cast<double>(InvocationsFor(info, records)) *
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

const BlazeService& BlazeCluster::shard_service(std::size_t shard) const {
  S2FA_REQUIRE(shard < shards_.size(), "no such shard: " << shard);
  return *shards_[shard].service;
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
    clock_us_ = std::max(clock_us_, t);
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
      Shard& shard = shards_[s];
      if (shard.service->num_replicas(kernel) == 0) continue;
      if (!ShardAliveAt(s, t)) continue;
      const ReplicaHealthCounts counts =
          shard.service->CountHealth(kernel, t);
      if (counts.live() > 0) {
        if (shard.busy_until_us <= t) {
          // Depth routing (see the header): least outstanding backlog, then
          // least busy time per live replica, then more live replicas, then
          // the lower index.
          const double backlog =
              std::max(shard.service->clock_us() - t, 0.0);
          const double occupancy = stats_.shards[s].busy_us /
                                   static_cast<double>(counts.live());
          if (backlog < best_backlog ||
              (backlog == best_backlog &&
               (occupancy < best_occupancy ||
                (occupancy == best_occupancy &&
                 counts.live() > best_live_count)))) {
            best_backlog = backlog;
            best_occupancy = occupancy;
            best_live = s;
            best_live_count = counts.live();
          }
        } else {
          busy_any = true;
        }
      } else if (counts.probe_ready > 0) {
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
    // nodes dispatch to the service at the cursor where they were proven
    // clean. Poison singletons degrade to the host path after their final
    // failed attempt. The cursor runs on the raw (unspiked) timeline —
    // like the service completions below — so the spike factor is applied
    // exactly once, when raw offsets convert to absolute times.
    struct CleanNode {
      double arrival_us = 0;
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
        const bool has_poison =
            std::any_of(node.begin(), node.end(), [&](std::size_t index) {
              return slots[index].poisoned;
            });
        if (!has_poison) {
          clean.push_back({cursor, std::move(node)});
          continue;
        }
        ++burn_count;
        std::size_t node_records = 0;
        for (std::size_t index : node) node_records += records_of(index);
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
      std::size_t node_records = 0;
      for (std::size_t index : node.members) node_records += records_of(index);
      clean_accel_us += static_cast<double>(InvocationsFor(
                            info, node_records)) *
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
      std::vector<ServiceRequest> service_requests;
      service_requests.reserve(clean.size());
      for (const CleanNode& node : clean) {
        std::vector<const Dataset*> inputs;
        inputs.reserve(node.members.size());
        for (std::size_t index : node.members) {
          inputs.push_back(&slots[index].request.input);
        }
        ServiceRequest srq;
        srq.kernel = key.first;
        srq.input = ConcatDatasets(inputs);
        srq.broadcast = key.second;
        srq.arrival_us = node.arrival_us;
        service_requests.push_back(std::move(srq));
      }
      std::vector<RequestOutcome> outs =
          shard.service->Run(std::move(service_requests));

      std::vector<std::size_t> interrupted;
      for (std::size_t n = 0; n < clean.size(); ++n) {
        const CleanNode& node = clean[n];
        RequestOutcome& out = outs[n];
        const double complete =
            t + spike * (out.complete_us - t);  // interconnect congestion
        // Lane occupancy: an accelerator completion frees the lane at the
        // completion; a service host fallback frees it when the host takes
        // over.
        std::size_t node_records = 0;
        for (std::size_t index : node.members) {
          node_records += records_of(index);
        }
        double lane_free_raw = out.complete_us;
        if (out.outcome == ServeOutcome::kHost) {
          lane_free_raw = std::max(
              out.dispatch_us,
              out.complete_us - HostUs(info, node_records));
        }
        busy_raw = std::max(busy_raw, lane_free_raw);
        if (complete > kill_at) {
          // Post-check: service-injected faults stretched this sub-batch
          // past the kill; its result is never acked.
          interrupted.insert(interrupted.end(), node.members.begin(),
                             node.members.end());
          continue;
        }
        const ClusterServe mapped = out.outcome == ServeOutcome::kHost
                                        ? ClusterServe::kHost
                                        : ClusterServe::kAccelerator;
        std::size_t row = 0;
        for (std::size_t index : node.members) {
          Slot& slot = slots[index];
          if (info.pattern == kir::ParallelPattern::kReduce) {
            // A reduce collapses its whole batch to one output record;
            // slicing by the input record count would read past it. Reduce
            // batches are singletons (form_batch caps them at 1), so the
            // lone member owns the service output unsliced.
            S2FA_CHECK(node.members.size() == 1,
                       "reduce batches must be singletons");
            slot.output = std::move(out.output);
          } else {
            const std::size_t count = slot.request.input.num_records();
            slot.output = SliceRecords(out.output, row, count);
            row += count;
          }
          CommitRec rec;
          rec.slot = index;
          rec.outcome = mapped;
          rec.shard = mapped == ClusterServe::kAccelerator ? shard_index
                                                           : kNoShard;
          rec.replica = out.replica;
          rec.batch_size = node.members.size();
          rec.dispatch_us = t;
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
      slot.output = Dataset();       // the un-acked result is discarded
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
          // and the service clock all reset.
          shard.service = MakeService(life.shard);
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

  // ---- host-path functional execution (cluster-side commits have no
  // service output; accelerator paths were executed by the shards).
  {
    std::vector<std::size_t> need;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      Slot& slot = slots[i];
      if (slot.synthetic) continue;  // nobody reads flood outputs
      if (slot.outcome == ClusterServe::kRejectedFull ||
          slot.outcome == ClusterServe::kTenantThrottled) {
        continue;
      }
      if (slot.output.num_records() > 0 ||
          slot.request.input.num_records() == 0) {
        continue;
      }
      need.push_back(i);
    }
    auto execute = [&](Slot& slot) {
      S2FA_SPAN("blaze.cluster.host_exec");
      const KernelInfo& info = kernels_.at(slot.request.kernel);
      slot.output =
          info.pattern == kir::ParallelPattern::kReduce
              ? runtime_.Reduce(info.exec_accel, slot.request.input,
                                slot.request.broadcast)
              : runtime_.Map(info.exec_accel, slot.request.input,
                             slot.request.broadcast);
    };
    ForkJoin(need.size(), static_cast<std::size_t>(options_.exec_threads),
             [&](std::size_t i) { execute(slots[need[i]]); });
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
