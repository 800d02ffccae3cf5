#include "blaze/stream.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
#include <queue>
#include <set>
#include <span>
#include <unordered_map>

#include "blaze/internal.h"
#include "obs/obs.h"
#include "support/error.h"
#include "support/logging.h"

namespace s2fa::blaze {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// The cluster tenant every stream batch is submitted under (stream-level
// tenancy is accounted per record by the session itself).
constexpr const char* kClusterTenant = "stream";

// The process-wide tenant name table outcomes point into. Entries are
// never erased and the table is never destroyed, so an interned name
// outlives every schedule, session and cluster.
const std::string& InternTenant(const std::string& name) {
  static std::mutex mu;
  static auto* const names = new std::set<std::string, std::less<>>;
  const std::lock_guard<std::mutex> lock(mu);
  return *names->insert(name).first;
}

// Frees a container's storage, not just its elements.
template <typename Container>
void Release(Container& container) {
  Container().swap(container);
}

void ParseArrivalDirective(const std::string& stmt, ArrivalSchedule& out) {
  detail::StmtParser p("arrival schedule", stmt);
  if (!p.ConsumePrefix("arrive")) p.Fail("unknown directive");
  ArrivalPhase phase;
  phase.tenant = p.ParseName();
  p.Expect('@');
  phase.start_us = p.ParseTimeUs();
  p.Expect('+');
  phase.duration_us = p.ParseTimeUs();
  if (phase.duration_us <= 0) p.Fail("phase duration must be > 0");
  p.Expect('x');
  phase.count = p.ParseIndex();
  if (phase.count == 0) p.Fail("record count must be >= 1");
  p.ExpectEnd();
  out.phases.push_back(std::move(phase));
}

}  // namespace

const char* StreamOutcomeName(StreamOutcome outcome) {
  switch (outcome) {
    case StreamOutcome::kCommitted: return "committed";
    case StreamOutcome::kCommittedHost: return "committed-host";
    case StreamOutcome::kShedUnmeetable: return "shed-unmeetable";
    case StreamOutcome::kShedBrownout: return "shed-brownout";
    case StreamOutcome::kShedRetryBudget: return "shed-retry-budget";
    case StreamOutcome::kShedQueueFull: return "shed-queue-full";
  }
  S2FA_UNREACHABLE("bad stream outcome");
}

ArrivalSchedule ParseArrivalSchedule(const std::string& text) {
  ArrivalSchedule schedule;
  detail::ForEachStatement(text, [&schedule](const std::string& stmt) {
    ParseArrivalDirective(stmt, schedule);
  });
  ValidateArrivalSchedule(schedule);
  return schedule;
}

void ValidateArrivalSchedule(const ArrivalSchedule& schedule) {
  if (schedule.phases.empty()) {
    throw MalformedInput("arrival schedule: no phases");
  }
  for (const ArrivalPhase& phase : schedule.phases) {
    if (phase.tenant.empty()) {
      throw MalformedInput("arrival schedule: phase needs a tenant");
    }
    if (phase.start_us < 0 || !std::isfinite(phase.start_us)) {
      throw MalformedInput("arrival schedule: phase start must be >= 0");
    }
    if (phase.duration_us <= 0 || !std::isfinite(phase.duration_us)) {
      throw MalformedInput("arrival schedule: phase duration must be > 0");
    }
    if (phase.count == 0) {
      throw MalformedInput("arrival schedule: record count must be >= 1");
    }
  }
}

double StreamStats::LatencyQuantile(double q) const {
  S2FA_REQUIRE(q >= 0 && q <= 1.0, "quantile must be in [0, 1]");
  return detail::QuantileNearestRank(latencies_us, q);
}

StreamSession::StreamSession(BlazeCluster& cluster, StreamOptions options)
    : cluster_(cluster),
      options_(std::move(options)),
      budget_(options_.retry_budget) {
  S2FA_REQUIRE(options_.batch_max_records >= 1,
               "batch_max_records must be >= 1");
  S2FA_REQUIRE(options_.batch_age_us > 0, "batch_age_us must be > 0");
  S2FA_REQUIRE(options_.slo_us > 0, "slo_us must be > 0");
  S2FA_REQUIRE(options_.deadline_headroom_us >= 0,
               "deadline_headroom_us must be >= 0");
  S2FA_REQUIRE(options_.codel_target_us > 0, "codel_target_us must be > 0");
  S2FA_REQUIRE(options_.codel_interval_us > 0,
               "codel_interval_us must be > 0");
  S2FA_REQUIRE(options_.brownout_onset_us > 0 &&
                   options_.brownout_onset_us <= options_.shed_onset_us,
               "brownout_onset_us must be in (0, shed_onset_us]");
  S2FA_REQUIRE(options_.brownout_max_fraction > 0 &&
                   options_.brownout_max_fraction <= 1.0,
               "brownout_max_fraction must be in (0, 1]");
  S2FA_REQUIRE(options_.retry_backoff_us > 0,
               "retry_backoff_us must be > 0");
  S2FA_REQUIRE(
      options_.max_retries <= std::numeric_limits<std::uint32_t>::max(),
      "max_retries must be <= 2^32 - 1");
}

std::vector<StreamRecordOutcome> StreamSession::Run(
    const ArrivalSchedule& schedule, const StreamGenerator& generator) {
  S2FA_REQUIRE(!ran_, "StreamSession is single-shot: build a new one");
  ran_ = true;
  S2FA_REQUIRE(generator, "stream generator required");
  ValidateArrivalSchedule(schedule);
  S2FA_SPAN("blaze.stream.run");

  // ---- dense tenant ids: one per distinct tenant name, by phase, each
  // naming its entry in the process-wide table.
  std::vector<const std::string*> tenant_names;
  std::vector<std::uint32_t> phase_tenant;
  for (const ArrivalPhase& phase : schedule.phases) {
    std::uint32_t id = 0;
    while (id < tenant_names.size() && *tenant_names[id] != phase.tenant) ++id;
    if (id == tenant_names.size()) {
      tenant_names.push_back(&InternTenant(phase.tenant));
    }
    phase_tenant.push_back(id);
  }

  // ---- materialize the schedule: seq = global arrival order. Each
  // phase's slot times are non-decreasing, so merging the phases by
  // (time, phase index) yields exactly a stable sort by time. The outcome
  // table holds each record's fate (96 bytes), written in place; the
  // record table holds only what the loop needs per record (16 bytes), as
  // a record's input lives with its key's open batch (Key::inputs) or,
  // while it waits to retry, in `parked`.
  struct Rec {
    std::uint32_t rows = 0;
    std::uint32_t tenant = 0;
    std::uint32_t key = 0;
    bool arrived = false;
    bool terminal = false;
  };
  static_assert(sizeof(Rec) <= 16, "the per-record table grew");
  static_assert(sizeof(StreamRecordOutcome) <= 96,
                "the per-record outcome grew");
  std::size_t total = 0;
  for (const ArrivalPhase& phase : schedule.phases) total += phase.count;
  std::vector<StreamRecordOutcome> outs(total);
  std::vector<Rec> recs(total);
  {
    auto slot_us = [&schedule](std::size_t p, std::size_t i) {
      const ArrivalPhase& phase = schedule.phases[p];
      return phase.start_us + phase.duration_us * static_cast<double>(i) /
                                  static_cast<double>(phase.count);
    };
    const std::size_t phases = schedule.phases.size();
    std::vector<std::size_t> next(phases, 0);  // next slot index per phase
    std::vector<double> next_us(phases);       // ... and its time
    for (std::size_t p = 0; p < phases; ++p) next_us[p] = slot_us(p, 0);
    for (std::size_t seq = 0; seq < total; ++seq) {
      std::size_t best = phases;
      for (std::size_t p = 0; p < phases; ++p) {
        if (next[p] < schedule.phases[p].count &&
            (best == phases || next_us[p] < next_us[best])) {
          best = p;
        }
      }
      outs[seq].seq = seq;
      outs[seq].arrival_us = next_us[best];
      recs[seq].tenant = phase_tenant[best];
      if (++next[best] < schedule.phases[best].count) {
        next_us[best] = slot_us(best, next[best]);
      }
    }
  }

  // ---- session event loop. First arrivals come from a cursor over the
  // schedule (already in seq order); the heap holds only timers and retry
  // re-arrivals. Their push order starts at recs.size(), so the
  // (time, kind, order) tie-break matches a heap that held every arrival.
  enum EventKind { kArrival = 0, kTimer = 1 };
  enum class CloseTrigger { kCount, kAge, kDeadline };
  struct Event {
    double time_us;
    int kind;
    std::size_t order;       // push order: the deterministic tie-break
    std::size_t payload;     // arrival: seq; timer: key id
    std::size_t generation;  // timer: the batch it closes
    CloseTrigger trigger;    // timer: why it closes
  };
  auto later = [](const Event& a, const Event& b) {
    if (a.time_us != b.time_us) return a.time_us > b.time_us;
    if (a.kind != b.kind) return a.kind > b.kind;
    return a.order > b.order;
  };
  std::priority_queue<Event, std::vector<Event>, decltype(later)> events(
      later);
  std::size_t event_order = recs.size();
  auto push_event = [&](double at, int kind, std::size_t payload,
                        std::size_t generation = 0,
                        CloseTrigger trigger = CloseTrigger::kAge) {
    events.push({at, kind, event_order++, payload, generation, trigger});
  };

  // ---- dense key ids: (kernel, broadcast) interned at first arrival,
  // each holding that key's open batch.
  struct Key {
    std::string kernel;
    const Dataset* broadcast = nullptr;
    bool reduce = false;
    bool has_open = false;
    std::size_t generation = 0;
    std::vector<std::size_t> members;  // open batch, arrival order
    std::vector<Dataset> inputs;       // members' inputs, parallel
    std::size_t records = 0;
    double earliest_close_us = kInf;   // earliest timer pushed so far
  };
  std::vector<Key> keys;
  auto intern_key = [&](std::string& kernel, const Dataset* broadcast) {
    for (std::uint32_t id = 0; id < keys.size(); ++id) {
      if (keys[id].broadcast == broadcast && keys[id].kernel == kernel) {
        return id;
      }
    }
    Key key;
    key.reduce = cluster_.IsReduceKernel(kernel);
    key.kernel = std::move(kernel);
    key.broadcast = broadcast;
    keys.push_back(std::move(key));
    return static_cast<std::uint32_t>(keys.size() - 1);
  };
  std::size_t generation_counter = 0;

  // ---- capacity model: modeled accelerator backlog over live lanes.
  // Measured queue delay at t is how far the modeled accelerator horizon
  // is ahead of now; chaos kills shrink live lanes and so grow the cost
  // of each dispatched batch.
  double accel_finish_us = 0;
  auto lanes_at = [&](double t) {
    return std::max<std::size_t>(1, cluster_.LiveLanesAt(t));
  };
  auto delay_at = [&](double t) {
    return std::max(0.0, accel_finish_us - t);
  };

  // CoDel state: delay above target continuously since `above_since`.
  double codel_above_since = -1;
  bool codel_engaged = false;
  auto observe_delay = [&](double t) {
    const double delay = delay_at(t);
    stats_.max_queue_delay_us = std::max(stats_.max_queue_delay_us, delay);
    S2FA_OBSERVE("blaze.stream.queue_delay_us", delay);
    if (delay > options_.codel_target_us) {
      if (codel_above_since < 0) codel_above_since = t;
      const bool now_engaged =
          t - codel_above_since >= options_.codel_interval_us;
      if (now_engaged && !codel_engaged) ++stats_.codel_engagements;
      codel_engaged = now_engaged;
    } else {
      codel_above_since = -1;
      codel_engaged = false;
    }
    return delay;
  };

  // Brownout host capacity is modeled as one host lane with its own
  // backlog horizon: the host is a pressure-relief valve, not a second
  // cluster, and it saturates (host_slowdown is ~25x) — once a
  // host-routed batch could no longer meet the SLO, brownout stops
  // absorbing and the ladder escalates to full shed.
  double host_finish_us = 0;
  double brownout_credit = 0;

  // Batches submitted to the cluster, in submission order: each owns the
  // range [begin, end) of pending_members.
  struct PendingBatch {
    std::size_t begin = 0;
    std::size_t end = 0;
    double close_us = 0;
  };
  std::vector<PendingBatch> pending;
  std::vector<std::size_t> pending_members;
  std::vector<ClusterRequest> requests;
  // Inputs of full-shed records that won a retry token, by seq, until they
  // re-arrive.
  std::unordered_map<std::size_t, Dataset> parked;

  std::size_t served = 0;  // committed records: the latency count
  auto terminal = [&](std::size_t seq, StreamOutcome outcome, double t) {
    Rec& rec = recs[seq];
    S2FA_CHECK(!rec.terminal, "record " << seq << " terminated twice");
    rec.terminal = true;
    if (!IsStreamShed(outcome)) ++served;
    outs[seq].outcome = outcome;
    outs[seq].terminal_us = t;
  };

  // One batch input built from (and releasing) the key's member inputs.
  auto take_inputs = [](Key& key) {
    Dataset input;
    if (key.inputs.size() == 1) {
      input = std::move(key.inputs.front());
    } else {
      std::vector<const Dataset*> inputs;
      inputs.reserve(key.inputs.size());
      for (const Dataset& in : key.inputs) inputs.push_back(&in);
      input = ConcatDatasets(inputs);
    }
    key.inputs.clear();
    return input;
  };

  // Hands each member its rows of a batch output, consuming the output.
  auto slice_outputs = [&](std::span<const std::size_t> members,
                           Dataset&& output, bool reduce) {
    if (reduce) {
      S2FA_CHECK(members.size() == 1, "reduce batches never coalesce");
      outs[members.front()].output = std::move(output);
      return;
    }
    std::size_t rows = 0;
    for (std::size_t seq : members) rows += recs[seq].rows;
    S2FA_CHECK(output.num_records() == rows,
               "map batch returned " << output.num_records()
                                     << " rows for " << rows << " inputs");
    std::size_t row = 0;
    for (std::size_t seq : members) {
      outs[seq].output = SliceRecords(output, row, recs[seq].rows);
      row += recs[seq].rows;
    }
    output = Dataset();
  };

  // Executes a batch on the host path (brownout level 3): functionally
  // real through the runtime, completing after the host-path charge. Host
  // work does not occupy modeled accelerator lanes.
  auto host_route = [&](Key& key, double t) {
    const Dataset input = take_inputs(key);
    const std::string& accel = cluster_.ExecAccelFor(key.kernel);
    Dataset out =
        key.reduce ? cluster_.runtime().Reduce(accel, input, key.broadcast)
                   : cluster_.runtime().Map(accel, input, key.broadcast);
    const double done = std::max(host_finish_us, t) +
                        cluster_.HostUsFor(key.kernel, key.records);
    host_finish_us = done;
    slice_outputs(key.members, std::move(out), key.reduce);
    for (std::size_t seq : key.members) {
      terminal(seq, StreamOutcome::kCommittedHost, done);
    }
    ++stats_.batches_host;
  };

  auto dispatch_to_cluster = [&](Key& key, double t) {
    const double cost = cluster_.AccelUsFor(key.kernel, key.records) /
                        static_cast<double>(lanes_at(t));
    accel_finish_us = std::max(accel_finish_us, t) + cost;
    ClusterRequest request;
    request.kernel = key.kernel;
    request.input = take_inputs(key);
    request.broadcast = key.broadcast;
    request.arrival_us = t;
    request.tenant = kClusterTenant;
    requests.push_back(std::move(request));
    const std::size_t begin = pending_members.size();
    pending_members.insert(pending_members.end(), key.members.begin(),
                           key.members.end());
    pending.push_back({begin, pending_members.size(), t});
    ++stats_.batches_dispatched;
  };

  // Full-shed (ladder level 4): each member either retries on a granted
  // token, its input parked until it re-arrives, or lands in a terminal
  // shed state.
  auto full_shed = [&](Key& key, double t) {
    for (std::size_t i = 0; i < key.members.size(); ++i) {
      const std::size_t seq = key.members[i];
      StreamRecordOutcome& out = outs[seq];
      if (out.retries >= options_.max_retries) {
        terminal(seq, StreamOutcome::kShedBrownout, t);
      } else if (budget_.TryAcquire(*tenant_names[recs[seq].tenant], t)) {
        ++out.retries;
        ++stats_.retries_granted;
        parked.emplace(seq, std::move(key.inputs[i]));
        push_event(t + options_.retry_backoff_us, kArrival, seq);
      } else {
        ++stats_.retries_denied;
        terminal(seq, StreamOutcome::kShedRetryBudget, t);
      }
    }
    key.inputs.clear();
    ++stats_.batches_shed;
  };

  // Closes the key's open batch. Its member list is kept until the key
  // opens its next batch; its inputs leave with the batch.
  auto close_batch = [&](Key& key, double t, CloseTrigger trigger) {
    key.has_open = false;
    ++stats_.batches_closed;
    switch (trigger) {
      case CloseTrigger::kCount: ++stats_.close_count; break;
      case CloseTrigger::kAge: ++stats_.close_age; break;
      case CloseTrigger::kDeadline: ++stats_.close_deadline; break;
    }
    const double delay = observe_delay(t);

    if (options_.policy == OverloadPolicy::kFifoShed) {
      // The strawman never sheds at close (it tail-dropped at arrival).
      dispatch_to_cluster(key, t);
      return;
    }

    if (delay >= options_.shed_onset_us) {
      full_shed(key, t);
      return;
    }

    // CoDel (level 1): under sustained standing delay, shed exactly the
    // members whose SLO deadline can no longer be met — the modeled
    // completion t + delay + cost is already past arrival + slo.
    if (codel_engaged) {
      const double cost = cluster_.AccelUsFor(key.kernel, key.records) /
                          static_cast<double>(lanes_at(t));
      std::size_t kept = 0;
      for (std::size_t i = 0; i < key.members.size(); ++i) {
        const std::size_t seq = key.members[i];
        if (outs[seq].arrival_us + options_.slo_us < t + delay + cost) {
          terminal(seq, StreamOutcome::kShedUnmeetable, t);
          continue;
        }
        // A self-move would empty the input, so kept members stay put.
        if (kept != i) {
          key.members[kept] = seq;
          key.inputs[kept] = std::move(key.inputs[i]);
        }
        ++kept;
      }
      if (kept != key.members.size()) {
        key.members.resize(kept);
        key.inputs.resize(kept);
        key.records = 0;
        for (std::size_t seq : key.members) key.records += recs[seq].rows;
        if (key.members.empty()) return;
      }
    }

    // Brownout (level 3): between onset and full shed, a linearly ramping
    // fraction of batches — never more than brownout_max_fraction, so the
    // degradation stays controlled — routes to the host path via a
    // deterministic credit accumulator, and only while the host lane
    // could still meet the oldest member's SLO. A saturated host (or an
    // exhausted cap) stops absorbing, so the ladder escalates to full
    // shed instead of hiding overload in an ever-growing host queue.
    if (delay >= options_.brownout_onset_us) {
      const double span =
          std::max(1e-9, options_.shed_onset_us - options_.brownout_onset_us);
      const double fraction = std::min(
          options_.brownout_max_fraction,
          (delay - options_.brownout_onset_us) / span);
      brownout_credit = std::min(4.0, brownout_credit + fraction);
      if (brownout_credit >= 1.0) {
        const double host_done =
            std::max(host_finish_us, t) +
            cluster_.HostUsFor(key.kernel, key.records);
        double oldest_deadline = kInf;
        for (std::size_t seq : key.members) {
          oldest_deadline = std::min(
              oldest_deadline, outs[seq].arrival_us + options_.slo_us);
        }
        if (host_done <= oldest_deadline) {
          brownout_credit -= 1.0;
          host_route(key, t);
          return;
        }
      }
    }

    dispatch_to_cluster(key, t);
  };

  // Closes via timer; stale generations are no-ops.
  auto fire_timer = [&](const Event& timer) {
    Key& key = keys[timer.payload];
    if (!key.has_open || key.generation != timer.generation) return;
    close_batch(key, timer.time_us, timer.trigger);
  };

  auto arm_timer = [&](std::uint32_t id, double at, CloseTrigger trigger,
                       double now) {
    Key& key = keys[id];
    const double effective = std::max(now, at);
    if (effective >= key.earliest_close_us) return;
    key.earliest_close_us = effective;
    push_event(effective, kTimer, id, key.generation, trigger);
  };

  auto on_arrival = [&](std::size_t seq, double t) {
    Rec& rec = recs[seq];
    Dataset input;
    if (!rec.arrived) {
      rec.arrived = true;
      StreamRecord content = generator(seq);
      const std::size_t rows = content.input.num_records();
      S2FA_REQUIRE(rows > 0, "stream record " << seq << " has no records");
      S2FA_REQUIRE(rows <= std::numeric_limits<std::uint32_t>::max(),
                   "stream record " << seq << " has " << rows
                                    << " records, more than 2^32 - 1");
      rec.rows = static_cast<std::uint32_t>(rows);
      input = std::move(content.input);
      rec.key = intern_key(content.kernel, content.broadcast);
      ++stats_.arrivals;
    } else {
      const auto it = parked.find(seq);
      S2FA_CHECK(it != parked.end(),
                 "retried record " << seq << " lost its input");
      input = std::move(it->second);
      parked.erase(it);
    }
    const double delay = observe_delay(t);
    if (options_.policy == OverloadPolicy::kFifoShed &&
        delay > options_.shed_onset_us) {
      // Naive overload control: the queue is long, drop the newest.
      terminal(seq, StreamOutcome::kShedQueueFull, t);
      return;
    }
    Key& key = keys[rec.key];
    if (!key.has_open) {
      key.has_open = true;
      key.generation = ++generation_counter;
      key.members.clear();
      key.inputs.clear();
      key.records = 0;
      key.earliest_close_us = kInf;
      arm_timer(rec.key, t + options_.batch_age_us, CloseTrigger::kAge, t);
    }
    key.members.push_back(seq);
    key.inputs.push_back(std::move(input));
    key.records += rec.rows;
    arm_timer(rec.key,
              outs[seq].arrival_us + options_.slo_us -
                  options_.deadline_headroom_us,
              CloseTrigger::kDeadline, t);
    const std::size_t cap = key.reduce ? 1 : options_.batch_max_records;
    if (key.members.size() >= cap) {
      close_batch(key, t, CloseTrigger::kCount);
    }
  };

  std::size_t cursor = 0;
  while (cursor < recs.size() || !events.empty()) {
    if (cursor < recs.size()) {
      const Event first{outs[cursor].arrival_us, kArrival, cursor, cursor,
                        0, CloseTrigger::kAge};
      if (events.empty() || later(events.top(), first)) {
        on_arrival(cursor, first.time_us);
        ++cursor;
        continue;
      }
    }
    const Event event = events.top();
    events.pop();
    if (event.kind == kArrival) {
      on_arrival(event.payload, event.time_us);
    } else {
      fire_timer(event);
    }
  }
  for (const Key& key : keys) {
    S2FA_CHECK(!key.has_open, "open batches survived the event loop");
  }
  S2FA_CHECK(parked.empty(), "parked retries survived the event loop");

  // ---- one drain: the cluster serves every surviving batch to
  // completion on the shared simulated clock (chaos and all).
  for (ClusterRequest& request : requests) {
    cluster_.Submit(std::move(request));
  }
  Release(requests);
  std::vector<ClusterRequestOutcome> drained = cluster_.Drain();
  S2FA_CHECK(drained.size() == pending.size(),
             "cluster drain returned " << drained.size() << " outcomes for "
                                       << pending.size() << " batches");
  for (std::size_t b = 0; b < pending.size(); ++b) {
    ClusterRequestOutcome& out = drained[b];
    const std::span<const std::size_t> members(
        pending_members.data() + pending[b].begin,
        pending[b].end - pending[b].begin);
    if (out.outcome == ClusterServe::kRejectedFull ||
        out.outcome == ClusterServe::kTenantThrottled) {
      // The session is supposed to own admission; a cluster-side shed
      // means its queue/quota knobs are too tight for this schedule.
      S2FA_LOG_WARN("stream batch shed at cluster admission ("
                    << ClusterServeName(out.outcome)
                    << "): raise queue capacity");
      for (std::size_t seq : members) {
        terminal(seq, StreamOutcome::kShedQueueFull, pending[b].close_us);
      }
      continue;
    }
    const Key& key = keys[recs[members.front()].key];
    slice_outputs(members, std::move(out.output), key.reduce);
    for (std::size_t seq : members) {
      terminal(seq, StreamOutcome::kCommitted, out.complete_us);
    }
  }
  Release(drained);
  Release(pending);
  Release(pending_members);

  // ---- watermark accounting: external commit order is arrival order.
  // A record's visible commit waits for every earlier record to reach a
  // terminal state (commit or accounted shed), so the watermark never
  // regresses and nothing is lost or double-counted.
  std::vector<StreamTenantStats> tenants(tenant_names.size());
  stats_.latencies_us.reserve(served);
  double watermark = 0;
  for (std::size_t seq = 0; seq < outs.size(); ++seq) {
    StreamRecordOutcome& out = outs[seq];
    S2FA_CHECK(recs[seq].terminal, "record " << seq << " never terminated");
    watermark = std::max(watermark, out.terminal_us);
    out.tenant = *tenant_names[recs[seq].tenant];
    out.external_commit_us = watermark;

    StreamTenantStats& ts = tenants[recs[seq].tenant];
    ++ts.arrivals;
    ts.retries += out.retries;
    switch (out.outcome) {
      case StreamOutcome::kCommitted:
        ++stats_.committed;
        ++ts.committed;
        break;
      case StreamOutcome::kCommittedHost:
        ++stats_.committed_host;
        ++ts.committed_host;
        break;
      case StreamOutcome::kShedUnmeetable:
        ++stats_.shed_unmeetable;
        ++ts.shed_unmeetable;
        break;
      case StreamOutcome::kShedBrownout:
        ++stats_.shed_brownout;
        ++ts.shed_brownout;
        break;
      case StreamOutcome::kShedRetryBudget:
        ++stats_.shed_retry_budget;
        ++ts.shed_retry_budget;
        break;
      case StreamOutcome::kShedQueueFull:
        ++stats_.shed_queue_full;
        ++ts.shed_queue_full;
        break;
    }
    if (!IsStreamShed(out.outcome)) {
      out.latency_us = watermark - out.arrival_us;
      stats_.latencies_us.push_back(out.latency_us);
      S2FA_OBSERVE("blaze.stream.latency_us", out.latency_us);
    }
  }
  for (std::size_t id = 0; id < tenants.size(); ++id) {
    stats_.tenants[*tenant_names[id]] = tenants[id];
  }
  stats_.watermark_us = watermark;
  S2FA_GAUGE_MAX("blaze.stream.watermark_us", watermark);
  S2FA_CHECK(stats_.committed + stats_.committed_host +
                     stats_.shed_total() ==
                 outs.size(),
             "stream accounting mismatch");

  // Registry counters, published once from the run's totals.
  auto publish = [](const char* name [[maybe_unused]], std::size_t value) {
    if (value > 0) S2FA_COUNT(name, static_cast<std::int64_t>(value));
  };
  publish("blaze.stream.arrivals", stats_.arrivals);
  publish("blaze.stream.batches_closed", stats_.batches_closed);
  publish("blaze.stream.batches_dispatched", stats_.batches_dispatched);
  publish("blaze.stream.batches_host", stats_.batches_host);
  publish("blaze.stream.batches_shed", stats_.batches_shed);
  publish("blaze.stream.retries_granted", stats_.retries_granted);
  publish("blaze.stream.retries_denied", stats_.retries_denied);
  publish("blaze.stream.codel_engagements", stats_.codel_engagements);
  publish("blaze.stream.shed", stats_.shed_total());
  return outs;
}

}  // namespace s2fa::blaze
