// StreamSession: SLO-bound micro-batching streaming mode over BlazeCluster.
//
// Batch replay pre-stages every request; streaming is the datacenter
// scenario S2FA actually targets — records arrive continuously per a
// rate-programmed schedule, and the system must stay correct and within
// SLO while saturated. The session layers three mechanisms over the
// cluster, all on the shared simulated clock:
//
//   * deterministic arrivals — an ArrivalSchedule (same statement grammar
//     as the chaos plan's flood: `arrive <tenant> @ <start> + <duration>
//     x <count>`) materializes records at evenly spaced simulated times, so
//     a run is a pure function of (schedule, generator, options) and
//     composes with a concurrent chaos plan on the cluster (kills, spikes,
//     floods mid-stream);
//
//   * SLO-bound micro-batches with watermark draining — records buffer by
//     (kernel, broadcast) and the batch closes on the first of three
//     triggers: record count (`batch_max_records`), age
//     (`batch_age_us`), or deadline (the oldest member is within
//     `deadline_headroom_us` of its SLO deadline). Reduce kernels never
//     batch across records. Draining is watermark-style: a record's
//     *external* commit time is held to max(own completion, every
//     earlier-arriving record's terminal time) — a batch only becomes
//     visible once everything before it has committed or been accountably
//     shed, so zero-lost accounting holds under kills mid-stream and the
//     watermark never regresses;
//
//   * a deterministic overload-control ladder, driven by measured queue
//     delay from a capacity model (modeled accelerator backlog over live
//     lanes — kills shrink capacity; the lanes are BlazeCluster::
//     LiveLanesAt's replica count, which exceeds the batches the cluster
//     actually runs at once when a shard has several replicas), engaging
//     in threshold order:
//       (1) CoDel-style queue management — when delay has exceeded
//           `codel_target_us` continuously for `codel_interval_us`,
//           closing batches shed the members whose SLO deadline is
//           already unmeetable (kShedUnmeetable) instead of FIFO-shedding
//           the newest;
//       (2) per-tenant retry budgets — full-shed records may retry, but
//           retries draw from a refill-rate token bucket
//           (resilience::RetryBudget), so a retry storm cannot amplify
//           overload; a denied token is kShedRetryBudget;
//       (3) brownout degradation — between `brownout_onset_us` and
//           `shed_onset_us` a credit accumulator routes a controlled,
//           linearly ramping fraction of batches (capped at
//           `brownout_max_fraction`) to the host path, trading latency
//           for a bounded shed rate. The host is modeled as one lane with
//           its own backlog horizon: once a host-routed batch could no
//           longer meet its SLO the valve closes and the ladder escalates
//           instead of hiding overload in a host queue;
//       (4) full shed — past `shed_onset_us` closing batches are shed
//           outright; records out of retries are kShedBrownout. Every
//           record lands in exactly one terminal state (checked).
//
// The naive comparison arm (OverloadPolicy::kFifoShed) tail-drops the
// newest arrival whenever modeled delay exceeds `shed_onset_us` — the
// strawman the ladder must beat on goodput at 2x load (bench_stream).
//
// Determinism: the session is a sequential event loop (events taken in
// (time, kind, push order), first arrivals ordered by seq); it submits
// surviving batches and performs ONE cluster Drain — the cluster is
// bit-identical across exec_threads, and everything else here is
// sequential, so stream outcomes are too.
//
// Footprint: the session keeps 16 bytes of bookkeeping per record next to
// its 96-byte StreamRecordOutcome. An outcome's `tenant` points into a
// process-wide name table that is never freed (one entry per distinct
// tenant name ever streamed, interned once per phase tenant when Run
// starts), so it stays valid after the schedule, session and cluster are
// gone. A record's input lives with its key's open batch (parallel to the
// batch's members) and leaves with it: concatenated into the batch input,
// dropped on a shed, or parked by seq while a granted retry waits to
// re-arrive. Each batch output is released as soon as its members have
// their rows, and the run's scratch as soon as it is consumed: the
// cluster requests after Submit, the drained outcomes and pending-batch
// lists after slicing. The watermark is read off the outcomes
// (external_commit_us, non-decreasing in seq order), not kept twice.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "blaze/cluster.h"
#include "resilience/budget.h"

namespace s2fa::blaze {

// How one streamed record ended. Exactly one of these per record.
enum class StreamOutcome : std::uint8_t {
  kCommitted,        // served through the cluster (any cluster path)
  kCommittedHost,    // brownout: session routed its batch to the host path
  kShedUnmeetable,   // CoDel: SLO deadline already unmeetable at close
  kShedBrownout,     // full-shed past shed_onset with retries exhausted
  kShedRetryBudget,  // full-shed and the tenant's retry bucket was empty
  kShedQueueFull,    // FIFO arm tail-drop (or a cluster admission shed)
};
const char* StreamOutcomeName(StreamOutcome outcome);
inline bool IsStreamShed(StreamOutcome o) {
  return o != StreamOutcome::kCommitted && o != StreamOutcome::kCommittedHost;
}

// Overload control: the ladder, or the naive tail-drop strawman.
enum class OverloadPolicy { kLadder, kFifoShed };

// One rate-programmed arrival phase: `count` records for `tenant`, evenly
// spaced over [start_us, start_us + duration_us). Phases may overlap
// (different tenants streaming concurrently).
struct ArrivalPhase {
  std::string tenant = "default";
  double start_us = 0;
  double duration_us = 0;
  std::size_t count = 0;
};

struct ArrivalSchedule {
  std::vector<ArrivalPhase> phases;
};

// Parses the arrival-schedule grammar — statements separated by ';' or
// newlines, chaos-plan style (the flood directive's shape):
//
//   arrive <tenant> @ <start> + <duration> x <count>
//
// with the chaos time suffixes (us/ms/s). Throws MalformedInput naming
// the offending statement. ValidateArrivalSchedule enforces count >= 1
// and duration > 0 on programmatically built schedules too.
ArrivalSchedule ParseArrivalSchedule(const std::string& text);
void ValidateArrivalSchedule(const ArrivalSchedule& schedule);

struct StreamOptions {
  // Micro-batch close triggers.
  std::size_t batch_max_records = 8;   // close on buffered record count
  double batch_age_us = 500;           // close when the batch is this old
  double slo_us = 20000;               // per-record deadline from arrival
  double deadline_headroom_us = 2000;  // close when oldest is this close
                                       // to its SLO deadline

  // Overload ladder thresholds on measured queue delay.
  double codel_target_us = 2000;    // CoDel: tolerable standing delay
  double codel_interval_us = 4000;  // ... sustained this long to engage
  double brownout_onset_us = 3000;  // host-fraction ramp starts
  double shed_onset_us = 8000;      // full shed past this
  // Brownout routes at most this fraction of closing batches to the host
  // path — degradation stays controlled, so overload beyond what a bounded
  // brownout can absorb escalates to full shed instead of hiding in the
  // host lane. Must be in (0, 1].
  double brownout_max_fraction = 0.5;

  // Retry policy for full-shed records.
  std::size_t max_retries = 1;      // re-enqueues per record (< 2^32)
  double retry_backoff_us = 200;    // re-arrival delay
  resilience::RetryBudgetOptions retry_budget;  // per-tenant token bucket

  // The FIFO arm tail-drops arrivals past `shed_onset_us` of modeled
  // delay, so the two arms shed at comparable pressure.
  OverloadPolicy policy = OverloadPolicy::kLadder;
};

struct StreamRecord {
  std::string kernel;
  Dataset input;
  // Must outlive the session run; batches only form across records
  // sharing the same broadcast pointer.
  const Dataset* broadcast = nullptr;
};

// Supplies record content by global arrival ordinal (the flood-generator
// idiom): deterministic, so the whole run replays bit-identically.
using StreamGenerator = std::function<StreamRecord(std::size_t ordinal)>;

// Narrow fields last, so the only padding is at the tail.
struct StreamRecordOutcome {
  std::size_t seq = 0;      // global arrival order
  std::string_view tenant;  // interned: valid for the process lifetime
  double arrival_us = 0;          // first (original) arrival
  double terminal_us = 0;         // own completion or shed time
  double external_commit_us = 0;  // watermark-gated visible commit/shed
  double latency_us = 0;          // external - arrival (0 for shed)
  Dataset output;                 // empty for shed records
  std::uint32_t retries = 0;      // re-enqueues this record consumed
  StreamOutcome outcome = StreamOutcome::kShedQueueFull;
};

struct StreamTenantStats {
  std::size_t arrivals = 0;
  std::size_t committed = 0;
  std::size_t committed_host = 0;
  std::size_t shed_unmeetable = 0;
  std::size_t shed_brownout = 0;
  std::size_t shed_retry_budget = 0;
  std::size_t shed_queue_full = 0;
  std::size_t retries = 0;  // granted re-enqueues
};

struct StreamStats {
  std::size_t arrivals = 0;
  std::size_t committed = 0;        // via the cluster
  std::size_t committed_host = 0;   // brownout host path
  std::size_t shed_unmeetable = 0;
  std::size_t shed_brownout = 0;
  std::size_t shed_retry_budget = 0;
  std::size_t shed_queue_full = 0;
  std::size_t retries_granted = 0;
  std::size_t retries_denied = 0;

  std::size_t batches_closed = 0;      // by any trigger
  std::size_t batches_dispatched = 0;  // submitted to the cluster
  std::size_t batches_host = 0;        // brownout host-routed
  std::size_t batches_shed = 0;        // full-shed at close
  std::size_t close_count = 0;     // trigger breakdown: record count
  std::size_t close_age = 0;       // ... batch age
  std::size_t close_deadline = 0;  // ... SLO headroom
  std::size_t codel_engagements = 0;  // below->above transitions that fired

  double max_queue_delay_us = 0;  // modeled backlog delay high-water
  double watermark_us = 0;        // final external watermark

  // External (watermark-gated) latency of committed records, seq order.
  // (The watermark itself is each outcome's external_commit_us.)
  std::vector<double> latencies_us;
  std::map<std::string, StreamTenantStats> tenants;

  double LatencyQuantile(double q) const;
  std::size_t shed_total() const {
    return shed_unmeetable + shed_brownout + shed_retry_budget +
           shed_queue_full;
  }
};

class StreamSession {
 public:
  // The cluster supplies topology, chaos, and the drain; it must outlive
  // the session. The session owns overload control and accounting.
  StreamSession(BlazeCluster& cluster, StreamOptions options = {});

  // Streams the schedule to completion and returns one terminal outcome
  // per record in seq (arrival) order. Single-shot: a session runs once.
  std::vector<StreamRecordOutcome> Run(const ArrivalSchedule& schedule,
                                       const StreamGenerator& generator);

  const StreamStats& stats() const { return stats_; }

 private:
  BlazeCluster& cluster_;
  StreamOptions options_;
  resilience::RetryBudget budget_;
  StreamStats stats_;
  bool ran_ = false;
};

}  // namespace s2fa::blaze
