// Deterministic chaos harness for the sharded serving layer (BlazeCluster).
//
// A ChaosPlan is a scripted fault schedule on the shared simulated clock:
// whole-shard kills and restarts, accelerator faults (invocation-window
// bursts and a hash-sampled per-attempt rate), interconnect latency spikes,
// tenant floods, and poison requests that crash any batch containing them.
// It is the only source of accelerator faults: MakeShardFaultInjector turns
// it into the injector each cluster shard retries and falls back around. The plan is parsed fail-fast from a tiny text grammar so the CLI,
// benches, and tests can all drive the same schedules:
//
//   plan      := stmt ((';' | '\n') stmt)*
//   stmt      := (empty) | directive
//   directive :=
//     kill <shard> @ <time>            # shard dies; in-flight work is lost
//     restart <shard> @ <time>         # fresh process: health state resets
//     burst <start>:<len> [@ <shard>]  # replica-invocation fault window
//     fault-rate <rate> [/ <seed>]     # every replica: per-attempt fault
//     spike <factor> @ <time> + <dur>  # latency multiplier on dispatches
//     flood <tenant> @ <time> + <dur> x <count>   # synthetic request burst
//     poison <id> [, <id>]*            # these request ids crash their batch
//     poison-rate <rate> [/ <seed>]    # hash-sampled poison population
//   time      := NUMBER ['us' | 'ms' | 's']      # default microseconds
//
// Whitespace is insignificant. Parsing rejects — with MalformedInput, never
// a silent merge — unknown directives, malformed numbers, zero-length
// windows, overlapping bursts on the same target, kill/restart sequences
// that do not alternate in time order, overlapping spikes, duplicate poison
// ids, a repeated poison-rate or fault-rate directive, and rates outside
// [0, 1]. Shard indices and tenant names are validated against the actual
// topology by BlazeCluster::SetChaosPlan.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace s2fa::blaze {

struct ChaosKill {
  std::size_t shard = 0;
  double at_us = 0;
};

struct ChaosRestart {
  std::size_t shard = 0;
  double at_us = 0;
};

// A replica-invocation fault window: every accelerator attempt whose
// per-replica invocation counter falls in [start, start + length) fails.
// Optionally scoped to one shard (nullopt = every shard).
struct ChaosBurst {
  std::size_t start = 0;
  std::size_t length = 0;
  std::optional<std::size_t> shard;
};

// Dispatches started inside [start, start + duration) take factor times as
// long (models interconnect congestion; factor > 1).
struct ChaosSpike {
  double factor = 1.0;
  double start_us = 0;
  double duration_us = 0;
};

// `requests` synthetic requests from `tenant`, evenly spaced over
// [start, start + duration). The cluster materializes them through its
// flood generator.
struct ChaosFlood {
  std::string tenant;
  double start_us = 0;
  double duration_us = 0;
  std::size_t requests = 0;
};

struct ChaosPlan {
  std::vector<ChaosKill> kills;
  std::vector<ChaosRestart> restarts;
  std::vector<ChaosBurst> bursts;
  std::vector<ChaosSpike> spikes;
  std::vector<ChaosFlood> floods;
  std::vector<std::size_t> poison_ids;  // sorted, unique
  double poison_rate = 0;               // hash-sampled fraction in [0, 1]
  std::uint64_t poison_seed = 0xC4A05;
  // Each accelerator attempt of every replica fails with this probability,
  // rolled statelessly per (replica, invocation, attempt).
  double fault_rate = 0;
  std::uint64_t fault_seed = 0xACCE1;

  bool Empty() const {
    return kills.empty() && restarts.empty() && bursts.empty() &&
           spikes.empty() && floods.empty() && poison_ids.empty() &&
           poison_rate <= 0 && fault_rate <= 0;
  }
};

// Parses the grammar above; throws MalformedInput on any violation. An
// empty/whitespace-only string parses to an empty plan.
ChaosPlan ParseChaosPlan(const std::string& text);

// Structural validation shared by the parser and programmatically built
// plans: per-shard kill/restart alternation in time order, burst/spike
// window overlap, spike factor/duration sanity, sorted-unique poison ids,
// rates in [0, 1]. Throws MalformedInput. ChaosPlan is a public struct, so
// BlazeCluster::SetChaosPlan re-runs this rather than trusting that the
// plan came from ParseChaosPlan — a hand-built plan with, say, a restart
// before its kill fails fast instead of installing inverted dead windows.
void ValidateChaosPlan(const ChaosPlan& plan);

// Whether `request_id` is poisoned under `plan` (explicit id or hash roll).
// Stateless, so the verdict is identical across exec-thread counts.
bool IsPoisoned(const ChaosPlan& plan, std::size_t request_id);

// The latency multiplier for a dispatch starting at `t_us` (1.0 outside
// every spike window).
double SpikeFactorAt(const ChaosPlan& plan, double t_us);

// The plan-time fault hook: true when accelerator attempt `attempt` (0 =
// first try, 1 = the retry) of replica `accel_id`'s per-replica dispatch
// `invocation` fails.
using AccelFaultInjector = std::function<bool(
    const std::string& accel_id, std::size_t invocation, int attempt)>;

// The accelerator fault injector for `shard`: its own burst windows, the
// unscoped ones, and `fault_rate`. Stateless, so replays are identical
// across exec-thread counts. nullptr when no fault applies.
AccelFaultInjector MakeShardFaultInjector(const ChaosPlan& plan,
                                          std::size_t shard);

}  // namespace s2fa::blaze
