// Sharded-serving replay (BlazeCluster): ~1M simulated requests through the
// fault-domain-aware cluster, gating the robustness contract via the exit
// code:
//
//   1. scaling    — saturating waves on 1/2/4 shards; simulated throughput
//                   must scale near-linearly (>= 1.7x at 2, >= 3.0x at 4);
//   2. chaos      — a scripted kill/restart, a replica fault burst, a
//                   latency spike, and hash-sampled poison requests over a
//                   paced stream: zero lost, zero reference mismatches,
//                   p99 bounded vs the clean baseline, and the killed
//                   shard takes traffic again after its restart (nothing
//                   commits on it while dead);
//   3. flood      — a quota'd noisy tenant floods a weighted-fair queue:
//                   the paying tenant is never throttled and its p99 stays
//                   bounded while the flooder eats the throttling;
//   4. routing    — a skewed tenant flood over a shard whose fault-burst
//                   host fallbacks hide expensive backlog behind an idle
//                   dispatch lane: depth routing loses nothing and its p99
//                   stays at or below its pinned value;
//   5. determinism— the same chaotic workload on 1/2/8 exec threads renders
//                   bit-identical outcome streams (plan-order commit);
//   6. node       — one node as a 1-shard cluster: AES on two replicas
//                   through warm / burst / recovery arrivals around an
//                   accelerator fault burst. Nothing is lost and every
//                   output matches the reference, the burst quarantines
//                   every replica and probes re-enlist them all, the age
//                   hedge lowers p99, and 1/2/8 exec threads agree bit for
//                   bit.
//
// Quick mode (S2FA_BENCH_QUICK=1, used by the cluster_smoke ctest) scales
// the request counts of phases 1-5 down ~50x but exercises every gate; the
// node phase is small enough to run whole. Every latency above is
// simulated time; the gates and the determinism hash pin those values,
// and the host time of a serving replay is measured by e2e_bench.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "apps/app.h"
#include "b2c/compiler.h"
#include "bench_util.h"
#include "blaze/cluster.h"
#include "jvm/assembler.h"
#include "merlin/transform.h"
#include "obs/obs.h"
#include "s2fa/framework.h"

using namespace s2fa;
using namespace s2fa::bench;

namespace {

constexpr std::size_t kRecordsPerRequest = 4;

bool QuickMode() {
  const char* env = std::getenv("S2FA_BENCH_QUICK");
  return env != nullptr && env[0] != '\0' && std::string(env) != "0";
}

// Doubler: double -> 2 * double, batch 8 — the cheapest functional kernel,
// so a million requests stay interpreter-bound, not harness-bound.
jvm::ClassPool MakePool() {
  jvm::ClassPool pool;
  jvm::Assembler a;
  a.Load(jvm::Type::Double(), 0).DConst(2.0).DMul().Ret(jvm::Type::Double());
  jvm::MethodSignature sig;
  sig.params = {jvm::Type::Double()};
  sig.ret = jvm::Type::Double();
  pool.Define("Doubler").AddMethod(
      jvm::MakeMethod("call", sig, true, 2, a.Finish()));
  return pool;
}

b2c::KernelSpec MakeSpec() {
  b2c::KernelSpec spec;
  spec.kernel_name = "doubler";
  spec.klass = "Doubler";
  spec.input.type = jvm::Type::Double();
  spec.input.fields = {{"x", jvm::Type::Double(), 1, false}};
  spec.output.type = jvm::Type::Double();
  spec.output.fields = {{"y", jvm::Type::Double(), 1, false}};
  spec.batch = 8;
  return spec;
}

blaze::Dataset DoublerInput(std::size_t records, double base) {
  blaze::Dataset input;
  blaze::Column x;
  x.field = "x";
  x.element = jvm::Type::Double();
  for (std::size_t i = 0; i < records; ++i) {
    x.data.push_back(jvm::Value::OfDouble(base + static_cast<double>(i)));
  }
  input.AddColumn(x);
  return input;
}

struct Harness {
  blaze::BlazeRuntime runtime;
  double request_us = 0;  // accelerator time for one request's invocation

  Harness() {
    jvm::ClassPool pool = MakePool();
    Artifact artifact =
        BuildWithConfig(pool, MakeSpec(), merlin::DesignConfig{});
    for (int i = 0; i < 4; ++i) {
      RegisterWithBlaze(runtime, "r" + std::to_string(i), artifact);
    }
    request_us = runtime.PerInvocationCost("r0").total_us;
  }

  // One replica per shard: each shard is one fault domain with one lane.
  blaze::BlazeCluster MakeCluster(blaze::ClusterOptions options,
                                  std::size_t shards) {
    blaze::BlazeCluster cluster(runtime, options);
    for (std::size_t s = 0; s < shards; ++s) {
      cluster.AddShard();
      cluster.AddReplica(s, "doubler", "r" + std::to_string(s));
    }
    return cluster;
  }
};

struct WaveResult {
  std::size_t mismatches = 0;
  std::vector<double> latencies_us;  // non-shed, submission order
  std::vector<blaze::ClusterRequestOutcome> outcomes;
};

// Submits `count` requests (base = their global ordinal offset) and checks
// every served output against the doubled reference. `spacing_us` == 0
// means all-at-once (the saturating capacity probe).
WaveResult RunWave(blaze::BlazeCluster& cluster, std::size_t count,
                   double first_ordinal, double start_us, double spacing_us,
                   const std::string& tenant, bool keep_outcomes = false) {
  std::vector<blaze::ClusterRequest> requests;
  requests.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    blaze::ClusterRequest rq;
    rq.kernel = "doubler";
    rq.input = DoublerInput(kRecordsPerRequest,
                            (first_ordinal + static_cast<double>(i)) *
                                static_cast<double>(kRecordsPerRequest));
    rq.arrival_us = start_us + spacing_us * static_cast<double>(i);
    rq.tenant = tenant;
    requests.push_back(std::move(rq));
  }
  std::vector<blaze::ClusterRequestOutcome> outcomes =
      cluster.Run(std::move(requests));

  WaveResult result;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const blaze::ClusterRequestOutcome& o = outcomes[i];
    if (o.outcome == blaze::ClusterServe::kRejectedFull ||
        o.outcome == blaze::ClusterServe::kTenantThrottled) {
      continue;
    }
    result.latencies_us.push_back(o.latency_us);
    const double base = (first_ordinal + static_cast<double>(i)) *
                        static_cast<double>(kRecordsPerRequest);
    if (o.output.num_records() != kRecordsPerRequest) {
      ++result.mismatches;
      continue;
    }
    const blaze::Column& y = o.output.ColumnByField("y");
    for (std::size_t n = 0; n < kRecordsPerRequest; ++n) {
      if (y.data[n].AsDouble() != 2.0 * (base + static_cast<double>(n))) {
        ++result.mismatches;
      }
    }
  }
  if (keep_outcomes) result.outcomes = std::move(outcomes);
  return result;
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  double rank =
      std::ceil(q * static_cast<double>(samples.size())) - 1;
  auto index = static_cast<std::size_t>(std::max(0.0, rank));
  return samples[std::min(index, samples.size() - 1)];
}

// FNV-1a over the canonical outcome stream: bit-identity without holding
// megabytes of rendered text.
struct CanonHash {
  std::uint64_t state = 1469598103934665603ULL;
  void Mix(const std::string& text) {
    for (unsigned char c : text) {
      state ^= c;
      state *= 1099511628211ULL;
    }
  }
  void Mix(const blaze::ClusterRequestOutcome& o) {
    std::ostringstream os;
    os << std::hexfloat;
    os << o.id << '|' << blaze::ClusterServeName(o.outcome) << '|' << o.shard
       << '|' << o.replica << '|' << o.tenant << '|' << o.batch_size << '|'
       << o.redirects << '|' << o.hedged << o.poisoned << '|' << o.dispatch_us
       << '|' << o.complete_us << '|' << o.latency_us << '|';
    for (std::size_t c = 0; c < o.output.num_columns(); ++c) {
      for (const auto& v : o.output.column(c).data) {
        os << (v.is_double() ? v.AsDouble()
               : v.is_float() ? v.AsFloat()
                              : static_cast<double>(v.AsInt()))
           << ',';
      }
    }
    os << '\n';
    Mix(os.str());
  }
};

// ---- the node phase: one node as a 1-shard cluster
constexpr int kNodeReplicas = 2;
constexpr int kNodeWarm = 5;       // clean invocations 0-4 of replica 0
constexpr int kNodeBurst = 16;     // arrivals during the fault burst
constexpr int kNodeRecovery = 8;   // spaced arrivals: probes re-enlist here
constexpr std::size_t kNodeRecords = 64;

// AES outputs are integers: a served output must equal the reference.
bool MatchesReference(const blaze::Dataset& got, const blaze::Dataset& want) {
  if (got.num_records() != want.num_records()) return false;
  for (std::size_t c = 0; c < want.num_columns(); ++c) {
    const blaze::Column& w = want.column(c);
    if (!got.HasField(w.field)) return false;
    const blaze::Column& g = got.ColumnByField(w.field);
    for (std::size_t n = 0; n < w.data.size(); ++n) {
      if (g.data[n].AsInt() != w.data[n].AsInt()) return false;
    }
  }
  return true;
}

struct NodeReplay {
  blaze::ClusterStats stats;
  std::vector<double> latencies_us;  // submission order
  std::uint64_t hash = 0;            // canonical outcome stream
  std::size_t lost = 0;
  std::size_t mismatches = 0;        // outputs vs the native reference
  bool all_recovered = false;        // no replica quarantined at the end
};

NodeReplay RunNode(const apps::App& app, const Artifact& artifact,
                   bool hedge, int exec_threads) {
  blaze::BlazeRuntime runtime;
  std::vector<std::string> ids;
  for (int i = 0; i < kNodeReplicas; ++i) {
    ids.push_back(app.name + "#" + std::to_string(i));
    RegisterWithBlaze(runtime, ids.back(), artifact);
  }
  // One invocation per request.
  const double req_us = runtime.PerInvocationCost(ids.front()).total_us;

  blaze::ClusterOptions options;
  options.batch_max_requests = 1;  // one dispatch per request
  options.exec_threads = exec_threads;
  // Hedge a request once it is a request's cost past its clean completion:
  // one that waits behind a host fallback or burns a failed attempt is
  // already there, a clean dispatch never is.
  options.queue_hedge_us = hedge ? 2 * req_us : 0;
  options.probe_backoff_us = req_us;
  options.probe_backoff_max_us = 8 * req_us;
  // Classification seed picked so the burst manifests both failure modes:
  // crashes detected at the driver round trip, timeouts only after 4x the
  // expected latency.
  options.seed = 3;
  blaze::BlazeCluster cluster(runtime, options);
  cluster.AddShard();
  for (const std::string& id : ids) cluster.AddReplica(0, app.name, id);
  // Per-replica invocations 5 and 6 fail every attempt. The shard
  // dispatches one request at a time, so replica 0 serves the warm phase
  // alone; five clean samples keep it healthy through the two failed
  // attempts of invocation 5, and the first attempt of invocation 6 is the
  // third failure in a row that quarantines it. Replica 1 then takes over
  // and goes the same way, and each one's first probe (invocation 7)
  // re-enlists it.
  cluster.SetChaosPlan(blaze::ParseChaosPlan("burst 5:2"));

  Rng rng(2018);
  blaze::Dataset broadcast;
  const blaze::Dataset* bc = nullptr;
  if (app.make_broadcast) {
    Rng brng(2018 ^ 0xBCA57ULL);
    broadcast = app.make_broadcast(brng);
    bc = &broadcast;
  }
  std::vector<blaze::Dataset> expected;
  auto request_at = [&](double arrival_us) {
    blaze::ClusterRequest rq;
    rq.kernel = app.name;
    rq.input = app.make_input(kNodeRecords, rng);
    rq.broadcast = bc;
    rq.arrival_us = arrival_us;
    expected.push_back(app.reference(rq.input, bc));
    return rq;
  };
  // Warm and burst arrivals near the shard's service rate (it dispatches
  // one request at a time) ...
  std::vector<blaze::ClusterRequest> requests;
  for (int i = 0; i < kNodeWarm + kNodeBurst; ++i) {
    requests.push_back(request_at(1.1 * req_us * i));
  }
  std::vector<blaze::ClusterRequestOutcome> outcomes =
      cluster.Run(std::move(requests));
  // ... then recovery arrivals in pairs, past the longest probe backoff
  // after the shard has drained the burst.
  const double recovery_start =
      cluster.clock_us() + options.probe_backoff_max_us;
  std::vector<blaze::ClusterRequest> recovery;
  for (int i = 0; i < kNodeRecovery; ++i) {
    recovery.push_back(request_at(recovery_start + (i / 2) * 2.5 * req_us));
  }
  for (auto& o : cluster.Run(std::move(recovery))) {
    outcomes.push_back(std::move(o));
  }

  NodeReplay replay;
  replay.stats = cluster.stats();
  const blaze::ClusterStats& s = replay.stats;
  replay.lost =
      s.submitted - s.completed - s.rejected_full - s.tenant_throttled;
  CanonHash hash;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const blaze::ClusterRequestOutcome& o = outcomes[i];
    hash.Mix(o);
    replay.latencies_us.push_back(o.latency_us);
    if (!MatchesReference(o.output, expected[i])) ++replay.mismatches;
  }
  replay.hash = hash.state;
  replay.all_recovered = true;
  for (const std::string& id : ids) {
    if (cluster.ReplicaHealth(id) == blaze::AcceleratorHealth::kQuarantined) {
      replay.all_recovered = false;
    }
  }
  return replay;
}

}  // namespace

int main() {
  MetricsScope metrics("cluster");
  const bool quick = QuickMode();
  const std::size_t scale_div = quick ? 50 : 1;
  std::printf("=== sharded serving replay (BlazeCluster chaos harness)%s ===\n",
              quick ? " [quick]" : "");

  Harness hx;

  // ---- phase 1: capacity scaling, saturating waves -----------------------
  const std::size_t scale_reqs = 120000 / scale_div;
  const std::size_t wave = 10000 / scale_div;
  std::map<std::size_t, double> tput;  // shards -> records per sim second
  for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    blaze::ClusterOptions options;
    options.queue_capacity = wave;
    options.batch_max_requests = 16;
    blaze::BlazeCluster cluster = hx.MakeCluster(options, shards);
    std::size_t mismatches = 0;
    for (std::size_t done = 0; done < scale_reqs; done += wave) {
      // Whole wave at the current clock: every shard saturates.
      WaveResult r = RunWave(cluster, std::min(wave, scale_reqs - done),
                             static_cast<double>(done), cluster.clock_us(),
                             /*spacing_us=*/0, "default");
      mismatches += r.mismatches;
    }
    const double makespan_us = cluster.clock_us();
    tput[shards] = static_cast<double>(scale_reqs * kRecordsPerRequest) /
                   (makespan_us / 1e6);
    std::printf("scale %zu shard%s: %zu reqs, makespan %.1f ms, "
                "%.0f records/s, %zu mismatches\n",
                shards, shards == 1 ? " " : "s", scale_reqs,
                makespan_us / 1e3, tput[shards], mismatches);
    if (mismatches > 0) {
      std::printf("GATE scale-reference-match: FAIL\n");
      return 1;
    }
  }
  const double scale2 = tput[2] / tput[1];
  const double scale4 = tput[4] / tput[1];
  const bool scales = scale2 >= 1.7 && scale4 >= 3.0;

  // ---- clean paced baseline on 4 shards ---------------------------------
  // Arrivals at ~90% of aggregate capacity: queues form but stay bounded.
  const double spacing4_us = hx.request_us / 4.0 / 0.9;
  const std::size_t base_reqs = 100000 / scale_div;
  double clean_p50 = 0, clean_p99 = 0;
  {
    blaze::ClusterOptions options;
    options.queue_capacity = 4096;
    options.batch_max_requests = 16;
    blaze::BlazeCluster cluster = hx.MakeCluster(options, 4);
    std::vector<double> latencies;
    std::size_t mismatches = 0;
    for (std::size_t done = 0; done < base_reqs; done += wave) {
      const std::size_t n = std::min(wave, base_reqs - done);
      WaveResult r = RunWave(cluster, n, static_cast<double>(done),
                             spacing4_us * static_cast<double>(done),
                             spacing4_us, "default");
      mismatches += r.mismatches;
      latencies.insert(latencies.end(), r.latencies_us.begin(),
                       r.latencies_us.end());
    }
    clean_p50 = Quantile(latencies, 0.5);
    clean_p99 = Quantile(latencies, 0.99);
    std::printf("clean baseline: %zu reqs, p50 %.0f / p99 %.0f us, "
                "%zu mismatches\n",
                base_reqs, clean_p50, clean_p99, mismatches);
    if (mismatches > 0) {
      std::printf("GATE clean-reference-match: FAIL\n");
      return 1;
    }
  }

  // ---- phase 2: scripted chaos on 4 shards ------------------------------
  const std::size_t chaos_reqs = 240000 / scale_div;
  bool chaos_ok = false, rebalance_ok = false, chaos_p99_ok = false;
  {
    const double span_us = spacing4_us * static_cast<double>(chaos_reqs);
    const double kill_at = 0.10 * span_us;
    const double restart_at = 0.30 * span_us;
    std::ostringstream plan;
    plan << "kill 0 @ " << kill_at << "; restart 0 @ " << restart_at
         << "; burst 100:400 @ 1"
         << "; spike 2.5 @ " << 0.5 * span_us << " + " << 0.1 * span_us
         << "; poison-rate 0.001 / 11";
    blaze::ClusterOptions options;
    options.queue_capacity = 4096;
    options.batch_max_requests = 16;
    // Hedge requests stuck ~10x past the clean tail: the burst-quarantined
    // shard parks its queue behind probe backoffs, and the host hedge is
    // what bounds that tail (and keeps the hedge-vs-failover race live).
    options.queue_hedge_us = 10 * clean_p99;
    blaze::BlazeCluster cluster = hx.MakeCluster(options, 4);
    cluster.SetChaosPlan(blaze::ParseChaosPlan(plan.str()));
    std::size_t mismatches = 0;
    std::size_t shard0_before_kill = 0, shard0_while_dead = 0,
                shard0_after_restart = 0;
    std::vector<double> latencies;
    for (std::size_t done = 0; done < chaos_reqs; done += wave) {
      const std::size_t n = std::min(wave, chaos_reqs - done);
      WaveResult r = RunWave(cluster, n, static_cast<double>(done),
                             spacing4_us * static_cast<double>(done),
                             spacing4_us, "default", /*keep_outcomes=*/true);
      mismatches += r.mismatches;
      latencies.insert(latencies.end(), r.latencies_us.begin(),
                       r.latencies_us.end());
      for (const auto& o : r.outcomes) {
        if (o.shard != 0) continue;
        if (o.dispatch_us < kill_at) ++shard0_before_kill;
        else if (o.dispatch_us < restart_at) ++shard0_while_dead;
        else ++shard0_after_restart;
      }
    }
    const blaze::ClusterStats& s = cluster.stats();
    const std::size_t lost =
        s.submitted - s.completed - s.rejected_full - s.tenant_throttled;
    const double chaos_p99 = Quantile(latencies, 0.99);
    chaos_ok = lost == 0 && mismatches == 0;
    // Dead means dead; revived means traffic comes back.
    rebalance_ok = shard0_while_dead == 0 && shard0_after_restart > 0 &&
                   s.shards[0].kills == 1 && s.shards[0].restarts == 1;
    chaos_p99_ok = chaos_p99 <= 30.0 * clean_p99;
    std::printf("chaos: %zu reqs, %zu lost, %zu mismatches, p99 %.0f us "
                "(clean %.0f), failovers %zu, redirects %zu, bisects %zu, "
                "poison %zu, shard0 %zu/%zu/%zu "
                "(pre-kill/dead/post-restart)\n",
                chaos_reqs, lost, mismatches, chaos_p99, clean_p99,
                s.failovers, s.redirects, s.bisect_attempts,
                s.poison_isolated, shard0_before_kill, shard0_while_dead,
                shard0_after_restart);
  }

  // ---- phase 3: tenant flood under weighted-fair admission --------------
  const std::size_t flood_reqs = 160000 / scale_div;
  const std::size_t flood_extra = 40000 / scale_div;
  bool flood_ok = false, flood_p99_ok = false;
  {
    const double span_us = spacing4_us * static_cast<double>(flood_reqs);
    // Compressed into 5% of the span: the flood arrival rate is far above
    // aggregate capacity, so the noisy tenant's queued quota must trip.
    std::ostringstream plan;
    plan << "flood noisy @ " << 0.2 * span_us << " + " << 0.05 * span_us
         << " x " << flood_extra;
    blaze::ClusterOptions options;
    options.queue_capacity = 4096;
    options.batch_max_requests = 16;
    blaze::BlazeCluster cluster = hx.MakeCluster(options, 4);
    cluster.AddTenant("payer", 4.0, 0);
    cluster.AddTenant("noisy", 1.0, 32);
    cluster.SetChaosPlan(blaze::ParseChaosPlan(plan.str()));
    cluster.SetFloodGenerator([](std::size_t ordinal) {
      blaze::ClusterRequest rq;
      rq.kernel = "doubler";
      rq.input = DoublerInput(kRecordsPerRequest,
                              1e9 + static_cast<double>(ordinal));
      return rq;
    });
    std::size_t mismatches = 0;
    std::vector<double> payer_latencies;
    for (std::size_t done = 0; done < flood_reqs; done += wave) {
      const std::size_t n = std::min(wave, flood_reqs - done);
      WaveResult r = RunWave(cluster, n, static_cast<double>(done),
                             spacing4_us * static_cast<double>(done),
                             spacing4_us, "payer");
      mismatches += r.mismatches;
      payer_latencies.insert(payer_latencies.end(), r.latencies_us.begin(),
                             r.latencies_us.end());
    }
    const blaze::ClusterStats& s = cluster.stats();
    const blaze::TenantStats& payer = s.tenants.at("payer");
    const blaze::TenantStats& noisy = s.tenants.at("noisy");
    const std::size_t lost =
        s.submitted - s.completed - s.rejected_full - s.tenant_throttled;
    const double payer_p99 = Quantile(payer_latencies, 0.99);
    flood_ok = lost == 0 && mismatches == 0 && payer.throttled == 0 &&
               payer.rejected_full == 0 && noisy.throttled > 0 &&
               s.flood_injected == flood_extra;
    flood_p99_ok = payer_p99 <= 30.0 * clean_p99;
    std::printf("flood: %zu payer + %zu flood reqs, %zu lost, %zu "
                "mismatches, payer p99 %.0f us, noisy throttled %zu of "
                "%zu\n",
                flood_reqs, s.flood_injected, lost, mismatches, payer_p99,
                noisy.throttled, noisy.submitted);
  }

  // ---- phase 4: routing under hidden host backlog -----------------------
  // A host fallback frees the shard's dispatch lane at failure detection,
  // but the shard's planning clock runs ahead to the host completion. With
  // the host path made genuinely painful, a router scoring lane occupancy
  // alone keeps feeding the shard that looks idle while it owes invisible
  // host work; depth routing scores that backlog directly. Episodes replay a
  // skewed tenant flood with a scripted fault burst per fresh cluster so
  // every episode exercises the pre-quarantine divergence window. The p99
  // bound is the depth-routed p99 this replay measured when depth routing
  // became the only policy (an occupancy-only scorer gave 1345.6 us).
  // Every episode replays the same arrivals and faults (only the record
  // values differ), so one count serves both modes: more episodes would
  // measure the same p99 to the last bit. A router change that lets
  // traffic stack up behind the hidden backlog again pushes p99 past the
  // bound.
  constexpr std::size_t routing_episodes = 20;
  constexpr double kRoutingP99BoundUs = 1093.822;
  bool routing_ok = false, routing_tail_ok = false;
  double routing_p99 = 0;
  {
    blaze::OffloadCostModel pain;
    pain.host_slowdown = 2000.0;
    blaze::BlazeRuntime host_pain(pain);
    {
      jvm::ClassPool pool = MakePool();
      Artifact artifact =
          BuildWithConfig(pool, MakeSpec(), merlin::DesignConfig{});
      RegisterWithBlaze(host_pain, "r0", artifact);
      RegisterWithBlaze(host_pain, "r1", artifact);
    }
    std::size_t lost = 0, mismatches = 0;
    std::vector<double> latencies;
    for (std::size_t e = 0; e < routing_episodes; ++e) {
      blaze::ClusterOptions options;
      options.queue_capacity = 4096;
      options.batch_max_requests = 1;  // one routing decision per request
      blaze::BlazeCluster cluster(host_pain, options);
      cluster.AddShard();
      cluster.AddShard();
      cluster.AddReplica(0, "doubler", "r0");  // single replica: faults
      cluster.AddReplica(1, "doubler", "r1");  // fall back to the host
      cluster.SetChaosPlan(blaze::ParseChaosPlan("burst 0:3 @ 0"));
      std::vector<blaze::ClusterRequest> requests;
      const double base0 = static_cast<double>(e) * 25.0 * kRecordsPerRequest;
      double base = base0;
      // Noisy tenant floods at ~5x the per-invocation cost; the light
      // tenant trickles in between. No simultaneous arrivals: the routing
      // score, not the one-batch-per-shard gate, decides.
      for (int i = 0; i < 20; ++i) {
        blaze::ClusterRequest rq;
        rq.kernel = "doubler";
        rq.input = DoublerInput(kRecordsPerRequest, base);
        rq.arrival_us = 150.0 * i;
        rq.tenant = "noisy";
        requests.push_back(std::move(rq));
        base += kRecordsPerRequest;
      }
      for (int i = 0; i < 5; ++i) {
        blaze::ClusterRequest rq;
        rq.kernel = "doubler";
        rq.input = DoublerInput(kRecordsPerRequest, base);
        rq.arrival_us = 675.0 + 600.0 * i;
        rq.tenant = "light";
        requests.push_back(std::move(rq));
        base += kRecordsPerRequest;
      }
      auto outcomes = cluster.Run(std::move(requests));
      for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const blaze::ClusterRequestOutcome& o = outcomes[i];
        if (o.outcome == blaze::ClusterServe::kRejectedFull ||
            o.outcome == blaze::ClusterServe::kTenantThrottled) {
          ++lost;
          continue;
        }
        latencies.push_back(o.latency_us);
        const double want =
            base0 + static_cast<double>(i) *
                        static_cast<double>(kRecordsPerRequest);
        if (o.output.num_records() != kRecordsPerRequest) {
          ++mismatches;
          continue;
        }
        const blaze::Column& y = o.output.ColumnByField("y");
        for (std::size_t n = 0; n < kRecordsPerRequest; ++n) {
          if (y.data[n].AsDouble() != 2.0 * (want + static_cast<double>(n))) {
            ++mismatches;
          }
        }
      }
    }
    routing_p99 = Quantile(latencies, 0.99);
    routing_ok = lost == 0 && mismatches == 0;
    routing_tail_ok = routing_p99 <= kRoutingP99BoundUs;
    std::printf("routing: %zu episodes x 25 reqs, depth p99 %.0f us, lost "
                "%zu, mismatches %zu\n",
                routing_episodes, routing_p99, lost, mismatches);
  }

  // ---- phase 5: exec-thread bit-identity --------------------------------
  const std::size_t det_reqs = 40000 / scale_div;
  bool deterministic = false;
  {
    const double spacing2_us = hx.request_us / 2.0 / 0.9;
    const double span_us = spacing2_us * static_cast<double>(det_reqs);
    std::ostringstream plan;
    plan << "kill 0 @ " << 0.2 * span_us << "; restart 0 @ " << 0.4 * span_us
         << "; burst 50:100 @ 1; spike 2 @ " << 0.6 * span_us << " + "
         << 0.1 * span_us << "; poison-rate 0.002 / 3";
    std::vector<std::uint64_t> hashes;
    for (int threads : {1, 2, 8}) {
      blaze::ClusterOptions options;
      options.queue_capacity = 4096;
      options.batch_max_requests = 8;
      options.exec_threads = threads;
      options.queue_hedge_us = 20 * clean_p99;
      blaze::BlazeCluster cluster = hx.MakeCluster(options, 2);
      cluster.SetChaosPlan(blaze::ParseChaosPlan(plan.str()));
      CanonHash hash;
      for (std::size_t done = 0; done < det_reqs; done += wave) {
        const std::size_t n = std::min(wave, det_reqs - done);
        WaveResult r =
            RunWave(cluster, n, static_cast<double>(done),
                    spacing2_us * static_cast<double>(done), spacing2_us,
                    "default", /*keep_outcomes=*/true);
        for (const auto& o : r.outcomes) hash.Mix(o);
      }
      hashes.push_back(hash.state);
    }
    deterministic = hashes[0] == hashes[1] && hashes[0] == hashes[2];
    std::printf("determinism: %zu reqs x {1,2,8} exec threads, canonical "
                "hash %016llx %s\n",
                det_reqs, static_cast<unsigned long long>(hashes[0]),
                deterministic ? "(all equal)" : "(MISMATCH)");
  }

  // ---- phase 6: one node as a 1-shard cluster ----------------------------
  bool node_ok = false, node_recovers = false, node_hedge_pays = false,
       node_deterministic = false;
  {
    apps::App app = apps::FindApp("AES");
    const Artifact artifact =
        BuildWithConfig(*app.pool, app.spec, merlin::DesignConfig{});
    const NodeReplay plain = RunNode(app, artifact, /*hedge=*/false, 1);
    const NodeReplay hedged = RunNode(app, artifact, /*hedge=*/true, 1);
    const NodeReplay hedged2 = RunNode(app, artifact, /*hedge=*/true, 2);
    const NodeReplay hedged8 = RunNode(app, artifact, /*hedge=*/true, 8);
    const double p99_plain = Quantile(plain.latencies_us, 0.99);
    const double p99_hedged = Quantile(hedged.latencies_us, 0.99);
    node_ok = plain.lost == 0 && hedged.lost == 0 && plain.mismatches == 0 &&
              hedged.mismatches == 0;
    // The health cycle is read off the unhedged replay: hedges that win
    // while a request still queues keep it from the replicas, so the hedged
    // replay feeds the state machine fewer dispatches.
    node_recovers = plain.stats.shards[0].quarantines >= kNodeReplicas &&
                    plain.stats.shards[0].reenlistments >= kNodeReplicas &&
                    plain.all_recovered;
    node_hedge_pays = hedged.stats.hedges_won > 0 && p99_hedged < p99_plain;
    node_deterministic =
        hedged.hash == hedged2.hash && hedged.hash == hedged8.hash;
    for (const auto& [label, r] : {std::pair<const char*, const NodeReplay*>{
                                       "no hedge", &plain},
                                   {"age hedge", &hedged}}) {
      const blaze::ClusterStats& s = r->stats;
      const blaze::ShardStats& h = r->stats.shards[0];
      std::printf("node %-9s: %zu reqs, %zu lost, %zu mismatches, p99 %.0f "
                  "us; %zu accel / %zu host / %zu hedged; %zu failures (%zu "
                  "crash, %zu timeout), %zu quarantines, %zu "
                  "re-enlistments; hedges %zu launched, %zu won\n",
                  label, s.submitted, r->lost, r->mismatches,
                  Quantile(r->latencies_us, 0.99), s.completed_accel,
                  s.completed_host, s.completed_hedge, h.accel_failures,
                  h.crashes, h.timeouts, h.quarantines, h.reenlistments,
                  s.hedges_launched, s.hedges_won);
    }
    // Phase-attributed latencies of the hedged replay: the warm / burst /
    // recovery histograms in the metrics snapshot give p50/p95/p99 per
    // phase.
    const struct {
      const char* name;
      std::size_t first, count;
    } phases[] = {
        {"warm", 0, kNodeWarm},
        {"burst", kNodeWarm, kNodeBurst},
        {"recovery", kNodeWarm + kNodeBurst, kNodeRecovery},
    };
    for (const auto& phase : phases) {
      for (std::size_t i = phase.first; i < phase.first + phase.count; ++i) {
        S2FA_OBSERVE("serving." + std::string(phase.name) + ".latency_us",
                     hedged.latencies_us[i]);
      }
    }
  }

  std::printf("\nGATE shard-scaling: %s (2 shards %.2fx, 4 shards %.2fx)\n",
              scales ? "PASS" : "FAIL", scale2, scale4);
  std::printf("GATE chaos-zero-lost-and-match: %s\n",
              chaos_ok ? "PASS" : "FAIL");
  std::printf("GATE chaos-p99-bounded: %s\n", chaos_p99_ok ? "PASS" : "FAIL");
  std::printf("GATE failover-rebalance: %s\n",
              rebalance_ok ? "PASS" : "FAIL");
  std::printf("GATE flood-fairness: %s\n", flood_ok ? "PASS" : "FAIL");
  std::printf("GATE flood-p99-bounded: %s\n", flood_p99_ok ? "PASS" : "FAIL");
  std::printf("GATE routing-zero-lost-and-match: %s\n",
              routing_ok ? "PASS" : "FAIL");
  std::printf("GATE routing-depth-p99-bounded: %s (%.0f us, bound %.0f us)\n",
              routing_tail_ok ? "PASS" : "FAIL", routing_p99,
              kRoutingP99BoundUs);
  std::printf("GATE exec-thread-determinism: %s\n",
              deterministic ? "PASS" : "FAIL");
  std::printf("GATE node-zero-lost-and-match: %s\n",
              node_ok ? "PASS" : "FAIL");
  std::printf("GATE node-quarantine-recovers: %s\n",
              node_recovers ? "PASS" : "FAIL");
  std::printf("GATE node-hedge-lowers-p99: %s\n",
              node_hedge_pays ? "PASS" : "FAIL");
  std::printf("GATE node-exec-thread-determinism: %s\n",
              node_deterministic ? "PASS" : "FAIL");

  return (scales && chaos_ok && chaos_p99_ok && rebalance_ok && flood_ok &&
          flood_p99_ok && routing_ok && routing_tail_ok && deterministic &&
          node_ok && node_recovers && node_hedge_pays && node_deterministic)
             ? 0
             : 1;
}
