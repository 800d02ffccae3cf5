// Streaming-serving replay (StreamSession): ~1M simulated records streamed
// through the SLO-bound micro-batching session over BlazeCluster, gating
// the overload-control contract via the exit code:
//
//   1. sub-capacity — a 0.5x-capacity stream must commit everything with
//                     zero shed, match the doubled reference, and keep
//                     p99 external latency within the SLO;
//   2. chaos        — an at-capacity stream with a kill/restart and a
//                     latency spike mid-stream: every record lands in
//                     exactly one terminal state (zero lost), served
//                     outputs match, and the watermark never regresses;
//   3. overload     — the same 2x-overload stream through the ladder
//                     (CoDel unmeetable shed -> retry budgets -> bounded
//                     brownout -> full shed) and the FIFO tail-drop
//                     strawman: the ladder's goodput (records visibly
//                     committed within SLO) must strictly beat FIFO's,
//                     and the ladder never FIFO-drops;
//   4. determinism  — the chaotic at-capacity stream on 1/2/8 exec
//                     threads renders bit-identical outcome streams.
//
// Quick mode (S2FA_BENCH_QUICK=1, used by the stream_smoke ctest) scales
// the record counts down ~50x but exercises every gate. Phase latencies
// land in the serving perf ledger (BENCH_serving.json at the repo root, or
// S2FA_PERF_LEDGER) for the perf-diff trajectory gate.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "b2c/compiler.h"
#include "bench_util.h"
#include "blaze/stream.h"
#include "jvm/assembler.h"
#include "merlin/transform.h"
#include "obs/obs.h"
#include "s2fa/framework.h"

using namespace s2fa;
using namespace s2fa::bench;

namespace {

bool QuickMode() {
  const char* env = std::getenv("S2FA_BENCH_QUICK");
  return env != nullptr && env[0] != '\0' && std::string(env) != "0";
}

// Doubler: double -> 2 * double, batch 8 — record `seq` carries the value
// `seq`, so every committed output is checkable as exactly 2 * seq.
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

blaze::StreamRecord Gen(std::size_t ordinal) {
  blaze::StreamRecord record;
  record.kernel = "doubler";
  blaze::Column x;
  x.field = "x";
  x.element = jvm::Type::Double();
  x.data.push_back(jvm::Value::OfDouble(static_cast<double>(ordinal)));
  record.input.AddColumn(x);
  return record;
}

// Doubler replicas r0..r(n-1) spread one per shard over min(lanes, 2)
// shards (the stream_test topology); `inv_us` is the accelerator charge
// for one 8-record invocation.
struct Harness {
  blaze::BlazeRuntime runtime;
  double inv_us = 0;
  int lanes = 0;

  explicit Harness(int replicas) : lanes(replicas) {
    jvm::ClassPool pool = MakePool();
    Artifact artifact =
        BuildWithConfig(pool, MakeSpec(), merlin::DesignConfig{});
    for (int i = 0; i < replicas; ++i) {
      RegisterWithBlaze(runtime, "r" + std::to_string(i), artifact);
    }
    inv_us = runtime.PerInvocationCost("r0").total_us;
  }

  blaze::BlazeCluster MakeCluster(blaze::ClusterOptions options = {}) {
    const int shards = lanes < 2 ? lanes : 2;
    options.queue_capacity = std::size_t{1} << 20;
    blaze::BlazeCluster cluster(runtime, options);
    for (int s = 0; s < shards; ++s) cluster.AddShard();
    for (int i = 0; i < lanes; ++i) {
      cluster.AddReplica(static_cast<std::size_t>(i % shards), "doubler",
                         "r" + std::to_string(i));
    }
    return cluster;
  }

  // `count` records at `fraction` of the modeled capacity (lanes * 8
  // records per invocation charge).
  blaze::ArrivalSchedule At(double fraction, std::size_t count) const {
    const double inter_us =
        inv_us / 8.0 / static_cast<double>(lanes) / fraction;
    blaze::ArrivalSchedule schedule;
    schedule.phases.push_back(
        {"default", 0, inter_us * static_cast<double>(count), count});
    return schedule;
  }

  // Thresholds scaled off the invocation charge so the gates track the
  // cost model instead of hard-coded microseconds (the stream_test Opts).
  blaze::StreamOptions Opts() const {
    blaze::StreamOptions options;
    options.batch_max_records = 8;
    options.batch_age_us = 2 * inv_us;
    options.slo_us = 50 * inv_us;
    options.deadline_headroom_us = inv_us;
    options.codel_target_us = 5 * inv_us;
    options.codel_interval_us = 5 * inv_us;
    options.brownout_onset_us = 10 * inv_us;
    options.shed_onset_us = 20 * inv_us;
    return options;
  }
};

struct PhaseResult {
  std::size_t mismatches = 0;  // served outputs that are not 2 * seq
  bool accounted = false;      // every record in exactly one terminal state
  bool watermark_monotone = false;
  std::size_t goodput = 0;  // committed within SLO (external latency)
};

PhaseResult Check(const std::vector<blaze::StreamRecordOutcome>& outs,
                  const blaze::StreamStats& stats, std::size_t count,
                  double slo_us) {
  PhaseResult result;
  for (const auto& out : outs) {
    if (blaze::IsStreamShed(out.outcome)) continue;
    if (out.output.num_records() != 1 ||
        out.output.ColumnByField("y").data[0].AsDouble() !=
            2.0 * static_cast<double>(out.seq)) {
      ++result.mismatches;
      continue;
    }
    if (out.latency_us <= slo_us) ++result.goodput;
  }
  result.accounted =
      stats.arrivals == count &&
      stats.committed + stats.committed_host + stats.shed_total() == count &&
      outs.size() == count;
  result.watermark_monotone = true;
  double last = 0;
  for (std::size_t i = 0; i < outs.size(); ++i) {
    if (outs[i].seq != i || outs[i].external_commit_us < last) {
      result.watermark_monotone = false;
    }
    last = outs[i].external_commit_us;
  }
  if (stats.watermark_us != last) result.watermark_monotone = false;
  return result;
}

// FNV-1a over the canonical stream-outcome rendering: bit-identity across
// exec threads without holding megabytes of text.
std::uint64_t CanonHash(const std::vector<blaze::StreamRecordOutcome>& outs) {
  std::uint64_t state = 1469598103934665603ULL;
  std::ostringstream os;
  os << std::hexfloat;
  for (const auto& o : outs) {
    os << o.seq << '|' << o.tenant << '|' << blaze::StreamOutcomeName(o.outcome)
       << '|' << o.retries << '|' << o.arrival_us << '|' << o.terminal_us
       << '|' << o.external_commit_us << '|' << o.latency_us << '|';
    for (std::size_t c = 0; c < o.output.num_columns(); ++c) {
      for (const auto& v : o.output.column(c).data) os << v.AsDouble() << ',';
    }
    os << '\n';
  }
  for (unsigned char c : os.str()) {
    state ^= c;
    state *= 1099511628211ULL;
  }
  return state;
}

}  // namespace

int main() {
  MetricsScope metrics("stream");
  const bool quick = QuickMode();
  const std::size_t scale_div = quick ? 50 : 1;
  std::printf("=== streaming serving replay (StreamSession overload ladder)"
              "%s ===\n",
              quick ? " [quick]" : "");

  std::map<std::string, obs::LedgerEntry> entries;
  auto ledger_entry = [&entries](const std::string& name, double ns_per_op,
                                 double ops) {
    obs::LedgerEntry entry;
    entry.ns_per_op = ns_per_op;
    entry.ops = ops;
    entry.wall_ms = ns_per_op * ops / 1e6;
    entries[name] = entry;
  };

  // ---- phase 1: sub-capacity stream, everything within SLO ---------------
  const std::size_t sub_records = 200000 / scale_div;
  bool sub_ok = false, sub_slo_ok = false;
  {
    Harness hx(2);
    blaze::BlazeCluster cluster = hx.MakeCluster();
    const blaze::StreamOptions options = hx.Opts();
    blaze::StreamSession session(cluster, options);
    auto outs = session.Run(hx.At(0.5, sub_records), Gen);
    const blaze::StreamStats& stats = session.stats();
    PhaseResult r = Check(outs, stats, sub_records, options.slo_us);
    const double p50 = stats.LatencyQuantile(0.5);
    const double p99 = stats.LatencyQuantile(0.99);
    sub_ok = r.accounted && r.watermark_monotone && r.mismatches == 0 &&
             stats.shed_total() == 0 && stats.committed == sub_records;
    sub_slo_ok = p99 <= options.slo_us;
    std::printf("sub-capacity: %zu records @ 0.5x, committed %zu, shed %zu, "
                "%zu mismatches, p50 %.0f / p99 %.0f us (slo %.0f)\n",
                sub_records, stats.committed, stats.shed_total(),
                r.mismatches, p50, p99, options.slo_us);
    ledger_entry("stream.sub.record", p50 * 1e3,
                 static_cast<double>(sub_records));
  }

  // ---- phase 2: chaos mid-stream at capacity -----------------------------
  const std::size_t chaos_records = 200000 / scale_div;
  bool chaos_ok = false;
  {
    Harness hx(4);
    blaze::BlazeCluster cluster = hx.MakeCluster();
    // Kill one fault domain a third in, restart it later, and stretch a
    // 2.5x latency spike across the middle of the stream.
    const double horizon = static_cast<double>(chaos_records) * hx.inv_us /
                           8.0 / static_cast<double>(hx.lanes);
    std::ostringstream plan;
    plan << "kill 1 @ " << horizon / 3 << "; restart 1 @ " << horizon * 2 / 3
         << "; spike 2.5 @ " << horizon / 2 << " + " << horizon / 4;
    cluster.SetChaosPlan(blaze::ParseChaosPlan(plan.str()));
    const blaze::StreamOptions options = hx.Opts();
    blaze::StreamSession session(cluster, options);
    auto outs = session.Run(hx.At(1.0, chaos_records), Gen);
    const blaze::StreamStats& stats = session.stats();
    PhaseResult r = Check(outs, stats, chaos_records, options.slo_us);
    chaos_ok = r.accounted && r.watermark_monotone && r.mismatches == 0 &&
               stats.committed > 0;
    std::printf("chaos: %zu records @ 1.0x with kill/restart/spike, "
                "committed %zu (+%zu host), shed %zu, %zu mismatches, "
                "max delay %.0f us, watermark %s\n",
                chaos_records, stats.committed, stats.committed_host,
                stats.shed_total(), r.mismatches, stats.max_queue_delay_us,
                r.watermark_monotone ? "monotone" : "REGRESSED");
    ledger_entry("stream.chaos.record", stats.LatencyQuantile(0.5) * 1e3,
                 static_cast<double>(chaos_records));
  }

  // ---- phase 3: 2x overload, ladder vs FIFO tail-drop --------------------
  const std::size_t over_records = 120000 / scale_div;
  bool over_ok = false, goodput_ok = false;
  std::size_t good_ladder = 0, good_fifo = 0;
  {
    Harness hx(2);
    struct Arm {
      PhaseResult result;
      blaze::StreamStats stats;
    };
    auto run_arm = [&](blaze::OverloadPolicy policy) {
      blaze::BlazeCluster cluster = hx.MakeCluster();
      blaze::StreamOptions options = hx.Opts();
      options.policy = policy;
      blaze::StreamSession session(cluster, options);
      auto outs = session.Run(hx.At(2.0, over_records), Gen);
      return Arm{Check(outs, session.stats(), over_records, options.slo_us),
                 session.stats()};
    };
    const Arm ladder = run_arm(blaze::OverloadPolicy::kLadder);
    const Arm fifo = run_arm(blaze::OverloadPolicy::kFifoShed);
    good_ladder = ladder.result.goodput;
    good_fifo = fifo.result.goodput;
    over_ok = ladder.result.accounted && ladder.result.watermark_monotone &&
              ladder.result.mismatches == 0 && fifo.result.accounted &&
              fifo.result.watermark_monotone && fifo.result.mismatches == 0 &&
              ladder.stats.shed_queue_full == 0;
    goodput_ok = good_ladder > good_fifo;
    std::printf("overload: %zu records @ 2.0x, ladder goodput %zu "
                "(committed %zu+%zu host, shed %zu, codel %zu, retries "
                "%zu), fifo goodput %zu (tail-dropped %zu)\n",
                over_records, good_ladder, ladder.stats.committed,
                ladder.stats.committed_host, ladder.stats.shed_total(),
                ladder.stats.codel_engagements, ladder.stats.retries_granted,
                good_fifo, fifo.stats.shed_queue_full);
    ledger_entry("stream.overload.ladder.record",
                 ladder.stats.LatencyQuantile(0.5) * 1e3,
                 static_cast<double>(over_records));
  }

  // ---- phase 4: exec-thread bit-identity ---------------------------------
  const std::size_t det_records = 60000 / scale_div;
  bool deterministic = false;
  {
    std::vector<std::uint64_t> hashes;
    for (int threads : {1, 2, 8}) {
      Harness hx(4);
      blaze::ClusterOptions coptions;
      coptions.exec_threads = threads;
      blaze::BlazeCluster cluster = hx.MakeCluster(coptions);
      const double horizon = static_cast<double>(det_records) * hx.inv_us /
                             8.0 / static_cast<double>(hx.lanes) / 1.5;
      std::ostringstream plan;
      plan << "kill 0 @ " << horizon / 4 << "; restart 0 @ " << horizon / 2;
      cluster.SetChaosPlan(blaze::ParseChaosPlan(plan.str()));
      blaze::StreamSession session(cluster, hx.Opts());
      hashes.push_back(CanonHash(session.Run(hx.At(1.5, det_records), Gen)));
    }
    deterministic = hashes[0] == hashes[1] && hashes[0] == hashes[2];
    std::printf("determinism: %zu records x {1,2,8} exec threads, canonical "
                "hash %016llx %s\n",
                det_records, static_cast<unsigned long long>(hashes[0]),
                deterministic ? "(all equal)" : "(MISMATCH)");
  }

  std::printf("\nGATE stream-sub-capacity-clean: %s\n",
              sub_ok ? "PASS" : "FAIL");
  std::printf("GATE stream-sub-capacity-slo: %s\n",
              sub_slo_ok ? "PASS" : "FAIL");
  std::printf("GATE stream-chaos-zero-lost-and-match: %s\n",
              chaos_ok ? "PASS" : "FAIL");
  std::printf("GATE stream-overload-accounted: %s\n",
              over_ok ? "PASS" : "FAIL");
  std::printf("GATE stream-ladder-beats-fifo: %s (ladder %zu, fifo %zu)\n",
              goodput_ok ? "PASS" : "FAIL", good_ladder, good_fifo);
  std::printf("GATE stream-determinism: %s\n",
              deterministic ? "PASS" : "FAIL");

  const std::string ledger_path =
      UpdatePerfLedger(entries, ServingLedgerPath());
  std::printf("perf ledger: %s\n", ledger_path.c_str());

  return (sub_ok && sub_slo_ok && chaos_ok && over_ok && goodput_ok &&
          deterministic)
             ? 0
             : 1;
}
