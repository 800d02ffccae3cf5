// The serving layer's replica health machine, as each BlazeCluster shard
// runs it: retry once then host, crash/timeout classification,
// quarantine, probes with backoff, re-enlistment and the selection tier
// order. Every test serves through one shard, so the shard's health
// machine alone decides where each request runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "blaze/cluster.h"
#include "doubler_fixture.h"

namespace s2fa::blaze {
namespace {

using namespace doubler_test;

// A `fault-rate 0.5` plan whose injector on shard 0 fails exactly the
// listed attempts among those named, found by trying fault seeds in turn
// (the rolls are stateless, so the search is deterministic).
struct Attempt {
  const char* replica;
  std::size_t invocation;
  int attempt;
  bool fails;
};
std::string FaultRateWhere(const std::vector<Attempt>& attempts) {
  for (int seed = 0; seed < 100000; ++seed) {
    const std::string text = "fault-rate 0.5 / " + std::to_string(seed);
    AccelFaultInjector inject =
        MakeShardFaultInjector(ParseChaosPlan(text), 0);
    if (std::all_of(attempts.begin(), attempts.end(), [&](const Attempt& a) {
          return inject(a.replica, a.invocation, a.attempt) == a.fails;
        })) {
      return text;
    }
  }
  ADD_FAILURE() << "no fault seed matches";
  return "";
}

// Request i of `n`, one per batch, spaced `gap_us` apart after `start_us`.
std::vector<ClusterRequest> Spaced(int n, double start_us, double gap_us,
                                   int first_base = 0) {
  std::vector<ClusterRequest> requests;
  for (int i = 0; i < n; ++i) {
    requests.push_back(
        Req(8, start_us + gap_us * i, "default", first_base + 8 * i));
  }
  return requests;
}

ClusterOptions OnePerBatch() {
  ClusterOptions options;
  options.batch_max_requests = 1;
  return options;
}

TEST(ServiceTest, ConsecutiveFailuresQuarantineTheReplica) {
  Fixture fx(1);
  BlazeCluster cluster = fx.MakeCluster(OnePerBatch(), 1, 1);
  cluster.SetChaosPlan(ParseChaosPlan("fault-rate 1"));
  auto outcomes = cluster.Run(Spaced(4, 0, 0));
  // Every request still completes (host fallback or host-direct): the
  // serving layer never loses a request.
  for (int i = 0; i < 4; ++i) {
    const auto& o = outcomes[static_cast<std::size_t>(i)];
    EXPECT_EQ(o.outcome, ClusterServe::kHost);
    ExpectDoubled(o, 8, 8 * i);
  }
  EXPECT_EQ(cluster.ReplicaHealth("r0"), AcceleratorHealth::kQuarantined);
  const ShardStats& shard = cluster.stats().shards[0];
  EXPECT_EQ(shard.quarantines, 1u);
  EXPECT_EQ(cluster.stats().completed, 4u);
  EXPECT_EQ(shard.crashes + shard.timeouts, shard.accel_failures);
}

TEST(ServiceTest, FailedFirstAttemptIsRetriedOnTheAccelerator) {
  Fixture fx(1);
  BlazeCluster cluster = fx.MakeCluster({}, 1, 1);
  cluster.SetChaosPlan(
      ParseChaosPlan(FaultRateWhere({{"r0", 0, 0, true}, {"r0", 0, 1, false}})));
  auto outcomes = cluster.Run({Req(21)});
  EXPECT_EQ(outcomes[0].outcome, ClusterServe::kAccelerator);
  EXPECT_EQ(outcomes[0].replica, "r0");
  ExpectDoubled(outcomes[0], 21);
  const ShardStats& shard = cluster.stats().shards[0];
  EXPECT_EQ(shard.accel_failures, 1u);
  EXPECT_EQ(shard.retries, 1u);
  EXPECT_EQ(cluster.stats().completed_host, 0u);
}

TEST(ServiceTest, TwiceFailedDispatchRunsOnTheHostWithTheSameOutput) {
  auto run = [](const std::string& plan) {
    Fixture fx(1);
    BlazeCluster cluster = fx.MakeCluster({}, 1, 1);
    if (!plan.empty()) cluster.SetChaosPlan(ParseChaosPlan(plan));
    auto outcomes = cluster.Run({Req(21)});
    return std::make_pair(std::move(outcomes[0]), cluster.stats());
  };
  const ClusterRequestOutcome clean = run("").first;
  // Both attempts of the dispatch fail: the request degrades to the host
  // path on the replica that failed it.
  auto [faulty, stats] = run("burst 0:1");
  EXPECT_EQ(clean.outcome, ClusterServe::kAccelerator);
  EXPECT_EQ(faulty.outcome, ClusterServe::kHost);
  EXPECT_EQ(faulty.replica, "r0");
  EXPECT_EQ(stats.shards[0].accel_failures, 2u);
  EXPECT_EQ(stats.shards[0].retries, 1u);
  EXPECT_EQ(stats.completed_host, 1u);
  // The host path is functionally identical, only slower.
  ExpectDoubled(faulty, 21);
  const Column& got = faulty.output.ColumnByField("y");
  const Column& want = clean.output.ColumnByField("y");
  ASSERT_EQ(got.data.size(), want.data.size());
  for (std::size_t i = 0; i < got.data.size(); ++i) {
    EXPECT_EQ(got.data[i].AsDouble(), want.data[i].AsDouble()) << i;
  }
  EXPECT_GT(faulty.latency_us, clean.latency_us);
}

TEST(ServiceTest, ProbeReenlistsAfterBurstClears) {
  Fixture fx(1);
  BlazeCluster cluster = fx.MakeCluster(OnePerBatch(), 1, 1);
  // Dispatches 0 and 1 fail every attempt; the burst then clears.
  cluster.SetChaosPlan(ParseChaosPlan("burst 0:2"));
  for (const auto& o : cluster.Run(Spaced(2, 0, 0))) {
    EXPECT_EQ(o.outcome, ClusterServe::kHost);
  }
  EXPECT_EQ(cluster.ReplicaHealth("r0"), AcceleratorHealth::kQuarantined);

  // A request arriving after the probe-eligibility delay is served as the
  // probe; the burst is over, so it succeeds and re-enlists the replica.
  auto second = cluster.Run({Req(8, /*arrival_us=*/1e6)});
  EXPECT_EQ(second[0].outcome, ClusterServe::kAccelerator);
  ExpectDoubled(second[0], 8);
  const ShardStats& shard = cluster.stats().shards[0];
  EXPECT_EQ(shard.probes, 1u);
  EXPECT_EQ(shard.probe_successes, 1u);
  EXPECT_EQ(shard.reenlistments, 1u);
  EXPECT_EQ(cluster.ReplicaHealth("r0"), AcceleratorHealth::kDegraded);
}

TEST(ServiceTest, FailedProbeBacksOffAndADarkShardServesHostDirect) {
  Fixture fx(1);
  BlazeCluster cluster = fx.MakeCluster(OnePerBatch(), 1, 1);
  cluster.SetChaosPlan(ParseChaosPlan("fault-rate 1"));
  cluster.Run(Spaced(2, 0, 0));  // quarantine r0
  ASSERT_EQ(cluster.ReplicaHealth("r0"), AcceleratorHealth::kQuarantined);

  // Before the probe is due the shard takes no traffic: host-direct.
  auto early = cluster.Run({Req(8, cluster.clock_us() + 1e3)});
  EXPECT_EQ(early[0].outcome, ClusterServe::kHost);
  EXPECT_EQ(early[0].replica, "");
  EXPECT_EQ(cluster.stats().shards[0].probes, 0u);

  // The probe fails too: still quarantined, one probe failure recorded.
  auto probe = cluster.Run({Req(8, cluster.clock_us() + 60e3)});
  EXPECT_EQ(probe[0].outcome, ClusterServe::kHost);  // probe fell back
  EXPECT_EQ(probe[0].replica, "r0");
  EXPECT_EQ(cluster.stats().shards[0].probe_failures, 1u);
  EXPECT_EQ(cluster.ReplicaHealth("r0"), AcceleratorHealth::kQuarantined);

  // The backoff doubled: past the first delay but inside the second, still
  // host-direct and no second probe.
  auto direct = cluster.Run({Req(8, cluster.clock_us() + 60e3)});
  EXPECT_EQ(direct[0].outcome, ClusterServe::kHost);
  EXPECT_EQ(direct[0].replica, "");
  EXPECT_EQ(cluster.stats().shards[0].probes, 1u);
}

// Dispatches 0 and 2 of r0 fail their first attempt (the retry succeeds):
// a window failure rate of 2/5 = 0.4 lands in [degrade, quarantine).
const std::vector<Attempt> kDegradeR0 = {
    {"r0", 0, 0, true},  {"r0", 0, 1, false}, {"r0", 1, 0, false},
    {"r0", 2, 0, true},  {"r0", 2, 1, false}};

TEST(ServiceTest, SelectionPrefersHealthyAndSpillsToDegraded) {
  Fixture fx(2);
  ClusterOptions options;
  options.batch_max_requests = 8;
  options.batch_window_us = 50;
  BlazeCluster cluster = fx.MakeCluster(options, 1, 2);
  std::vector<Attempt> faults = kDegradeR0;
  faults.push_back({"r0", 3, 0, false});
  faults.push_back({"r1", 0, 0, false});
  faults.push_back({"r1", 1, 0, false});
  // Request 10, the last of the second drain's batch, is poison.
  cluster.SetChaosPlan(ParseChaosPlan(FaultRateWhere(faults) + "; poison 10"));
  // Serial warm-up: widely spaced arrivals always find both lanes free, so
  // the registration-order tie-break sends every dispatch to r0.
  auto warm = cluster.Run(Spaced(3, 0, 1e5));
  for (const auto& o : warm) EXPECT_EQ(o.replica, "r0");
  EXPECT_EQ(cluster.ReplicaHealth("r0"), AcceleratorHealth::kDegraded);
  EXPECT_EQ(cluster.ReplicaHealth("r1"), AcceleratorHealth::kHealthy);
  EXPECT_EQ(cluster.stats().shards[0].degradations, 1u);

  // A poisoned batch: its large first clean node goes to the healthy
  // replica, and the next one, proven clean while r1 is still busy,
  // spills to the degraded one.
  std::vector<ClusterRequest> batch;
  const double t = cluster.clock_us() + 1;
  for (int i = 0; i < 8; ++i) {
    batch.push_back(Req(i < 4 ? 64 : 8, t, "default", 64 * i));
  }
  auto out = cluster.Run(std::move(batch));
  EXPECT_EQ(out[0].replica, "r1");
  EXPECT_EQ(out[4].replica, "r0");
  EXPECT_EQ(out[4].outcome, ClusterServe::kAccelerator);
  for (int i = 0; i < 8; ++i) {
    ExpectDoubled(out[static_cast<std::size_t>(i)], i < 4 ? 64 : 8, 64 * i);
  }
}

TEST(ServiceTest, QuarantinedReplicaIsProbedBeforeTheDegradedSpill) {
  Fixture fx(2);
  BlazeCluster cluster = fx.MakeCluster(OnePerBatch(), 1, 2);
  // r0 degrades as above; r1 then takes the healthy lane and fails
  // dispatches 0 and 1 outright, the third failure in a row quarantining
  // it; its probe (dispatch 2) is clean.
  std::vector<Attempt> faults = kDegradeR0;
  for (std::size_t invocation : {0, 1}) {
    faults.push_back({"r1", invocation, 0, true});
    faults.push_back({"r1", invocation, 1, true});
  }
  faults.push_back({"r1", 2, 0, false});
  cluster.SetChaosPlan(ParseChaosPlan(FaultRateWhere(faults)));
  cluster.Run(Spaced(5, 0, 1e5));
  ASSERT_EQ(cluster.ReplicaHealth("r0"), AcceleratorHealth::kDegraded);
  ASSERT_EQ(cluster.ReplicaHealth("r1"), AcceleratorHealth::kQuarantined);

  // Both lanes are free and r1 is due a probe: the probe goes first, so a
  // quarantined replica rejoins while its degraded sibling could serve.
  auto next = cluster.Run({Req(8, cluster.clock_us() + 1e6)});
  EXPECT_EQ(next[0].replica, "r1");
  EXPECT_EQ(next[0].outcome, ClusterServe::kAccelerator);
  EXPECT_EQ(cluster.stats().shards[0].probes, 1u);
  EXPECT_EQ(cluster.ReplicaHealth("r1"), AcceleratorHealth::kDegraded);
}

TEST(ServiceTest, HealthCountersSurviveARestartButStatesReset) {
  Fixture fx(1);
  BlazeCluster cluster = fx.MakeCluster(OnePerBatch(), 1, 1);
  cluster.SetChaosPlan(
      ParseChaosPlan("burst 0:2; kill 0 @ 5ms; restart 0 @ 6ms"));
  auto outcomes = cluster.Run({Req(8, 0), Req(8, 0), Req(8, 10e3)});
  const ShardStats& shard = cluster.stats().shards[0];
  EXPECT_EQ(shard.restarts, 1u);
  EXPECT_EQ(shard.quarantines, 1u);
  // Three failures before the restart (the retry after the quarantining
  // attempt is a stale sample) and two after it.
  EXPECT_EQ(shard.accel_failures, 5u);
  // The restarted process is healthy again, and its dispatch counter
  // restarted inside the burst window: the request after it fails again.
  EXPECT_EQ(outcomes[2].outcome, ClusterServe::kHost);
  EXPECT_EQ(outcomes[2].replica, "r0");
  EXPECT_EQ(cluster.ReplicaHealth("r0"), AcceleratorHealth::kHealthy);
}

TEST(ServiceTest, NoAdmittedRequestLostUnderFaultBurst) {
  Fixture fx(2);
  BlazeCluster cluster = fx.MakeCluster({}, 1, 2);
  cluster.SetChaosPlan(ParseChaosPlan("burst 2:8"));
  std::vector<ClusterRequest> requests;
  for (int i = 0; i < 24; ++i) {
    requests.push_back(Req(8 + (i % 5) * 16, i * 50.0, "default", 1000 * i));
  }
  auto outcomes = cluster.Run(std::move(requests));
  EXPECT_EQ(cluster.stats().completed, 24u);
  for (int i = 0; i < 24; ++i) {
    const auto& o = outcomes[static_cast<std::size_t>(i)];
    ExpectDoubled(o, 8 + (i % 5) * 16, 1000 * i);
    EXPECT_GT(o.latency_us, 0.0);
  }
  EXPECT_GT(cluster.stats().shards[0].accel_failures, 0u);
}

TEST(ServiceTest, DrainIsGracefulAndClusterStaysUsable) {
  Fixture fx(1);
  BlazeCluster cluster = fx.MakeCluster({}, 1, 1);
  auto first = cluster.Run({Req(8), Req(8)});
  EXPECT_EQ(first.size(), 2u);
  const double clock_after_first = cluster.clock_us();
  EXPECT_GT(clock_after_first, 0.0);
  // Stale arrival times are clamped to the cluster clock: time never runs
  // backwards across drains.
  auto second = cluster.Run({Req(8, /*arrival_us=*/0)});
  EXPECT_GE(second[0].dispatch_us, clock_after_first);
  EXPECT_EQ(cluster.stats().completed, 3u);
  EXPECT_TRUE(cluster.Drain().empty());  // an empty drain is a no-op
}

}  // namespace
}  // namespace s2fa::blaze
