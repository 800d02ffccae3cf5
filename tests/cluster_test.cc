#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "b2c/compiler.h"
#include "blaze/cluster.h"
#include "doubler_fixture.h"
#include "jvm/assembler.h"
#include "s2fa/framework.h"
#include "support/rng.h"

namespace s2fa::blaze {
namespace {

using jvm::Assembler;
using jvm::MethodSignature;
using jvm::Type;
using jvm::Value;

using namespace doubler_test;

bool IsShed(const ClusterRequestOutcome& outcome) {
  return outcome.outcome == ClusterServe::kRejectedFull ||
         outcome.outcome == ClusterServe::kTenantThrottled;
}

// Bit-exact canonical rendering of a drain's outcomes.
std::string Canon(const std::vector<ClusterRequestOutcome>& outcomes) {
  std::ostringstream os;
  os << std::hexfloat;
  for (const auto& o : outcomes) {
    os << o.id << '|' << ClusterServeName(o.outcome) << '|' << o.shard << '|'
       << o.replica << '|' << o.tenant << '|' << o.batch_size << '|'
       << o.redirects << '|' << o.hedged << o.poisoned << '|' << o.dispatch_us
       << '|' << o.complete_us << '|' << o.latency_us << '|';
    for (std::size_t c = 0; c < o.output.num_columns(); ++c) {
      for (const auto& v : o.output.column(c).data) os << v.AsDouble() << ',';
    }
    os << '\n';
  }
  return os.str();
}

// ------------------------------------------------------------ chaos plan

TEST(ChaosPlanTest, ParsesEveryDirective) {
  ChaosPlan plan = ParseChaosPlan(
      "kill 1 @ 2ms; restart 1 @ 5ms\n"
      "burst 3:4 @ 0; burst 10:2\n"
      "spike 3.5 @ 1ms + 500us\n"
      "flood noisy @ 2ms + 1ms x 100\n"
      "poison 7, 9; poison-rate 0.25 / 42\n"
      "fault-rate 0.125 / 5");
  ASSERT_EQ(plan.kills.size(), 1u);
  EXPECT_EQ(plan.kills[0].shard, 1u);
  EXPECT_DOUBLE_EQ(plan.kills[0].at_us, 2000.0);
  ASSERT_EQ(plan.restarts.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.restarts[0].at_us, 5000.0);
  ASSERT_EQ(plan.bursts.size(), 2u);
  ASSERT_TRUE(plan.bursts[0].shard.has_value());
  EXPECT_EQ(*plan.bursts[0].shard, 0u);
  EXPECT_FALSE(plan.bursts[1].shard.has_value());
  ASSERT_EQ(plan.spikes.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.spikes[0].factor, 3.5);
  EXPECT_DOUBLE_EQ(plan.spikes[0].duration_us, 500.0);
  ASSERT_EQ(plan.floods.size(), 1u);
  EXPECT_EQ(plan.floods[0].tenant, "noisy");
  EXPECT_EQ(plan.floods[0].requests, 100u);
  EXPECT_EQ(plan.poison_ids, (std::vector<std::size_t>{7, 9}));
  EXPECT_DOUBLE_EQ(plan.poison_rate, 0.25);
  EXPECT_EQ(plan.poison_seed, 42u);
  EXPECT_DOUBLE_EQ(plan.fault_rate, 0.125);
  EXPECT_EQ(plan.fault_seed, 5u);
  EXPECT_FALSE(plan.Empty());
  EXPECT_FALSE(ParseChaosPlan("fault-rate 0.5").Empty());
  EXPECT_TRUE(ParseChaosPlan("  \n ; ;\n").Empty());
}

TEST(ChaosPlanTest, RejectsMalformedSchedules) {
  EXPECT_THROW(ParseChaosPlan("explode 1 @ 2ms"), MalformedInput);
  EXPECT_THROW(ParseChaosPlan("kill 1"), MalformedInput);
  EXPECT_THROW(ParseChaosPlan("kill 1 @ -5"), MalformedInput);
  EXPECT_THROW(ParseChaosPlan("kill 1 @ 2ms extra"), MalformedInput);
  EXPECT_THROW(ParseChaosPlan("burst 3:0"), MalformedInput);
  EXPECT_THROW(ParseChaosPlan("spike 0.5 @ 0 + 1ms"), MalformedInput);
  EXPECT_THROW(ParseChaosPlan("flood t @ 0 + 1ms x 0"), MalformedInput);
  EXPECT_THROW(ParseChaosPlan("poison 1, 1"), MalformedInput);
  EXPECT_THROW(ParseChaosPlan("poison-rate 1.5"), MalformedInput);
  EXPECT_THROW(ParseChaosPlan("fault-rate 1.5"), MalformedInput);
  EXPECT_THROW(ParseChaosPlan("fault-rate -0.1"), MalformedInput);
  EXPECT_THROW(ParseChaosPlan("fault-rate 0.1 / x"), MalformedInput);
  // A rate directive may appear once, whatever the first value was.
  EXPECT_THROW(ParseChaosPlan("poison-rate 0; poison-rate 0.5"),
               MalformedInput);
  EXPECT_THROW(ParseChaosPlan("fault-rate 0; fault-rate 0.5"),
               MalformedInput);
  // Lifecycle must alternate kill, restart, ... per shard in time order.
  EXPECT_THROW(ParseChaosPlan("restart 0 @ 1ms"), MalformedInput);
  EXPECT_THROW(ParseChaosPlan("kill 0 @ 1ms; kill 0 @ 2ms"), MalformedInput);
  EXPECT_THROW(ParseChaosPlan("kill 0 @ 1ms; restart 0 @ 1ms"),
               MalformedInput);
  // Overlapping windows on the same target are order-dependent: rejected.
  EXPECT_THROW(ParseChaosPlan("burst 0:4 @ 1; burst 2:4 @ 1"),
               MalformedInput);
  EXPECT_THROW(ParseChaosPlan("burst 0:4; burst 2:4 @ 1"), MalformedInput);
  EXPECT_THROW(ParseChaosPlan("spike 2 @ 0 + 10; spike 3 @ 5 + 10"),
               MalformedInput);
  // Disjoint scoped bursts are fine.
  EXPECT_NO_THROW(ParseChaosPlan("burst 0:4 @ 0; burst 0:4 @ 1"));
}

// The fault-burst windows that `serve --fault-burst` passes through the
// chaos grammar: windows that touch are not an overlap, and the injected
// faults do not depend on the order the windows are written in.
TEST(ChaosPlanTest, BurstWindowsMayTouchAndOrderDoesNotMatter) {
  ChaosPlan adjacent;
  ASSERT_NO_THROW(adjacent = ParseChaosPlan("burst 2:3; burst 5:2"));
  EXPECT_EQ(adjacent.bursts.size(), 2u);
  AccelFaultInjector forward = MakeShardFaultInjector(adjacent, 0);
  AccelFaultInjector reversed =
      MakeShardFaultInjector(ParseChaosPlan("burst 5:2; burst 2:3"), 0);
  ASSERT_NE(forward, nullptr);
  ASSERT_NE(reversed, nullptr);
  for (std::size_t invocation = 0; invocation < 10; ++invocation) {
    const bool in_window = invocation >= 2 && invocation < 7;
    EXPECT_EQ(forward("r0", invocation, 0), in_window) << invocation;
    EXPECT_EQ(reversed("r0", invocation, 0), in_window) << invocation;
  }
}

TEST(ChaosPlanTest, BurstInjectorWindowsAreHalfOpen) {
  EXPECT_EQ(MakeShardFaultInjector(ParseChaosPlan(""), 0), nullptr);
  AccelFaultInjector injector =
      MakeShardFaultInjector(ParseChaosPlan("burst 3:2; burst 8:1"), 0);
  ASSERT_NE(injector, nullptr);
  EXPECT_FALSE(injector("r0", 2, 0));
  EXPECT_TRUE(injector("r0", 3, 0));
  EXPECT_TRUE(injector("r0", 4, 1));
  EXPECT_FALSE(injector("r0", 5, 0));
  EXPECT_TRUE(injector("r0", 8, 0));
  EXPECT_FALSE(injector("r0", 9, 0));
}

// `fault-rate` is rolled statelessly per (replica, invocation, attempt).
TEST(ChaosPlanTest, FaultRateRollsPerReplicaInvocationAndAttempt) {
  // Rate 0 builds no injector; rate 1 fails every attempt.
  EXPECT_EQ(MakeShardFaultInjector(ParseChaosPlan("fault-rate 0"), 0),
            nullptr);
  AccelFaultInjector always =
      MakeShardFaultInjector(ParseChaosPlan("fault-rate 1"), 0);
  ASSERT_NE(always, nullptr);
  for (std::size_t invocation = 0; invocation < 64; ++invocation) {
    EXPECT_TRUE(always("r0", invocation, 0));
    EXPECT_TRUE(always("r0", invocation, 1));
  }

  // The same seed replays identically, on any shard; another seed does not.
  const ChaosPlan half = ParseChaosPlan("fault-rate 0.5 / 42");
  AccelFaultInjector a = MakeShardFaultInjector(half, 0);
  AccelFaultInjector b = MakeShardFaultInjector(half, 1);
  AccelFaultInjector reseeded =
      MakeShardFaultInjector(ParseChaosPlan("fault-rate 0.5 / 43"), 0);
  int failures = 0;
  bool seed_matters = false;
  // Independent rolls: all four (attempt 0, attempt 1) fail/ok pairs occur,
  // so a failed first attempt says nothing about the retry.
  bool seen[2][2] = {};
  for (std::size_t invocation = 0; invocation < 200; ++invocation) {
    for (int attempt = 0; attempt < 2; ++attempt) {
      EXPECT_EQ(a("r0", invocation, attempt), b("r0", invocation, attempt));
      failures += a("r0", invocation, attempt) ? 1 : 0;
      seed_matters = seed_matters || a("r0", invocation, attempt) !=
                                         reseeded("r0", invocation, attempt);
    }
    seen[a("r0", invocation, 0)][a("r0", invocation, 1)] = true;
  }
  EXPECT_NEAR(failures / 400.0, 0.5, 0.1);
  EXPECT_TRUE(seed_matters);
  EXPECT_TRUE(seen[0][0]);
  EXPECT_TRUE(seen[0][1]);
  EXPECT_TRUE(seen[1][0]);
  EXPECT_TRUE(seen[1][1]);

  // Different replica ids draw from different streams.
  bool differs = false;
  for (std::size_t invocation = 0; invocation < 200 && !differs;
       ++invocation) {
    differs = a("r0", invocation, 0) != a("r1", invocation, 0);
  }
  EXPECT_TRUE(differs);
}

TEST(ChaosPlanTest, FaultRateAddsToShardScopedBursts) {
  const ChaosPlan plan = ParseChaosPlan("burst 2:3 @ 1; fault-rate 0.25");
  AccelFaultInjector shard0 = MakeShardFaultInjector(plan, 0);
  AccelFaultInjector shard1 = MakeShardFaultInjector(plan, 1);
  AccelFaultInjector rate_only =
      MakeShardFaultInjector(ParseChaosPlan("fault-rate 0.25"), 0);
  ASSERT_NE(shard0, nullptr);
  for (std::size_t invocation = 0; invocation < 32; ++invocation) {
    const bool in_window = invocation >= 2 && invocation < 5;
    EXPECT_EQ(shard0("r0", invocation, 0), rate_only("r0", invocation, 0));
    EXPECT_EQ(shard1("r1", invocation, 0),
              in_window || rate_only("r1", invocation, 0));
  }
}

// Runs `fn` and returns the MalformedInput message it throws (statements
// are whitespace-stripped before parsing, so messages quote the stripped
// form). A schedule typo must name the exact statement and reason — these
// messages are load-bearing operator UX, so they are pinned verbatim.
template <typename Fn>
std::string MalformedMessageOf(Fn&& fn) {
  try {
    fn();
  } catch (const MalformedInput& e) {
    return e.what();
  }
  return "<no MalformedInput thrown>";
}

TEST(ChaosPlanTest, MalformedStatementMessagesAreExact) {
  auto message = [](const std::string& text) {
    return MalformedMessageOf([&] { ParseChaosPlan(text); });
  };

  // Parser-level failures name the reason and the offending statement.
  EXPECT_EQ(message("explode 1 @ 2ms"),
            "chaos plan: unknown directive in 'explode1@2ms'");
  EXPECT_EQ(message("kill 1"), "chaos plan: expected '@' in 'kill1'");
  EXPECT_EQ(message("kill x @ 2ms"),
            "chaos plan: expected a non-negative integer in 'killx@2ms'");
  EXPECT_EQ(message("kill 1 @ -5"),
            "chaos plan: expected a number in 'kill1@-5'");
  EXPECT_EQ(message("kill 1 @ 2ms extra"),
            "chaos plan: trailing junk in 'kill1@2msextra'");
  EXPECT_EQ(message("burst 3"), "chaos plan: expected ':' in 'burst3'");
  EXPECT_EQ(message("burst 3:0"),
            "chaos plan: burst length must be >= 1 in 'burst3:0'");
  EXPECT_EQ(message("spike @ 0 + 1"),
            "chaos plan: expected a number in 'spike@0+1'");
  EXPECT_EQ(message("spike 1..5 @ 0 + 1"),
            "chaos plan: bad number '1..5' in 'spike1..5@0+1'");
  EXPECT_EQ(message("spike 0.5 @ 0 + 1ms"),
            "chaos plan: spike factor must be > 1 in 'spike0.5@0+1ms'");
  EXPECT_EQ(message("spike 2 @ 0"),
            "chaos plan: expected '+' in 'spike2@0'");
  EXPECT_EQ(message("spike 2 @ 0 + 0"),
            "chaos plan: spike duration must be > 0 in 'spike2@0+0'");
  EXPECT_EQ(message("flood @ 0 + 1 x 1"),
            "chaos plan: expected a name in 'flood@0+1x1'");
  EXPECT_EQ(message("flood t @ 0 + 1ms"),
            "chaos plan: expected 'x' in 'floodt@0+1ms'");
  EXPECT_EQ(message("flood t @ 0 + 1ms x 0"),
            "chaos plan: flood request count must be >= 1 in "
            "'floodt@0+1msx0'");
  EXPECT_EQ(message("poison-rate 1.5"),
            "chaos plan: poison rate must be in [0, 1] in 'poison-rate1.5'");
  EXPECT_EQ(message("poison-rate 0.1; poison-rate 0.2"),
            "chaos plan: duplicate poison-rate directive in "
            "'poison-rate0.2'");
  EXPECT_EQ(message("poison-rate 0; poison-rate 0.5"),
            "chaos plan: duplicate poison-rate directive in "
            "'poison-rate0.5'");
  EXPECT_EQ(message("fault-rate 1.5"),
            "chaos plan: fault rate must be in [0, 1] in 'fault-rate1.5'");
  EXPECT_EQ(message("fault-rate 0; fault-rate 0.5"),
            "chaos plan: duplicate fault-rate directive in "
            "'fault-rate0.5'");

  // Validation-level failures describe the structural conflict.
  EXPECT_EQ(message("poison 1, 1"),
            "chaos plan: duplicate poison request id");
  EXPECT_EQ(message("kill 0 @ 1ms; kill 0 @ 1ms"),
            "chaos plan: shard 0 has two lifecycle events at "
            "t=1000.000000us");
  EXPECT_EQ(message("kill 0 @ 1ms; kill 0 @ 2ms"),
            "chaos plan: shard 0 lifecycle must alternate kill/restart in "
            "time order (event 1 at t=2000.000000us is a kill)");
  EXPECT_EQ(message("restart 0 @ 1ms"),
            "chaos plan: shard 0 lifecycle must alternate kill/restart in "
            "time order (event 0 at t=1000.000000us is a restart)");
  EXPECT_EQ(message("burst 0:4 @ 1; burst 2:4 @ 1"),
            "chaos plan: fault bursts [0:4) and [2:4) overlap on the same "
            "target");
  EXPECT_EQ(message("spike 2 @ 0 + 10; spike 3 @ 5 + 10"),
            "chaos plan: latency spikes overlap (their composition would "
            "be order-dependent)");
}

TEST(ChaosPlanTest, ValidateMessagesForHandBuiltPlansAreExact) {
  // Structural checks reachable only through hand-built plans (the parser
  // sorts poison ids and bounds fields before validation runs).
  ChaosPlan unsorted;
  unsorted.poison_ids = {5, 3};
  EXPECT_EQ(MalformedMessageOf([&] { ValidateChaosPlan(unsorted); }),
            "chaos plan: poison ids must be sorted");
  ChaosPlan bad_rate;
  bad_rate.poison_rate = 1.5;
  EXPECT_EQ(MalformedMessageOf([&] { ValidateChaosPlan(bad_rate); }),
            "chaos plan: poison rate must be in [0, 1]");
  ChaosPlan bad_fault_rate;
  bad_fault_rate.fault_rate = -0.5;
  EXPECT_EQ(MalformedMessageOf([&] { ValidateChaosPlan(bad_fault_rate); }),
            "chaos plan: fault rate must be in [0, 1]");
  ChaosPlan zero_burst;
  zero_burst.bursts.push_back({4, 0, std::nullopt});
  EXPECT_EQ(MalformedMessageOf([&] { ValidateChaosPlan(zero_burst); }),
            "chaos plan: burst length must be >= 1");
  ChaosPlan zero_flood;
  zero_flood.floods.push_back({"t", 0, 100.0, 0});
  EXPECT_EQ(MalformedMessageOf([&] { ValidateChaosPlan(zero_flood); }),
            "chaos plan: flood request count must be >= 1");
  ChaosPlan shrink;
  shrink.spikes.push_back({0.5, 0, 100.0});
  EXPECT_EQ(MalformedMessageOf([&] { ValidateChaosPlan(shrink); }),
            "chaos plan: spike factor must be > 1 and finite");
  ChaosPlan flat;
  flat.spikes.push_back({2.0, 0, 0.0});
  EXPECT_EQ(MalformedMessageOf([&] { ValidateChaosPlan(flat); }),
            "chaos plan: spike duration must be > 0");
}

TEST(ChaosPlanTest, ValidateRejectsHandBuiltInvalidPlans) {
  // ChaosPlan is a public struct: plans that never went through the
  // parser must fail the same structural checks.
  ChaosPlan inverted;
  inverted.restarts.push_back({0, 100.0});  // restart with no prior kill
  EXPECT_THROW(ValidateChaosPlan(inverted), MalformedInput);
  ChaosPlan unsorted;
  unsorted.poison_ids = {5, 3};
  EXPECT_THROW(ValidateChaosPlan(unsorted), MalformedInput);
  ChaosPlan shrink;
  shrink.spikes.push_back({0.5, 0, 100.0});  // factor <= 1 shrinks time
  EXPECT_THROW(ValidateChaosPlan(shrink), MalformedInput);
  ChaosPlan ok = ParseChaosPlan("kill 0 @ 1ms; restart 0 @ 2ms; poison 3, 5");
  EXPECT_NO_THROW(ValidateChaosPlan(ok));
}

TEST(ChaosPlanTest, PoisonVerdictIsStateless) {
  ChaosPlan plan = ParseChaosPlan("poison 3; poison-rate 0.2 / 7");
  EXPECT_TRUE(IsPoisoned(plan, 3));
  int sampled = 0;
  for (std::size_t id = 100; id < 600; ++id) {
    const bool first = IsPoisoned(plan, id);
    EXPECT_EQ(first, IsPoisoned(plan, id));  // stateless replay
    sampled += first ? 1 : 0;
  }
  EXPECT_GT(sampled, 50);
  EXPECT_LT(sampled, 150);
}

// -------------------------------------------------------------- topology

TEST(ClusterTest, ValidatesTopologyAndPlans) {
  Fixture fx(2);
  BlazeCluster cluster(fx.runtime);
  EXPECT_THROW(cluster.AddReplica(0, "doubler", "r0"), Error);  // no shard
  cluster.AddShard();
  cluster.AddReplica(0, "doubler", "r0");
  EXPECT_THROW(cluster.AddReplica(0, "doubler", "r0"), Error);  // duplicate
  cluster.AddTenant("a", 2.0, 10);
  EXPECT_THROW(cluster.AddTenant("a", 1.0, 0), Error);
  EXPECT_THROW(cluster.AddTenant("b", 0.0, 0), Error);
  EXPECT_THROW(cluster.SetChaosPlan(ParseChaosPlan("kill 5 @ 1ms")), Error);
  EXPECT_THROW(cluster.SetChaosPlan(ParseChaosPlan("flood ghost @ 0 + 1 x 1")),
               Error);
  // Hand-built plans are re-validated by SetChaosPlan, not trusted.
  ChaosPlan inverted;
  inverted.restarts.push_back({0, 100.0});
  EXPECT_THROW(cluster.SetChaosPlan(inverted), MalformedInput);
  // Floods need a generator by drain time.
  cluster.SetChaosPlan(ParseChaosPlan("flood a @ 0 + 1ms x 3"));
  cluster.Submit(Req(4));
  EXPECT_THROW(cluster.Drain(), Error);
  ClusterRequest bad;
  bad.kernel = "nope";
  EXPECT_THROW(cluster.Submit(bad), Error);
  EXPECT_THROW(cluster.AddReplica(0, "doubler", "nope"), InvalidArgument);
  EXPECT_THROW(cluster.AddReplica(0, "", "r1"), Error);
  EXPECT_EQ(cluster.ReplicaHealth("r0"), AcceleratorHealth::kHealthy);
  EXPECT_THROW(cluster.ReplicaHealth("nope"), Error);
  ClusterOptions one_sample;
  one_sample.health_window = 1;
  EXPECT_THROW(BlazeCluster(fx.runtime, one_sample), Error);
}

TEST(ClusterTest, LatencyQuantileIsNearestRank) {
  ClusterStats stats;
  EXPECT_DOUBLE_EQ(stats.LatencyQuantile(0.99), 0.0);
  for (int i = 100; i >= 1; --i) stats.latencies_us.push_back(i);
  EXPECT_DOUBLE_EQ(stats.LatencyQuantile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(stats.LatencyQuantile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(stats.LatencyQuantile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(stats.LatencyQuantile(0.0), 1.0);
  EXPECT_THROW(stats.LatencyQuantile(1.5), Error);
}

// -------------------------------------------------------------- batching

TEST(ClusterTest, BatchingCoalescesSameKernelRequests) {
  Fixture fx(2);
  ClusterOptions options;
  options.batch_max_requests = 4;
  BlazeCluster cluster = fx.MakeCluster(options);
  std::vector<ClusterRequest> requests;
  for (int i = 0; i < 8; ++i) requests.push_back(Req(8, 0, "default", 8 * i));
  auto outcomes = cluster.Run(std::move(requests));
  ASSERT_EQ(outcomes.size(), 8u);
  for (int i = 0; i < 8; ++i) ExpectDoubled(outcomes[static_cast<std::size_t>(i)], 8, 8 * i);
  EXPECT_GE(cluster.stats().max_batch, 2u);
  EXPECT_LE(cluster.stats().max_batch, 4u);
  EXPECT_GT(cluster.stats().batched_requests, cluster.stats().batches);
}

TEST(ClusterTest, BatchWindowHoldsForLateArrivals) {
  Fixture fx(1);
  ClusterOptions options;
  options.batch_max_requests = 2;
  options.batch_window_us = 200;
  BlazeCluster cluster = fx.MakeCluster(options, 1, 1);
  // Second request lands inside the first one's window: one batch of two.
  auto outcomes = cluster.Run({Req(8, 0, "default", 0),
                               Req(8, 100, "default", 8)});
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].batch_size, 2u);
  EXPECT_EQ(outcomes[1].batch_size, 2u);
  ExpectDoubled(outcomes[0], 8, 0);
  ExpectDoubled(outcomes[1], 8, 8);
  EXPECT_EQ(cluster.stats().batches, 1u);
}

// -------------------------------------------------------------- reduce

// SumSq reduce kernel: double call(double acc, double x) = acc + x * x
// (the b2c_test reduce kernel). Reduce outputs one record per request,
// whatever its input record count — the slicing regression this guards.
jvm::ClassPool MakeSumSqPool() {
  jvm::ClassPool pool;
  Assembler a;
  a.Load(Type::Double(), 0);
  a.Load(Type::Double(), 2).Load(Type::Double(), 2).DMul();
  a.DAdd().Ret(Type::Double());
  MethodSignature sig;
  sig.params = {Type::Double(), Type::Double()};
  sig.ret = Type::Double();
  pool.Define("SumSqKernel").AddMethod(
      jvm::MakeMethod("call", sig, true, 4, a.Finish()));
  return pool;
}

b2c::KernelSpec SumSqSpec(std::int64_t batch = 8) {
  b2c::KernelSpec spec;
  spec.kernel_name = "sumsq";
  spec.klass = "SumSqKernel";
  spec.pattern = kir::ParallelPattern::kReduce;
  spec.input.type = Type::Double();
  spec.input.fields = {{"x", Type::Double(), 1, false}};
  spec.output.type = Type::Double();
  spec.output.fields = {{"ret", Type::Double(), 1, false}};
  spec.batch = batch;
  return spec;
}

TEST(ClusterTest, ReduceRequestsServeUnslicedThroughTheCluster) {
  BlazeRuntime runtime;
  jvm::ClassPool pool = MakeSumSqPool();
  Artifact artifact =
      BuildWithConfig(pool, SumSqSpec(8), merlin::DesignConfig{});
  for (int i = 0; i < 2; ++i) {
    RegisterWithBlaze(runtime, "s" + std::to_string(i), artifact);
  }
  ClusterOptions options;
  options.batch_max_requests = 8;  // reduce must still cap batches at 1
  BlazeCluster cluster(runtime, options);
  for (int s = 0; s < 2; ++s) cluster.AddShard();
  for (int i = 0; i < 2; ++i) {
    cluster.AddReplica(static_cast<std::size_t>(i % 2), "sumsq",
                       "s" + std::to_string(i));
  }
  std::vector<ClusterRequest> requests;
  for (int r = 0; r < 6; ++r) {
    ClusterRequest request;
    request.kernel = "sumsq";
    request.input = DoublerInput(16, r);  // multi-record inputs
    requests.push_back(std::move(request));
  }
  auto outcomes = cluster.Run(std::move(requests));
  ASSERT_EQ(outcomes.size(), 6u);
  for (int r = 0; r < 6; ++r) {
    const auto& o = outcomes[static_cast<std::size_t>(r)];
    EXPECT_FALSE(IsShed(o));
    EXPECT_EQ(o.batch_size, 1u) << "reduce batched across requests";
    ASSERT_EQ(o.output.num_records(), 1u);
    double expect = 0;
    for (int i = 0; i < 16; ++i) {
      expect += static_cast<double>(r + i) * (r + i);
    }
    EXPECT_DOUBLE_EQ(o.output.ColumnByField("ret").data[0].AsDouble(), expect)
        << "request " << r;
  }
  // The accelerator path — where slicing a 1-record reduce output by the
  // input count used to read out of bounds — actually served traffic.
  EXPECT_GT(cluster.stats().completed_accel, 0u);
}

// ------------------------------------------------------------- failover

TEST(ClusterTest, FailoverRedirectsToSiblingExactlyOnce) {
  Fixture fx(2);
  BlazeCluster cluster = fx.MakeCluster({}, 2, 2);
  // Kill shard 0 almost immediately: anything routed there requeues and
  // must complete on shard 1 (or host), exactly once, correct output.
  cluster.SetChaosPlan(ParseChaosPlan("kill 0 @ 1us"));
  std::vector<ClusterRequest> requests;
  for (int i = 0; i < 6; ++i) requests.push_back(Req(8, 0, "default", 8 * i));
  auto outcomes = cluster.Run(std::move(requests));
  ASSERT_EQ(outcomes.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    const auto& o = outcomes[static_cast<std::size_t>(i)];
    EXPECT_FALSE(IsShed(o));
    EXPECT_NE(o.shard, 0u) << "committed on a dead shard";
    ExpectDoubled(o, 8, 8 * i);
  }
  const ClusterStats& stats = cluster.stats();
  EXPECT_EQ(stats.completed, 6u);
  EXPECT_EQ(stats.shards[0].kills, 1u);
  // Shard 0 never commits anything after its kill.
  EXPECT_EQ(stats.shards[0].requests, 0u);
}

TEST(ClusterTest, KillMidBatchRequeuesWithoutLoss) {
  Fixture fx(2);
  BlazeCluster cluster = fx.MakeCluster({}, 2, 2);
  // Route a first wave to learn the batch latency, then kill shard 0 in
  // the middle of the second wave's service window.
  BlazeCluster probe = fx.MakeCluster({}, 1, 1);
  auto probe_out = probe.Run({Req(8)});
  const double batch_us = probe_out[0].complete_us;
  ASSERT_GT(batch_us, 0);
  std::ostringstream plan;
  plan << "kill 0 @ " << batch_us / 2 << "us";
  cluster.SetChaosPlan(ParseChaosPlan(plan.str()));
  std::vector<ClusterRequest> requests;
  for (int i = 0; i < 8; ++i) requests.push_back(Req(8, 0, "default", 8 * i));
  auto outcomes = cluster.Run(std::move(requests));
  ASSERT_EQ(outcomes.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    const auto& o = outcomes[static_cast<std::size_t>(i)];
    EXPECT_FALSE(IsShed(o));
    ExpectDoubled(o, 8, 8 * i);
  }
  EXPECT_EQ(cluster.stats().completed, 8u);
  EXPECT_GE(cluster.stats().failovers + cluster.stats().redirects, 0u);
}

TEST(ClusterTest, RestartRejoinsAndServesAgain) {
  Fixture fx(2);
  BlazeCluster cluster = fx.MakeCluster({}, 2, 2);
  cluster.SetChaosPlan(ParseChaosPlan("kill 0 @ 1us; restart 0 @ 2ms"));
  EXPECT_TRUE(cluster.ShardAliveAt(0, 0.5));
  EXPECT_FALSE(cluster.ShardAliveAt(0, 1000.0));
  EXPECT_TRUE(cluster.ShardAliveAt(0, 2000.0));
  std::vector<ClusterRequest> requests;
  // First wave while shard 0 is dead; second wave well after the restart.
  for (int i = 0; i < 4; ++i) requests.push_back(Req(8, 0, "w1", 8 * i));
  for (int i = 4; i < 12; ++i) {
    requests.push_back(Req(8, 50e3 + 4e3 * (i - 4), "w2", 8 * i));
  }
  auto outcomes = cluster.Run(std::move(requests));
  ASSERT_EQ(outcomes.size(), 12u);
  bool shard0_served_late = false;
  for (int i = 0; i < 12; ++i) {
    const auto& o = outcomes[static_cast<std::size_t>(i)];
    EXPECT_FALSE(IsShed(o));
    ExpectDoubled(o, 8, 8 * i);
    if (o.shard == 0) {
      EXPECT_GE(o.dispatch_us, 2000.0) << "served on shard 0 while dead";
      shard0_served_late = true;
    }
  }
  // Post-restart traffic rebalances onto the revived shard.
  EXPECT_TRUE(shard0_served_late);
  EXPECT_EQ(cluster.stats().shards[0].restarts, 1u);
}

// --------------------------------------------------------------- routing

TEST(ClusterTest, DepthRoutingAvoidsHiddenHostBacklogWithoutLoss) {
  // A host fallback frees the shard's dispatch lane as soon as the
  // accelerator-side failure is detected, but the shard's planning clock
  // runs ahead to the (expensive) host completion. Lane occupancy alone
  // would make the faulting shard look idle and keep feeding it traffic
  // that silently serializes behind the invisible host work. Depth routing
  // scores that outstanding backlog directly and steers around it: nothing
  // is lost, and the tail stays at the depth-routed values.
  OffloadCostModel model;
  model.host_slowdown = 2000.0;  // host fallbacks are genuinely painful
  BlazeRuntime runtime(model);
  jvm::ClassPool pool = MakePool();
  Artifact artifact =
      BuildWithConfig(pool, MakeSpec(8), merlin::DesignConfig{});
  RegisterWithBlaze(runtime, "r0", artifact);
  RegisterWithBlaze(runtime, "r1", artifact);
  ClusterOptions options;
  options.batch_max_requests = 1;  // one routing decision per request
  BlazeCluster cluster(runtime, options);
  cluster.AddShard();
  cluster.AddShard();
  cluster.AddReplica(0, "doubler", "r0");  // single replica: no sibling,
  cluster.AddReplica(1, "doubler", "r1");  // faults fall back to host
  // Fault shard 0's first three invocations: each pays detect + host
  // completion, and later traffic must not stack up behind that work.
  cluster.SetChaosPlan(ParseChaosPlan("burst 0:3 @ 0"));
  std::vector<ClusterRequest> requests;
  int base = 0;
  // Noisy tenant floods; light tenant trickles. Arrivals never collide
  // and the spacing leaves both dispatch lanes free at every arrival, so
  // the routing score — not the one-batch-per-shard gate — decides who
  // eats the backlog.
  for (int i = 0; i < 20; ++i) {
    requests.push_back(Req(8, 150.0 * i, "noisy", base));
    base += 8;
  }
  for (int i = 0; i < 5; ++i) {
    requests.push_back(Req(8, 675.0 + 600.0 * i, "light", base));
    base += 8;
  }
  auto outcomes = cluster.Run(std::move(requests));
  ASSERT_EQ(outcomes.size(), 25u);
  int expected_base = 0;
  for (const auto& o : outcomes) {
    EXPECT_FALSE(IsShed(o)) << "lost request " << o.id;
    ExpectDoubled(o, 8, expected_base);
    expected_base += 8;
  }
  EXPECT_EQ(cluster.stats().completed, 25u);
  // Both values as measured when depth routing was introduced; routing by
  // lane occupancy alone gave the same p50 but a p99 of 1345.6 us.
  EXPECT_DOUBLE_EQ(cluster.stats().LatencyQuantile(0.5), 30.52523333333329);
  EXPECT_DOUBLE_EQ(cluster.stats().LatencyQuantile(0.99), 1093.822);
}

// ---------------------------------------------------------------- poison

TEST(ClusterTest, PoisonIsolationBisectsToTheCulprit) {
  Fixture fx(1);
  ClusterOptions options;
  options.batch_max_requests = 8;
  options.batch_window_us = 50;
  BlazeCluster cluster = fx.MakeCluster(options, 1, 1);
  cluster.SetChaosPlan(ParseChaosPlan("poison 3"));
  std::vector<ClusterRequest> requests;
  for (int i = 0; i < 8; ++i) requests.push_back(Req(8, 0, "default", 8 * i));
  auto outcomes = cluster.Run(std::move(requests));
  ASSERT_EQ(outcomes.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    const auto& o = outcomes[static_cast<std::size_t>(i)];
    EXPECT_FALSE(IsShed(o));
    ExpectDoubled(o, 8, 8 * i);  // the poison request still gets its answer
    if (i == 3) {
      EXPECT_TRUE(o.poisoned);
      EXPECT_EQ(o.outcome, ClusterServe::kHost);  // degraded alone
    } else {
      EXPECT_FALSE(o.poisoned);
    }
  }
  const ClusterStats& stats = cluster.stats();
  EXPECT_EQ(stats.poison_isolated, 1u);
  // Bisecting one poison out of a batch of 8 burns log2-ish attempts:
  // {8} {4} {2} {1} on the failing path.
  EXPECT_GE(stats.bisect_attempts, 3u);
  EXPECT_LE(stats.bisect_attempts, 4u);
  // Clean siblings still ride the accelerator.
  EXPECT_GT(stats.completed_accel, 0u);
}

TEST(ClusterTest, CleanBatchesPayNoBisectTax) {
  Fixture fx(1);
  ClusterOptions options;
  options.batch_max_requests = 8;
  BlazeCluster cluster = fx.MakeCluster(options, 1, 1);
  std::vector<ClusterRequest> requests;
  for (int i = 0; i < 8; ++i) requests.push_back(Req(8, 0, "default", 8 * i));
  auto outcomes = cluster.Run(std::move(requests));
  EXPECT_EQ(cluster.stats().bisect_attempts, 0u);
  EXPECT_EQ(cluster.stats().poison_isolated, 0u);
  for (const auto& o : outcomes) EXPECT_FALSE(o.poisoned);
}

TEST(ClusterTest, SpikeDilatesBisectBurnsLinearly) {
  // The poison request's completion is dispatch + spike * burn + host
  // time: linear in the spike factor. A factor that compounded across the
  // bisect chain (spike^2) would break the equal spacing below.
  auto poisoned_complete = [](const std::string& plan) {
    Fixture fx(1);
    ClusterOptions options;
    options.batch_max_requests = 8;
    BlazeCluster cluster = fx.MakeCluster(options, 1, 1);
    cluster.SetChaosPlan(ParseChaosPlan(plan));
    std::vector<ClusterRequest> requests;
    for (int i = 0; i < 8; ++i) {
      requests.push_back(Req(8, 0, "default", 8 * i));
    }
    auto outcomes = cluster.Run(std::move(requests));
    EXPECT_EQ(outcomes[0].outcome, ClusterServe::kHost);  // isolated alone
    return outcomes[0].complete_us;
  };
  const double c1 = poisoned_complete("poison 0");
  const double c2 = poisoned_complete("poison 0; spike 2 @ 0 + 1s");
  const double c3 = poisoned_complete("poison 0; spike 3 @ 0 + 1s");
  ASSERT_GT(c2, c1);  // the spike does slow the burn down
  EXPECT_NEAR(c3 - c2, c2 - c1, 1e-6 * c3);
}

// -------------------------------------------------------------- fairness

TEST(ClusterTest, WeightedFairSharesUnderContention) {
  Fixture fx(1);
  ClusterOptions options;
  options.batch_max_requests = 1;  // per-request scheduling: clean shares
  BlazeCluster cluster = fx.MakeCluster(options, 1, 1);
  cluster.AddTenant("heavy", 3.0, 0);
  cluster.AddTenant("light", 1.0, 0);
  std::vector<ClusterRequest> requests;
  for (int i = 0; i < 24; ++i) requests.push_back(Req(8, 0, "heavy", 8 * i));
  for (int i = 0; i < 24; ++i) requests.push_back(Req(8, 0, "light", 8 * i));
  auto outcomes = cluster.Run(std::move(requests));
  ASSERT_EQ(outcomes.size(), 48u);
  // Among the first 16 dispatches, heavy should get ~3x light's slots.
  std::vector<std::pair<double, std::string>> order;
  for (const auto& o : outcomes) order.emplace_back(o.dispatch_us, o.tenant);
  std::sort(order.begin(), order.end());
  int heavy_early = 0;
  for (int i = 0; i < 16; ++i) heavy_early += order[static_cast<std::size_t>(i)].second == "heavy" ? 1 : 0;
  EXPECT_GE(heavy_early, 10);  // 3:1 stride => 12 of 16, allow slack
  EXPECT_LE(heavy_early, 14);
  // And the light tenant is not starved: its p99 stays bounded relative
  // to the heavy tenant's.
  const TenantStats& light = cluster.stats().tenants.at("light");
  const TenantStats& heavy = cluster.stats().tenants.at("heavy");
  EXPECT_EQ(light.completed, 24u);
  EXPECT_EQ(heavy.completed, 24u);
  EXPECT_LT(light.LatencyQuantile(0.5), 2.5 * heavy.LatencyQuantile(0.99));
}

TEST(ClusterTest, TenantQuotaThrottlesTheFlooder) {
  Fixture fx(1);
  ClusterOptions options;
  options.queue_capacity = 256;
  BlazeCluster cluster = fx.MakeCluster(options, 1, 1);
  cluster.AddTenant("noisy", 1.0, 4);   // at most 4 queued at once
  cluster.AddTenant("quiet", 1.0, 0);
  std::vector<ClusterRequest> requests;
  for (int i = 0; i < 32; ++i) requests.push_back(Req(8, 0, "noisy", 8 * i));
  for (int i = 0; i < 4; ++i) requests.push_back(Req(8, 0, "quiet", 8 * i));
  auto outcomes = cluster.Run(std::move(requests));
  const TenantStats& noisy = cluster.stats().tenants.at("noisy");
  const TenantStats& quiet = cluster.stats().tenants.at("quiet");
  EXPECT_GT(noisy.throttled, 0u);
  EXPECT_EQ(noisy.admitted + noisy.throttled, 32u);
  EXPECT_EQ(quiet.admitted, 4u);
  EXPECT_EQ(quiet.throttled, 0u);
  for (const auto& o : outcomes) {
    if (o.tenant == "quiet") {
      EXPECT_FALSE(IsShed(o)) << "quota must shield, not harm, the quiet one";
    }
    if (!IsShed(o)) EXPECT_EQ(o.output.num_records(), 8u);
  }
}

TEST(ClusterTest, ChaosFloodIsThrottledByQuota) {
  Fixture fx(1);
  ClusterOptions options;
  options.queue_capacity = 512;
  options.batch_max_requests = 1;  // no coalescing: the flood must queue
  BlazeCluster cluster = fx.MakeCluster(options, 1, 1);
  cluster.AddTenant("noisy", 1.0, 4);
  cluster.AddTenant("quiet", 1.0, 0);
  cluster.SetChaosPlan(ParseChaosPlan("flood noisy @ 0 + 500us x 64"));
  cluster.SetFloodGenerator([](std::size_t ordinal) {
    return Req(8, 0, "ignored", static_cast<int>(8 * ordinal));
  });
  std::vector<ClusterRequest> requests;
  for (int i = 0; i < 8; ++i) {
    requests.push_back(Req(8, 2e3 * i, "quiet", 8 * i));
  }
  auto outcomes = cluster.Run(std::move(requests));
  // Only the real requests come back, all served.
  ASSERT_EQ(outcomes.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(outcomes[static_cast<std::size_t>(i)].tenant, "quiet");
    EXPECT_FALSE(IsShed(outcomes[static_cast<std::size_t>(i)]));
    ExpectDoubled(outcomes[static_cast<std::size_t>(i)], 8, 8 * i);
  }
  const ClusterStats& stats = cluster.stats();
  EXPECT_EQ(stats.flood_injected, 64u);
  EXPECT_GT(stats.tenants.at("noisy").throttled, 0u);
  EXPECT_EQ(stats.tenants.at("quiet").throttled, 0u);
}

TEST(ClusterTest, EmptyDrainsMaterializeDueFloods) {
  Fixture fx(1);
  BlazeCluster cluster = fx.MakeCluster({}, 1, 1);
  cluster.AddTenant("noisy", 1.0, 0);
  cluster.SetChaosPlan(ParseChaosPlan("flood noisy @ 0 + 1us x 4"));
  cluster.SetFloodGenerator([](std::size_t ordinal) {
    return Req(8, 0, "ignored", static_cast<int>(8 * ordinal));
  });
  // No real traffic at all: the already-due flood request (t=0) must
  // still inject instead of hanging pending forever.
  EXPECT_TRUE(cluster.Drain().empty());
  EXPECT_EQ(cluster.stats().flood_injected, 1u);
  // Serving it advanced the cluster clock past the rest of the schedule,
  // so the next (still traffic-less) drain materializes the remainder.
  EXPECT_TRUE(cluster.Drain().empty());
  EXPECT_EQ(cluster.stats().flood_injected, 4u);
  EXPECT_EQ(cluster.stats().completed, 4u);
}

// ----------------------------------------------------------- exactly-once

TEST(ClusterTest, HedgeVsFailoverCommitsExactlyOnce) {
  Fixture fx(2);
  ClusterOptions options;
  options.queue_hedge_us = 10;  // hedge aggressively: force the race
  BlazeCluster cluster = fx.MakeCluster(options, 2, 2);
  cluster.SetChaosPlan(
      ParseChaosPlan("kill 0 @ 300us; kill 1 @ 350us; burst 0:6"));
  std::vector<ClusterRequest> requests;
  for (int i = 0; i < 12; ++i) requests.push_back(Req(8, 0, "default", 8 * i));
  auto outcomes = cluster.Run(std::move(requests));
  ASSERT_EQ(outcomes.size(), 12u);
  std::set<std::size_t> ids;
  for (int i = 0; i < 12; ++i) {
    const auto& o = outcomes[static_cast<std::size_t>(i)];
    EXPECT_TRUE(ids.insert(o.id).second);
    EXPECT_FALSE(IsShed(o));
    ExpectDoubled(o, 8, 8 * i);  // one committed answer, and it is right
  }
  EXPECT_EQ(cluster.stats().completed, 12u);
  EXPECT_EQ(cluster.stats().hedges_won + cluster.stats().hedges_cancelled,
            cluster.stats().hedges_launched);
}

TEST(ClusterTest, HedgedDrainsDoNotLeakQueueStateAcrossDrains) {
  // A hedge that wins while its request still sits in a tenant queue
  // leaves the (drain-local) slot index behind; a later drain must not
  // see it alias — or overrun — its own, smaller slots vector.
  Fixture fx(1);
  ClusterOptions options;
  options.batch_max_requests = 1;  // serialize: later requests wait queued
  options.queue_hedge_us = 5;      // hedges win while slots are queued
  BlazeCluster cluster = fx.MakeCluster(options, 1, 1);
  std::vector<ClusterRequest> first;
  for (int i = 0; i < 12; ++i) first.push_back(Req(8, 0, "default", 8 * i));
  auto wave1 = cluster.Run(std::move(first));
  ASSERT_EQ(wave1.size(), 12u);
  for (int i = 0; i < 12; ++i) {
    ExpectDoubled(wave1[static_cast<std::size_t>(i)], 8, 8 * i);
  }
  // The race this guards requires at least one queued hedge win.
  EXPECT_GT(cluster.stats().hedges_won, 0u);
  auto wave2 = cluster.Run({Req(8, 0, "default", 96)});
  ASSERT_EQ(wave2.size(), 1u);
  ExpectDoubled(wave2[0], 8, 96);
  EXPECT_EQ(cluster.stats().completed, 13u);
}

TEST(ClusterTest, ClockCoversAnAcceleratorRunAHedgeBeat) {
  // The lone request's host hedge fires at once and finishes before the
  // accelerator run it races, whose commit is then suppressed. The cluster
  // clock must still reach that run's completion: a caller scheduling the
  // next drain from clock_us() must not plan into time the shard is busy.
  Fixture fx(1);
  const double accel_us = fx.runtime.PerInvocationCost("r0").total_us;
  ClusterOptions options;
  options.queue_hedge_us = 1e-3;
  BlazeCluster cluster = fx.MakeCluster(options, 1, 1);
  auto outcomes = cluster.Run({Req(8)});
  ASSERT_EQ(outcomes[0].outcome, ClusterServe::kHedgedHost);
  ASSERT_LT(outcomes[0].complete_us, accel_us);
  EXPECT_EQ(cluster.stats().commit_conflicts, 1u);
  ExpectDoubled(outcomes[0], 8);
  EXPECT_GE(cluster.clock_us(), accel_us);
}

// ------------------------------------------------------------ determinism

TEST(ClusterTest, OutcomesBitIdenticalAcrossExecThreads) {
  const std::string kPlan =
      "kill 0 @ 400us; restart 0 @ 2ms; burst 2:5 @ 1; "
      "spike 2.5 @ 1ms + 1ms; poison 5; poison-rate 0.05 / 9";
  std::string reference;
  for (int threads : {1, 2, 8}) {
    Fixture fx(4);
    ClusterOptions options;
    options.exec_threads = threads;
    options.batch_max_requests = 4;
    options.queue_hedge_us = 500;
    BlazeCluster cluster = fx.MakeCluster(options, 2, 4);
    cluster.AddTenant("a", 2.0, 0);
    cluster.AddTenant("b", 1.0, 8);
    cluster.SetChaosPlan(ParseChaosPlan(kPlan));
    std::vector<ClusterRequest> requests;
    for (int i = 0; i < 48; ++i) {
      requests.push_back(
          Req(8, 40.0 * i, i % 3 == 0 ? "b" : "a", 8 * i));
    }
    const std::string canon = Canon(cluster.Run(std::move(requests)));
    if (reference.empty()) {
      reference = canon;
    } else {
      EXPECT_EQ(canon, reference) << "exec_threads=" << threads;
    }
  }
  ASSERT_FALSE(reference.empty());
}

// Property: over random plans mixing `fault-rate`, a kill/restart and
// `poison-rate`, no admitted request is lost, every output matches the
// reference, and outcomes are bit-identical across exec-thread counts.
TEST(ClusterTest, RandomFaultPlansLoseNothingAndReplayAcrossExecThreads) {
  Rng rng(2018);
  std::size_t host_served = 0;  // the plans do reach the fallback path
  for (int trial = 0; trial < 10; ++trial) {
    std::string text = "fault-rate " +
                       std::to_string(rng.NextDouble(0.0, 0.6)) + " / " +
                       std::to_string(rng.NextInt(0, 1000));
    if (rng.NextBool()) {
      const std::string shard = std::to_string(rng.NextInt(0, 1));
      text += "; kill " + shard + " @ " +
              std::to_string(rng.NextDouble(0, 1500)) + "us; restart " +
              shard + " @ " + std::to_string(rng.NextDouble(1600, 3000)) +
              "us";
    }
    if (rng.NextBool()) {
      text += "; poison-rate " + std::to_string(rng.NextDouble(0.0, 0.1)) +
              " / " + std::to_string(rng.NextInt(0, 1000));
    }
    SCOPED_TRACE(text);
    std::string reference;
    for (int threads : {1, 2, 8}) {
      Fixture fx(4);
      ClusterOptions options;
      options.exec_threads = threads;
      options.batch_max_requests = 4;
      BlazeCluster cluster = fx.MakeCluster(options, 2, 4);
      cluster.SetChaosPlan(ParseChaosPlan(text));
      std::vector<ClusterRequest> requests;
      for (int i = 0; i < 40; ++i) {
        requests.push_back(Req(8, 50.0 * i, "default", 8 * i));
      }
      const auto outcomes = cluster.Run(std::move(requests));
      const ClusterStats& stats = cluster.stats();
      EXPECT_EQ(stats.submitted, stats.completed + stats.rejected_full +
                                     stats.tenant_throttled);
      for (const ClusterRequestOutcome& o : outcomes) {
        if (IsShed(o)) continue;
        ExpectDoubled(o, 8, 8 * static_cast<int>(o.id));
      }
      const std::string canon = Canon(outcomes);
      if (reference.empty()) {
        reference = canon;
        host_served += stats.completed_host;
      } else {
        EXPECT_EQ(canon, reference) << "exec_threads=" << threads;
      }
    }
  }
  EXPECT_GT(host_served, 0u);
}

TEST(ClusterTest, ConcurrentMapsShareOneCompiledDesign) {
  // Eight exec threads on one registered design: they share its compiled
  // lane program read-only, each with its own evaluator scratch. (The TSan
  // build of this suite instruments the evaluator and runtime TUs.)
  Fixture fx(1);
  constexpr int kThreads = 8;
  std::vector<Dataset> outs(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&fx, &outs, t] {
      outs[static_cast<std::size_t>(t)] =
          fx.runtime.Map("r0", DoublerInput(37, 1000 * t));
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    const Column& y = outs[static_cast<std::size_t>(t)].ColumnByField("y");
    ASSERT_EQ(y.data.size(), 37u);
    for (int i = 0; i < 37; ++i) {
      EXPECT_DOUBLE_EQ(y.data[static_cast<std::size_t>(i)].AsDouble(),
                       2.0 * (1000 * t + i));
    }
  }
}

TEST(ClusterTest, RepeatRunsAreReproducible) {
  auto run = [] {
    Fixture fx(2);
    BlazeCluster cluster = fx.MakeCluster({}, 2, 2);
    cluster.SetChaosPlan(ParseChaosPlan("burst 1:3; poison 2"));
    std::vector<ClusterRequest> requests;
    for (int i = 0; i < 16; ++i) {
      requests.push_back(Req(8, 100.0 * i, "default", 8 * i));
    }
    return Canon(cluster.Run(std::move(requests)));
  };
  EXPECT_EQ(run(), run());
}

// --------------------------------------------------------------- shedding

TEST(ClusterTest, QueueCapacityShedsDeterministically) {
  Fixture fx(1);
  ClusterOptions options;
  options.queue_capacity = 4;
  BlazeCluster cluster = fx.MakeCluster(options, 1, 1);
  std::vector<ClusterRequest> requests;
  for (int i = 0; i < 32; ++i) requests.push_back(Req(8, 0, "default", 8 * i));
  auto outcomes = cluster.Run(std::move(requests));
  std::size_t shed = 0;
  for (const auto& o : outcomes) {
    if (o.outcome == ClusterServe::kRejectedFull) {
      ++shed;
      EXPECT_EQ(o.output.num_records(), 0u);
      EXPECT_DOUBLE_EQ(o.latency_us, 0.0);
    }
  }
  EXPECT_GT(shed, 0u);
  EXPECT_EQ(cluster.stats().rejected_full, shed);
  EXPECT_EQ(cluster.stats().completed + shed, 32u);
}


// ----------------------------------------------------------------- golden
//
// Every outcome, ClusterStats field and per-shard health counter of a
// fixed set of scenarios, bit-exact: doubles in %a, each output as a hash
// of its value bits. cluster_golden.inc was printed once by the disabled
// test below, run as
//
//   cluster_test --gtest_also_run_disabled_tests
//                --gtest_filter=ClusterGoldenTest.DISABLED_PrintTable
//
// and is kept by hand: never regenerate it to make the test pass, since a
// difference is a change in how the cluster serves. Health counters are
// pinned only for shards that never restarted: they count across restarts
// now, while the table was printed when a restart reset them.

std::string Hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

// FNV-1a over the column names and the bits of every value.
std::uint64_t OutputHash(const Dataset& data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      h ^= (x >> (8 * b)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  };
  mix(data.num_columns());
  for (std::size_t c = 0; c < data.num_columns(); ++c) {
    const Column& column = data.column(c);
    for (char ch : column.field) mix(static_cast<unsigned char>(ch));
    mix(column.data.size());
    for (const Value& v : column.data) {
      const double d = v.AsDouble();
      std::uint64_t bits = 0;
      std::memcpy(&bits, &d, sizeof bits);
      mix(bits);
    }
  }
  return h;
}

std::string HealthCounters(const ShardStats& h) {
  std::ostringstream os;
  os << h.accel_failures << ' ' << h.crashes << ' ' << h.timeouts << ' '
     << h.retries << ' ' << h.degradations << ' ' << h.quarantines << ' '
     << h.probes << ' ' << h.probe_successes << ' ' << h.probe_failures
     << ' ' << h.reenlistments;
  return os.str();
}

struct GoldenRun {
  std::string text;
  ClusterStats stats;
};

// Renders the outcomes of every drain, then the cumulative stats.
GoldenRun RenderGolden(const BlazeCluster& cluster, int replicas,
                       const std::vector<ClusterRequestOutcome>& outs) {
  std::ostringstream os;
  for (const ClusterRequestOutcome& o : outs) {
    os << o.id << ' ' << ClusterServeName(o.outcome) << ' '
       << (o.shard == ClusterRequestOutcome::kNoShard
               ? std::string("-")
               : std::to_string(o.shard))
       << ' ' << (o.replica.empty() ? "-" : o.replica) << ' ' << o.tenant
       << ' ' << o.batch_size << ' ' << o.redirects << ' ' << o.hedged
       << o.poisoned << ' ' << Hex(o.dispatch_us) << ' '
       << Hex(o.complete_us) << ' ' << std::hex << OutputHash(o.output)
       << std::dec << '\n';
  }
  const ClusterStats& s = cluster.stats();
  os << "admission " << s.submitted << ' ' << s.admitted << ' '
     << s.rejected_full << ' ' << s.tenant_throttled << " completed "
     << s.completed << ' ' << s.completed_accel << ' ' << s.completed_host
     << ' ' << s.completed_hedge << '\n';
  os << "batches " << s.batches << ' ' << s.batched_requests << ' '
     << s.max_batch << " chaos " << s.failovers << ' ' << s.redirects << ' '
     << s.redirect_exhausted << ' ' << s.bisect_attempts << ' '
     << s.poison_isolated << ' ' << s.flood_injected << " hedges "
     << s.hedges_launched << ' ' << s.hedges_won << ' '
     << s.hedges_cancelled << ' ' << s.commit_conflicts << " depth "
     << s.max_queue_depth << '\n';
  os << "latencies";
  for (double l : s.latencies_us) os << ' ' << Hex(l);
  os << '\n';
  for (const auto& [name, t] : s.tenants) {
    os << "tenant " << name << ' ' << t.submitted << ' ' << t.admitted << ' '
       << t.throttled << ' ' << t.rejected_full << ' ' << t.completed << ' '
       << t.completed_accel << ' ' << t.completed_host << ' '
       << t.completed_hedge << ' ' << t.records_completed << '\n';
  }
  for (std::size_t i = 0; i < s.shards.size(); ++i) {
    const ShardStats& sh = s.shards[i];
    os << "shard " << i << ' ' << sh.batches << ' ' << sh.requests << ' '
       << sh.kills << ' ' << sh.restarts << ' ' << Hex(sh.busy_us) << ' '
       << Hex(sh.wasted_us);
    if (sh.restarts == 0) os << " health " << HealthCounters(sh);
    for (int r = static_cast<int>(i); r < replicas;
         r += static_cast<int>(s.shards.size())) {
      const std::string id = "r" + std::to_string(r);
      os << ' ' << id << '=' << HealthName(cluster.ReplicaHealth(id));
    }
    os << '\n';
  }
  return {os.str(), s};
}

// The last completion among `outs`: later drains start past it.
double LastComplete(const std::vector<ClusterRequestOutcome>& outs) {
  double last = 0;
  for (const ClusterRequestOutcome& o : outs) {
    last = std::max(last, o.complete_us);
  }
  return last;
}

void Append(std::vector<ClusterRequestOutcome>& all,
            std::vector<ClusterRequestOutcome> more) {
  for (ClusterRequestOutcome& o : more) all.push_back(std::move(o));
}

// One shard of two replicas serving one request at a time through
// `burst 5:2`: warm requests, a burst that fails both replicas in turn
// (retries, crashes and timeouts, quarantine), then spaced recovery pairs
// in a second drain that probe, re-enlist and spill to degraded replicas.
GoldenRun GoldenNode(bool hedge) {
  Fixture fx(2);
  const double req_us = fx.runtime.PerInvocationCost("r0").total_us;
  ClusterOptions options;
  options.batch_max_requests = 1;
  options.queue_hedge_us = hedge ? 2 * req_us : 0;
  options.probe_backoff_us = req_us;
  options.probe_backoff_max_us = 8 * req_us;
  options.seed = 3;
  BlazeCluster cluster = fx.MakeCluster(options, 1, 2);
  cluster.SetChaosPlan(ParseChaosPlan("burst 5:2"));
  std::vector<ClusterRequest> first;
  for (int i = 0; i < 11; ++i) {
    first.push_back(Req(8, 1.1 * req_us * i, "default", 8 * i));
  }
  std::vector<ClusterRequestOutcome> outs = cluster.Run(std::move(first));
  const double start = LastComplete(outs) + 16 * req_us;
  std::vector<ClusterRequest> recovery;
  for (int i = 0; i < 8; ++i) {
    recovery.push_back(
        Req(8, start + (i / 2) * 2.5 * req_us, "default", 8 * (11 + i)));
  }
  Append(outs, cluster.Run(std::move(recovery)));
  return RenderGolden(cluster, 2, outs);
}

// A lone replica that fails every attempt: quarantined in the first drain,
// its first probe fails and doubles the backoff, a request inside the new
// backoff goes host-direct, and the next probe fails again.
GoldenRun GoldenProbeBackoff() {
  Fixture fx(1);
  BlazeCluster cluster = fx.MakeCluster({}, 1, 1);
  cluster.SetChaosPlan(ParseChaosPlan("fault-rate 1"));
  std::vector<ClusterRequestOutcome> outs =
      cluster.Run({Req(8, 0, "default", 0), Req(8, 0, "default", 8)});
  Append(outs, cluster.Run({Req(8, LastComplete(outs) + 60e3, "default",
                                16)}));
  Append(outs, cluster.Run({Req(8, LastComplete(outs) + 1e3, "default",
                                24)}));
  Append(outs, cluster.Run({Req(8, LastComplete(outs) + 150e3, "default",
                                32)}));
  return RenderGolden(cluster, 1, outs);
}

// A poison bisect on a lone failing replica: the first clean node fails
// twice, the next one's first failure quarantines the replica, and the
// last clean node finds the group dark and goes host-direct inside the
// shard. A follow-up drain lands behind the quarantine.
GoldenRun GoldenDarkMidBatch() {
  Fixture fx(1);
  ClusterOptions options;
  options.batch_max_requests = 8;
  options.batch_window_us = 50;
  BlazeCluster cluster = fx.MakeCluster(options, 1, 1);
  cluster.SetChaosPlan(ParseChaosPlan("fault-rate 1; poison 2"));
  std::vector<ClusterRequest> requests;
  for (int i = 0; i < 8; ++i) requests.push_back(Req(8, 0, "default", 8 * i));
  std::vector<ClusterRequestOutcome> outs = cluster.Run(std::move(requests));
  Append(outs, cluster.Run({Req(8, LastComplete(outs) + 10, "default", 64)}));
  return RenderGolden(cluster, 1, outs);
}

// A poison bisect on a healthy shard of two replicas: the large first
// clean node still holds r0 when the next one is proven clean, so the
// clean nodes land on both replicas.
GoldenRun GoldenBisectTwoReplicas() {
  Fixture fx(2);
  ClusterOptions options;
  options.batch_max_requests = 8;
  options.batch_window_us = 50;
  BlazeCluster cluster = fx.MakeCluster(options, 1, 2);
  cluster.SetChaosPlan(ParseChaosPlan("poison 7"));
  std::vector<ClusterRequest> requests;
  for (int i = 0; i < 8; ++i) {
    requests.push_back(Req(i < 4 ? 64 : 8, 0, "default", 64 * i));
  }
  return RenderGolden(cluster, 2, cluster.Run(std::move(requests)));
}

// Two shards of two replicas under `fault-rate`, a kill and restart of
// shard 1 and a latency spike, with two tenants and the age hedge.
GoldenRun GoldenChaos(std::uint64_t seed) {
  Fixture fx(4);
  const double req_us = fx.runtime.PerInvocationCost("r0").total_us;
  ClusterOptions options;
  options.batch_max_requests = 4;
  options.queue_hedge_us = 20 * req_us;
  options.probe_backoff_us = 4 * req_us;
  options.probe_backoff_max_us = 32 * req_us;
  options.seed = seed;
  BlazeCluster cluster = fx.MakeCluster(options, 2, 4);
  cluster.AddTenant("a", 2.0, 0);
  cluster.AddTenant("b", 1.0, 12);
  std::ostringstream plan;
  plan << "fault-rate 0.25 / " << seed << "; kill 1 @ " << 31.3 * req_us
       << "; restart 1 @ " << 70 * req_us << "; spike 2 @ " << 50 * req_us
       << " + " << 25 * req_us;
  cluster.SetChaosPlan(ParseChaosPlan(plan.str()));
  Rng rng(seed);
  std::vector<ClusterRequest> requests;
  double arrival = 0;
  for (int i = 0; i < 64; ++i) {
    requests.push_back(Req(8 * static_cast<int>(rng.NextInt(1, 3)), arrival,
                           i % 3 == 0 ? "b" : "a", 8 * i));
    arrival += req_us * rng.NextDouble(0.8, 2.4);
  }
  return RenderGolden(cluster, 4, cluster.Run(std::move(requests)));
}

struct GoldenScenario {
  const char* name;
  std::function<GoldenRun()> run;
};

std::vector<GoldenScenario> GoldenScenarios() {
  return {
      {"node", [] { return GoldenNode(false); }},
      {"node_hedged", [] { return GoldenNode(true); }},
      {"probe_backoff", GoldenProbeBackoff},
      {"dark_mid_batch", GoldenDarkMidBatch},
      {"bisect_two_replicas", GoldenBisectTwoReplicas},
      {"chaos_seed_1", [] { return GoldenChaos(1); }},
      {"chaos_seed_2", [] { return GoldenChaos(2); }},
      {"chaos_seed_3", [] { return GoldenChaos(3); }},
  };
}

struct GoldenCase {
  const char* name;
  const char* text;
};
#include "cluster_golden.inc"

TEST(ClusterGoldenTest, EveryScenarioMatchesTheGoldenTable) {
  const std::vector<GoldenScenario> scenarios = GoldenScenarios();
  ASSERT_EQ(std::size(kClusterGolden), scenarios.size());
  std::map<std::string, GoldenRun> runs;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    ASSERT_STREQ(kClusterGolden[i].name, scenarios[i].name);
    GoldenRun run = scenarios[i].run();
    EXPECT_EQ(run.text, kClusterGolden[i].text) << scenarios[i].name;
    runs[scenarios[i].name] = std::move(run);
  }
  // Each scenario still reaches the paths it is named for.
  const ShardStats& node = runs["node"].stats.shards[0];
  EXPECT_GT(node.retries, 0u);
  EXPECT_GT(node.crashes, 0u);
  EXPECT_GT(node.timeouts, 0u);
  EXPECT_EQ(node.quarantines, 2u);
  EXPECT_EQ(node.reenlistments, 2u);
  EXPECT_GT(runs["node_hedged"].stats.hedges_won, 0u);
  EXPECT_EQ(runs["probe_backoff"].stats.shards[0].probe_failures, 2u);
  EXPECT_NE(runs["dark_mid_batch"].text.find("host - - default 4"),
            std::string::npos);
  EXPECT_NE(runs["bisect_two_replicas"].text.find("accelerator 0 r1"),
            std::string::npos);
  EXPECT_GT(runs["chaos_seed_1"].stats.failovers, 0u);
  EXPECT_GT(runs["chaos_seed_1"].stats.shards[0].reenlistments, 0u);
  for (const char* name : {"chaos_seed_1", "chaos_seed_2", "chaos_seed_3"}) {
    EXPECT_GT(runs[name].stats.hedges_won, 0u) << name;
    EXPECT_GT(runs[name].stats.shards[1].restarts, 0u) << name;
  }
}

TEST(ClusterGoldenTest, DISABLED_PrintTable) {
  std::printf("// BEGIN golden cluster scenarios (see cluster_test.cc)\n");
  for (const GoldenScenario& scenario : GoldenScenarios()) {
    std::printf("{\"%s\", R\"golden(%s)golden\"},\n", scenario.name,
                scenario.run().text.c_str());
  }
  std::printf("// END golden cluster scenarios\n");
}

}  // namespace
}  // namespace s2fa::blaze
