#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "b2c/compiler.h"
#include "blaze/chaos.h"
#include "blaze/service.h"
#include "jvm/assembler.h"
#include "s2fa/framework.h"

namespace s2fa::blaze {
namespace {

using jvm::Assembler;
using jvm::MethodSignature;
using jvm::Type;
using jvm::Value;

// Doubler: double -> 2 * double, batch 8 (the blaze_test kernel).
jvm::ClassPool MakePool() {
  jvm::ClassPool pool;
  Assembler a;
  a.Load(Type::Double(), 0).DConst(2.0).DMul().Ret(Type::Double());
  MethodSignature sig;
  sig.params = {Type::Double()};
  sig.ret = Type::Double();
  pool.Define("Doubler").AddMethod(
      jvm::MakeMethod("call", sig, true, 2, a.Finish()));
  return pool;
}

b2c::KernelSpec MakeSpec(std::int64_t batch = 8) {
  b2c::KernelSpec spec;
  spec.kernel_name = "doubler";
  spec.klass = "Doubler";
  spec.input.type = Type::Double();
  spec.input.fields = {{"x", Type::Double(), 1, false}};
  spec.output.type = Type::Double();
  spec.output.fields = {{"y", Type::Double(), 1, false}};
  spec.batch = batch;
  return spec;
}

Dataset DoublerInput(int n) {
  Dataset input;
  Column x;
  x.field = "x";
  x.element = Type::Double();
  for (int i = 0; i < n; ++i) x.data.push_back(Value::OfDouble(i));
  input.AddColumn(x);
  return input;
}

// A runtime with `replicas` copies of the doubler registered as r0, r1, ...
struct Fixture {
  BlazeRuntime runtime;
  explicit Fixture(int replicas = 1) {
    jvm::ClassPool pool = MakePool();
    Artifact artifact =
        BuildWithConfig(pool, MakeSpec(8), merlin::DesignConfig{});
    for (int i = 0; i < replicas; ++i) {
      RegisterWithBlaze(runtime, "r" + std::to_string(i), artifact);
    }
  }
  BlazeService MakeService(ServiceOptions options = {}, int replicas = 1) {
    BlazeService service(runtime, options);
    for (int i = 0; i < replicas; ++i) {
      service.AddReplica("doubler", "r" + std::to_string(i));
    }
    return service;
  }
};

ServiceRequest Req(int records, double arrival_us = 0) {
  ServiceRequest request;
  request.kernel = "doubler";
  request.input = DoublerInput(records);
  request.arrival_us = arrival_us;
  return request;
}

// The injector a chaos plan of `burst` statements gives a lone shard.
AccelFaultInjector Bursts(const std::string& plan) {
  return MakeShardFaultInjector(ParseChaosPlan(plan), 0);
}

void ExpectDoubled(const RequestOutcome& outcome, int records) {
  ASSERT_EQ(outcome.output.num_records(), static_cast<std::size_t>(records));
  const Column& y = outcome.output.ColumnByField("y");
  for (int i = 0; i < records; ++i) {
    EXPECT_DOUBLE_EQ(y.data[static_cast<std::size_t>(i)].AsDouble(), 2.0 * i);
  }
}

// Bit-exact canonical rendering of a drain's outcomes.
std::string Canon(const std::vector<RequestOutcome>& outcomes) {
  std::ostringstream os;
  os << std::hexfloat;
  for (const auto& o : outcomes) {
    os << o.id << '|' << ServeOutcomeName(o.outcome) << '|' << o.replica
       << '|' << o.attempts << '|' << o.probe
       << '|' << o.dispatch_us << '|' << o.complete_us << '|' << o.latency_us
       << '|' << o.charged_us << '|';
    for (std::size_t c = 0; c < o.output.num_columns(); ++c) {
      for (const auto& v : o.output.column(c).data) os << v.AsDouble() << ',';
    }
    os << '\n';
  }
  return os.str();
}

// ---------------------------------------------------------------- health

TEST(ServiceTest, ConsecutiveFailuresQuarantineTheReplica) {
  Fixture fx;
  BlazeService service = fx.MakeService();
  service.SetFaultInjector(
      [](const std::string&, std::size_t, int) { return true; });
  auto outcomes = service.Run({Req(8), Req(8), Req(8), Req(8)});
  // Every request still completes (host fallback / host-direct): the
  // serving layer never loses a request.
  for (const auto& o : outcomes) {
    EXPECT_EQ(o.outcome, ServeOutcome::kHost);
    ExpectDoubled(o, 8);
  }
  EXPECT_EQ(service.health("r0"), AcceleratorHealth::kQuarantined);
  EXPECT_EQ(service.stats().quarantines, 1u);
  EXPECT_EQ(service.stats().completed, 4u);
  EXPECT_GE(service.stats().crashes + service.stats().timeouts,
            service.stats().accel_failures);
}

TEST(ServiceTest, FailedFirstAttemptIsRetriedOnTheAccelerator) {
  Fixture fx;
  BlazeService service = fx.MakeService();
  // Only attempt 0 of invocation 0 fails: the retry succeeds in place.
  service.SetFaultInjector([](const std::string&, std::size_t invocation,
                              int attempt) {
    return invocation == 0 && attempt == 0;
  });
  auto outcomes = service.Run({Req(21)});
  EXPECT_EQ(outcomes[0].outcome, ServeOutcome::kAccelerator);
  EXPECT_EQ(outcomes[0].replica, "r0");
  EXPECT_EQ(outcomes[0].attempts, 2);
  ExpectDoubled(outcomes[0], 21);
  EXPECT_EQ(service.stats().accel_attempts, 2u);
  EXPECT_EQ(service.stats().accel_failures, 1u);
  EXPECT_EQ(service.stats().retries, 1u);
  EXPECT_EQ(service.stats().completed_host, 0u);
}

TEST(ServiceTest, TwiceFailedDispatchRunsOnTheHostWithTheSameOutput) {
  auto run = [](bool faulty) {
    Fixture fx;
    BlazeService service = fx.MakeService();
    if (faulty) {
      // Both attempts of invocation 0 fail: the request degrades to the
      // host path. Later invocations are clean.
      service.SetFaultInjector(
          [](const std::string&, std::size_t invocation, int) {
            return invocation == 0;
          });
    }
    auto outcomes = service.Run({Req(21)});
    return std::make_pair(std::move(outcomes), service.stats());
  };
  const std::vector<RequestOutcome> clean = run(false).first;
  auto [faulty, stats] = run(true);
  EXPECT_EQ(clean[0].outcome, ServeOutcome::kAccelerator);
  EXPECT_EQ(faulty[0].outcome, ServeOutcome::kHost);
  EXPECT_EQ(faulty[0].attempts, 2);
  EXPECT_EQ(stats.accel_failures, 2u);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.completed_host, 1u);
  // The host path is functionally identical, only slower and dearer.
  ExpectDoubled(faulty[0], 21);
  const Column& got = faulty[0].output.ColumnByField("y");
  const Column& want = clean[0].output.ColumnByField("y");
  ASSERT_EQ(got.data.size(), want.data.size());
  for (std::size_t i = 0; i < got.data.size(); ++i) {
    EXPECT_EQ(got.data[i].AsDouble(), want.data[i].AsDouble()) << i;
  }
  EXPECT_GT(faulty[0].latency_us, clean[0].latency_us);
  EXPECT_GT(faulty[0].charged_us, clean[0].charged_us);
}

TEST(ServiceTest, ProbeReenlistsAfterBurstClears) {
  Fixture fx;
  ServiceOptions options;
  BlazeService service = fx.MakeService(options);
  // Invocations 0 and 1 fail every attempt; the burst then clears.
  service.SetFaultInjector(Bursts("burst 0:2"));
  std::vector<ServiceRequest> wave1 = {Req(8, 0), Req(8, 0)};
  auto first = service.Run(std::move(wave1));
  EXPECT_EQ(service.health("r0"), AcceleratorHealth::kQuarantined);
  for (const auto& o : first) EXPECT_EQ(o.outcome, ServeOutcome::kHost);

  // A request arriving after the probe-eligibility delay is served as the
  // probe; the burst is over, so it succeeds and re-enlists the replica.
  auto second = service.Run({Req(8, /*arrival_us=*/1e6)});
  EXPECT_EQ(second[0].outcome, ServeOutcome::kAccelerator);
  EXPECT_TRUE(second[0].probe);
  ExpectDoubled(second[0], 8);
  EXPECT_EQ(service.stats().probes, 1u);
  EXPECT_EQ(service.stats().probe_successes, 1u);
  EXPECT_EQ(service.stats().reenlistments, 1u);
  EXPECT_EQ(service.health("r0"), AcceleratorHealth::kDegraded);
}

TEST(ServiceTest, FailedProbeBacksOffExponentially) {
  Fixture fx;
  BlazeService service = fx.MakeService();
  service.SetFaultInjector(
      [](const std::string&, std::size_t, int) { return true; });
  service.Run({Req(8), Req(8)});  // quarantine r0
  ASSERT_EQ(service.health("r0"), AcceleratorHealth::kQuarantined);

  // Probe fails too: still quarantined, one probe failure recorded.
  auto probe = service.Run({Req(8, service.clock_us() + 60e3)});
  EXPECT_EQ(probe[0].outcome, ServeOutcome::kHost);  // probe fell back
  EXPECT_TRUE(probe[0].probe);
  EXPECT_EQ(service.stats().probe_failures, 1u);
  EXPECT_EQ(service.health("r0"), AcceleratorHealth::kQuarantined);

  // Immediately after, the backed-off timer has not elapsed: host-direct,
  // no second probe.
  auto direct = service.Run({Req(8, service.clock_us() + 1e3)});
  EXPECT_EQ(direct[0].outcome, ServeOutcome::kHost);
  EXPECT_FALSE(direct[0].probe);
  EXPECT_EQ(service.stats().probes, 1u);
}

TEST(ServiceTest, SelectionPrefersHealthyAndSpillsToDegraded) {
  Fixture fx(2);
  BlazeService service = fx.MakeService({}, 2);
  // Fail r0 on attempt 0 of invocations 0 and 2 (retry succeeds): window
  // rate 2/5 = 0.4 lands in [degrade, quarantine).
  service.SetFaultInjector([](const std::string& id, std::size_t invocation,
                              int attempt) {
    return id == "r0" && attempt == 0 &&
           (invocation == 0 || invocation == 2);
  });
  // Serial warm-up: widely spaced arrivals always find both lanes free, so
  // the registration-order tie-break sends every dispatch to r0.
  std::vector<ServiceRequest> warm;
  for (int i = 0; i < 3; ++i) warm.push_back(Req(8, i * 1e5));
  auto warm_out = service.Run(std::move(warm));
  EXPECT_EQ(warm_out[0].replica, "r0");
  EXPECT_EQ(service.health("r0"), AcceleratorHealth::kDegraded);
  EXPECT_EQ(service.health("r1"), AcceleratorHealth::kHealthy);
  EXPECT_EQ(service.stats().degradations, 1u);

  // Two simultaneous arrivals with both lanes free: the healthy replica is
  // chosen first, the second request spills to the degraded one.
  double t = service.clock_us() + 1;
  auto pair = service.Run({Req(8, t), Req(8, t)});
  EXPECT_EQ(pair[0].replica, "r1");
  EXPECT_EQ(pair[1].replica, "r0");
  EXPECT_EQ(pair[0].outcome, ServeOutcome::kAccelerator);
  EXPECT_EQ(pair[1].outcome, ServeOutcome::kAccelerator);
}

TEST(ServiceTest, QuarantinedReplicaIsProbedBeforeTheDegradedSpill) {
  Fixture fx(2);
  BlazeService service = fx.MakeService({}, 2);
  // r0 degrades as in SelectionPrefersHealthyAndSpillsToDegraded; r1 then
  // takes the healthy lane and fails invocations 0 and 1 outright, the
  // third failure in a row quarantining it.
  service.SetFaultInjector([](const std::string& id, std::size_t invocation,
                              int attempt) {
    if (id == "r0") {
      return attempt == 0 && (invocation == 0 || invocation == 2);
    }
    return invocation < 2;
  });
  for (int i = 0; i < 5; ++i) {
    service.Run({Req(8, service.clock_us() + 1e5)});
  }
  ASSERT_EQ(service.health("r0"), AcceleratorHealth::kDegraded);
  ASSERT_EQ(service.health("r1"), AcceleratorHealth::kQuarantined);

  // Both lanes are free and r1 is due a probe: the probe goes first, so a
  // quarantined replica rejoins while its degraded sibling could serve.
  auto next = service.Run({Req(8, service.clock_us() + 1e6)});
  EXPECT_EQ(next[0].replica, "r1");
  EXPECT_TRUE(next[0].probe);
  EXPECT_EQ(next[0].outcome, ServeOutcome::kAccelerator);
  EXPECT_EQ(service.health("r1"), AcceleratorHealth::kDegraded);
}

// ----------------------------------------------------------- robustness

TEST(ServiceTest, NoAdmittedRequestLostUnderFaultBurst) {
  Fixture fx(2);
  BlazeService service = fx.MakeService({}, 2);
  service.SetFaultInjector(Bursts("burst 2:8"));
  std::vector<ServiceRequest> requests;
  for (int i = 0; i < 24; ++i) {
    requests.push_back(Req(8 + (i % 5) * 16, i * 50.0));
  }
  auto outcomes = service.Run(std::move(requests));
  const ServiceStats& stats = service.stats();
  EXPECT_EQ(stats.submitted, 24u);
  EXPECT_EQ(stats.completed, 24u);
  for (const auto& o : outcomes) {
    ExpectDoubled(o, static_cast<int>(o.output.num_records()));
    EXPECT_GT(o.latency_us, 0.0);
    EXPECT_GT(o.charged_us, 0.0);
  }
}

TEST(ServiceTest, OutcomesBitIdenticalAcrossExecThreads) {
  auto run = [](int exec_threads) {
    Fixture fx(3);
    ServiceOptions options;
    options.exec_threads = exec_threads;
    BlazeService service = fx.MakeService(options, 3);
    service.SetFaultInjector(Bursts("burst 1:6"));
    std::vector<ServiceRequest> requests;
    for (int i = 0; i < 32; ++i) {
      requests.push_back(Req(4 + (i * 7) % 40, (i % 11) * 37.0));
    }
    auto outcomes = service.Run(std::move(requests));
    return Canon(outcomes);
  };
  const std::string serial = run(1);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(8));
}

TEST(ServiceTest, OutOfOrderSubmissionKeepsAttribution) {
  Fixture fx;
  BlazeService service = fx.MakeService();
  // Submitted out of arrival order: the planner sorts by arrival, and every
  // outcome (timing, output) must still belong to its own request.
  auto outcomes = service.Run({Req(8, /*arrival_us=*/1e5), Req(512, 0)});
  ExpectDoubled(outcomes[0], 8);
  ExpectDoubled(outcomes[1], 512);
  EXPECT_EQ(outcomes[0].id, 0u);
  EXPECT_EQ(outcomes[1].id, 1u);
  EXPECT_DOUBLE_EQ(outcomes[1].dispatch_us, 0.0);
  EXPECT_GE(outcomes[0].dispatch_us, 1e5);
  // The 512-record request burns far more accelerator time than the
  // 8-record one; swapped attribution would invert the charges.
  EXPECT_GT(outcomes[1].charged_us, outcomes[0].charged_us);
}

TEST(ServiceTest, ClockAdvancesToLastHostCompletion) {
  Fixture fx;
  BlazeService service = fx.MakeService();
  // Every accelerator attempt fails: completions land on the host path,
  // which emits no lane event — the clock must still reach them.
  service.SetFaultInjector(
      [](const std::string&, std::size_t, int) { return true; });
  auto outcomes = service.Run({Req(8), Req(8), Req(8)});
  double last_complete_us = 0;
  for (const auto& o : outcomes) {
    last_complete_us = std::max(last_complete_us, o.complete_us);
  }
  EXPECT_GE(service.clock_us(), last_complete_us);
  // A follow-up arrival is clamped to the clock, i.e. never planned to
  // dispatch before an earlier drain's completions.
  auto next = service.Run({Req(8, /*arrival_us=*/0)});
  EXPECT_GE(next[0].dispatch_us, last_complete_us);
}

TEST(ServiceTest, DrainIsGracefulAndServiceStaysUsable) {
  Fixture fx;
  BlazeService service = fx.MakeService();
  auto first = service.Run({Req(8), Req(8)});
  EXPECT_EQ(first.size(), 2u);
  const double clock_after_first = service.clock_us();
  EXPECT_GT(clock_after_first, 0.0);
  // Stale arrival times are clamped to the service clock: time never runs
  // backwards across drains.
  auto second = service.Run({Req(8, /*arrival_us=*/0)});
  EXPECT_GE(second[0].dispatch_us, clock_after_first);
  EXPECT_EQ(service.stats().completed, 3u);
  EXPECT_TRUE(service.Drain().empty());  // empty drain is a no-op
}

// ------------------------------------------------------------- plumbing

TEST(ServiceTest, ValidatesConfigurationAndIds) {
  Fixture fx;
  EXPECT_THROW(
      { BlazeService bad(fx.runtime, [] {
          ServiceOptions o;
          o.health_window = 1;
          return o;
        }()); },
      Error);
  BlazeService service(fx.runtime);
  EXPECT_THROW(service.AddReplica("doubler", "nope"), InvalidArgument);
  service.AddReplica("doubler", "r0");
  EXPECT_THROW(service.AddReplica("other", "r0"), Error);  // duplicate
  EXPECT_EQ(service.num_replicas("doubler"), 1u);
  EXPECT_EQ(service.num_replicas("other"), 0u);
  EXPECT_THROW(service.health("nope"), Error);
  ServiceRequest unknown;
  unknown.kernel = "nope";
  unknown.input = DoublerInput(4);
  EXPECT_THROW(service.Submit(std::move(unknown)), Error);
}

TEST(ServiceTest, LatencyQuantileIsNearestRank) {
  ServiceStats stats;
  EXPECT_DOUBLE_EQ(stats.LatencyQuantile(0.99), 0.0);
  for (int i = 100; i >= 1; --i) stats.latencies_us.push_back(i);
  EXPECT_DOUBLE_EQ(stats.LatencyQuantile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(stats.LatencyQuantile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(stats.LatencyQuantile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(stats.LatencyQuantile(0.0), 1.0);
  EXPECT_THROW(stats.LatencyQuantile(1.5), Error);
}

TEST(ServiceTest, BurstInjectorWindowsAreHalfOpen) {
  EXPECT_EQ(Bursts(""), nullptr);
  AccelFaultInjector injector = Bursts("burst 3:2; burst 8:1");
  ASSERT_NE(injector, nullptr);
  EXPECT_FALSE(injector("r0", 2, 0));
  EXPECT_TRUE(injector("r0", 3, 0));
  EXPECT_TRUE(injector("r0", 4, 1));
  EXPECT_FALSE(injector("r0", 5, 0));
  EXPECT_TRUE(injector("r0", 8, 0));
  EXPECT_FALSE(injector("r0", 9, 0));
}

TEST(ServiceTest, CountHealthTracksReplicaStates) {
  Fixture fx(2);
  BlazeService service = fx.MakeService({}, 2);
  ReplicaHealthCounts counts = service.CountHealth("doubler", 0);
  EXPECT_EQ(counts.healthy, 2u);
  EXPECT_EQ(counts.degraded, 0u);
  EXPECT_EQ(counts.quarantined, 0u);
  EXPECT_EQ(counts.live(), 2u);
  // Hammer every invocation with faults until both replicas quarantine.
  service.SetFaultInjector(
      [](const std::string&, std::size_t, int) { return true; });
  std::vector<ServiceRequest> requests;
  for (int i = 0; i < 16; ++i) requests.push_back(Req(8, i * 10.0));
  service.Run(std::move(requests));
  counts = service.CountHealth("doubler", service.clock_us());
  EXPECT_EQ(counts.live() + counts.quarantined, 2u);
  EXPECT_GT(counts.quarantined, 0u);
  if (counts.quarantined > 0 && counts.probe_ready == 0) {
    // A future probe must be scheduled; far enough out it becomes ready.
    EXPECT_GT(counts.next_probe_us, service.clock_us());
    ReplicaHealthCounts later =
        service.CountHealth("doubler", counts.next_probe_us);
    EXPECT_GT(later.probe_ready, 0u);
  }
}

}  // namespace
}  // namespace s2fa::blaze
