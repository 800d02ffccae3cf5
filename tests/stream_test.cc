#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "b2c/compiler.h"
#include "blaze/stream.h"
#include "jvm/assembler.h"
#include "s2fa/framework.h"
#include "support/rng.h"

namespace s2fa::blaze {
namespace {

using jvm::Assembler;
using jvm::MethodSignature;
using jvm::Type;
using jvm::Value;

// Doubler: double -> 2 * double, batch 8 (the cluster_test kernel).
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

Dataset DoublerInput(int n, int base = 0) {
  Dataset input;
  Column x;
  x.field = "x";
  x.element = Type::Double();
  for (int i = 0; i < n; ++i) x.data.push_back(Value::OfDouble(base + i));
  input.AddColumn(x);
  return input;
}

// One-record doubler stream: record `seq` carries the value `seq`, so the
// committed output must be exactly 2 * seq.
StreamRecord Gen(std::size_t ordinal) {
  StreamRecord record;
  record.kernel = "doubler";
  record.input = DoublerInput(1, static_cast<int>(ordinal));
  return record;
}

// Runtime with doubler replicas r0..r(n-1) and clusters spreading them one
// per shard; `inv_us` is the accelerator charge for one 8-record batch.
struct Harness {
  BlazeRuntime runtime;
  double inv_us = 0;
  int lanes = 0;

  explicit Harness(int replicas = 2) : lanes(replicas) {
    jvm::ClassPool pool = MakePool();
    Artifact artifact =
        BuildWithConfig(pool, MakeSpec(8), merlin::DesignConfig{});
    for (int i = 0; i < replicas; ++i) {
      RegisterWithBlaze(runtime, "r" + std::to_string(i), artifact);
    }
    inv_us = runtime.PerInvocationCost("r0").total_us;
  }

  BlazeCluster MakeCluster(ClusterOptions options = {}) {
    const int shards = std::min(lanes, 2);
    options.queue_capacity = std::max(options.queue_capacity,
                                      static_cast<std::size_t>(1) << 20);
    BlazeCluster cluster(runtime, options);
    for (int s = 0; s < shards; ++s) cluster.AddShard();
    for (int i = 0; i < lanes; ++i) {
      cluster.AddReplica(static_cast<std::size_t>(i % shards), "doubler",
                         "r" + std::to_string(i));
    }
    return cluster;
  }

  // Schedule `count` records at `fraction` of the cluster's modeled
  // capacity (lanes * 8 records per invocation charge).
  ArrivalSchedule At(double fraction, std::size_t count,
                     const std::string& tenant = "default") const {
    const double inter_us =
        inv_us / 8.0 / static_cast<double>(lanes) / fraction;
    ArrivalSchedule schedule;
    schedule.phases.push_back(
        {tenant, 0, inter_us * static_cast<double>(count), count});
    return schedule;
  }

  // Test options scaled off the invocation charge so thresholds track the
  // cost model instead of hard-coded microseconds.
  StreamOptions Opts() const {
    StreamOptions options;
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

void ExpectDoubledRecord(const StreamRecordOutcome& out) {
  ASSERT_EQ(out.output.num_records(), 1u) << "seq " << out.seq;
  EXPECT_DOUBLE_EQ(out.output.ColumnByField("y").data[0].AsDouble(),
                   2.0 * static_cast<double>(out.seq))
      << "seq " << out.seq;
}

// Every record accounted exactly once, in every terminal stats bucket.
void ExpectAccounted(const std::vector<StreamRecordOutcome>& outs,
                     const StreamStats& stats, std::size_t count) {
  EXPECT_EQ(stats.arrivals, count);
  EXPECT_EQ(stats.committed + stats.committed_host + stats.shed_total(),
            count);
  EXPECT_EQ(outs.size(), count);
}

// Outcomes come in seq order and their external commits never regress.
void ExpectWatermarkMonotone(const std::vector<StreamRecordOutcome>& outs,
                             const StreamStats& stats) {
  double last = 0;
  for (std::size_t i = 0; i < outs.size(); ++i) {
    EXPECT_EQ(outs[i].seq, i);
    EXPECT_GE(outs[i].external_commit_us, last)
        << "watermark regressed at seq " << outs[i].seq;
    last = outs[i].external_commit_us;
  }
  EXPECT_DOUBLE_EQ(stats.watermark_us, last);
}

// Bit-exact canonical rendering of stream outcomes.
std::string Canon(const std::vector<StreamRecordOutcome>& outs) {
  std::ostringstream os;
  os << std::hexfloat;
  for (const auto& o : outs) {
    os << o.seq << '|' << o.tenant << '|' << StreamOutcomeName(o.outcome)
       << '|' << o.retries << '|' << o.arrival_us << '|' << o.terminal_us
       << '|' << o.external_commit_us << '|' << o.latency_us << '|';
    for (std::size_t c = 0; c < o.output.num_columns(); ++c) {
      for (const auto& v : o.output.column(c).data) os << v.AsDouble() << ',';
    }
    os << '\n';
  }
  return os.str();
}

// ---------------------------------------------------- arrival schedule

TEST(ArrivalScheduleTest, ParsesArriveDirectives) {
  ArrivalSchedule schedule = ParseArrivalSchedule(
      "arrive default @ 0 + 10ms x 100\n"
      "arrive noisy @ 5ms + 5ms x 50;");
  ASSERT_EQ(schedule.phases.size(), 2u);
  EXPECT_EQ(schedule.phases[0].tenant, "default");
  EXPECT_DOUBLE_EQ(schedule.phases[0].start_us, 0.0);
  EXPECT_DOUBLE_EQ(schedule.phases[0].duration_us, 10000.0);
  EXPECT_EQ(schedule.phases[0].count, 100u);
  EXPECT_EQ(schedule.phases[1].tenant, "noisy");
  EXPECT_DOUBLE_EQ(schedule.phases[1].start_us, 5000.0);
  EXPECT_EQ(schedule.phases[1].count, 50u);
}

// Exact messages: the schedule is user input, so the errors are interface.
TEST(ArrivalScheduleTest, RejectsMalformedSchedulesWithExactMessages) {
  auto message = [](const std::string& text) {
    try {
      ParseArrivalSchedule(text);
    } catch (const MalformedInput& e) {
      return std::string(e.what());
    }
    return std::string("<no throw>");
  };
  EXPECT_EQ(message("stream x 5"),
            "arrival schedule: unknown directive in 'streamx5'");
  EXPECT_EQ(message("arrive t 0 + 1 x 1"),
            "arrival schedule: expected '@' in 'arrivet0+1x1'");
  EXPECT_EQ(message("arrive t @ 1 x 5"),
            "arrival schedule: expected '+' in 'arrivet@1x5'");
  EXPECT_EQ(message("arrive t @ 0 + 0 x 5"),
            "arrival schedule: phase duration must be > 0 in 'arrivet@0+0x5'");
  EXPECT_EQ(message("arrive t @ 0 + 1ms x 0"),
            "arrival schedule: record count must be >= 1 in 'arrivet@0+1msx0'");
  EXPECT_EQ(
      message("arrive t @ 0 + 1ms x 5 junk"),
      "arrival schedule: trailing junk in 'arrivet@0+1msx5junk'");
  EXPECT_EQ(message(" ;; \n"), "arrival schedule: no phases");
}

TEST(ArrivalScheduleTest, ValidateRejectsHandBuiltPhases) {
  ArrivalSchedule empty;
  EXPECT_THROW(ValidateArrivalSchedule(empty), MalformedInput);
  ArrivalSchedule negative;
  negative.phases.push_back({"t", -1.0, 100.0, 5});
  EXPECT_THROW(ValidateArrivalSchedule(negative), MalformedInput);
  ArrivalSchedule anonymous;
  anonymous.phases.push_back({"", 0, 100.0, 5});
  EXPECT_THROW(ValidateArrivalSchedule(anonymous), MalformedInput);
}

// ------------------------------------------------------------ streaming

TEST(StreamTest, SubCapacityStreamsCommitWithinSlo) {
  Harness hx(2);
  BlazeCluster cluster = hx.MakeCluster();
  StreamOptions options = hx.Opts();
  StreamSession session(cluster, options);
  const std::size_t kCount = 400;
  auto outs = session.Run(hx.At(0.5, kCount), Gen);
  ASSERT_EQ(outs.size(), kCount);
  const StreamStats& stats = session.stats();
  ExpectAccounted(outs, stats, kCount);
  ExpectWatermarkMonotone(outs, stats);
  EXPECT_EQ(stats.committed, kCount) << "sub-capacity must not shed";
  EXPECT_EQ(stats.shed_total(), 0u);
  for (const auto& out : outs) {
    EXPECT_EQ(out.outcome, StreamOutcome::kCommitted);
    ExpectDoubledRecord(out);
    EXPECT_LE(out.latency_us, options.slo_us) << "seq " << out.seq;
  }
  EXPECT_LE(stats.LatencyQuantile(0.99), options.slo_us);
  EXPECT_GT(stats.batches_dispatched, 0u);
}

TEST(StreamTest, BatchCloseTriggerBreakdown) {
  Harness hx(2);
  // Count: a same-instant burst of exactly batch_max_records.
  {
    BlazeCluster cluster = hx.MakeCluster();
    StreamSession session(cluster, hx.Opts());
    ArrivalSchedule burst;
    burst.phases.push_back({"default", 0, 1e-3, 8});
    session.Run(burst, Gen);
    EXPECT_EQ(session.stats().close_count, 1u);
    EXPECT_EQ(session.stats().close_age, 0u);
  }
  // Age: a single record can only close by aging out.
  {
    BlazeCluster cluster = hx.MakeCluster();
    StreamSession session(cluster, hx.Opts());
    ArrivalSchedule one;
    one.phases.push_back({"default", 0, 1.0, 1});
    session.Run(one, Gen);
    EXPECT_EQ(session.stats().close_age, 1u);
    EXPECT_EQ(session.stats().close_count, 0u);
  }
  // Deadline: an SLO tighter than the age window forces deadline closes.
  {
    BlazeCluster cluster = hx.MakeCluster();
    StreamOptions options = hx.Opts();
    options.slo_us = hx.inv_us;
    options.deadline_headroom_us = hx.inv_us / 2;
    StreamSession session(cluster, options);
    ArrivalSchedule one;
    one.phases.push_back({"default", 0, 1.0, 1});
    session.Run(one, Gen);
    EXPECT_EQ(session.stats().close_deadline, 1u);
    EXPECT_EQ(session.stats().close_age, 0u);
  }
}

TEST(StreamTest, OverloadLadderShedsBoundedAndAccountsEverything) {
  Harness hx(2);
  BlazeCluster cluster = hx.MakeCluster();
  StreamOptions options = hx.Opts();
  // Tight ladder so sustained 3x overload marches through every level
  // instead of stabilizing inside the brownout band.
  options.brownout_onset_us = 5 * hx.inv_us;
  options.shed_onset_us = 10 * hx.inv_us;
  StreamSession session(cluster, options);
  const std::size_t kCount = 3000;
  auto outs = session.Run(hx.At(3.0, kCount), Gen);
  const StreamStats& stats = session.stats();
  ExpectAccounted(outs, stats, kCount);
  ExpectWatermarkMonotone(outs, stats);
  EXPECT_GT(stats.shed_total(), 0u) << "3x load must shed";
  EXPECT_GT(stats.committed + stats.committed_host, 0u)
      << "overload control must preserve goodput";
  EXPECT_EQ(stats.shed_queue_full, 0u)
      << "the ladder never FIFO-drops or overflows the cluster queue";
  for (const auto& out : outs) {
    if (!IsStreamShed(out.outcome)) ExpectDoubledRecord(out);
  }
  EXPECT_GT(stats.max_queue_delay_us, options.shed_onset_us);
}

TEST(StreamTest, BrownoutRoutesAControlledFractionToHost) {
  Harness hx(2);
  BlazeCluster cluster = hx.MakeCluster();
  StreamOptions options = hx.Opts();
  options.brownout_onset_us = 2 * hx.inv_us;
  options.shed_onset_us = 40 * hx.inv_us;
  options.slo_us = 100 * hx.inv_us;
  options.deadline_headroom_us = hx.inv_us;
  StreamSession session(cluster, options);
  const std::size_t kCount = 2000;
  auto outs = session.Run(hx.At(1.3, kCount), Gen);
  const StreamStats& stats = session.stats();
  ExpectAccounted(outs, stats, kCount);
  ExpectWatermarkMonotone(outs, stats);
  EXPECT_GT(stats.committed_host, 0u) << "brownout must engage above 1x";
  EXPECT_GT(stats.batches_host, 0u);
  EXPECT_LT(stats.batches_host, stats.batches_closed)
      << "brownout is a fraction, not a cliff";
  for (const auto& out : outs) {
    if (!IsStreamShed(out.outcome)) ExpectDoubledRecord(out);
  }
}

TEST(StreamTest, RetryBudgetBoundsTheRetryStorm) {
  Harness hx(2);
  BlazeCluster cluster = hx.MakeCluster();
  StreamOptions options = hx.Opts();
  options.brownout_onset_us = 5 * hx.inv_us;
  options.shed_onset_us = 10 * hx.inv_us;
  options.retry_budget.refill_per_sec = 0;  // no refill: burst only
  options.retry_budget.burst = 4;
  options.max_retries = 3;
  StreamSession session(cluster, options);
  const std::size_t kCount = 3000;
  auto outs = session.Run(hx.At(3.0, kCount), Gen);
  const StreamStats& stats = session.stats();
  ExpectAccounted(outs, stats, kCount);
  EXPECT_LE(stats.retries_granted, 4u)
      << "a zero-refill bucket grants at most its burst";
  EXPECT_GT(stats.shed_retry_budget, 0u)
      << "denied retries must be accounted";
}

TEST(StreamTest, FifoShedTailDropsInsteadOfChoosing) {
  Harness hx(2);
  BlazeCluster cluster = hx.MakeCluster();
  StreamOptions options = hx.Opts();
  options.policy = OverloadPolicy::kFifoShed;
  StreamSession session(cluster, options);
  const std::size_t kCount = 2000;
  auto outs = session.Run(hx.At(2.5, kCount), Gen);
  const StreamStats& stats = session.stats();
  ExpectAccounted(outs, stats, kCount);
  ExpectWatermarkMonotone(outs, stats);
  EXPECT_GT(stats.shed_queue_full, 0u) << "FIFO must tail-drop at 2.5x";
  EXPECT_EQ(stats.shed_unmeetable, 0u);
  EXPECT_EQ(stats.shed_brownout, 0u);
  EXPECT_EQ(stats.shed_retry_budget, 0u);
  EXPECT_EQ(stats.retries_granted, 0u);
}

// Goodput = records visibly committed within their SLO. The strict ">"
// gate lives in bench_stream; here the ladder must at least never lose.
TEST(StreamTest, LadderGoodputAtLeastMatchesFifoShed) {
  Harness hx(2);
  auto goodput = [&](OverloadPolicy policy) {
    BlazeCluster cluster = hx.MakeCluster();
    StreamOptions options = hx.Opts();
    options.policy = policy;
    StreamSession session(cluster, options);
    auto outs = session.Run(hx.At(2.0, 2000), Gen);
    std::size_t good = 0;
    for (const auto& out : outs) {
      if (!IsStreamShed(out.outcome) && out.latency_us <= options.slo_us) {
        ++good;
      }
    }
    return good;
  };
  EXPECT_GE(goodput(OverloadPolicy::kLadder),
            goodput(OverloadPolicy::kFifoShed));
}

TEST(StreamTest, ChaosKillMidStreamLosesNothing) {
  Harness hx(4);
  BlazeCluster cluster = hx.MakeCluster();
  // Kill one fault domain a third in, restart later, with a latency spike
  // across the middle of the stream.
  const double horizon = 2000.0 * hx.inv_us / 8.0 / 4.0;
  std::ostringstream plan;
  plan << "kill 1 @ " << horizon / 3 << "; restart 1 @ " << horizon * 2 / 3
       << "; spike 2.5 @ " << horizon / 2 << " + " << horizon / 4;
  cluster.SetChaosPlan(ParseChaosPlan(plan.str()));
  StreamSession session(cluster, hx.Opts());
  const std::size_t kCount = 2000;
  auto outs = session.Run(hx.At(1.0, kCount), Gen);
  const StreamStats& stats = session.stats();
  ExpectAccounted(outs, stats, kCount);
  ExpectWatermarkMonotone(outs, stats);
  EXPECT_GT(stats.committed, 0u);
  for (const auto& out : outs) {
    if (!IsStreamShed(out.outcome)) ExpectDoubledRecord(out);
  }
}

TEST(StreamTest, BitIdenticalAcrossExecThreads) {
  Harness hx(4);
  auto run = [&](int exec_threads) {
    ClusterOptions coptions;
    coptions.exec_threads = exec_threads;
    BlazeCluster cluster = hx.MakeCluster(coptions);
    const double horizon = 1200.0 * hx.inv_us / 8.0 / 4.0;
    std::ostringstream plan;
    plan << "kill 0 @ " << horizon / 4 << "; restart 0 @ " << horizon / 2;
    cluster.SetChaosPlan(ParseChaosPlan(plan.str()));
    StreamSession session(cluster, hx.Opts());
    return Canon(session.Run(hx.At(1.5, 1200), Gen));
  };
  const std::string one = run(1);
  EXPECT_EQ(one, run(2));
  EXPECT_EQ(one, run(8));
}

TEST(StreamTest, SessionIsSingleShot) {
  Harness hx(2);
  BlazeCluster cluster = hx.MakeCluster();
  StreamSession session(cluster, hx.Opts());
  ArrivalSchedule one;
  one.phases.push_back({"default", 0, 1.0, 1});
  session.Run(one, Gen);
  EXPECT_THROW(session.Run(one, Gen), Error);
}

// An outcome counts its retries in 32 bits, so the limit must fit.
TEST(StreamTest, MaxRetriesMustFitTheOutcomeCounter) {
  Harness hx(1);
  BlazeCluster cluster = hx.MakeCluster();
  StreamOptions options = hx.Opts();
  options.max_retries = std::numeric_limits<std::uint32_t>::max();
  EXPECT_NO_THROW({ StreamSession session(cluster, options); });
  ++options.max_retries;
  EXPECT_THROW({ StreamSession session(cluster, options); }, Error);
}

// A tenant name longer than any small-string buffer, so each copy of it
// is a heap block of its own.
std::string LongTenant(const std::string& prefix, const char* tier) {
  return prefix + "-" + tier + "-tenant-with-a-heap-allocated-name";
}

// Streams `count` records for a gold tenant, then `count` for a bronze
// one. The names, schedule, cluster and session all die with the call,
// so the outcomes it returns can only name their tenants through the
// session's process-wide table.
std::vector<StreamRecordOutcome> StreamTwoTenantsInScope(
    Harness& hx, const std::string& prefix, std::size_t count) {
  const std::string gold = LongTenant(prefix, "gold");
  const std::string bronze = LongTenant(prefix, "bronze");
  ArrivalSchedule schedule = hx.At(0.5, count, gold);
  ArrivalPhase second = schedule.phases.front();
  second.tenant = bronze;
  second.start_us = schedule.phases.front().duration_us;
  schedule.phases.push_back(std::move(second));
  BlazeCluster cluster = hx.MakeCluster();
  StreamSession session(cluster, hx.Opts());
  return session.Run(schedule, Gen);
}

void ExpectTwoTenants(const std::vector<StreamRecordOutcome>& outs,
                      const std::string& prefix, std::size_t count) {
  ASSERT_EQ(outs.size(), 2 * count);
  const std::string gold = LongTenant(prefix, "gold");
  const std::string bronze = LongTenant(prefix, "bronze");
  for (const StreamRecordOutcome& out : outs) {
    EXPECT_EQ(out.tenant, out.seq < count ? gold : bronze)
        << "seq " << out.seq;
  }
}

TEST(StreamTest, OutcomeTenantsOutliveSessionClusterAndSchedule) {
  const std::size_t kCount = 40;
  {
    Harness hx(2);
    const auto outs = StreamTwoTenantsInScope(hx, "solo", kCount);
    ExpectTwoTenants(outs, "solo", kCount);
  }
  // Two sessions intern distinct names at the same time (the TSan twin
  // instruments the name table).
  Harness left_hx(2);
  Harness right_hx(2);
  std::vector<StreamRecordOutcome> left;
  std::vector<StreamRecordOutcome> right;
  std::thread left_thread(
      [&] { left = StreamTwoTenantsInScope(left_hx, "left", kCount); });
  std::thread right_thread(
      [&] { right = StreamTwoTenantsInScope(right_hx, "right", kCount); });
  left_thread.join();
  right_thread.join();
  ExpectTwoTenants(left, "left", kCount);
  ExpectTwoTenants(right, "right", kCount);
}

// -------------------------------------------------------------- reduce

// SumSq reduce kernel (the cluster_test reduce kernel): reduce records
// must never batch across each other and return unsliced outputs.
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

TEST(StreamTest, ReduceRecordsNeverBatchAcrossEachOther) {
  BlazeRuntime runtime;
  Artifact artifact =
      BuildWithConfig(MakeSumSqPool(), SumSqSpec(8), merlin::DesignConfig{});
  for (int i = 0; i < 2; ++i) {
    RegisterWithBlaze(runtime, "s" + std::to_string(i), artifact);
  }
  ClusterOptions coptions;
  coptions.queue_capacity = 1 << 20;
  BlazeCluster cluster(runtime, coptions);
  for (int s = 0; s < 2; ++s) cluster.AddShard();
  for (int i = 0; i < 2; ++i) {
    cluster.AddReplica(static_cast<std::size_t>(i % 2), "sumsq",
                       "s" + std::to_string(i));
  }
  const double inv_us = runtime.PerInvocationCost("s0").total_us;
  StreamOptions options;
  options.batch_max_records = 8;  // must still cap reduce at 1
  options.batch_age_us = 4 * inv_us;
  options.slo_us = 400 * inv_us;
  options.deadline_headroom_us = inv_us;
  options.codel_target_us = 40 * inv_us;
  options.codel_interval_us = 40 * inv_us;
  options.brownout_onset_us = 80 * inv_us;
  options.shed_onset_us = 160 * inv_us;
  StreamSession session(cluster, options);
  auto gen = [](std::size_t ordinal) {
    StreamRecord record;
    record.kernel = "sumsq";
    record.input = DoublerInput(16, static_cast<int>(ordinal));
    return record;
  };
  ArrivalSchedule schedule;
  const std::size_t kCount = 24;
  schedule.phases.push_back(
      {"default", 0, inv_us * 2.0 * static_cast<double>(kCount), kCount});
  auto outs = session.Run(schedule, gen);
  const StreamStats& stats = session.stats();
  ExpectAccounted(outs, stats, kCount);
  EXPECT_EQ(stats.committed, kCount);
  EXPECT_EQ(stats.close_count, kCount) << "every reduce record closes alone";
  for (const auto& out : outs) {
    ASSERT_EQ(out.output.num_records(), 1u);
    double expect = 0;
    for (int i = 0; i < 16; ++i) {
      const double x = static_cast<double>(out.seq) + i;
      expect += x * x;
    }
    EXPECT_DOUBLE_EQ(out.output.ColumnByField("ret").data[0].AsDouble(),
                     expect)
        << "seq " << out.seq;
  }
}


// -------------------------------------------------------------- golden

// Every outcome and every StreamStats field, bit-exact: doubles in
// hexfloat, the tenants map in key order. A change to how the session
// stores records or orders events must leave this rendering unchanged.
std::string RenderGolden(const std::vector<StreamRecordOutcome>& outs,
                         const StreamStats& s) {
  std::ostringstream os;
  os << std::hexfloat;
  os << "arrivals " << s.arrivals << " committed " << s.committed
     << " committed_host " << s.committed_host << " shed_unmeetable "
     << s.shed_unmeetable << " shed_brownout " << s.shed_brownout
     << " shed_retry_budget " << s.shed_retry_budget << " shed_queue_full "
     << s.shed_queue_full << " retries_granted " << s.retries_granted
     << " retries_denied " << s.retries_denied << '\n';
  os << "batches_closed " << s.batches_closed << " batches_dispatched "
     << s.batches_dispatched << " batches_host " << s.batches_host
     << " batches_shed " << s.batches_shed << " close_count "
     << s.close_count << " close_age " << s.close_age << " close_deadline "
     << s.close_deadline << " codel_engagements " << s.codel_engagements
     << '\n';
  os << "max_queue_delay_us " << s.max_queue_delay_us << " watermark_us "
     << s.watermark_us << '\n';
  for (const auto& [name, t] : s.tenants) {
    os << "tenant " << name << ' ' << t.arrivals << ' ' << t.committed << ' '
       << t.committed_host << ' ' << t.shed_unmeetable << ' '
       << t.shed_brownout << ' ' << t.shed_retry_budget << ' '
       << t.shed_queue_full << ' ' << t.retries << '\n';
  }
  os << "latencies";
  for (double l : s.latencies_us) os << ' ' << l;
  os << "\nwatermark";
  for (const auto& o : outs) os << ' ' << o.seq << ':' << o.external_commit_us;
  os << '\n' << Canon(outs);
  return os.str();
}

// Record `ordinal` carries 1-3 rows (ordinal % 3 + 1) valued ordinal*4 + i,
// so batch slicing is exercised off the one-row fast case.
StreamRecord GenRows(std::size_t ordinal) {
  StreamRecord record;
  record.kernel = "doubler";
  record.input = DoublerInput(static_cast<int>(ordinal % 3 + 1),
                              static_cast<int>(ordinal * 4));
  return record;
}

// A served GenRows record's rows are exactly twice its own input's.
void ExpectTwiceItsRows(const StreamRecordOutcome& out) {
  const Dataset want = GenRows(out.seq).input;
  ASSERT_EQ(out.output.num_records(), want.num_records()) << out.seq;
  for (std::size_t r = 0; r < want.num_records(); ++r) {
    EXPECT_EQ(out.output.ColumnByField("y").data[r].AsDouble(),
              2 * want.ColumnByField("x").data[r].AsDouble())
        << "seq " << out.seq << " row " << r;
  }
}

// A tight ladder: each rung engages within a few dozen records.
StreamOptions TightLadder(const Harness& hx) {
  StreamOptions options = hx.Opts();
  options.codel_target_us = hx.inv_us / 2;
  options.codel_interval_us = hx.inv_us / 2;
  options.brownout_onset_us = hx.inv_us;
  options.shed_onset_us = 2 * hx.inv_us;
  return options;
}

// A record's input travels with its key's open batch and, while it waits
// to retry, apart from it. Retried records keep their first arrival time,
// so when one re-joins an open batch behind fresher records CoDel sheds it
// from the middle of the batch; the kept members must carry their own
// inputs on. Every served record's rows must be exactly twice its own.
TEST(StreamTest, InputsStayWithTheirRecordsThroughShedAndRetry) {
  Harness hx(1);
  BlazeCluster cluster = hx.MakeCluster();
  // An SLO of a few batch charges: fresh records meet it, records back
  // from a retry no longer do.
  StreamOptions options = TightLadder(hx);
  options.slo_us = 6 * hx.inv_us;
  options.deadline_headroom_us = hx.inv_us / 2;
  options.batch_age_us = hx.inv_us / 2;
  options.retry_backoff_us = hx.inv_us;
  options.max_retries = 3;
  options.retry_budget.burst = 1e6;
  StreamSession session(cluster, options);
  const std::size_t kCount = 600;
  auto outs = session.Run(hx.At(2.0, kCount), GenRows);
  const StreamStats& stats = session.stats();
  ExpectAccounted(outs, stats, kCount);
  ExpectWatermarkMonotone(outs, stats);
  EXPECT_GT(stats.retries_granted, 0u);
  std::size_t retried_served = 0;
  std::size_t retried_unmeetable = 0;
  for (const auto& out : outs) {
    if (out.retries > 0 && out.outcome == StreamOutcome::kShedUnmeetable) {
      ++retried_unmeetable;
    }
    if (IsStreamShed(out.outcome)) continue;
    if (out.retries > 0) ++retried_served;
    ExpectTwiceItsRows(out);
  }
  EXPECT_GT(retried_served, 0u) << "a retried record must be served";
  EXPECT_GT(retried_unmeetable, 0u)
      << "CoDel must shed a retried record from an open batch";
}

// -------------------------------------------------------------- property

// Property: over random arrival schedules (1-3 tenants' `arrive` phases,
// each at 0.3x-3x capacity) and random `kill`/`restart`/`spike` chaos
// plans, both drawn as grammar text, every record ends in exactly one
// terminal state, outcomes come in seq order with a watermark that never
// regresses, every served record is twice its input, and the outcomes
// are bit-identical at 1 and 3 exec threads. A failing trial's
// SCOPED_TRACE is its schedule and plan, ready to save as a regression.
TEST(StreamPropertyTest, RandomSchedulesAndChaosPlansKeepInvariants) {
  Harness hx(4);  // two shards of two replicas
  const double capacity_inter_us =
      hx.inv_us / 8.0 / static_cast<double>(hx.lanes);
  Rng rng(2018);
  std::size_t committed = 0;
  std::size_t shed = 0;
  std::size_t retried = 0;
  for (int trial = 0; trial < 24; ++trial) {
    std::ostringstream schedule_text;
    std::map<std::string, std::size_t> per_tenant;
    std::size_t total = 0;
    double horizon = 0;
    const std::int64_t tenants = rng.NextInt(1, 3);
    for (std::int64_t t = 0; t < tenants; ++t) {
      const std::string name = "t" + std::to_string(t);
      const auto count = static_cast<std::size_t>(rng.NextInt(60, 160));
      const double start = rng.NextDouble(0, 0.5) * capacity_inter_us * 200;
      const double duration = capacity_inter_us *
                              static_cast<double>(count) /
                              rng.NextDouble(0.3, 3.0);
      schedule_text << "arrive " << name << " @ " << start << "us + "
                    << duration << "us x " << count << "; ";
      per_tenant[name] += count;
      total += count;
      horizon = std::max(horizon, start + duration);
    }
    std::ostringstream plan_text;
    for (int shard = 0; shard < 2; ++shard) {
      if (!rng.NextBool(0.4)) continue;
      const double kill = rng.NextDouble(0, 0.8) * horizon;
      plan_text << "kill " << shard << " @ " << kill << "us; ";
      if (rng.NextBool(0.6)) {
        plan_text << "restart " << shard << " @ "
                  << kill + rng.NextDouble(0.05, 0.5) * horizon << "us; ";
      }
    }
    if (rng.NextBool()) {
      plan_text << "spike " << rng.NextDouble(1.5, 4.0) << " @ "
                << rng.NextDouble(0, 0.8) * horizon << "us + "
                << rng.NextDouble(0.1, 0.4) * horizon << "us; ";
    }
    StreamOptions options = hx.Opts();
    options.batch_max_records = static_cast<std::size_t>(rng.NextInt(1, 8));
    options.max_retries = static_cast<std::size_t>(rng.NextInt(0, 2));
    if (rng.NextBool(0.25)) options.policy = OverloadPolicy::kFifoShed;
    SCOPED_TRACE("schedule '" + schedule_text.str() + "' plan '" +
                 plan_text.str() + "' batch_max_records " +
                 std::to_string(options.batch_max_records) +
                 " max_retries " + std::to_string(options.max_retries) +
                 (options.policy == OverloadPolicy::kFifoShed ? " fifo"
                                                              : " ladder"));
    const ArrivalSchedule schedule =
        ParseArrivalSchedule(schedule_text.str());
    const ChaosPlan plan = ParseChaosPlan(plan_text.str());

    std::string reference;
    for (int threads : {1, 3}) {
      ClusterOptions coptions;
      coptions.exec_threads = threads;
      BlazeCluster cluster = hx.MakeCluster(coptions);
      cluster.SetChaosPlan(plan);
      StreamSession session(cluster, options);
      const auto outs = session.Run(schedule, GenRows);
      const StreamStats& stats = session.stats();
      ExpectAccounted(outs, stats, total);
      ExpectWatermarkMonotone(outs, stats);
      // One terminal state per record: the outcomes' states and tenants
      // add up to exactly the session's buckets.
      std::map<StreamOutcome, std::size_t> states;
      std::map<std::string, std::size_t> tenant_arrivals;
      for (const StreamRecordOutcome& out : outs) {
        ++states[out.outcome];
        ++tenant_arrivals[std::string(out.tenant)];
        if (IsStreamShed(out.outcome)) {
          EXPECT_EQ(out.output.num_records(), 0u) << "seq " << out.seq;
        } else {
          ExpectTwiceItsRows(out);
        }
        if (out.retries > 0) ++retried;
      }
      EXPECT_EQ(states[StreamOutcome::kCommitted], stats.committed);
      EXPECT_EQ(states[StreamOutcome::kCommittedHost], stats.committed_host);
      EXPECT_EQ(states[StreamOutcome::kShedUnmeetable],
                stats.shed_unmeetable);
      EXPECT_EQ(states[StreamOutcome::kShedBrownout], stats.shed_brownout);
      EXPECT_EQ(states[StreamOutcome::kShedRetryBudget],
                stats.shed_retry_budget);
      EXPECT_EQ(states[StreamOutcome::kShedQueueFull], stats.shed_queue_full);
      EXPECT_EQ(tenant_arrivals, per_tenant);
      const std::string canon = Canon(outs);
      if (reference.empty()) {
        reference = canon;
        committed += stats.committed + stats.committed_host;
        shed += stats.shed_total();
      } else {
        EXPECT_EQ(canon, reference) << "exec_threads=" << threads;
      }
    }
  }
  // The draws reach both sides of the ladder.
  EXPECT_GT(committed, 0u);
  EXPECT_GT(shed, 0u);
  EXPECT_GT(retried, 0u);
}

struct GoldenRun {
  std::string text;
  StreamStats stats;
};

GoldenRun RunGolden(BlazeCluster& cluster, const StreamOptions& options,
                    const ArrivalSchedule& schedule,
                    const StreamGenerator& generator) {
  StreamSession session(cluster, options);
  auto outs = session.Run(schedule, generator);
  return {RenderGolden(outs, session.stats()), session.stats()};
}

// Two tenants with identical phases, so every arrival ties across the two
// phases, over two kernels (two open batches at once) at 8x load.
GoldenRun GoldenTiedTenants() {
  Harness hx(2);
  const Artifact artifact =
      BuildWithConfig(MakePool(), MakeSpec(8), merlin::DesignConfig{});
  BlazeCluster cluster = hx.MakeCluster();
  for (int i = 0; i < 2; ++i) {
    RegisterWithBlaze(hx.runtime, "t" + std::to_string(i), artifact);
    cluster.AddReplica(static_cast<std::size_t>(i), "twin",
                       "t" + std::to_string(i));
  }
  ArrivalSchedule schedule = hx.At(4.0, 40, "gold");
  schedule.phases.push_back(schedule.phases.front());
  schedule.phases.back().tenant = "bronze";
  StreamOptions options = TightLadder(hx);
  options.codel_interval_us = hx.inv_us / 4;
  options.brownout_onset_us = hx.inv_us / 2;
  options.shed_onset_us = hx.inv_us;
  return RunGolden(cluster, options, schedule, [](std::size_t n) {
    StreamRecord record = Gen(n);
    if (n % 2 == 1) record.kernel = "twin";
    return record;
  });
}

// A second phase whose start is exactly one of the first phase's slot
// times, with multi-row records.
GoldenRun GoldenPhaseOnSlot() {
  Harness hx(2);
  BlazeCluster cluster = hx.MakeCluster();
  ArrivalSchedule schedule = hx.At(1.5, 40, "early");
  const ArrivalPhase& first = schedule.phases.front();
  const double slot = first.start_us + first.duration_us * 13.0 /
                                           static_cast<double>(first.count);
  schedule.phases.push_back({"late", slot, first.duration_us / 2, 20});
  return RunGolden(cluster, TightLadder(hx), schedule, GenRows);
}

// Integer-microsecond arrivals with age and retry back-off on the same
// grid, so re-arrivals land on the instants of first arrivals and of age
// timers.
GoldenRun GoldenRetryOnTimer() {
  Harness hx(1);
  BlazeCluster cluster = hx.MakeCluster();
  const double step = std::max(1.0, std::floor(hx.inv_us / 16));
  StreamOptions options = TightLadder(hx);
  options.batch_age_us = 4 * step;
  options.retry_backoff_us = 5 * step;
  options.max_retries = 2;
  options.retry_budget.burst = 64;
  ArrivalSchedule schedule;
  schedule.phases.push_back({"default", 0, 64 * step, 64});
  return RunGolden(cluster, options, schedule, Gen);
}

GoldenRun GoldenFifo() {
  Harness hx(2);
  BlazeCluster cluster = hx.MakeCluster();
  StreamOptions options = TightLadder(hx);
  options.policy = OverloadPolicy::kFifoShed;
  return RunGolden(cluster, options, hx.At(2.5, 64), GenRows);
}

GoldenRun GoldenReduce() {
  BlazeRuntime runtime;
  const Artifact artifact =
      BuildWithConfig(MakeSumSqPool(), SumSqSpec(8), merlin::DesignConfig{});
  RegisterWithBlaze(runtime, "s0", artifact);
  ClusterOptions coptions;
  coptions.queue_capacity = 1 << 20;
  BlazeCluster cluster(runtime, coptions);
  cluster.AddShard();
  cluster.AddReplica(0, "sumsq", "s0");
  const double inv_us = runtime.PerInvocationCost("s0").total_us;
  StreamOptions options;
  options.batch_age_us = 4 * inv_us;
  options.slo_us = 400 * inv_us;
  options.deadline_headroom_us = inv_us;
  options.codel_target_us = 40 * inv_us;
  options.codel_interval_us = 40 * inv_us;
  options.brownout_onset_us = 80 * inv_us;
  options.shed_onset_us = 160 * inv_us;
  ArrivalSchedule schedule;
  schedule.phases.push_back({"default", 0, inv_us * 12, 12});
  return RunGolden(cluster, options, schedule, [](std::size_t n) {
    StreamRecord record;
    record.kernel = "sumsq";
    record.input = DoublerInput(static_cast<int>(n % 4 + 1),
                                static_cast<int>(n));
    return record;
  });
}

GoldenRun GoldenChaosKill() {
  Harness hx(4);
  BlazeCluster cluster = hx.MakeCluster();
  const double horizon = 64.0 * hx.inv_us / 8.0 / 4.0 / 1.5;
  std::ostringstream plan;
  plan << "kill 1 @ " << horizon / 4 << "; restart 1 @ " << horizon * 3 / 4
       << "; spike 2.5 @ " << horizon / 3 << " + " << horizon / 3;
  cluster.SetChaosPlan(ParseChaosPlan(plan.str()));
  return RunGolden(cluster, TightLadder(hx), hx.At(1.5, 64), Gen);
}

GoldenRun GoldenBrownoutHost() {
  Harness hx(2);
  BlazeCluster cluster = hx.MakeCluster();
  StreamOptions options = hx.Opts();
  options.brownout_onset_us = hx.inv_us / 8;
  options.shed_onset_us = 1.5 * hx.inv_us;
  options.slo_us = 100 * hx.inv_us;
  return RunGolden(cluster, options, hx.At(2.0, 64), GenRows);
}

GoldenRun GoldenCodelShed() {
  Harness hx(1);
  BlazeCluster cluster = hx.MakeCluster();
  StreamOptions options = hx.Opts();
  options.slo_us = 3 * hx.inv_us;
  options.deadline_headroom_us = hx.inv_us / 4;
  options.codel_target_us = hx.inv_us / 2;
  options.codel_interval_us = hx.inv_us / 2;
  options.brownout_onset_us = 20 * hx.inv_us;
  options.shed_onset_us = 40 * hx.inv_us;
  return RunGolden(cluster, options, hx.At(3.0, 64), Gen);
}

struct GoldenScenario {
  const char* name;
  GoldenRun (*run)();
};

const GoldenScenario kGoldenScenarios[] = {
    {"tied_tenants", GoldenTiedTenants},
    {"phase_on_slot", GoldenPhaseOnSlot},
    {"retry_on_timer", GoldenRetryOnTimer},
    {"fifo", GoldenFifo},
    {"reduce", GoldenReduce},
    {"chaos_kill", GoldenChaosKill},
    {"brownout_host", GoldenBrownoutHost},
    {"codel_shed", GoldenCodelShed},
};

struct GoldenCase {
  const char* name;
  const char* text;
};
#include "stream_golden.inc"

TEST(StreamGoldenTest, EveryScenarioMatchesTheGoldenTable) {
  ASSERT_EQ(std::size(kStreamGolden), std::size(kGoldenScenarios));
  std::map<std::string, StreamStats> stats;
  for (std::size_t i = 0; i < std::size(kGoldenScenarios); ++i) {
    const GoldenScenario& scenario = kGoldenScenarios[i];
    ASSERT_STREQ(kStreamGolden[i].name, scenario.name);
    GoldenRun run = scenario.run();
    EXPECT_EQ(run.text, kStreamGolden[i].text) << scenario.name;
    stats[scenario.name] = std::move(run.stats);
  }
  // Each scenario still reaches the path it is named for.
  EXPECT_GT(stats["tied_tenants"].retries_granted, 0u);
  EXPECT_GT(stats["phase_on_slot"].close_age, 0u);
  EXPECT_GT(stats["retry_on_timer"].retries_granted, 0u);
  EXPECT_GT(stats["fifo"].shed_queue_full, 0u);
  EXPECT_EQ(stats["reduce"].close_count, 12u);
  EXPECT_GT(stats["chaos_kill"].committed, 0u);
  EXPECT_GT(stats["brownout_host"].batches_host, 0u);
  EXPECT_GT(stats["codel_shed"].shed_unmeetable, 0u);
}

}  // namespace
}  // namespace s2fa::blaze
