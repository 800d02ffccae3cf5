#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "resilience/budget.h"
#include "resilience/evaluator.h"
#include "resilience/fault.h"
#include "resilience/journal.h"

namespace s2fa::resilience {
namespace {

using merlin::DesignConfig;
using tuner::EvalOutcome;

// A distinct config per index (the resilience layer only looks at keys).
DesignConfig MakeConfig(int i) {
  DesignConfig config;
  config.loops[0].tile = 1;
  config.loops[0].parallel = 1 << (i % 5);
  config.buffer_bits["in"] = 32 << (i % 3);
  return config;
}

EvalOutcome GoodOutcome(double cost = 100.0, double minutes = 5.0) {
  EvalOutcome out;
  out.feasible = true;
  out.cost = cost;
  out.eval_minutes = minutes;
  return out;
}

// The jittered backoff an evaluator with default options charges before
// retry `retry` of MakeConfig(i).
double Backoff(int i, int retry) {
  return BackoffMinutes(ResilienceOptions{}.seed, MakeConfig(i).ToString(),
                        retry);
}

// ------------------------------------------------------------- taxonomy

TEST(FailureTest, GarbageOutcomeDetection) {
  EXPECT_FALSE(GarbageOutcome(GoodOutcome()));

  EvalOutcome infeasible;  // a clean "no" is a valid answer, not garbage
  infeasible.feasible = false;
  infeasible.cost = tuner::kInfeasibleCost;
  infeasible.eval_minutes = 3.0;
  EXPECT_FALSE(GarbageOutcome(infeasible));

  EvalOutcome nan_cost = GoodOutcome();
  nan_cost.cost = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(GarbageOutcome(nan_cost));

  EvalOutcome negative = GoodOutcome();
  negative.cost = -1.0;
  EXPECT_TRUE(GarbageOutcome(negative));

  EvalOutcome feasible_inf = GoodOutcome();
  feasible_inf.cost = tuner::kInfeasibleCost;
  EXPECT_TRUE(GarbageOutcome(feasible_inf));

  EvalOutcome zero_minutes = GoodOutcome();
  zero_minutes.eval_minutes = 0;
  EXPECT_TRUE(GarbageOutcome(zero_minutes));

  EvalOutcome inf_minutes = GoodOutcome();
  inf_minutes.eval_minutes = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(GarbageOutcome(inf_minutes));
}

TEST(FailureTest, KindNames) {
  EXPECT_STREQ(FailureKindName(FailureKind::kNone), "none");
  EXPECT_STREQ(FailureKindName(FailureKind::kCrash), "crash");
  EXPECT_STREQ(FailureKindName(FailureKind::kTimeout), "timeout");
  EXPECT_STREQ(FailureKindName(FailureKind::kGarbageResult), "garbage");
}

// ------------------------------------------------------------ fault plan

TEST(FaultPlanTest, InactiveByDefault) {
  FaultPlan plan;
  EXPECT_FALSE(plan.active());
  EXPECT_EQ(plan.Decide("anything", 0), FailureKind::kNone);
}

TEST(FaultPlanTest, DeterministicAcrossInstancesAndCallOrder) {
  FaultPlanOptions options;
  options.crash_rate = 0.1;
  options.timeout_rate = 0.1;
  options.garbage_rate = 0.1;
  options.seed = 42;
  FaultPlan a(options), b(options);
  for (int i = 0; i < 200; ++i) {
    const std::string key = MakeConfig(i).ToString();
    // b queried in reverse attempt order: decisions are stateless.
    EXPECT_EQ(a.Decide(key, 0), b.Decide(key, 0)) << key;
    EXPECT_EQ(a.Decide(key, 3), b.Decide(key, 3)) << key;
  }
}

TEST(FaultPlanTest, RatesRoughlyRespected) {
  FaultPlanOptions options;
  options.crash_rate = 0.3;
  options.timeout_rate = 0.0;
  options.garbage_rate = 0.0;
  options.seed = 7;
  FaultPlan plan(options);
  int crashes = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    if (plan.Decide("key" + std::to_string(i), 0) == FailureKind::kCrash) {
      ++crashes;
    }
  }
  EXPECT_NEAR(static_cast<double>(crashes) / n, 0.3, 0.05);
}

TEST(FaultPlanTest, InstrumentInjectsEveryKind) {
  FaultPlanOptions options;
  options.seed = 5;
  // One kind at a time so the first injected failure is unambiguous.
  for (FailureKind kind : {FailureKind::kCrash, FailureKind::kTimeout,
                           FailureKind::kGarbageResult}) {
    options.crash_rate = kind == FailureKind::kCrash ? 1.0 : 0.0;
    options.timeout_rate = kind == FailureKind::kTimeout ? 1.0 : 0.0;
    options.garbage_rate = kind == FailureKind::kGarbageResult ? 1.0 : 0.0;
    FaultPlan plan(options);
    AttemptEvalFn fn = plan.Instrument(
        [](const DesignConfig&) { return GoodOutcome(); });
    if (kind == FailureKind::kCrash) {
      EXPECT_THROW(fn(MakeConfig(0), 0), InjectedCrash);
    } else if (kind == FailureKind::kTimeout) {
      EvalOutcome out = fn(MakeConfig(0), 0);
      EXPECT_TRUE(std::isinf(out.eval_minutes));
    } else {
      EvalOutcome out = fn(MakeConfig(0), 0);
      EXPECT_TRUE(std::isnan(out.cost));
    }
  }
}

TEST(FaultPlanTest, RejectsBadRates) {
  FaultPlanOptions options;
  options.crash_rate = 0.7;
  options.timeout_rate = 0.7;
  EXPECT_THROW(FaultPlan{options}, InvalidArgument);
  options.timeout_rate = -0.1;
  EXPECT_THROW(FaultPlan{options}, InvalidArgument);
}

// ----------------------------------------------------------- evaluator

TEST(ResilientEvaluatorTest, SuccessPassesThroughUnchanged) {
  ResilientEvaluator eval(
      IgnoreAttempt([](const DesignConfig&) { return GoodOutcome(42.0, 7.0); }),
      ResilienceOptions{});
  EvalOutcome out = eval.Evaluate(MakeConfig(0));
  EXPECT_TRUE(out.feasible);
  EXPECT_EQ(out.cost, 42.0);
  EXPECT_EQ(out.eval_minutes, 7.0);
  ResilienceStats stats = eval.stats();
  EXPECT_EQ(stats.calls, 1u);
  EXPECT_EQ(stats.attempts, 1u);
  EXPECT_EQ(stats.successes, 1u);
  EXPECT_EQ(stats.retries, 0u);
}

TEST(ResilientEvaluatorTest, LegitimateInfeasibleIsNotRetried) {
  int calls = 0;
  ResilientEvaluator eval(IgnoreAttempt([&](const DesignConfig&) {
                            ++calls;
                            EvalOutcome out;
                            out.feasible = false;
                            out.cost = tuner::kInfeasibleCost;
                            out.eval_minutes = 3.0;
                            return out;
                          }),
                          ResilienceOptions{});
  EvalOutcome out = eval.Evaluate(MakeConfig(0));
  EXPECT_FALSE(out.feasible);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(eval.stats().retries, 0u);
  EXPECT_EQ(eval.stats().successes, 1u);
}

TEST(ResilientEvaluatorTest, CrashRetriedThenSucceeds) {
  ResilientEvaluator eval(
      AttemptEvalFn([](const DesignConfig&, int attempt) {
        if (attempt == 0) throw Error("boom");
        return GoodOutcome(10.0, 5.0);
      }),
      ResilienceOptions{});
  EvalOutcome out = eval.Evaluate(MakeConfig(0));
  EXPECT_TRUE(out.feasible);
  EXPECT_EQ(out.cost, 10.0);
  // The crash charge + one backoff + 5.0 for the clean attempt.
  EXPECT_DOUBLE_EQ(out.eval_minutes, kCrashChargeMinutes + Backoff(0, 1) + 5.0);
  ResilienceStats stats = eval.stats();
  EXPECT_EQ(stats.crashes, 1u);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.successes, 1u);
  EXPECT_DOUBLE_EQ(stats.backoff_minutes, Backoff(0, 1));
}

TEST(ResilientEvaluatorTest, SimulatedTimeoutChargesTheDeadline) {
  ResilienceOptions options;
  options.deadline_minutes = 60.0;
  options.max_retries = 1;
  ResilientEvaluator eval(
      IgnoreAttempt([](const DesignConfig&) {
        return GoodOutcome(10.0, 100.0);  // always blows the deadline
      }),
      options);
  EvalOutcome out = eval.Evaluate(MakeConfig(0));
  EXPECT_FALSE(out.feasible);
  EXPECT_EQ(out.cost, tuner::kInfeasibleCost);
  // deadline + backoff + deadline.
  EXPECT_DOUBLE_EQ(out.eval_minutes, 60.0 + Backoff(0, 1) + 60.0);
  ResilienceStats stats = eval.stats();
  EXPECT_EQ(stats.timeouts, 2u);
  EXPECT_EQ(stats.exhausted, 1u);
  EXPECT_EQ(stats.successes, 0u);
}

TEST(ResilientEvaluatorTest, GarbageRetriedThenSucceeds) {
  ResilientEvaluator eval(
      AttemptEvalFn([](const DesignConfig&, int attempt) {
        if (attempt == 0) {
          EvalOutcome junk = GoodOutcome();
          junk.cost = std::numeric_limits<double>::quiet_NaN();
          junk.eval_minutes = 2.0;
          return junk;
        }
        return GoodOutcome(20.0, 4.0);
      }),
      ResilienceOptions{});
  EvalOutcome out = eval.Evaluate(MakeConfig(0));
  EXPECT_TRUE(out.feasible);
  EXPECT_EQ(out.cost, 20.0);
  // 2.0 wasted on the garbage run + backoff + 4.0 clean.
  EXPECT_DOUBLE_EQ(out.eval_minutes, 2.0 + Backoff(0, 1) + 4.0);
  EXPECT_EQ(eval.stats().garbage, 1u);
}

TEST(ResilientEvaluatorTest, ExhaustionDegradesGracefully) {
  ResilienceOptions options;
  options.max_retries = 2;
  int calls = 0;
  ResilientEvaluator eval(
      IgnoreAttempt([&](const DesignConfig&) -> EvalOutcome {
        ++calls;
        throw Error("always fails");
      }),
      options);
  EvalOutcome out = eval.Evaluate(MakeConfig(0));
  EXPECT_FALSE(out.feasible);
  EXPECT_EQ(out.cost, tuner::kInfeasibleCost);
  EXPECT_EQ(calls, 3);  // 1 + max_retries
  // 3 crash charges + two backoffs.
  EXPECT_DOUBLE_EQ(out.eval_minutes,
                   3 * kCrashChargeMinutes + Backoff(0, 1) + Backoff(0, 2));
  ResilienceStats stats = eval.stats();
  EXPECT_EQ(stats.exhausted, 1u);
  EXPECT_EQ(stats.crashes, 3u);
}

TEST(ResilientEvaluatorTest, BackoffJitterIsDeterministicAndBounded) {
  ResilienceOptions options;
  options.max_retries = 1;
  auto run = [&](int i) {
    ResilientEvaluator eval(
        IgnoreAttempt([](const DesignConfig&) -> EvalOutcome {
          throw Error("nope");
        }),
        options);
    // Two crashed attempts, then the single backoff between them.
    return eval.Evaluate(MakeConfig(i)).eval_minutes - 2 * kCrashChargeMinutes;
  };
  for (int i = 0; i < 20; ++i) {
    const double a = run(i), b = run(i);
    EXPECT_DOUBLE_EQ(a, b);  // deterministic replay
    EXPECT_GE(a, kBackoffBaseMinutes * (1 - kBackoffJitter));  // in bounds
    EXPECT_LE(a, kBackoffBaseMinutes * (1 + kBackoffJitter));
  }
  // Later retries grow by kBackoffMultiplier until kBackoffMaxMinutes caps
  // them, always within the jitter band.
  for (int retry = 1; retry <= 8; ++retry) {
    const double nominal =
        std::min(kBackoffBaseMinutes * std::pow(kBackoffMultiplier, retry - 1),
                 kBackoffMaxMinutes);
    const double delay = Backoff(3, retry);
    EXPECT_GE(delay, nominal * (1 - kBackoffJitter)) << retry;
    EXPECT_LE(delay, nominal * (1 + kBackoffJitter)) << retry;
  }
}

// The jitter is hashed from the config's key, so these charges pin the key
// text as well as the backoff schedule (default options: 25% jitter).
TEST(ResilientEvaluatorTest, JitteredRetryChargesArePinned) {
  ResilientEvaluator recovers(
      AttemptEvalFn([](const DesignConfig&, int attempt) {
        if (attempt < 2) throw Error("boom");
        return GoodOutcome(10.0, 5.0);
      }),
      ResilienceOptions{});
  const EvalOutcome recovered = recovers.Evaluate(MakeConfig(3));
  EXPECT_TRUE(recovered.feasible);
  EXPECT_EQ(recovered.eval_minutes, 0x1.12683a65f578ep+3) << std::hexfloat
                                            << recovered.eval_minutes;

  ResilientEvaluator exhausts(
      IgnoreAttempt([](const DesignConfig&) -> EvalOutcome {
        throw Error("always fails");
      }),
      ResilienceOptions{});
  const EvalOutcome degraded = exhausts.Evaluate(MakeConfig(4));
  EXPECT_FALSE(degraded.feasible);
  EXPECT_EQ(degraded.eval_minutes, 0x1.17859e9894241p+2) << std::hexfloat
                                           << degraded.eval_minutes;
  EXPECT_EQ(exhausts.stats().exhausted, 1u);
}

TEST(ResilientEvaluatorTest, CircuitBreakerTripsAndShortCircuits) {
  ResilienceOptions options;
  options.max_retries = 0;
  int calls = 0;
  ResilientEvaluator eval(
      IgnoreAttempt([&](const DesignConfig&) -> EvalOutcome {
        ++calls;
        throw Error("dead region");
      }),
      options);
  // kBreakerThreshold exhausted points trip the breaker.
  int next = 0;
  for (; next < kBreakerThreshold; ++next) {
    EXPECT_FALSE(eval.breaker_open());
    eval.Evaluate(MakeConfig(next));
  }
  EXPECT_TRUE(eval.breaker_open());
  EXPECT_EQ(eval.stats().breaker_trips, 1u);
  // The next kBreakerCooldown calls are answered without touching the
  // evaluator.
  const int calls_before = calls;
  for (int i = 0; i < kBreakerCooldown; ++i) {
    EvalOutcome out = eval.Evaluate(MakeConfig(next++));
    EXPECT_FALSE(out.feasible);
    EXPECT_DOUBLE_EQ(out.eval_minutes, kShortCircuitMinutes);
  }
  EXPECT_EQ(calls, calls_before);
  EXPECT_EQ(eval.stats().short_circuits,
            static_cast<std::size_t>(kBreakerCooldown));
  // Cooldown spent: the next call is a half-open probe; it fails, so the
  // breaker re-trips immediately.
  EXPECT_FALSE(eval.breaker_open());
  eval.Evaluate(MakeConfig(next));
  EXPECT_EQ(calls, calls_before + 1);
  EXPECT_TRUE(eval.breaker_open());
  EXPECT_EQ(eval.stats().breaker_trips, 2u);
}

TEST(ResilientEvaluatorTest, CircuitBreakerClosesOnSuccessfulProbe) {
  ResilienceOptions options;
  options.max_retries = 0;
  int failures_left = kBreakerThreshold;
  ResilientEvaluator eval(IgnoreAttempt([&](const DesignConfig&) {
                            if (failures_left-- > 0) throw Error("flaky");
                            return GoodOutcome();
                          }),
                          options);
  int next = 0;
  for (; next < kBreakerThreshold; ++next) eval.Evaluate(MakeConfig(next));
  EXPECT_TRUE(eval.breaker_open());  // tripped
  for (int i = 0; i < kBreakerCooldown; ++i) {
    eval.Evaluate(MakeConfig(next++));  // short-circuited
  }
  EvalOutcome probe = eval.Evaluate(MakeConfig(next++));  // half-open: ok
  EXPECT_TRUE(probe.feasible);
  EXPECT_FALSE(eval.breaker_open());
  // Healthy again: subsequent calls evaluate normally.
  EXPECT_TRUE(eval.Evaluate(MakeConfig(next)).feasible);
  EXPECT_EQ(eval.stats().breaker_trips, 1u);
}

// The evaluator runs one point at a time: callers on many threads are
// serialized, never overlap inside the black box, and every call lands in
// exactly one ledger bucket.
TEST(ResilientEvaluatorTest, ConcurrentCallersAreSerialized) {
  std::atomic<int> in_flight{0};
  std::atomic<int> max_in_flight{0};
  ResilientEvaluator eval(
      AttemptEvalFn([&](const DesignConfig& config, int) -> EvalOutcome {
        const int now = ++in_flight;
        int seen = max_in_flight.load();
        while (now > seen && !max_in_flight.compare_exchange_weak(seen, now)) {
        }
        std::this_thread::yield();
        --in_flight;
        if (config.loops.at(0).parallel % 4 == 0) throw Error("dead region");
        return GoodOutcome();
      }),
      ResilienceOptions{});
  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 25;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&eval, t] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        eval.Evaluate(MakeConfig(t * kCallsPerThread + i));
        eval.breaker_open();
        eval.stats();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(max_in_flight.load(), 1);
  const ResilienceStats stats = eval.stats();
  EXPECT_EQ(stats.calls, static_cast<std::size_t>(kThreads * kCallsPerThread));
  EXPECT_EQ(stats.calls,
            stats.successes + stats.exhausted + stats.short_circuits);
  EXPECT_EQ(stats.attempts, stats.successes + stats.crashes);
  EXPECT_GT(stats.exhausted, 0u);
}

TEST(ResilientEvaluatorTest, InjectedFaultsReplayIdenticallyAcrossReruns) {
  FaultPlanOptions fopt;
  fopt.crash_rate = 0.15;
  fopt.timeout_rate = 0.15;
  fopt.garbage_rate = 0.15;
  fopt.seed = 99;
  FaultPlan plan(fopt);
  auto run = [&] {
    ResilienceOptions options;
    options.seed = 11;
    ResilientEvaluator eval(
        plan.Instrument([](const DesignConfig&) { return GoodOutcome(); }),
        options);
    std::vector<double> minutes;
    for (int i = 0; i < 60; ++i) {
      minutes.push_back(eval.Evaluate(MakeConfig(i)).eval_minutes);
    }
    ResilienceStats stats = eval.stats();
    return std::make_pair(minutes, stats);
  };
  auto [minutes_a, stats_a] = run();
  auto [minutes_b, stats_b] = run();
  EXPECT_EQ(minutes_a, minutes_b);
  EXPECT_EQ(stats_a.crashes, stats_b.crashes);
  EXPECT_EQ(stats_a.timeouts, stats_b.timeouts);
  EXPECT_EQ(stats_a.garbage, stats_b.garbage);
  EXPECT_EQ(stats_a.exhausted, stats_b.exhausted);
  // With three 15% fault modes across 60 points, some failures occurred.
  EXPECT_GT(stats_a.crashes + stats_a.timeouts + stats_a.garbage, 0u);
}

// -------------------------------------------------------------- journal

TEST(JournalTest, EntryRoundTrip) {
  JournalEntry entry;
  entry.key = "p0|{L0: tile=1 par=8 pipe=on, in: 512b}";
  entry.outcome = GoodOutcome(123.456789, 5.5);
  JournalEntry parsed = ParseJournalEntry(RenderJournalEntry(entry));
  EXPECT_EQ(parsed.key, entry.key);
  EXPECT_EQ(parsed.outcome.feasible, entry.outcome.feasible);
  EXPECT_DOUBLE_EQ(parsed.outcome.cost, entry.outcome.cost);
  EXPECT_DOUBLE_EQ(parsed.outcome.eval_minutes, entry.outcome.eval_minutes);
}

TEST(JournalTest, InfiniteCostEncodedAsNull) {
  JournalEntry entry;
  entry.key = "train|{}";
  entry.outcome.feasible = false;
  entry.outcome.cost = tuner::kInfeasibleCost;
  entry.outcome.eval_minutes = 3.0;
  const std::string line = RenderJournalEntry(entry);
  EXPECT_NE(line.find("\"cost\":null"), std::string::npos);
  JournalEntry parsed = ParseJournalEntry(line);
  EXPECT_FALSE(parsed.outcome.feasible);
  EXPECT_EQ(parsed.outcome.cost, tuner::kInfeasibleCost);
}

TEST(JournalTest, BottleneckAttributionRoundTrips) {
  JournalEntry entry;
  entry.key = "p1|{L0: par=16}";
  entry.outcome = GoodOutcome(88.25, 6.0);
  entry.outcome.bottleneck.kind = hls::BottleneckKind::kMemoryPortII;
  entry.outcome.bottleneck.quantity = 4.0;
  entry.outcome.bottleneck.margin = 1.5;
  const std::string line = RenderJournalEntry(entry);
  EXPECT_NE(line.find("\"bottleneck\":\"memory_port_ii\""),
            std::string::npos);
  JournalEntry parsed = ParseJournalEntry(line);
  EXPECT_EQ(parsed.outcome.bottleneck.kind,
            hls::BottleneckKind::kMemoryPortII);
  EXPECT_DOUBLE_EQ(parsed.outcome.bottleneck.quantity, 4.0);
  EXPECT_DOUBLE_EQ(parsed.outcome.bottleneck.margin, 1.5);

  // A kNone attribution renders as the bare legacy line, so pre-existing
  // journals and attribution-free entries stay byte-compatible.
  JournalEntry legacy;
  legacy.key = "p0|{}";
  legacy.outcome = GoodOutcome(10.0, 5.0);
  EXPECT_EQ(RenderJournalEntry(legacy).find("bneck"), std::string::npos);
  JournalEntry reparsed = ParseJournalEntry(RenderJournalEntry(legacy));
  EXPECT_EQ(reparsed.outcome.bottleneck.kind, hls::BottleneckKind::kNone);

  // An unknown bottleneck name is corruption, not a shrug.
  EXPECT_THROW(ParseJournalEntry(
                   "{\"key\":\"a\",\"feasible\":true,\"cost\":1,"
                   "\"eval_minutes\":1,\"bottleneck\":\"mystery\"}"),
               MalformedInput);
}

TEST(JournalTest, LinesOfTheEarlierWriterLoad) {
  // Journals written before the shared JSON writer: every number as
  // %.17g, a null cost, with and without the bottleneck fields.
  const JournalEntry plain = ParseJournalEntry(
      "{\"key\":\"p0|{L0: tile=1 par=8 pipe=on, in: 512b}\","
      "\"feasible\":true,\"cost\":0.10000000000000001,"
      "\"eval_minutes\":9.9999999999999995e-08}");
  EXPECT_EQ(plain.key, "p0|{L0: tile=1 par=8 pipe=on, in: 512b}");
  EXPECT_TRUE(plain.outcome.feasible);
  EXPECT_EQ(plain.outcome.cost, 0.1);
  EXPECT_EQ(plain.outcome.eval_minutes, 1e-7);
  EXPECT_EQ(plain.outcome.bottleneck.kind, hls::BottleneckKind::kNone);

  const JournalEntry infeasible = ParseJournalEntry(
      "{\"key\":\"train|{}\",\"feasible\":false,\"cost\":null,"
      "\"eval_minutes\":3}");
  EXPECT_FALSE(infeasible.outcome.feasible);
  EXPECT_EQ(infeasible.outcome.cost, tuner::kInfeasibleCost);
  EXPECT_EQ(infeasible.outcome.eval_minutes, 3.0);

  const JournalEntry attributed = ParseJournalEntry(
      "{\"key\":\"p1|{L0: par=16}\",\"feasible\":true,"
      "\"cost\":12345678901234568,\"eval_minutes\":6,"
      "\"bottleneck\":\"memory_port_ii\",\"bneck_quantity\":4,"
      "\"bneck_margin\":0.66666666666666663}");
  EXPECT_EQ(attributed.outcome.cost, 12345678901234568.0);
  EXPECT_EQ(attributed.outcome.bottleneck.kind,
            hls::BottleneckKind::kMemoryPortII);
  EXPECT_EQ(attributed.outcome.bottleneck.quantity, 4.0);
  EXPECT_EQ(attributed.outcome.bottleneck.margin, 2.0 / 3);
  // Re-rendered, each line is byte-identical to what was read.
  EXPECT_EQ(RenderJournalEntry(infeasible),
            "{\"key\":\"train|{}\",\"feasible\":false,\"cost\":null,"
            "\"eval_minutes\":3}");
  EXPECT_EQ(RenderJournalEntry(attributed),
            "{\"key\":\"p1|{L0: par=16}\",\"feasible\":true,"
            "\"cost\":12345678901234568,\"eval_minutes\":6,"
            "\"bottleneck\":\"memory_port_ii\",\"bneck_quantity\":4,"
            "\"bneck_margin\":0.66666666666666663}");
}

TEST(JournalTest, ParseRejectsMalformedLines) {
  EXPECT_THROW(ParseJournalEntry("not json"), MalformedInput);
  EXPECT_THROW(ParseJournalEntry("{\"key\":\"a\"}"), MalformedInput);
  // Torn inside a number or an escape: still MalformedInput, so a resume
  // skips the line.
  EXPECT_THROW(ParseJournalEntry(
                   "{\"key\":\"a\",\"feasible\":true,\"cost\":-"),
               MalformedInput);
  EXPECT_THROW(ParseJournalEntry("{\"key\":\"a\\uzzzz\"}"), MalformedInput);
  EXPECT_THROW(ParseJournalEntry(
                   "{\"key\":\"a\",\"feasible\":true,\"cost\":1,"
                   "\"eval_minutes\":1,\"extra\":2}"),
               MalformedInput);
}

TEST(JournalTest, WrapCachesAndCounts) {
  EvalJournal journal;  // in-memory (no file)
  int calls = 0;
  tuner::EvalFn fn = journal.Wrap("p0", [&](const DesignConfig&) {
    ++calls;
    return GoodOutcome();
  });
  fn(MakeConfig(0));
  fn(MakeConfig(0));
  fn(MakeConfig(1));
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(journal.hits(), 1u);
  EXPECT_EQ(journal.entries(), 2u);
}

TEST(JournalTest, ScopesIsolateIdenticalConfigs) {
  EvalJournal journal;
  int calls = 0;
  tuner::EvalFn p0 = journal.Wrap("p0", [&](const DesignConfig&) {
    ++calls;
    return GoodOutcome();
  });
  tuner::EvalFn p1 = journal.Wrap("p1", [&](const DesignConfig&) {
    ++calls;
    return GoodOutcome();
  });
  p0(MakeConfig(0));
  p1(MakeConfig(0));
  EXPECT_EQ(calls, 2);  // same config, different scope: no false sharing
}

TEST(JournalTest, PersistsAndResumes) {
  const std::string path =
      testing::TempDir() + "s2fa_journal_resume_test." +
      std::to_string(::getpid()) + ".jsonl";
  std::remove(path.c_str());
  {
    EvalJournal journal;
    journal.Open(path);
    journal.Record("p0|a", GoodOutcome(1.0, 2.0));
    journal.Record("p0|b", GoodOutcome(3.0, 4.0));
  }
  // Simulate a kill mid-append: a torn trailing line.
  {
    std::ofstream out(path, std::ios::app);
    out << "{\"key\":\"p0|c\",\"feas";
  }
  EvalJournal resumed;
  resumed.Open(path);
  EXPECT_EQ(resumed.resumed(), 2u);
  auto found = resumed.Find("p0|a");
  ASSERT_TRUE(found.has_value());
  EXPECT_DOUBLE_EQ(found->cost, 1.0);
  EXPECT_FALSE(resumed.Find("p0|c").has_value());
  std::remove(path.c_str());
}

TEST(JournalTest, RepeatedKeyIsWrittenOnce) {
  // Two evaluations that missed on the same key concurrently both record
  // it; the journal keeps one line, so resumed() matches entries().
  const std::string path =
      testing::TempDir() + "s2fa_journal_repeat_test." +
      std::to_string(::getpid()) + ".jsonl";
  std::remove(path.c_str());
  {
    EvalJournal journal;
    journal.Open(path);
    journal.Record("p0|a", GoodOutcome(1.0, 2.0));
    journal.Record("p0|a", GoodOutcome(1.0, 2.0));
    EXPECT_EQ(journal.entries(), 1u);
  }
  EvalJournal resumed;
  resumed.Open(path);
  EXPECT_EQ(resumed.resumed(), 1u);
  EXPECT_EQ(resumed.entries(), 1u);
  std::remove(path.c_str());
}

TEST(JournalTest, AppendAfterTornTailStaysRecoverable) {
  const std::string path =
      testing::TempDir() + "s2fa_journal_torn_tail_test." +
      std::to_string(::getpid()) + ".jsonl";
  std::remove(path.c_str());
  {
    EvalJournal journal;
    journal.Open(path);
    journal.Record("p0|a", GoodOutcome(1.0, 2.0));
  }
  // A kill mid-append tears the final line AND drops its newline.
  {
    std::ofstream out(path, std::ios::app);
    out << "{\"key\":\"p0|b\",\"feas";
  }
  {
    // Resume must seal the torn tail so this record lands on its own line
    // instead of gluing onto the garbage (which would lose both).
    EvalJournal journal;
    journal.Open(path);
    EXPECT_EQ(journal.resumed(), 1u);
    journal.Record("p0|c", GoodOutcome(5.0, 6.0));
  }
  EvalJournal resumed;
  resumed.Open(path);
  EXPECT_EQ(resumed.resumed(), 2u);
  EXPECT_TRUE(resumed.Find("p0|a").has_value());
  EXPECT_FALSE(resumed.Find("p0|b").has_value());
  auto found = resumed.Find("p0|c");
  ASSERT_TRUE(found.has_value());
  EXPECT_DOUBLE_EQ(found->cost, 5.0);
  std::remove(path.c_str());
}

TEST(JournalTest, OpenThrowsOnUnwritablePath) {
  EvalJournal journal;
  EXPECT_THROW(journal.Open("/nonexistent-dir/journal.jsonl"), Error);
}

TEST(RetryBudgetTest, BucketStartsFullAndDrainsToDenial) {
  RetryBudgetOptions options;
  options.refill_per_sec = 0;  // burst only: no refill
  options.burst = 3;
  RetryBudget budget(options);
  EXPECT_DOUBLE_EQ(budget.TokensAt("a", 0), 3.0);
  EXPECT_TRUE(budget.TryAcquire("a", 0));
  EXPECT_TRUE(budget.TryAcquire("a", 1));
  EXPECT_TRUE(budget.TryAcquire("a", 2));
  EXPECT_FALSE(budget.TryAcquire("a", 3));
  EXPECT_FALSE(budget.TryAcquire("a", 1e9));  // never refills
  EXPECT_EQ(budget.granted(), 3u);
  EXPECT_EQ(budget.denied(), 2u);
}

TEST(RetryBudgetTest, RefillsAtRateUpToBurstCap) {
  RetryBudgetOptions options;
  options.refill_per_sec = 2.0;  // one token per 500ms simulated
  options.burst = 2;
  RetryBudget budget(options);
  EXPECT_TRUE(budget.TryAcquire("t", 0));
  EXPECT_TRUE(budget.TryAcquire("t", 0));
  EXPECT_FALSE(budget.TryAcquire("t", 0));
  // 250ms refills half a token: still denied.
  EXPECT_FALSE(budget.TryAcquire("t", 250e3));
  // Another 300ms crosses 1.0 (0.5 spent above is gone; refill resumes
  // from the post-denial level).
  EXPECT_TRUE(budget.TryAcquire("t", 550e3));
  // A long idle period caps at burst, not refill * elapsed.
  EXPECT_NEAR(budget.TokensAt("t", 100e6), 2.0, 1e-12);
}

TEST(RetryBudgetTest, KeysAreIndependent) {
  RetryBudgetOptions options;
  options.refill_per_sec = 0;
  options.burst = 1;
  RetryBudget budget(options);
  EXPECT_TRUE(budget.TryAcquire("a", 0));
  EXPECT_FALSE(budget.TryAcquire("a", 1));
  EXPECT_TRUE(budget.TryAcquire("b", 1));  // b's bucket untouched by a
}

TEST(RetryBudgetTest, ReplaysBitIdentically) {
  auto run = [] {
    RetryBudgetOptions options;
    options.refill_per_sec = 7.5;
    options.burst = 2.5;
    RetryBudget budget(options);
    std::string trace;
    for (int i = 0; i < 200; ++i) {
      trace += budget.TryAcquire(i % 3 ? "x" : "y", i * 137.0) ? '1' : '0';
    }
    return trace;
  };
  EXPECT_EQ(run(), run());
}

TEST(RetryBudgetTest, RejectsInvalidOptions) {
  RetryBudgetOptions negative_refill;
  negative_refill.refill_per_sec = -1;
  EXPECT_THROW(RetryBudget{negative_refill}, InvalidArgument);
  RetryBudgetOptions tiny_burst;
  tiny_burst.burst = 0.5;
  EXPECT_THROW(RetryBudget{tiny_burst}, InvalidArgument);
}

}  // namespace
}  // namespace s2fa::resilience
