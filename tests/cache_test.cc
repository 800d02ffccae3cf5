#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <list>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cache/eval_cache.h"
#include "resilience/journal.h"
#include "support/thread_pool.h"

namespace s2fa::cache {
namespace {

using merlin::DesignConfig;
using tuner::EvalOutcome;

// A distinct config per index (the cache only looks at the key string).
DesignConfig MakeConfig(int i) {
  DesignConfig config;
  config.loops[0].tile = 1;
  config.loops[0].parallel = 1 << (i % 5);
  config.buffer_bits["in"] = 32 << (i % 3);
  return config;
}

EvalOutcome Outcome(double cost, double minutes = 5.0) {
  EvalOutcome out;
  out.feasible = true;
  out.cost = cost;
  out.eval_minutes = minutes;
  return out;
}

// ---------------------------------------------------------- spec parsing

TEST(CacheSpecTest, ParsesOnOffAndCapacity) {
  auto on = ParseCacheSpec("on");
  ASSERT_TRUE(on.has_value());
  EXPECT_TRUE(on->enabled);
  EXPECT_EQ(on->capacity, 0u);

  auto one = ParseCacheSpec("1");
  ASSERT_TRUE(one.has_value());
  EXPECT_TRUE(one->enabled);

  auto off = ParseCacheSpec("off");
  ASSERT_TRUE(off.has_value());
  EXPECT_FALSE(off->enabled);

  auto zero = ParseCacheSpec("0");
  ASSERT_TRUE(zero.has_value());
  EXPECT_FALSE(zero->enabled);

  auto bounded = ParseCacheSpec("64");
  ASSERT_TRUE(bounded.has_value());
  EXPECT_TRUE(bounded->enabled);
  EXPECT_EQ(bounded->capacity, 64u);
}

TEST(CacheSpecTest, RejectsGarbage) {
  EXPECT_FALSE(ParseCacheSpec("").has_value());
  EXPECT_FALSE(ParseCacheSpec("bogus").has_value());
  EXPECT_FALSE(ParseCacheSpec("-3").has_value());
  EXPECT_FALSE(ParseCacheSpec("12abc").has_value());
  // Past unsigned long long: strtoull saturates and sets ERANGE.
  EXPECT_FALSE(ParseCacheSpec("99999999999999999999999").has_value());
  EXPECT_FALSE(ParseCacheSpec("18446744073709551616").has_value());
  ASSERT_TRUE(ParseCacheSpec("18446744073709551615").has_value());
}

// ------------------------------------------------------------ basic API

TEST(EvalCacheTest, MissThenHitReplaysStoredOutcome) {
  EvalCache cache;
  int calls = 0;
  auto compute = [&] {
    ++calls;
    return Outcome(42.0, 7.5);
  };

  EvalOutcome first = cache.GetOrCompute("k", compute);
  EvalOutcome second = cache.GetOrCompute("k", compute);

  EXPECT_EQ(calls, 1);
  EXPECT_EQ(first.cost, 42.0);
  EXPECT_EQ(second.cost, 42.0);
  // The hit replays the charged synthesis time, so the simulated clock is
  // bit-identical with the cache on or off.
  EXPECT_EQ(second.eval_minutes, 7.5);

  EvalCacheStats stats = cache.stats();
  EXPECT_EQ(stats.lookups, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inflight_joins, 0u);
  EXPECT_EQ(stats.minutes_saved, 7.5);
  EXPECT_DOUBLE_EQ(stats.DuplicateRate(), 0.5);
}

TEST(EvalCacheTest, FindAndInsert) {
  EvalCache cache;
  EXPECT_FALSE(cache.Find("k").has_value());
  cache.Insert("k", Outcome(9.0));
  auto found = cache.Find("k");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->cost, 9.0);
  EXPECT_EQ(cache.size(), 1u);
  // Find is a diagnostic peek: no lookups/hits counted.
  EXPECT_EQ(cache.stats().lookups, 0u);
}

TEST(EvalCacheTest, DisabledCacheIsPassThrough) {
  EvalCacheOptions options;
  options.enabled = false;
  EvalCache cache(options);
  int calls = 0;
  tuner::EvalFn wrapped = cache.Wrap([&](const DesignConfig&) {
    ++calls;
    return Outcome(1.0);
  });
  wrapped(MakeConfig(0));
  wrapped(MakeConfig(0));
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(cache.stats().lookups, 0u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(EvalCacheTest, WrapKeysOnCompactConfigKey) {
  EvalCache cache;
  int calls = 0;
  tuner::EvalFn wrapped = cache.Wrap([&](const DesignConfig&) {
    ++calls;
    return Outcome(static_cast<double>(calls));
  });

  EvalOutcome a = wrapped(MakeConfig(0));
  EvalOutcome b = wrapped(MakeConfig(0));  // same key
  EvalOutcome c = wrapped(MakeConfig(1));  // different point

  EXPECT_EQ(calls, 2);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_NE(a.cost, c.cost);
  EXPECT_TRUE(cache.Find(ConfigKey(MakeConfig(0))).has_value());
  EXPECT_FALSE(cache.Find(MakeConfig(0).ToString()).has_value());
}

// Keys are equal exactly when configs are: random pairs drawn from a small
// alphabet (so many pairs collide on purpose), with buffer names that are
// prefixes of each other, factors past 32 bits, and loop ids that could
// be mistaken for buffer bytes if the layout were ambiguous.
TEST(ConfigKeyTest, EqualExactlyWhenConfigsAreEqual) {
  const std::vector<std::string> names = {"a", "ab", "b", "ba", "aab", "in"};
  const std::vector<std::int64_t> factors = {
      1, 2, 256, std::int64_t{1} << 32, (std::int64_t{1} << 32) + 1,
      std::numeric_limits<std::int64_t>::max()};
  std::mt19937_64 rng(7);
  auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  auto random_config = [&] {
    DesignConfig config;
    const std::size_t loops = pick(3);
    for (std::size_t i = 0; i < loops; ++i) {
      merlin::LoopConfig& loop = config.loops[static_cast<int>(pick(3))];
      loop.tile = factors[pick(factors.size())];
      loop.parallel = factors[pick(factors.size())];
      loop.pipeline = static_cast<merlin::PipelineMode>(pick(3));
    }
    const std::size_t buffers = pick(3);
    for (std::size_t i = 0; i < buffers; ++i) {
      config.buffer_bits[names[pick(names.size())]] = 16 << pick(4);
    }
    return config;
  };
  int equal_pairs = 0;
  for (int i = 0; i < 20000; ++i) {
    const DesignConfig x = random_config();
    const DesignConfig y = random_config();
    const bool same = x == y;
    ASSERT_EQ(ConfigKey(x) == ConfigKey(y), same)
        << x.ToString() << " vs " << y.ToString();
    if (same) ++equal_pairs;
  }
  EXPECT_GT(equal_pairs, 0);

  // Hand-picked near misses.
  DesignConfig a;
  a.buffer_bits["a"] = 16;
  DesignConfig ab;
  ab.buffer_bits["ab"] = 16;
  DesignConfig a_and_b;
  a_and_b.buffer_bits["a"] = 16;
  a_and_b.buffer_bits["b"] = 16;
  DesignConfig loop_only;
  loop_only.loops[0] = {};
  DesignConfig big;
  big.loops[0].parallel = std::int64_t{1} << 32;
  DesignConfig small;
  small.loops[0].parallel = 2;
  const std::vector<DesignConfig> distinct = {DesignConfig{}, a, ab,
                                              a_and_b, loop_only, big, small};
  for (std::size_t i = 0; i < distinct.size(); ++i) {
    for (std::size_t j = 0; j < distinct.size(); ++j) {
      EXPECT_EQ(ConfigKey(distinct[i]) == ConfigKey(distinct[j]), i == j)
          << i << " vs " << j;
    }
  }
}

// ------------------------------------------------------------------ LRU

TEST(EvalCacheTest, LruEvictionRespectsCapacityAndRecency) {
  EvalCacheOptions options;
  options.capacity = 2;
  EvalCache cache(options);
  auto compute_for = [](double cost) { return [cost] { return Outcome(cost); }; };

  cache.GetOrCompute("a", compute_for(1));
  cache.GetOrCompute("b", compute_for(2));
  cache.GetOrCompute("a", compute_for(1));  // touch: "b" is now LRU
  cache.GetOrCompute("c", compute_for(3));  // evicts "b"

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.Find("a").has_value());
  EXPECT_FALSE(cache.Find("b").has_value());
  EXPECT_TRUE(cache.Find("c").has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);

  // The evicted key is recomputed on the next request.
  int recomputed = 0;
  cache.GetOrCompute("b", [&] {
    ++recomputed;
    return Outcome(2);
  });
  EXPECT_EQ(recomputed, 1);
}

// --------------------------------------------------------- single-flight

TEST(EvalCacheTest, SingleFlightDeduplicatesConcurrentRequests) {
  EvalCache cache;
  std::atomic<int> computes{0};
  constexpr int kThreads = 16;

  std::vector<EvalOutcome> outs(kThreads);
  ForkJoin(kThreads, kThreads, [&](std::size_t i) {
    outs[i] = cache.GetOrCompute("hot", [&] {
      // Slow enough that the other requesters pile up behind the leader.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      ++computes;
      return Outcome(17.0);
    });
  });
  for (const EvalOutcome& out : outs) EXPECT_EQ(out.cost, 17.0);

  EXPECT_EQ(computes.load(), 1);
  EvalCacheStats stats = cache.stats();
  EXPECT_EQ(stats.lookups, static_cast<std::size_t>(kThreads));
  EXPECT_EQ(stats.misses, 1u);
  // Everyone else either joined the flight or (if it finished first) hit
  // the completed entry; either way nobody re-paid the evaluation.
  EXPECT_EQ(stats.hits + stats.inflight_joins,
            static_cast<std::size_t>(kThreads) - 1u);
}

TEST(EvalCacheTest, FailedLeaderLetsWaitersRetry) {
  EvalCache cache;
  std::atomic<int> attempts{0};
  constexpr int kThreads = 8;

  std::vector<double> costs(kThreads);
  ForkJoin(kThreads, kThreads, [&](std::size_t i) {
    try {
      costs[i] = cache
                     .GetOrCompute("flaky",
                                   [&] {
                                     int n = ++attempts;
                                     std::this_thread::sleep_for(
                                         std::chrono::milliseconds(10));
                                     if (n == 1) {
                                       throw std::runtime_error("boom");
                                     }
                                     return Outcome(5.0);
                                   })
                     .cost;
    } catch (const std::runtime_error&) {
      costs[i] = -1.0;  // the leader that drew the failure
    }
  });
  int failures = 0;
  for (double cost : costs) {
    if (cost < 0) {
      ++failures;
    } else {
      EXPECT_EQ(cost, 5.0);
    }
  }
  // Exactly one caller (the first leader) observes the exception; every
  // waiter retries and one of them becomes the new leader.
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(attempts.load(), 2);
  ASSERT_TRUE(cache.Find("flaky").has_value());
}

// Hammer many distinct keys from many threads with a bounded capacity —
// primarily an ASan/TSan target via the sanitized duplicate.
TEST(EvalCacheTest, ConcurrentMixedWorkloadStaysConsistent) {
  EvalCacheOptions options;
  options.capacity = 8;
  EvalCache cache(options);
  std::atomic<int> computes{0};
  constexpr int kThreads = 8;
  constexpr int kIters = 200;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &computes, t] {
      for (int i = 0; i < kIters; ++i) {
        const int key = (t + i) % 24;
        EvalOutcome out = cache.GetOrCompute(
            "k" + std::to_string(key), [&computes, key] {
              ++computes;
              return Outcome(static_cast<double>(key));
            });
        ASSERT_EQ(out.cost, static_cast<double>(key));
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_LE(cache.size(), 8u);
  EvalCacheStats stats = cache.stats();
  EXPECT_EQ(stats.lookups, static_cast<std::size_t>(kThreads) * kIters);
  EXPECT_EQ(stats.misses, static_cast<std::size_t>(computes.load()));
  EXPECT_EQ(stats.hits + stats.inflight_joins + stats.misses, stats.lookups);
}

// Many keys spread over the lock stripes, requested by eight threads in
// rotated orders with a slow compute, so flights overlap: every key is
// still computed exactly once and every lookup is counted exactly once.
TEST(EvalCacheTest, StripedKeysAreComputedOnceAcrossThreads) {
  EvalCache cache;
  constexpr int kThreads = 8;
  constexpr int kKeys = 64;
  std::vector<std::atomic<int>> computes(kKeys);

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &computes, t] {
      for (int i = 0; i < kKeys; ++i) {
        const int key = (t * 8 + i) % kKeys;
        EvalOutcome out = cache.GetOrCompute(
            ConfigKey(MakeConfig(key)) + std::to_string(key), [&, key] {
              ++computes[key];
              std::this_thread::sleep_for(std::chrono::microseconds(200));
              return Outcome(static_cast<double>(key));
            });
        ASSERT_EQ(out.cost, static_cast<double>(key));
      }
    });
  }
  for (auto& t : threads) t.join();

  for (int key = 0; key < kKeys; ++key) EXPECT_EQ(computes[key].load(), 1);
  EXPECT_EQ(cache.size(), static_cast<std::size_t>(kKeys));
  EvalCacheStats stats = cache.stats();
  EXPECT_EQ(stats.lookups, static_cast<std::size_t>(kThreads * kKeys));
  EXPECT_EQ(stats.misses, static_cast<std::size_t>(kKeys));
  EXPECT_EQ(stats.hits + stats.inflight_joins + stats.misses, stats.lookups);
  EXPECT_DOUBLE_EQ(stats.minutes_saved,
                   5.0 * static_cast<double>(stats.lookups - stats.misses));
}

// Every key's first leader throws while the other threads wait on it:
// per key exactly one caller sees the failure and one retry computes.
TEST(EvalCacheTest, FailedLeadersRetryAcrossStripes) {
  EvalCache cache;
  constexpr int kThreads = 8;
  constexpr int kKeys = 16;
  std::vector<std::atomic<int>> attempts(kKeys);
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kKeys; ++i) {
        const int key = (t + i) % kKeys;
        try {
          EvalOutcome out =
              cache.GetOrCompute("flaky" + std::to_string(key), [&, key] {
                const int n = ++attempts[key];
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
                if (n == 1) throw std::runtime_error("boom");
                return Outcome(static_cast<double>(key));
              });
          EXPECT_EQ(out.cost, static_cast<double>(key));
        } catch (const std::runtime_error&) {
          ++failures;
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(failures.load(), kKeys);
  for (int key = 0; key < kKeys; ++key) {
    EXPECT_EQ(attempts[key].load(), 2) << key;
    EXPECT_TRUE(cache.Find("flaky" + std::to_string(key)).has_value());
  }
  EvalCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, static_cast<std::size_t>(2 * kKeys));
  EXPECT_EQ(stats.hits + stats.inflight_joins + stats.misses, stats.lookups);
}

// A bounded cache keeps one stripe, so its recency order is exact: a
// random stream of requests and inserts over more keys than fit evicts
// exactly what a reference LRU list evicts.
TEST(EvalCacheTest, BoundedCacheEvictsInExactLruOrder) {
  EvalCacheOptions options;
  options.capacity = 4;
  EvalCache cache(options);
  std::list<int> model;  // front = most recent
  std::size_t evictions = 0;
  auto use = [&](int key) {
    model.remove(key);
    model.push_front(key);
    if (model.size() > options.capacity) {
      model.pop_back();
      ++evictions;
    }
  };
  std::mt19937_64 rng(11);
  for (int step = 0; step < 2000; ++step) {
    const int key = static_cast<int>(rng() % 9);
    const std::string name = "k" + std::to_string(key);
    const bool cached =
        std::find(model.begin(), model.end(), key) != model.end();
    if (rng() % 4 == 0) {
      cache.Insert(name, Outcome(key));
    } else {
      bool computed = false;
      cache.GetOrCompute(name, [&] {
        computed = true;
        return Outcome(key);
      });
      ASSERT_EQ(computed, !cached) << "step " << step;
    }
    use(key);
    ASSERT_EQ(cache.size(), model.size());
    for (int k = 0; k < 9; ++k) {
      ASSERT_EQ(cache.Find("k" + std::to_string(k)).has_value(),
                std::find(model.begin(), model.end(), k) != model.end())
          << "step " << step << " key " << k;
    }
  }
  EXPECT_EQ(cache.stats().evictions, evictions);
}

// ----------------------------------------------- journal/cache layering

TEST(EvalCacheTest, JournalHitNeverTouchesTheCache) {
  const std::string path =
      ::testing::TempDir() + "/cache_precedence_journal." +
      std::to_string(::getpid()) + ".jsonl";
  std::remove(path.c_str());

  int raw_calls = 0;
  tuner::EvalFn raw = [&](const DesignConfig&) {
    ++raw_calls;
    return Outcome(3.0);
  };

  {
    // First run: journal miss -> cache miss -> raw evaluator; the journal
    // records what the cache returned.
    resilience::EvalJournal journal;
    journal.Open(path);
    EvalCache cache;
    tuner::EvalFn fn = journal.Wrap("p0", cache.Wrap(raw));
    fn(MakeConfig(0));
    EXPECT_EQ(raw_calls, 1);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(journal.entries(), 1u);
  }
  {
    // Resumed run: the journal answers first; the fresh cache is never
    // consulted (journal -> cache -> evaluator layering).
    resilience::EvalJournal journal;
    journal.Open(path);
    EXPECT_EQ(journal.resumed(), 1u);
    EvalCache cache;
    tuner::EvalFn fn = journal.Wrap("p0", cache.Wrap(raw));
    EvalOutcome out = fn(MakeConfig(0));
    EXPECT_EQ(out.cost, 3.0);
    EXPECT_EQ(raw_calls, 1);
    EXPECT_EQ(journal.hits(), 1u);
    EXPECT_EQ(cache.stats().lookups, 0u);
    // A key the journal does not know falls through to the cache.
    fn(MakeConfig(1));
    EXPECT_EQ(raw_calls, 2);
    EXPECT_EQ(cache.stats().misses, 1u);
  }
  std::remove(path.c_str());
}

TEST(EvalCacheTest, StatsMergeAccumulates) {
  EvalCacheStats a;
  a.lookups = 10;
  a.hits = 4;
  a.misses = 6;
  a.minutes_saved = 20;
  EvalCacheStats b;
  b.lookups = 5;
  b.hits = 1;
  b.misses = 4;
  b.inflight_joins = 2;
  b.evictions = 3;
  b.minutes_saved = 5;
  a.Merge(b);
  EXPECT_EQ(a.lookups, 15u);
  EXPECT_EQ(a.hits, 5u);
  EXPECT_EQ(a.misses, 10u);
  EXPECT_EQ(a.inflight_joins, 2u);
  EXPECT_EQ(a.evictions, 3u);
  EXPECT_EQ(a.minutes_saved, 25.0);
}

}  // namespace
}  // namespace s2fa::cache
