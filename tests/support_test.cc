#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "support/error.h"
#include "support/logging.h"
#include "support/rng.h"
#include "support/strings.h"
#include "support/table.h"
#include "support/thread_pool.h"

namespace s2fa {
namespace {

// ---------------------------------------------------------------- error

TEST(ErrorTest, RequireThrowsInvalidArgument) {
  EXPECT_THROW(S2FA_REQUIRE(false, "boom " << 42), InvalidArgument);
}

TEST(ErrorTest, CheckThrowsInternalError) {
  EXPECT_THROW(S2FA_CHECK(false, "bug"), InternalError);
}

TEST(ErrorTest, PassingCheckDoesNotThrow) {
  EXPECT_NO_THROW(S2FA_REQUIRE(true, "fine"));
  EXPECT_NO_THROW(S2FA_CHECK(1 + 1 == 2, "fine"));
}

TEST(ErrorTest, MessageContainsLocationAndText) {
  try {
    S2FA_REQUIRE(false, "detail " << 7);
    FAIL() << "should have thrown";
  } catch (const InvalidArgument& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("detail 7"), std::string::npos);
    EXPECT_NE(what.find("support_test.cc"), std::string::npos);
  }
}

// ------------------------------------------------------------------ rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, NextBoundedRejectsZero) {
  Rng rng(7);
  EXPECT_THROW(rng.NextBounded(0), InvalidArgument);
}

TEST(RngTest, NextIntCoversInclusiveRange) {
  Rng rng(99);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.NextInt(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_TRUE(seen.count(-2));
  EXPECT_TRUE(seen.count(2));
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextDoubleMeanIsAboutHalf) {
  Rng rng(5);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.08);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(42);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(77);
  Rng child = a.Fork();
  // The fork must not replay the parent stream.
  Rng b(77);
  b.Next();  // advance past the Fork() draw
  EXPECT_NE(child.Next(), b.Next());
}

// -------------------------------------------------------------- strings

TEST(StringsTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, TrimRemovesWhitespace) {
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("hello", "he"));
  EXPECT_FALSE(StartsWith("hello", "lo"));
  EXPECT_TRUE(EndsWith("hello", "lo"));
  EXPECT_FALSE(EndsWith("lo", "hello"));
}

TEST(StringsTest, Padding) {
  EXPECT_EQ(PadLeft("ab", 4), "  ab");
  EXPECT_EQ(PadRight("ab", 4), "ab  ");
  EXPECT_EQ(PadLeft("abcd", 2), "abcd");
}

TEST(StringsTest, Formatters) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatPercent(0.256, 1), "25.6%");
  EXPECT_EQ(FormatSpeedup(49.93, 1), "49.9x");
}

TEST(StringsTest, JoinStringsAndNumbers) {
  std::vector<std::string> words{"a", "b", "c"};
  EXPECT_EQ(Join(words, ", "), "a, b, c");
  std::vector<int> nums{1, 2, 3};
  EXPECT_EQ(Join(nums, "-"), "1-2-3");
  EXPECT_EQ(Join(std::vector<int>{}, ","), "");
}

TEST(StringsTest, IndentAllLines) {
  EXPECT_EQ(Indent("a\nb", 2), "  a\n  b");
  EXPECT_EQ(Indent("a\n\nb", 2), "  a\n\n  b");  // blank lines stay blank
}

// ---------------------------------------------------------------- table

TEST(TableTest, RendersAlignedColumns) {
  TextTable t({"Kernel", "BRAM"});
  t.AddRow({"KMeans", "73%"});
  t.AddRow({"S-W", "33%"});
  std::string out = t.Render();
  EXPECT_NE(out.find("| Kernel | BRAM |"), std::string::npos);
  EXPECT_NE(out.find("| KMeans | 73%  |"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TableTest, RejectsMismatchedRow) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.AddRow({"only-one"}), InvalidArgument);
}

// ------------------------------------------------------------ fork-join

TEST(ForkJoinTest, RunsEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> runs(kN);
  ForkJoin(kN, 4, [&](std::size_t i) { ++runs[i]; });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(runs[i].load(), 1) << i;
  ForkJoin(0, 4, [](std::size_t) { FAIL() << "no index to run"; });
}

TEST(ForkJoinTest, OneThreadRunsEverythingOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  for (std::size_t threads : {0, 1}) {
    std::vector<std::size_t> order;
    ForkJoin(16, threads, [&](std::size_t i) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(i);
    });
    ASSERT_EQ(order.size(), 16u);
    for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  }
}

TEST(ForkJoinTest, ExceptionPropagatesAfterTheOtherIndicesFinish) {
  for (std::size_t threads : {1, 4}) {
    std::atomic<int> finished{0};
    try {
      ForkJoin(16, threads, [&](std::size_t i) {
        if (i == 3 || i == 9) throw std::runtime_error(std::to_string(i));
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ++finished;
      });
      ADD_FAILURE() << "no exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "3");  // the lowest failing index
    }
    EXPECT_EQ(finished.load(), 14) << threads;
  }
}

TEST(ForkJoinTest, IndicesRunConcurrently) {
  // Two indices rendezvous: each waits (with timeout) until both are
  // running. Only a caller joined by a worker can satisfy both, which
  // holds here because no other call holds the workers.
  std::mutex m;
  std::condition_variable cv;
  int arrived = 0;
  std::atomic<int> successes{0};
  ForkJoin(2, 2, [&](std::size_t) {
    std::unique_lock<std::mutex> lock(m);
    ++arrived;
    cv.notify_all();
    if (cv.wait_for(lock, std::chrono::seconds(5),
                    [&] { return arrived >= 2; })) {
      successes.fetch_add(1);
    }
  });
  EXPECT_EQ(successes.load(), 2);
}

TEST(ForkJoinTest, NestedCallFromAWorkerCompletes) {
  // Every outer index holds a thread while its inner call runs, so the
  // inner calls find no idle worker and must make progress on their own.
  std::atomic<int> inner_runs{0};
  ForkJoin(4, 4, [&](std::size_t) {
    ForkJoin(8, 4, [&](std::size_t) { ++inner_runs; });
  });
  EXPECT_EQ(inner_runs.load(), 32);
}

TEST(ForkJoinTest, RepeatedCallsCreateNoThreads) {
  std::mutex mutex;
  std::set<std::thread::id> seen;
  auto body = [&](std::size_t) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    std::lock_guard<std::mutex> lock(mutex);
    seen.insert(std::this_thread::get_id());
  };
  ForkJoin(8, 3, body);
  const std::size_t workers = ForkJoinWorkers();
  EXPECT_GE(workers, 2u);
  for (int call = 0; call < 50; ++call) ForkJoin(8, 3, body);
  EXPECT_EQ(ForkJoinWorkers(), workers);
  EXPECT_LE(seen.size(), workers + 1);  // the workers and the caller
}

TEST(LoggingTest, ParseLogLevelAcceptsDigitsAndNames) {
  EXPECT_EQ(ParseLogLevel("0"), LogLevel::kOff);
  EXPECT_EQ(ParseLogLevel("4"), LogLevel::kDebug);
  EXPECT_EQ(ParseLogLevel("off"), LogLevel::kOff);
  EXPECT_EQ(ParseLogLevel("error"), LogLevel::kError);
  EXPECT_EQ(ParseLogLevel("WARN"), LogLevel::kWarn);
  EXPECT_EQ(ParseLogLevel("Info"), LogLevel::kInfo);
  EXPECT_EQ(ParseLogLevel("debug"), LogLevel::kDebug);
}

TEST(LoggingTest, ParseLogLevelRejectsGarbage) {
  EXPECT_EQ(ParseLogLevel(""), std::nullopt);
  EXPECT_EQ(ParseLogLevel("5"), std::nullopt);
  EXPECT_EQ(ParseLogLevel("-1"), std::nullopt);
  EXPECT_EQ(ParseLogLevel("verbose"), std::nullopt);
  EXPECT_EQ(ParseLogLevel("1 "), std::nullopt);
  EXPECT_EQ(ParseLogLevel("debugg"), std::nullopt);
}

TEST(LoggingTest, LogLevelNameRoundTrips) {
  for (LogLevel level : {LogLevel::kOff, LogLevel::kError, LogLevel::kWarn,
                         LogLevel::kInfo, LogLevel::kDebug}) {
    EXPECT_EQ(ParseLogLevel(LogLevelName(level)), level);
  }
}

TEST(LoggingTest, MonotonicClockAdvancesAndThreadIdsAreDense) {
  const std::uint64_t a = MonotonicMicros();
  const std::uint64_t b = MonotonicMicros();
  EXPECT_GE(b, a);
  EXPECT_GE(MonotonicMillis(), 0.0);

  const int self = CurrentThreadId();
  EXPECT_GE(self, 1);
  EXPECT_EQ(CurrentThreadId(), self);  // stable per thread
  int other = 0;
  std::thread([&other] { other = CurrentThreadId(); }).join();
  EXPECT_NE(other, self);
}

}  // namespace
}  // namespace s2fa
