// Profiler + perf-ledger suite: profile-tree reconstruction from synthetic
// and real span events, the self/total invariants, Chrome-trace validity,
// ledger round-trip + comparator classification, reservoir-histogram
// exactness, and the Drain-vs-Record race.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/json.h"
#include "obs/ledger.h"
#include "obs/obs.h"
#include "obs/profile.h"
#include "support/error.h"
#include "support/thread_pool.h"

namespace s2fa::obs {
namespace {

class ProfileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetEnabled(true);
    if (!Enabled()) GTEST_SKIP() << "obs compiled out";
    Registry::Global().Reset();
    Tracer::Global().Reset();
  }
  void TearDown() override {
    Registry::Global().Reset();
    Tracer::Global().Reset();
    SetEnabled(false);
  }
};

SpanEvent Ev(const char* name, int tid, int depth, std::uint64_t start,
             std::uint64_t dur) {
  SpanEvent e;
  e.name = name;
  e.thread_id = tid;
  e.depth = depth;
  e.start_us = start;
  e.duration_us = dur;
  return e;
}

// ------------------------------------------------------------ tree builds

TEST_F(ProfileTest, SyntheticTreeExactAttribution) {
  // root [0,100) { A [10,40) { G [15,20) }, B [50,90) }
  std::vector<SpanEvent> events = {
      Ev("root", 1, 0, 0, 100),
      Ev("A", 1, 1, 10, 30),
      Ev("G", 1, 2, 15, 5),
      Ev("B", 1, 1, 50, 40),
  };
  Profile p = BuildProfile(events);
  ASSERT_EQ(p.roots.size(), 1u);
  const ProfileNode& root = p.roots[0];
  EXPECT_EQ(root.name, "root");
  EXPECT_EQ(root.count, 1u);
  EXPECT_DOUBLE_EQ(root.total_us, 100);
  EXPECT_DOUBLE_EQ(root.self_us, 30);  // 100 - (30 + 40)
  ASSERT_EQ(root.children.size(), 2u);
  // Children sorted by total time, descending.
  EXPECT_EQ(root.children[0].name, "B");
  EXPECT_DOUBLE_EQ(root.children[0].total_us, 40);
  EXPECT_DOUBLE_EQ(root.children[0].self_us, 40);
  EXPECT_EQ(root.children[1].name, "A");
  EXPECT_DOUBLE_EQ(root.children[1].self_us, 25);
  ASSERT_EQ(root.children[1].children.size(), 1u);
  EXPECT_EQ(root.children[1].children[0].name, "G");
  EXPECT_DOUBLE_EQ(root.children[1].children[0].total_us, 5);

  EXPECT_DOUBLE_EQ(p.wall_us, 100);
  EXPECT_DOUBLE_EQ(p.busy_us, 100);
  EXPECT_EQ(p.events, 4u);
  EXPECT_EQ(p.threads, 1u);

  // Flat rollup sorted by self time.
  ASSERT_EQ(p.flat.size(), 4u);
  EXPECT_EQ(p.flat[0].name, "B");
  EXPECT_DOUBLE_EQ(p.flat[0].self_us, 40);
  EXPECT_EQ(p.flat[1].name, "root");
  EXPECT_DOUBLE_EQ(p.flat[3].self_us, 5);
}

TEST_F(ProfileTest, RepeatedActivationsMergeByPath) {
  std::vector<SpanEvent> events = {
      Ev("loop", 1, 0, 0, 100),   Ev("body", 1, 1, 0, 40),
      Ev("body", 1, 1, 50, 50),   Ev("loop", 1, 0, 200, 50),
      Ev("body", 1, 1, 210, 20),
  };
  Profile p = BuildProfile(events);
  ASSERT_EQ(p.roots.size(), 1u);
  EXPECT_EQ(p.roots[0].count, 2u);
  EXPECT_DOUBLE_EQ(p.roots[0].total_us, 150);
  ASSERT_EQ(p.roots[0].children.size(), 1u);
  EXPECT_EQ(p.roots[0].children[0].count, 3u);
  EXPECT_DOUBLE_EQ(p.roots[0].children[0].total_us, 110);
  EXPECT_DOUBLE_EQ(p.roots[0].self_us, 40);
  // wall spans the gap; busy does too (one thread, one extent).
  EXPECT_DOUBLE_EQ(p.wall_us, 250);
}

TEST_F(ProfileTest, ThreadsMergePathWiseAndBusySums) {
  std::vector<SpanEvent> events = {
      Ev("work", 1, 0, 0, 100),
      Ev("inner", 1, 1, 10, 50),
      Ev("work", 2, 0, 50, 100),
      Ev("inner", 2, 1, 60, 30),
  };
  Profile p = BuildProfile(events);
  ASSERT_EQ(p.roots.size(), 1u);
  EXPECT_EQ(p.roots[0].count, 2u);
  EXPECT_DOUBLE_EQ(p.roots[0].total_us, 200);
  EXPECT_DOUBLE_EQ(p.roots[0].children[0].total_us, 80);
  EXPECT_EQ(p.threads, 2u);
  EXPECT_DOUBLE_EQ(p.wall_us, 150);   // [0, 150)
  EXPECT_DOUBLE_EQ(p.busy_us, 200);   // 100 + 100
  // Self times are disjoint per thread: their sum never exceeds busy.
  double self_sum = 0;
  for (const HotPathRow& row : p.flat) self_sum += row.self_us;
  EXPECT_LE(self_sum, p.busy_us + 1e-9);
}

TEST_F(ProfileTest, OrphanDepthBecomesRoot) {
  // Parent span never recorded (obs enabled mid-span): depth 2 with no
  // enclosing spans must still land in the profile, as a root.
  std::vector<SpanEvent> events = {Ev("deep", 7, 2, 10, 5)};
  Profile p = BuildProfile(events);
  ASSERT_EQ(p.roots.size(), 1u);
  EXPECT_EQ(p.roots[0].name, "deep");
  EXPECT_DOUBLE_EQ(p.roots[0].self_us, 5);
}

TEST_F(ProfileTest, RealScopedSpansNestAndBound) {
  {
    S2FA_SPAN("outer");
    for (int i = 0; i < 3; ++i) {
      S2FA_SPAN("mid");
      S2FA_SPAN("leaf");
    }
  }
  Profile p = BuildProfile(Tracer::Global().Drain());
  ASSERT_EQ(p.roots.size(), 1u);
  EXPECT_EQ(p.roots[0].name, "outer");
  ASSERT_EQ(p.roots[0].children.size(), 1u);
  EXPECT_EQ(p.roots[0].children[0].name, "mid");
  EXPECT_EQ(p.roots[0].children[0].count, 3u);
  // total >= sum(children) at every node, and self >= 0.
  EXPECT_GE(p.roots[0].total_us,
            p.roots[0].children[0].total_us - 1e-9);
  EXPECT_GE(p.roots[0].self_us, 0);
  double self_sum = 0;
  for (const HotPathRow& row : p.flat) self_sum += row.self_us;
  EXPECT_LE(self_sum, p.wall_us + 1e-9);  // single-threaded trace
}

TEST_F(ProfileTest, PoolSpansKeepInvariantsAcrossThreads) {
  ForkJoin(16, 4, [](std::size_t) {
    S2FA_SPAN("pool.task");
    S2FA_SPAN("pool.step");
  });
  Profile p = BuildProfile(Tracer::Global().Drain());
  EXPECT_EQ(p.events, 32u);
  EXPECT_GE(p.threads, 1u);
  std::size_t tasks = 0;
  double self_sum = 0;
  for (const HotPathRow& row : p.flat) {
    self_sum += row.self_us;
    if (row.name == "pool.task") tasks = row.count;
  }
  EXPECT_EQ(tasks, 16u);
  EXPECT_LE(self_sum, p.busy_us + 1e-9);
}

TEST_F(ProfileTest, RenderedTableListsHotSpansAndRates) {
  std::vector<SpanEvent> events = {Ev("hot", 1, 0, 0, 900),
                                   Ev("cold", 1, 0, 900, 100)};
  Profile p = BuildProfile(events);
  std::string table = RenderHotPathTable(p, 0, /*records=*/100);
  EXPECT_NE(table.find("hot"), std::string::npos);
  EXPECT_NE(table.find("ns/rec"), std::string::npos);
  std::string top1 = RenderHotPathTable(p, 1);
  EXPECT_NE(top1.find("hot"), std::string::npos);
  EXPECT_NE(top1.find("not shown"), std::string::npos);
  std::string tree = RenderProfileTree(p);
  EXPECT_NE(tree.find("cold"), std::string::npos);
}

// --------------------------------------------------------- chrome export

TEST_F(ProfileTest, ChromeTraceIsValidJson) {
  std::vector<SpanEvent> events = {
      Ev("alpha \"quoted\"", 1, 0, 0, 100),
      Ev("beta", 2, 1, 10, 5),
  };
  json::JsonValue root = json::Parse(RenderChromeTrace(events));
  const json::JsonObject& top = root.object();
  EXPECT_EQ(top.at("displayTimeUnit").string(), "ms");
  const json::JsonArray& trace = top.at("traceEvents").array();
  ASSERT_EQ(trace.size(), 2u);
  const json::JsonObject& first = trace[0].object();
  EXPECT_EQ(first.at("name").string(), "alpha \"quoted\"");
  EXPECT_EQ(first.at("ph").string(), "X");
  EXPECT_DOUBLE_EQ(first.at("ts").number(), 0);
  EXPECT_DOUBLE_EQ(first.at("dur").number(), 100);
  EXPECT_DOUBLE_EQ(first.at("tid").number(), 1);
  EXPECT_DOUBLE_EQ(trace[1].object().at("tid").number(), 2);
}

// ----------------------------------------------------------- perf ledger

PerfLedger SampleLedger() {
  PerfLedger ledger;
  ledger.git_rev = "abc123";
  ledger.timestamp = "2026-08-08T00:00:00";
  ledger.benchmarks["BM_Alpha"] = {120.5, 1000, 0.12};
  ledger.benchmarks["BM_Beta"] = {98000.25, 64, 6.3};
  ledger.counters["blaze.batches"] = 42;
  HistogramStats h;
  h.count = 7;
  h.min = 1;
  h.max = 9;
  h.mean = 4.5;
  h.p50 = 4;
  h.p95 = 8;
  h.p99 = 9;
  ledger.histograms["svc.latency_us"] = h;
  return ledger;
}

TEST(LedgerTest, JsonRoundTripPreservesEverything) {
  PerfLedger in = SampleLedger();
  PerfLedger out = ParseLedgerJson(RenderLedgerJson(in));
  EXPECT_EQ(out.version, kPerfLedgerVersion);
  EXPECT_EQ(out.git_rev, "abc123");
  EXPECT_EQ(out.timestamp, "2026-08-08T00:00:00");
  ASSERT_EQ(out.benchmarks.size(), 2u);
  EXPECT_DOUBLE_EQ(out.benchmarks.at("BM_Alpha").ns_per_op, 120.5);
  EXPECT_DOUBLE_EQ(out.benchmarks.at("BM_Alpha").ops, 1000);
  EXPECT_DOUBLE_EQ(out.benchmarks.at("BM_Beta").wall_ms, 6.3);
  EXPECT_EQ(out.counters.at("blaze.batches"), 42);
  const HistogramStats& h = out.histograms.at("svc.latency_us");
  EXPECT_EQ(h.count, 7u);
  EXPECT_DOUBLE_EQ(h.mean, 4.5);
  EXPECT_DOUBLE_EQ(h.p99, 9);
}

TEST(LedgerTest, FileRoundTripAndTryLoad) {
  const std::string path = ::testing::TempDir() + "/ledger_rt." + std::to_string(::getpid()) + ".json";
  WriteLedgerFile(path, SampleLedger());
  PerfLedger out = LoadLedgerFile(path);
  EXPECT_EQ(out.benchmarks.size(), 2u);
  EXPECT_TRUE(TryLoadLedgerFile(path).has_value());
  EXPECT_FALSE(TryLoadLedgerFile(path + ".missing").has_value());
  std::remove(path.c_str());
}

TEST(LedgerTest, ValidationRejectsBadDocuments) {
  EXPECT_THROW(ParseLedgerJson("not json"), MalformedInput);
  EXPECT_THROW(ParseLedgerJson("{}"), MalformedInput);  // missing schema
  std::string wrong_schema = RenderLedgerJson(SampleLedger());
  wrong_schema.replace(wrong_schema.find("s2fa-perf-ledger"), 16,
                       "someone-elses-it");
  EXPECT_THROW(ParseLedgerJson(wrong_schema), MalformedInput);
  std::string wrong_version = RenderLedgerJson(SampleLedger());
  wrong_version.replace(wrong_version.find("\"version\": 1"), 12,
                        "\"version\": 9");
  EXPECT_THROW(ParseLedgerJson(wrong_version), MalformedInput);
  PerfLedger negative = SampleLedger();
  negative.benchmarks["BM_Bad"] = {-5, 0, 0};
  EXPECT_THROW(ParseLedgerJson(RenderLedgerJson(negative)), MalformedInput);
  // A present-but-corrupt file must throw, not restart the trajectory.
  const std::string path = ::testing::TempDir() + "/ledger_corrupt." + std::to_string(::getpid()) + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("{\"schema\": \"s2fa-perf-ledger\", \"version\": ", f);
  std::fclose(f);
  EXPECT_THROW(TryLoadLedgerFile(path), MalformedInput);
  std::remove(path.c_str());
}

TEST(LedgerTest, MergeOverwritesAndCarriesOver) {
  PerfLedger base = SampleLedger();
  PerfLedger update;
  update.git_rev = "def456";
  update.timestamp = "later";
  update.benchmarks["BM_Beta"] = {50, 10, 1};
  update.benchmarks["BM_Gamma"] = {7, 1, 0.1};
  update.counters["svc.requests"] = 9;
  PerfLedger merged = MergeLedgers(base, update);
  EXPECT_EQ(merged.git_rev, "def456");
  EXPECT_EQ(merged.timestamp, "later");
  EXPECT_EQ(merged.benchmarks.size(), 3u);
  EXPECT_DOUBLE_EQ(merged.benchmarks.at("BM_Alpha").ns_per_op, 120.5);
  EXPECT_DOUBLE_EQ(merged.benchmarks.at("BM_Beta").ns_per_op, 50);
  EXPECT_EQ(merged.counters.size(), 2u);
}

TEST(LedgerTest, ComparatorClassifiesAgainstThreshold) {
  PerfLedger prev, next;
  prev.benchmarks["flat"] = {100, 0, 0};
  prev.benchmarks["flat_edge"] = {100, 0, 0};
  prev.benchmarks["better"] = {100, 0, 0};
  prev.benchmarks["worse"] = {100, 0, 0};
  prev.benchmarks["gone"] = {100, 0, 0};
  next.benchmarks["flat"] = {104, 0, 0};
  next.benchmarks["flat_edge"] = {110, 0, 0};  // exactly at the threshold
  next.benchmarks["better"] = {80, 0, 0};
  next.benchmarks["worse"] = {140, 0, 0};
  next.benchmarks["fresh"] = {55, 0, 0};

  LedgerDiff diff = ComparePerfLedgers(prev, next, 0.10);
  EXPECT_EQ(diff.flat, 2u);
  EXPECT_EQ(diff.improved, 1u);
  EXPECT_EQ(diff.regressed, 1u);
  EXPECT_EQ(diff.added, 1u);
  EXPECT_EQ(diff.removed, 1u);
  EXPECT_TRUE(diff.HasRegression());
  for (const LedgerDiffEntry& e : diff.entries) {
    if (e.name == "worse") {
      EXPECT_EQ(e.kind, LedgerDiffKind::kRegressed);
      EXPECT_NEAR(e.delta, 0.40, 1e-12);
    }
    if (e.name == "flat_edge") EXPECT_EQ(e.kind, LedgerDiffKind::kFlat);
    if (e.name == "fresh") EXPECT_EQ(e.kind, LedgerDiffKind::kAdded);
  }
  std::string table = RenderLedgerDiffTable(diff);
  EXPECT_NE(table.find("regressed"), std::string::npos);
  EXPECT_NE(table.find("1 regressed"), std::string::npos);

  // Identical ledgers never regress; added/removed alone never gate.
  LedgerDiff same = ComparePerfLedgers(prev, prev, 0.10);
  EXPECT_FALSE(same.HasRegression());
  EXPECT_EQ(same.flat, prev.benchmarks.size());
  PerfLedger empty;
  EXPECT_FALSE(ComparePerfLedgers(empty, next, 0.10).HasRegression());
  EXPECT_FALSE(ComparePerfLedgers(prev, empty, 0.10).HasRegression());
}

// ---------------------------------------------------- reservoir histogram

TEST_F(ProfileTest, ReservoirKeepsExactScalarsPastTheCap) {
  const std::size_t n = 3 * kHistogramSampleCap;
  for (std::size_t i = 0; i < n; ++i) {
    Registry::Global().Observe("res.h", static_cast<double>(i));
  }
  HistogramStats h = Registry::Global().Snapshot().histograms.at("res.h");
  EXPECT_EQ(h.count, n);  // exact, not capped
  EXPECT_DOUBLE_EQ(h.min, 0);
  EXPECT_DOUBLE_EQ(h.max, static_cast<double>(n - 1));
  EXPECT_DOUBLE_EQ(h.mean, static_cast<double>(n - 1) / 2.0);
  // Percentiles come from a uniform reservoir over [0, n): they stay in
  // range and ordered even though the raw samples were dropped.
  EXPECT_GE(h.p50, h.min);
  EXPECT_LE(h.p50, h.p95);
  EXPECT_LE(h.p95, h.p99);
  EXPECT_LE(h.p99, h.max);
}

TEST_F(ProfileTest, ReservoirIsDeterministicPerSequence) {
  auto run = [] {
    Registry::Global().Reset();
    for (std::size_t i = 0; i < 2 * kHistogramSampleCap; ++i) {
      Registry::Global().Observe(
          "det.h", static_cast<double>((i * 2654435761ULL) % 100000));
    }
    return Registry::Global().Snapshot().histograms.at("det.h");
  };
  HistogramStats a = run();
  HistogramStats b = run();
  EXPECT_DOUBLE_EQ(a.p50, b.p50);
  EXPECT_DOUBLE_EQ(a.p95, b.p95);
  EXPECT_DOUBLE_EQ(a.p99, b.p99);
  EXPECT_DOUBLE_EQ(a.mean, b.mean);
  EXPECT_EQ(a.count, b.count);
}

// ------------------------------------------------------------ drain race

TEST_F(ProfileTest, DrainRacingRecordLosesNothing) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 4000;
  std::atomic<int> done{0};
  std::vector<SpanEvent> drained;
  {
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&done] {
        for (int i = 0; i < kPerThread; ++i) {
          SpanEvent e;
          e.name = "race.span";
          e.depth = 0;
          e.start_us = static_cast<std::uint64_t>(i);
          e.duration_us = 1;
          Tracer::Global().Record(std::move(e));
        }
        done.fetch_add(1);
      });
    }
    // Drain concurrently with the writers.
    while (done.load() < kThreads) {
      std::vector<SpanEvent> batch = Tracer::Global().Drain();
      drained.insert(drained.end(), batch.begin(), batch.end());
      std::this_thread::yield();
    }
    for (auto& writer : writers) writer.join();
  }
  std::vector<SpanEvent> rest = Tracer::Global().Drain();
  drained.insert(drained.end(), rest.begin(), rest.end());
  EXPECT_EQ(drained.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  EXPECT_TRUE(Tracer::Global().Drain().empty());
}

}  // namespace
}  // namespace s2fa::obs
