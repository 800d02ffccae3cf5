#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/export.h"
#include "obs/obs.h"
#include "support/thread_pool.h"
#include "tuner/result.h"

namespace s2fa::obs {
namespace {

// Every test starts from a clean, enabled obs layer and restores the
// disabled default on exit so other suites stay unaffected.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetEnabled(true);
    if (!Enabled()) {
      GTEST_SKIP() << "obs layer compiled out (S2FA_ENABLE_OBS=OFF)";
    }
    Registry::Global().Reset();
    Tracer::Global().Reset();
  }
  void TearDown() override {
    Registry::Global().Reset();
    Tracer::Global().Reset();
    SetEnabled(false);
  }
};

TEST_F(ObsTest, CountersGaugesHistogramsBasics) {
  S2FA_COUNT("apples", 1);
  S2FA_COUNT("apples", 2);
  S2FA_GAUGE("level", 3.5);
  S2FA_GAUGE("level", 1.25);         // plain set: last write wins
  S2FA_GAUGE_MAX("high_water", 2.0);
  S2FA_GAUGE_MAX("high_water", 7.0);
  S2FA_GAUGE_MAX("high_water", 4.0);  // below the high-water mark
  for (int i = 1; i <= 100; ++i) {
    S2FA_OBSERVE("latency", static_cast<double>(i));
  }

  MetricsSnapshot snapshot = Registry::Global().Snapshot();
  EXPECT_EQ(snapshot.counters.at("apples"), 3);
  EXPECT_DOUBLE_EQ(snapshot.gauges.at("level"), 1.25);
  EXPECT_DOUBLE_EQ(snapshot.gauges.at("high_water"), 7.0);

  const HistogramStats& h = snapshot.histograms.at("latency");
  EXPECT_EQ(h.count, 100u);
  EXPECT_DOUBLE_EQ(h.min, 1.0);
  EXPECT_DOUBLE_EQ(h.max, 100.0);
  EXPECT_DOUBLE_EQ(h.mean, 50.5);
  EXPECT_DOUBLE_EQ(h.p50, 50.0);  // nearest rank over 1..100
  EXPECT_DOUBLE_EQ(h.p95, 95.0);
  EXPECT_DOUBLE_EQ(h.p99, 99.0);
}

TEST_F(ObsTest, ConcurrentUpdatesFromThreadPool) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  ForkJoin(kThreads, kThreads, [](std::size_t t) {
    for (int i = 0; i < kPerThread; ++i) {
      S2FA_COUNT("concurrent.hits", 1);
      S2FA_GAUGE_MAX("concurrent.max", static_cast<double>(t));
      S2FA_OBSERVE("concurrent.samples", 1.0);
    }
  });
  MetricsSnapshot snapshot = Registry::Global().Snapshot();
  EXPECT_EQ(snapshot.counters.at("concurrent.hits"), kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(snapshot.gauges.at("concurrent.max"), kThreads - 1);
  EXPECT_EQ(snapshot.histograms.at("concurrent.samples").count,
            static_cast<std::size_t>(kThreads * kPerThread));
}

TEST_F(ObsTest, SpanNestingDepthsAndOrder) {
  {
    S2FA_SPAN("outer");
    {
      S2FA_SPAN("middle");
      { S2FA_SPAN("inner"); }
    }
  }
  // Events finish innermost-first; Events() sorts by start time, so the
  // outermost span leads.
  std::vector<SpanEvent> events = Tracer::Global().Events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[0].depth, 0);
  EXPECT_EQ(events[1].name, "middle");
  EXPECT_EQ(events[1].depth, 1);
  EXPECT_EQ(events[2].name, "inner");
  EXPECT_EQ(events[2].depth, 2);
  // All on this thread, and the outer span contains the inner ones.
  EXPECT_EQ(events[0].thread_id, events[2].thread_id);
  EXPECT_GE(events[0].duration_us, events[1].duration_us);
  EXPECT_GE(events[1].duration_us, events[2].duration_us);
}

TEST_F(ObsTest, SpansFromWorkerThreadsAreCollected) {
  ForkJoin(16, 4, [](std::size_t) { S2FA_SPAN("worker.task"); });
  std::vector<SpanEvent> events = Tracer::Global().Events();
  ASSERT_EQ(events.size(), 16u);
  for (const SpanEvent& event : events) {
    EXPECT_EQ(event.name, "worker.task");
    EXPECT_EQ(event.depth, 0);
  }
}

TEST_F(ObsTest, TraceJsonlRoundTrip) {
  {
    S2FA_SPAN("a \"quoted\" name");
    { S2FA_SPAN("nested"); }
  }
  std::vector<SpanEvent> events = Tracer::Global().Events();
  std::vector<SpanEvent> parsed = ParseTraceJsonl(RenderTraceJsonl(events));
  ASSERT_EQ(parsed.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(parsed[i].name, events[i].name);
    EXPECT_EQ(parsed[i].thread_id, events[i].thread_id);
    EXPECT_EQ(parsed[i].depth, events[i].depth);
    EXPECT_EQ(parsed[i].start_us, events[i].start_us);
    EXPECT_EQ(parsed[i].duration_us, events[i].duration_us);
  }
}

TEST_F(ObsTest, SummaryJsonRoundTrip) {
  S2FA_COUNT("tuner.evaluations", 42);
  S2FA_GAUGE("tuner.best_cost", 123.456);
  S2FA_OBSERVE("tuner.eval_minutes", 1.5);
  S2FA_OBSERVE("tuner.eval_minutes", 2.5);
  { S2FA_SPAN("tuner.tune"); }

  Summary summary = CaptureSummary();
  Summary parsed = ParseSummaryJson(RenderSummaryJson(summary));

  EXPECT_EQ(parsed.metrics.counters.at("tuner.evaluations"), 42);
  EXPECT_DOUBLE_EQ(parsed.metrics.gauges.at("tuner.best_cost"), 123.456);
  const HistogramStats& h = parsed.metrics.histograms.at("tuner.eval_minutes");
  EXPECT_EQ(h.count, 2u);
  EXPECT_DOUBLE_EQ(h.min, 1.5);
  EXPECT_DOUBLE_EQ(h.max, 2.5);
  EXPECT_DOUBLE_EQ(h.mean, 2.0);
  ASSERT_EQ(parsed.spans.size(), 1u);
  EXPECT_EQ(parsed.spans[0].first, "tuner.tune");
  EXPECT_EQ(parsed.spans[0].second.count, 1u);
  EXPECT_DOUBLE_EQ(parsed.spans[0].second.total_us,
                   summary.spans[0].second.total_us);
}

TEST_F(ObsTest, SummaryTableRendersAllSections) {
  S2FA_COUNT("b2c.kernels_compiled", 1);
  S2FA_GAUGE("dse.entropy_last", 0.7);
  S2FA_OBSERVE("hls.eval_minutes", 3.0);
  { S2FA_SPAN("dse.run"); }
  std::string table = RenderSummaryTable(CaptureSummary());
  EXPECT_NE(table.find("pipeline spans"), std::string::npos);
  EXPECT_NE(table.find("dse.run"), std::string::npos);
  EXPECT_NE(table.find("b2c.kernels_compiled"), std::string::npos);
  EXPECT_NE(table.find("dse.entropy_last"), std::string::npos);
  EXPECT_NE(table.find("hls.eval_minutes"), std::string::npos);
}

TEST_F(ObsTest, MalformedJsonThrows) {
  EXPECT_THROW(ParseSummaryJson("{\"counters\": "), MalformedInput);
  EXPECT_THROW(ParseTraceJsonl("{\"name\": \"x\"} trailing"), MalformedInput);
}

TEST_F(ObsTest, RuntimeDisabledRecordsNothing) {
  SetEnabled(false);
  S2FA_COUNT("ghost", 5);
  S2FA_GAUGE("ghost_gauge", 1.0);
  S2FA_OBSERVE("ghost_hist", 1.0);
  { S2FA_SPAN("ghost_span"); }
  MetricsSnapshot snapshot = Registry::Global().Snapshot();
  EXPECT_TRUE(snapshot.counters.empty());
  EXPECT_TRUE(snapshot.gauges.empty());
  EXPECT_TRUE(snapshot.histograms.empty());
  EXPECT_TRUE(Tracer::Global().Events().empty());
}

TEST_F(ObsTest, SpanLatchesEnabledAtEntry) {
  std::vector<SpanEvent> events;
  {
    S2FA_SPAN("latched");
    SetEnabled(false);  // span started while enabled: still records
  }
  events = Tracer::Global().Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "latched");
}

TEST_F(ObsTest, DrainClearsBuffers) {
  { S2FA_SPAN("once"); }
  EXPECT_EQ(Tracer::Global().Drain().size(), 1u);
  EXPECT_TRUE(Tracer::Global().Events().empty());
}

TEST(DedupTraceTest, DropsConsecutiveEqualCosts) {
  std::vector<tuner::TracePoint> trace{
      {0.0, 10.0}, {1.0, 10.0}, {2.0, 8.0}, {3.0, 8.0}, {4.0, 8.0},
      {5.0, 3.0}};
  std::vector<tuner::TracePoint> deduped = tuner::DedupTrace(trace);
  ASSERT_EQ(deduped.size(), 3u);
  EXPECT_DOUBLE_EQ(deduped[0].time_minutes, 0.0);
  EXPECT_DOUBLE_EQ(deduped[0].best_cost, 10.0);
  EXPECT_DOUBLE_EQ(deduped[1].time_minutes, 2.0);
  EXPECT_DOUBLE_EQ(deduped[1].best_cost, 8.0);
  EXPECT_DOUBLE_EQ(deduped[2].time_minutes, 5.0);
  EXPECT_DOUBLE_EQ(deduped[2].best_cost, 3.0);
  EXPECT_TRUE(tuner::DedupTrace({}).empty());
}

}  // namespace
}  // namespace s2fa::obs
