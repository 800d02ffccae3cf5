#include "layers.h"

#include <string>
#include <string_view>

#include "blaze/serialization.h"
#include "kir/eval.h"

namespace s2fa::e2e {
namespace {

// The apps whose kernels the serving workloads run; each gets its own
// kir.<app>.eval_ms probe metric.
constexpr const char* kProbedApps[] = {"PR",  "KMeans", "KNN", "LR",
                                       "SVM", "LLS",    "AES"};

const obs::HotPathRow* Span(const obs::Profile& profile,
                            std::string_view name) {
  for (const obs::HotPathRow& row : profile.flat) {
    if (row.name == name) return &row;
  }
  return nullptr;
}

double SelfMs(const obs::Profile& profile, std::string_view name) {
  const obs::HotPathRow* row = Span(profile, name);
  return row != nullptr ? row->self_us / 1e3 : 0;
}

double TotalMs(const obs::Profile& profile, std::string_view name) {
  const obs::HotPathRow* row = Span(profile, name);
  return row != nullptr ? row->total_us / 1e3 : 0;
}

double Counter(const obs::MetricsSnapshot& snapshot, const std::string& name) {
  const auto it = snapshot.counters.find(name);
  return it != snapshot.counters.end() ? static_cast<double>(it->second) : 0;
}

struct ProbeTimes {
  double serialize_us = 0;
  double eval_ms = 0;
  double deserialize_us = 0;
};

// One full batch through serialization, the slot evaluator, and
// deserialization, the way BlazeRuntime runs an invocation; median of three
// passes per layer.
ProbeTimes TimeProbe(const KernelProbe& probe) {
  const blaze::SerializationPlan& plan = probe.accel->plan;
  const auto batch = static_cast<std::size_t>(plan.batch);
  kir::Evaluator evaluator(probe.accel->design);
  blaze::Dataset out = blaze::MakeOutputShell(plan, batch);
  std::vector<double> ser, eval, de;
  for (int pass = 0; pass < 3; ++pass) {
    kir::BufferMap buffers;
    double start = NowSeconds();
    blaze::SerializeBatch(plan, *probe.input, 0, batch, buffers,
                          probe.broadcast);
    ser.push_back(NowSeconds() - start);
    start = NowSeconds();
    evaluator.Run({{"N", jvm::Value::OfInt(static_cast<std::int32_t>(batch))}},
                  buffers);
    eval.push_back(NowSeconds() - start);
    start = NowSeconds();
    blaze::DeserializeBatch(plan, buffers, 0, batch, out);
    de.push_back(NowSeconds() - start);
  }
  return {Summarize(ser).median * 1e6, Summarize(eval).median * 1e3,
          Summarize(de).median * 1e6};
}

}  // namespace

std::vector<Metric> LayerMetrics(const TracedRep& traced,
                                 const std::vector<KernelProbe>& probes) {
  const obs::Profile& p = traced.profile;
  const obs::MetricsSnapshot& s = traced.snapshot;
  const std::map<std::string, double>& outcome = traced.check->layer;
  auto from_run = [&](const std::string& name) {
    const auto it = outcome.find(name);
    return it != outcome.end() ? it->second : 0;
  };

  std::map<std::string, double> app_eval_ms;
  std::vector<double> eval_ms, ser_us, de_us;
  for (const KernelProbe& probe : probes) {
    const ProbeTimes t = TimeProbe(probe);
    app_eval_ms[probe.name] = t.eval_ms;
    eval_ms.push_back(t.eval_ms);
    ser_us.push_back(t.serialize_us);
    de_us.push_back(t.deserialize_us);
  }
  const obs::HotPathRow* iterations = Span(p, "tuner.iteration");
  const double cache_hits =
      Counter(s, "cache.hits") + Counter(s, "cache.inflight_joins");
  const double cache_lookups = cache_hits + Counter(s, "cache.misses");

  std::vector<Metric> metrics = {
      {"b2c.compile_ms", TotalMs(p, "b2c.compile"), "ms"},
      {"tuner.iterations",
       iterations != nullptr ? static_cast<double>(iterations->count) : 0,
       "count"},
      {"tuner.iteration_self_ms", SelfMs(p, "tuner.iteration"), "ms"},
      {"merlin.apply_calls", Counter(s, "merlin.applies"), "count"},
      {"merlin.apply_self_ms", SelfMs(p, "merlin.apply"), "ms"},
      {"hls.estimate_calls", Counter(s, "hls.estimates"), "count"},
      {"hls.estimate_self_ms", SelfMs(p, "hls.estimate"), "ms"},
      {"dse.run_ms", TotalMs(p, "dse.run"), "ms"},
      {"dse.train_self_ms", SelfMs(p, "dse.train"), "ms"},
      {"dse.evaluations", Counter(s, "tuner.evaluations"), "count"},
      {"dse.partitions", Counter(s, "dse.partitions"), "count"},
      {"dse.reclaim_grants", Counter(s, "dse.sched.grants"), "count"},
      // Threads busy on average over the traced window: each thread's
      // extent from its first span to its last, summed, over the wall.
      {"dse.busy_threads", p.wall_us > 0 ? p.busy_us / p.wall_us : 0,
       "threads"},
      {"dse.qor_geomean_us", from_run("dse.qor_geomean_us"), "us"},
      {"cache.hit_frac", cache_lookups > 0 ? cache_hits / cache_lookups : 0,
       "fraction"},
      {"resilience.retries", Counter(s, "resilience.retries"), "count"},
      {"resilience.failures", Counter(s, "resilience.exhausted"), "count"},
  };
  for (const char* app : kProbedApps) {
    metrics.push_back({std::string("kir.") + app + ".eval_ms",
                       app_eval_ms.contains(app) ? app_eval_ms[app] : 0, "ms"});
  }
  const std::vector<Metric> runtime = {
      {"kir.eval_ms_geomean", GeoMean(eval_ms), "ms"},
      {"blaze.serialize_us_geomean", GeoMean(ser_us), "us"},
      {"blaze.deserialize_us_geomean", GeoMean(de_us), "us"},
      {"blaze.map_self_ms", SelfMs(p, "blaze.map"), "ms"},
      {"blaze.reduce_self_ms", SelfMs(p, "blaze.reduce"), "ms"},
      {"blaze.useful_row_frac", from_run("blaze.useful_row_frac"), "fraction"},
      {"blaze.sim_p50_us", from_run("blaze.sim_p50_us"), "us"},
      {"blaze.sim_p90_us", from_run("blaze.sim_p90_us"), "us"},
      {"svc.drain_self_ms", SelfMs(p, "blaze.svc.drain"), "ms"},
      {"svc.request_self_ms", SelfMs(p, "blaze.svc.request"), "ms"},
      {"cluster.drain_self_ms", SelfMs(p, "blaze.cluster.drain"), "ms"},
      {"cluster.host_exec_self_ms", SelfMs(p, "blaze.cluster.host_exec"),
       "ms"},
      {"stream.run_self_ms", SelfMs(p, "blaze.stream.run"), "ms"},
  };
  metrics.insert(metrics.end(), runtime.begin(), runtime.end());
  const std::pair<const char*, const char*> stats[] = {
      {"cluster.batches", "count"},
      {"cluster.mean_batch", "count"},
      {"cluster.failovers", "count"},
      {"cluster.redirects", "count"},
      {"cluster.bisect_attempts", "count"},
      {"cluster.hedges_launched", "count"},
      {"cluster.commit_conflicts", "count"},
      {"cluster.max_queue_depth", "count"},
      {"stream.batches_closed", "count"},
      {"stream.close_count", "count"},
      {"stream.close_age", "count"},
      {"stream.close_deadline", "count"},
      {"stream.batches_host", "count"},
      {"stream.batches_shed", "count"},
      {"stream.codel_engagements", "count"},
      {"stream.retries_granted", "count"},
      {"stream.retries_denied", "count"},
      {"stream.shed_unmeetable", "count"},
      {"stream.shed_brownout", "count"},
      {"stream.shed_retry_budget", "count"},
      {"stream.max_queue_delay_us", "us"},
  };
  for (const auto& [name, unit] : stats) {
    metrics.push_back({name, from_run(name), unit});
  }
  // Shares of host wall time. The DSE runs in Setup for the serving
  // workloads, so its base is the whole traced window; kernels only run in
  // Run.
  metrics.push_back({"layer.dse_frac",
                     TotalMs(p, "dse.run") / 1e3 /
                         (traced.setup_wall_s + traced.rep_wall_s),
                     "fraction"});
  metrics.push_back({"layer.kernel_frac",
                     (SelfMs(p, "blaze.map") + SelfMs(p, "blaze.reduce")) /
                         1e3 / traced.rep_wall_s,
                     "fraction"});
  return metrics;
}

}  // namespace s2fa::e2e
