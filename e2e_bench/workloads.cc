#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <thread>
#include <tuple>
#include <utility>

#include "apps/app.h"
#include "blaze/stream.h"
#include "harness.h"
#include "jvm/assembler.h"
#include "s2fa/framework.h"
#include "support/error.h"
#include "support/rng.h"

namespace s2fa::e2e {
namespace {

// The paper's DSE setup: 240 simulated minutes on 8 simulated cores. The
// DSE's results do not depend on `exec_threads`.
FrameworkOptions PaperDse(std::uint64_t seed, int exec_threads,
                          double minutes = 240) {
  FrameworkOptions options;
  options.dse.time_limit_minutes = minutes;
  options.dse.num_cores = 8;
  options.dse.seed = seed;
  options.dse.exec_threads = exec_threads;
  return options;
}

// explore8 explores on min(4, nproc) partition threads rather than the
// library's default of one per simulated core, so it never asks for more
// cores than the host has.
int ExploreThreads() {
  return static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1U, 4U));
}

// Serving workloads build their designs with a fixed DSE seed, so the seed a
// run is given picks its inputs, not the program under test. They build on
// one partition thread: with four, a set-up's speed follows how many cores
// other tenants leave free, which the one-thread host-speed probe cannot
// see (stream_chaos setup_s spread 25% over ten seeds on a busy host).
FrameworkOptions ServingDse() { return PaperDse(2018, 1); }

blaze::Dataset RunKernel(blaze::BlazeRuntime& runtime, const std::string& id,
                         const blaze::Dataset& input,
                         const blaze::Dataset* broadcast) {
  return runtime.manager().Get(id).design.pattern ==
                 kir::ParallelPattern::kReduce
             ? runtime.Reduce(id, input, broadcast)
             : runtime.Map(id, input, broadcast);
}

// One full accelerator batch of an app's inputs with its broadcast and
// native reference: what the kernel-layer probes and design checks run.
struct AppBatch {
  blaze::Dataset input;
  blaze::Dataset broadcast;
  bool has_broadcast = false;
  blaze::Dataset reference;

  AppBatch(const apps::App& app, Rng& rng) {
    input = app.make_input(static_cast<std::size_t>(app.spec.batch), rng);
    if (app.make_broadcast) {
      broadcast = app.make_broadcast(rng);
      has_broadcast = true;
    }
    reference = app.reference(input, bc());
  }
  const blaze::Dataset* bc() const {
    return has_broadcast ? &broadcast : nullptr;
  }
};

// Assigns `count` units to `groups` round-robin, each round in a seeded
// order: every group recurs once per `groups` units.
std::vector<std::size_t> ShuffledRoundRobin(std::size_t count,
                                            std::size_t groups, Rng& rng) {
  std::vector<std::size_t> order;
  std::vector<std::size_t> round(groups);
  while (order.size() < count) {
    for (std::size_t g = 0; g < groups; ++g) round[g] = g;
    for (std::size_t g = groups; g > 1; --g) {
      std::swap(round[g - 1], round[rng.NextBounded(g)]);
    }
    for (std::size_t g = 0; g < groups && order.size() < count; ++g) {
      order.push_back(round[g]);
    }
  }
  return order;
}

// Live rows per kernel dispatch, keyed by (lane, time, batch): the members
// of one dispatch share its lane and time, and it runs whole batches.
using Dispatches =
    std::map<std::tuple<std::string, double, std::size_t>, std::size_t>;

// Live rows over dispatched accelerator tasks.
double UsefulRowFrac(const Dispatches& dispatches) {
  double rows = 0, tasks = 0;
  for (const auto& [key, live] : dispatches) {
    const auto batch = static_cast<double>(std::get<2>(key));
    rows += static_cast<double>(live);
    tasks += std::ceil(static_cast<double>(live) / batch) * batch;
  }
  return tasks > 0 ? rows / tasks : 0;
}

// Modeled latency of the served rows: the median and p90, the highest
// quantile with at least ten samples beyond it in every serving workload.
void AddSimLatency(const std::vector<double>& latencies_us,
                   std::map<std::string, double>& out) {
  out["blaze.sim_p50_us"] = Quantile(latencies_us, 0.5);
  out["blaze.sim_p90_us"] = Quantile(latencies_us, 0.9);
}

void AddClusterCounters(const blaze::ClusterStats& s,
                        std::map<std::string, double>& out) {
  out["cluster.batches"] = static_cast<double>(s.batches);
  out["cluster.mean_batch"] =
      s.batches > 0 ? static_cast<double>(s.batched_requests) /
                          static_cast<double>(s.batches)
                    : 0;
  out["cluster.failovers"] = static_cast<double>(s.failovers);
  out["cluster.redirects"] = static_cast<double>(s.redirects);
  out["cluster.bisect_attempts"] = static_cast<double>(s.bisect_attempts);
  out["cluster.hedges_launched"] = static_cast<double>(s.hedges_launched);
  out["cluster.commit_conflicts"] = static_cast<double>(s.commit_conflicts);
  out["cluster.max_queue_depth"] = static_cast<double>(s.max_queue_depth);
}

void AddStreamCounters(const blaze::StreamStats& s,
                       std::map<std::string, double>& out) {
  out["stream.batches_closed"] = static_cast<double>(s.batches_closed);
  out["stream.close_count"] = static_cast<double>(s.close_count);
  out["stream.close_age"] = static_cast<double>(s.close_age);
  out["stream.close_deadline"] = static_cast<double>(s.close_deadline);
  out["stream.batches_host"] = static_cast<double>(s.batches_host);
  out["stream.batches_shed"] = static_cast<double>(s.batches_shed);
  out["stream.codel_engagements"] = static_cast<double>(s.codel_engagements);
  out["stream.retries_granted"] = static_cast<double>(s.retries_granted);
  out["stream.retries_denied"] = static_cast<double>(s.retries_denied);
  out["stream.shed_unmeetable"] = static_cast<double>(s.shed_unmeetable);
  out["stream.shed_brownout"] = static_cast<double>(s.shed_brownout);
  out["stream.shed_retry_budget"] = static_cast<double>(s.shed_retry_budget);
  out["stream.max_queue_delay_us"] = s.max_queue_delay_us;
}

void HashStreamOutcome(const blaze::StreamRecordOutcome& o, CanonHash& hash) {
  hash.Add(static_cast<std::uint64_t>(o.seq));
  hash.Add(o.tenant);
  hash.Add(static_cast<std::uint64_t>(o.outcome));
  hash.Add(static_cast<std::uint64_t>(o.retries));
  hash.Add(o.arrival_us);
  hash.Add(o.terminal_us);
  hash.Add(o.external_commit_us);
  hash.Add(o.latency_us);
  hash.Add(o.output);
}

// ---------------------------------------------------------------- explore8

// Every paper app explored from two consecutive DSE seeds with the paper's
// setup: the time-to-design flow. Two seeds, not eight, keep a rep near
// 0.3 s: the host-speed probe taken before a rep tracks a short rep far
// better than a 1.2 s one (run-to-run spread 4-6% against 10-20%).
class Explore8 : public Workload {
 public:
  Explore8(std::uint64_t seed, bool quick)
      : seeds_(quick ? 1 : 2), minutes_(quick ? 60 : 240) {
    Rng rng(seed);
    apps_ = apps::AllApps();
    for (const apps::App& app : apps_) batches_.emplace_back(app, rng);
    for (std::size_t a = 0; a < apps_.size(); ++a) {
      for (std::uint64_t s = 0; s < seeds_; ++s) {
        pairs_.push_back({a, seed + s});
      }
    }
  }

  // Loads the apps' bytecode and kernel specs: the flow's input.
  void Setup() override { apps_ = apps::AllApps(); }

  void Run(double*) override {
    results_.assign(pairs_.size(), Result{});
    designs_.clear();
    designs_.resize(apps_.size());
    for (std::size_t i = 0; i < pairs_.size(); ++i) {
      const auto [a, dse_seed] = pairs_[i];
      const double start = NowSeconds();
      Result& r = results_[i];
      try {
        Artifact artifact = BuildAccelerator(
            *apps_[a].pool, apps_[a].spec,
            PaperDse(dse_seed, ExploreThreads(), minutes_));
        r.ok = true;
        r.exploration = std::move(artifact.exploration);
        r.exec_us = artifact.best_hls.exec_us;
        if (designs_[a] == nullptr) {
          artifact.exploration = {};
          designs_[a] = std::make_unique<Artifact>(std::move(artifact));
        }
      } catch (const std::exception& e) {
        r.error = e.what();
      }
      r.ms = (NowSeconds() - start) * 1e3;
    }
  }

  RepCheck Check() override {
    if (verified_.manager().size() == 0) VerifyDesigns();
    RepCheck check;
    CanonHash hash;
    std::vector<double> exec_us;
    for (const Result& r : results_) {
      const dse::DseResult& x = r.exploration;
      ++check.attempted;
      check.unit_ms.push_back(r.ms);
      hash.Add(static_cast<std::uint64_t>(r.ok));
      if (!r.ok) {
        ++check.failed;
        continue;
      }
      hash.Add(x.best_config.ToString());
      hash.Add(x.best_cost);
      hash.Add(x.elapsed_minutes);
      hash.Add(static_cast<std::uint64_t>(x.evaluations));
      hash.Add(r.exec_us);
      exec_us.push_back(r.exec_us);
    }
    check.failed += design_mismatches_;
    check.hash = hash.value();
    // Design quality over every exploration: one DSE seed can move an app's
    // best design severalfold, so no per-app summary is steady.
    check.layer["dse.qor_geomean_us"] = GeoMean(exec_us);
    check.goodput_frac =
        static_cast<double>(check.attempted - check.failed) /
        static_cast<double>(check.attempted);
    return check;
  }

  // The first-seed best designs; S-W's 256-task batch costs seconds per
  // probe, so the kernel layer leaves it out here as the serving
  // workloads do.
  std::vector<KernelProbe> Probes() const override {
    std::vector<KernelProbe> probes;
    for (std::size_t a = 0; a < apps_.size(); ++a) {
      const std::string& name = apps_[a].name;
      if (name == "S-W" || !verified_.manager().Has(name)) continue;
      probes.push_back({name, &verified_.manager().Get(name),
                        &batches_[a].input, batches_[a].bc()});
    }
    return probes;
  }

 private:
  struct Result {
    bool ok = false;
    std::string error;
    dse::DseResult exploration;
    double exec_us = 0;
    double ms = 0;
  };

  // Runs one full batch through each app's first-seed best design and
  // compares it with the app's native reference, once per invocation.
  void VerifyDesigns() {
    for (std::size_t a = 0; a < apps_.size(); ++a) {
      if (designs_[a] == nullptr) continue;  // already counted as failed
      const std::string& name = apps_[a].name;
      RegisterWithBlaze(verified_, name, *designs_[a]);
      const blaze::Dataset out =
          RunKernel(verified_, name, batches_[a].input, batches_[a].bc());
      if (!MatchesReference(out, batches_[a].reference)) {
        ++design_mismatches_;
      }
    }
  }

  std::uint64_t seeds_;
  double minutes_;
  std::vector<apps::App> apps_;
  std::vector<AppBatch> batches_;
  std::vector<std::pair<std::size_t, std::uint64_t>> pairs_;
  std::vector<Result> results_;
  std::vector<std::unique_ptr<Artifact>> designs_;
  blaze::BlazeRuntime verified_;  // holds the designs VerifyDesigns checked
  std::size_t design_mismatches_ = 0;
};

// ------------------------------------------------------------ serving apps

// The paper apps the serving workloads run: all but S-W, whose 256-task
// batch alone costs seconds of host time per invocation.
std::vector<apps::App> ServingApps() {
  std::vector<apps::App> served;
  for (apps::App& app : apps::AllApps()) {
    if (app.name != "S-W") served.push_back(std::move(app));
  }
  return served;
}

// One row-set of one app with its native reference.
struct Unit {
  std::size_t app = 0;
  blaze::Dataset input;
  blaze::Dataset reference;
};

// Shared by the two multi-app serving workloads: the apps, their seeded
// broadcasts and probe batches, and the runtime with every design
// registered as replicas "<app>#0" (shard 0) and "<app>#1" (shard 1).
class MultiAppServing : public Workload {
 public:
  MultiAppServing(std::uint64_t seed, std::size_t units, bool full_batches)
      : apps_(ServingApps()) {
    Rng rng(seed);
    for (const apps::App& app : apps_) batches_.emplace_back(app, rng);
    for (std::size_t app : ShuffledRoundRobin(units, apps_.size(), rng)) {
      const apps::App& a = apps_[app];
      const auto batch = static_cast<std::size_t>(a.spec.batch);
      // A reduce request never shares a dispatch, so a full-batch one
      // fills its invocation; map requests fill one in eighths.
      const std::size_t rows =
          !full_batches ? 1
          : a.spec.pattern == kir::ParallelPattern::kReduce ? batch
                                                             : batch / 8;
      Unit unit;
      unit.app = app;
      unit.input = a.make_input(rows, rng);
      unit.reference = a.reference(unit.input, batches_[app].bc());
      units_.push_back(std::move(unit));
    }
  }

  void Setup() override {
    runtime_ = std::make_unique<blaze::BlazeRuntime>();
    for (const apps::App& app : apps_) {
      const Artifact artifact =
          BuildAccelerator(*app.pool, app.spec, ServingDse());
      for (int r = 0; r < 2; ++r) {
        RegisterWithBlaze(*runtime_, app.name + "#" + std::to_string(r),
                          artifact);
      }
    }
  }

  std::vector<KernelProbe> Probes() const override {
    std::vector<KernelProbe> probes;
    for (std::size_t a = 0; a < apps_.size(); ++a) {
      probes.push_back({apps_[a].name,
                        &runtime_->manager().Get(apps_[a].name + "#0"),
                        &batches_[a].input, batches_[a].bc()});
    }
    return probes;
  }

 protected:
  blaze::BlazeCluster MakeCluster(blaze::ClusterOptions options) {
    options.exec_threads = 1;
    blaze::BlazeCluster cluster(*runtime_, options);
    for (int s = 0; s < 2; ++s) cluster.AddShard();
    for (const apps::App& app : apps_) {
      for (std::size_t s = 0; s < 2; ++s) {
        cluster.AddReplica(s, app.name, app.name + "#" + std::to_string(s));
      }
    }
    return cluster;
  }

  // Modeled time of one invocation of the slowest served kernel.
  double SlowestInvocationUs() const {
    double slowest = 0;
    for (const apps::App& app : apps_) {
      slowest = std::max(
          slowest, runtime_->PerInvocationCost(app.name + "#0").total_us);
    }
    return slowest;
  }

  std::size_t BatchOf(const Unit& unit) const {
    return static_cast<std::size_t>(apps_[unit.app].spec.batch);
  }

  std::vector<apps::App> apps_;
  std::vector<AppBatch> batches_;
  std::vector<Unit> units_;
  std::unique_ptr<blaze::BlazeRuntime> runtime_;
};

// ---------------------------------------------------------- stream_partial

// One-row records of seven apps streamed through StreamSession at a rate
// where every map batch closes on its 8-record count and nothing queues:
// each map invocation runs a full accelerator batch for 8 live rows. 16
// records per app (two map batches each) keep a rep near 0.5 s, short
// enough for the host-speed probe to track.
class StreamPartial : public MultiAppServing {
 public:
  StreamPartial(std::uint64_t seed, bool quick)
      : MultiAppServing(seed, quick ? 28 : 112, false) {}

  void Run(double* generator_s) override {
    outs_ = {};
    blaze::ClusterOptions coptions;
    coptions.queue_capacity = std::size_t{1} << 20;
    blaze::BlazeCluster cluster = MakeCluster(coptions);
    // One arrival per half of the slowest invocation keeps every lane
    // mostly idle; a map batch fills in about 8 * apps arrivals.
    const double inter_us = SlowestInvocationUs() / 2;
    const double fill_us = inter_us * 8 * static_cast<double>(apps_.size());
    blaze::StreamOptions options;
    options.batch_max_records = 8;
    options.batch_age_us = 4 * fill_us;
    options.slo_us = 8 * fill_us;
    options.deadline_headroom_us = fill_us;
    options.codel_target_us = options.codel_interval_us = options.slo_us;
    options.brownout_onset_us = options.slo_us;
    options.shed_onset_us = 2 * options.slo_us;
    slo_us_ = options.slo_us;

    blaze::ArrivalSchedule schedule;
    schedule.phases.push_back(
        {"default", 0, inter_us * static_cast<double>(units_.size()),
         units_.size()});
    blaze::StreamSession session(cluster, options);
    outs_ = session.Run(schedule, [&](std::size_t ordinal) {
      const double start = generator_s != nullptr ? NowSeconds() : 0;
      const Unit& unit = units_[ordinal];
      blaze::StreamRecord record{apps_[unit.app].name, unit.input,
                                 batches_[unit.app].bc()};
      if (generator_s != nullptr) *generator_s += NowSeconds() - start;
      return record;
    });
    stream_stats_ = session.stats();
    cluster_stats_ = cluster.stats();
  }

  RepCheck Check() override {
    RepCheck check;
    check.attempted = units_.size();
    if (outs_.size() != units_.size()) {
      check.failed = units_.size();
      return check;
    }
    CanonHash hash;
    Dispatches dispatches;
    std::size_t good = 0;
    for (const blaze::StreamRecordOutcome& o : outs_) {
      HashStreamOutcome(o, hash);
      if (blaze::IsStreamShed(o.outcome)) continue;
      const Unit& unit = units_[o.seq];
      if (!MatchesReference(o.output, unit.reference)) {
        ++check.failed;
        continue;
      }
      ++dispatches[{apps_[unit.app].name, o.terminal_us, BatchOf(unit)}];
      if (o.latency_us <= slo_us_) ++good;
    }
    check.hash = hash.value();
    check.goodput_frac =
        static_cast<double>(good) / static_cast<double>(check.attempted);
    check.layer["blaze.useful_row_frac"] = UsefulRowFrac(dispatches);
    AddSimLatency(stream_stats_.latencies_us, check.layer);
    AddClusterCounters(cluster_stats_, check.layer);
    AddStreamCounters(stream_stats_, check.layer);
    return check;
  }

 private:
  double slo_us_ = 0;
  std::vector<blaze::StreamRecordOutcome> outs_;
  blaze::StreamStats stream_stats_;
  blaze::ClusterStats cluster_stats_;
};

// ------------------------------------------------------------ cluster_full

// Pre-staged BlazeCluster requests, one tenant per app, each map request an
// eighth of a batch: micro-batching packs eight of them into one full
// invocation, so almost every dispatched task is a live row.
class ClusterFull : public MultiAppServing {
 public:
  // Sixteen requests per app: every map app fills exactly two batches.
  ClusterFull(std::uint64_t seed, bool quick)
      : MultiAppServing(seed, quick ? 56 : 112, true) {
    Rng rng(seed ^ 0xA77A1ULL);
    for (std::size_t i = 0; i < units_.size(); ++i) {
      spacing_.push_back(rng.NextDouble(0.5, 1.5));
    }
  }

  void Run(double*) override {
    outs_ = {};
    // Arrivals every half of the slowest invocation on average; the batch
    // window outlasts the slowest fill of eight same-app requests.
    const double inter_us = SlowestInvocationUs() / 2;
    blaze::ClusterOptions options;
    options.queue_capacity = units_.size() + 1;
    options.batch_max_requests = 8;
    options.batch_window_us =
        inter_us * 1.5 * 10 * static_cast<double>(apps_.size());
    blaze::BlazeCluster cluster = MakeCluster(options);
    for (const apps::App& app : apps_) cluster.AddTenant(app.name, 1.0, 0);

    std::vector<blaze::ClusterRequest> requests;
    requests.reserve(units_.size());
    double arrival_us = 0;
    for (std::size_t i = 0; i < units_.size(); ++i) {
      const Unit& unit = units_[i];
      const std::string& name = apps_[unit.app].name;
      requests.push_back({name, unit.input, batches_[unit.app].bc(),
                          arrival_us, name});
      arrival_us += inter_us * spacing_[i];
    }
    outs_ = cluster.Run(std::move(requests));
    cluster_stats_ = cluster.stats();
  }

  RepCheck Check() override {
    RepCheck check;
    for (const Unit& unit : units_) check.attempted += unit.input.num_records();
    if (outs_.size() != units_.size()) {
      check.failed = check.attempted;
      return check;
    }
    CanonHash hash;
    Dispatches dispatches;
    std::size_t good_rows = 0;
    std::vector<double> latencies;
    for (std::size_t i = 0; i < outs_.size(); ++i) {
      const blaze::ClusterRequestOutcome& o = outs_[i];
      const Unit& unit = units_[i];
      const std::size_t rows = unit.input.num_records();
      hash.Add(static_cast<std::uint64_t>(o.outcome));
      hash.Add(static_cast<std::uint64_t>(o.shard));
      hash.Add(o.replica);
      hash.Add(static_cast<std::uint64_t>(o.batch_size));
      hash.Add(o.dispatch_us);
      hash.Add(o.complete_us);
      hash.Add(o.output);
      if (o.outcome == blaze::ClusterServe::kRejectedFull ||
          o.outcome == blaze::ClusterServe::kTenantThrottled) {
        continue;
      }
      if (!MatchesReference(o.output, unit.reference)) {
        check.failed += rows;
        continue;
      }
      good_rows += rows;
      latencies.push_back(o.latency_us);
      dispatches[{o.replica, o.dispatch_us, BatchOf(unit)}] += rows;
    }
    check.hash = hash.value();
    check.goodput_frac = static_cast<double>(good_rows) /
                         static_cast<double>(check.attempted);
    check.layer["blaze.useful_row_frac"] = UsefulRowFrac(dispatches);
    AddSimLatency(latencies, check.layer);
    AddClusterCounters(cluster_stats_, check.layer);
    return check;
  }

 private:
  std::vector<double> spacing_;
  std::vector<blaze::ClusterRequestOutcome> outs_;
  blaze::ClusterStats cluster_stats_;
};

// ------------------------------------------------------------ stream_chaos

jvm::ClassPool DoublerPool() {
  jvm::ClassPool pool;
  jvm::Assembler a;
  a.Load(jvm::Type::Double(), 0).DConst(2.0).DMul().Ret(jvm::Type::Double());
  jvm::MethodSignature sig;
  sig.params = {jvm::Type::Double()};
  sig.ret = jvm::Type::Double();
  pool.Define("Doubler").AddMethod(
      jvm::MakeMethod("call", sig, true, 2, a.Finish()));
  return pool;
}

b2c::FieldSpec DoubleField(const std::string& name) {
  b2c::FieldSpec field;
  field.name = name;
  field.element = jvm::Type::Double();
  return field;
}

b2c::KernelSpec DoublerSpec() {
  b2c::KernelSpec spec;
  spec.kernel_name = "doubler";
  spec.klass = "Doubler";
  spec.input.type = jvm::Type::Double();
  spec.input.fields = {DoubleField("x")};
  spec.output.type = jvm::Type::Double();
  spec.output.fields = {DoubleField("y")};
  spec.batch = 8;
  return spec;
}

blaze::Dataset DoublerRows(const std::vector<double>& xs) {
  blaze::Column x;
  x.field = "x";
  x.element = jvm::Type::Double();
  for (double v : xs) x.data.push_back(jvm::Value::OfDouble(v));
  blaze::Dataset data;
  data.AddColumn(std::move(x));
  return data;
}

// A cheap kernel streamed by two tenants through 0.5x -> 2x -> 0.5x of
// capacity while one shard is killed and restarted and a latency spike
// hits mid-stream: the event loop and every overload-ladder rung run. The
// seed picks the record values only. The schedule and chaos plan are fixed,
// so every record's modeled fate, and goodput_frac with it, is the same for
// every seed and can be held to an exact bound.
class StreamChaos : public Workload {
 public:
  static constexpr int kLanes = 4;

  StreamChaos(std::uint64_t seed, bool quick)
      : pool_(DoublerPool()), count_(quick ? 4000 : 200000) {
    Rng rng(seed);
    for (std::size_t i = 0; i < count_; ++i) {
      xs_.push_back(rng.NextDouble(-1e6, 1e6));
    }
    probe_input_ = DoublerRows({xs_.begin(), xs_.begin() + 8});
  }

  void Setup() override {
    runtime_ = std::make_unique<blaze::BlazeRuntime>();
    const Artifact artifact =
        BuildAccelerator(pool_, DoublerSpec(), ServingDse());
    for (int r = 0; r < kLanes; ++r) {
      RegisterWithBlaze(*runtime_, "r" + std::to_string(r), artifact);
    }
  }

  void Run(double* generator_s) override {
    outs_ = {};
    stream_stats_ = {};
    blaze::ClusterOptions coptions;
    coptions.exec_threads = 1;
    coptions.queue_capacity = std::size_t{1} << 20;
    blaze::BlazeCluster cluster(*runtime_, coptions);
    for (int s = 0; s < 2; ++s) cluster.AddShard();
    for (int r = 0; r < kLanes; ++r) {
      cluster.AddReplica(static_cast<std::size_t>(r % 2), "doubler",
                         "r" + std::to_string(r));
    }
    const double inv_us = runtime_->PerInvocationCost("r0").total_us;

    // Quarter of the records at 0.5x, half at 2x, a quarter at 0.5x; both
    // tenants stream every segment at half its rate.
    const double capacity_inter_us = inv_us / 8.0 / kLanes;
    blaze::ArrivalSchedule schedule;
    double t = 0;
    const std::pair<double, double> segments[] = {
        {0.25, 0.5}, {0.5, 2.0}, {0.25, 0.5}};
    std::size_t placed = 0;
    for (std::size_t s = 0; s < 3; ++s) {
      const auto [share, load] = segments[s];
      const std::size_t n =
          s == 2 ? count_ - placed
                 : static_cast<std::size_t>(share *
                                            static_cast<double>(count_));
      const double duration = static_cast<double>(n) * capacity_inter_us / load;
      schedule.phases.push_back({"gold", t, duration, n / 2});
      schedule.phases.push_back({"bronze", t, duration, n - n / 2});
      placed += n;
      t += duration;
    }
    std::ostringstream plan;
    plan << "kill 0 @ " << t * 0.3 << "; restart 0 @ " << t * 0.6
         << "; spike 2.5 @ " << t * 0.45 << " + " << t * 0.1;
    cluster.SetChaosPlan(blaze::ParseChaosPlan(plan.str()));

    blaze::StreamOptions options;
    options.batch_max_records = 8;
    options.batch_age_us = 2 * inv_us;
    options.slo_us = 50 * inv_us;
    options.deadline_headroom_us = inv_us;
    options.codel_target_us = 5 * inv_us;
    options.codel_interval_us = 5 * inv_us;
    options.brownout_onset_us = 10 * inv_us;
    options.shed_onset_us = 20 * inv_us;
    slo_us_ = options.slo_us;

    blaze::StreamSession session(cluster, options);
    outs_ = session.Run(schedule, [&](std::size_t ordinal) {
      const double start = generator_s != nullptr ? NowSeconds() : 0;
      blaze::StreamRecord record{"doubler", DoublerRows({xs_[ordinal]}),
                                 nullptr};
      if (generator_s != nullptr) *generator_s += NowSeconds() - start;
      return record;
    });
    stream_stats_ = session.stats();
    cluster_stats_ = cluster.stats();
  }

  RepCheck Check() override {
    RepCheck check;
    CanonHash hash;
    Dispatches dispatches;
    std::size_t good = 0;
    check.attempted = count_;
    const blaze::StreamStats& s = stream_stats_;
    // Every record needs exactly one terminal state.
    if (outs_.size() != count_ || s.arrivals != count_ ||
        s.committed + s.committed_host + s.shed_total() != count_) {
      check.failed = count_;
      return check;
    }
    for (const blaze::StreamRecordOutcome& o : outs_) {
      HashStreamOutcome(o, hash);
      if (blaze::IsStreamShed(o.outcome)) continue;
      if (o.output.num_records() != 1 ||
          o.output.ColumnByField("y").data[0].AsDouble() != 2 * xs_[o.seq]) {
        ++check.failed;
        continue;
      }
      ++dispatches[{"doubler", o.terminal_us, 8}];
      if (o.latency_us <= slo_us_) ++good;
    }
    check.hash = hash.value();
    check.goodput_frac =
        static_cast<double>(good) / static_cast<double>(count_);
    check.layer["blaze.useful_row_frac"] = UsefulRowFrac(dispatches);
    AddSimLatency(s.latencies_us, check.layer);
    AddClusterCounters(cluster_stats_, check.layer);
    AddStreamCounters(s, check.layer);
    return check;
  }

  std::vector<KernelProbe> Probes() const override {
    return {{"doubler", &runtime_->manager().Get("r0"), &probe_input_,
             nullptr}};
  }

 private:
  jvm::ClassPool pool_;
  std::size_t count_;
  std::vector<double> xs_;
  blaze::Dataset probe_input_;
  std::unique_ptr<blaze::BlazeRuntime> runtime_;
  double slo_us_ = 0;
  std::vector<blaze::StreamRecordOutcome> outs_;
  blaze::StreamStats stream_stats_;
  blaze::ClusterStats cluster_stats_;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "explore8", "stream_partial", "cluster_full", "stream_chaos"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed, bool quick) {
  if (name == "explore8") return std::make_unique<Explore8>(seed, quick);
  if (name == "stream_partial") {
    return std::make_unique<StreamPartial>(seed, quick);
  }
  if (name == "cluster_full") return std::make_unique<ClusterFull>(seed, quick);
  if (name == "stream_chaos") return std::make_unique<StreamChaos>(seed, quick);
  throw InvalidArgument("unknown workload " + name);
}

}  // namespace s2fa::e2e
