// s2fa — command-line driver for the framework.
//
// Every flag is one row of the knob table below: its environment mirror,
// the commands that take it, its parser and range check, its default and
// its help line. One resolver applies the table (environment first, a flag
// wins; a malformed value, an unknown flag or a missing value exits 2), and
// the usage text printed by a bare `s2fa` is rendered from it.
#include <algorithm>
#include <charconv>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "apps/app.h"
#include "apps/jvm_baseline.h"
#include "blaze/cluster.h"
#include "blaze/runtime.h"
#include "blaze/stream.h"
#include "kir/printer.h"
#include "obs/export.h"
#include "obs/ledger.h"
#include "obs/obs.h"
#include "obs/profile.h"
#include "resilience/evaluator.h"
#include "tuner/technique.h"
#include "s2fa/framework.h"
#include "support/error.h"
#include "support/logging.h"
#include "support/strings.h"
#include "support/table.h"

using namespace s2fa;

namespace {

// ------------------------------------------------------------ value parsers

// Strict number parser: the whole text must be the number. Integers take
// no sign and no fraction and reject overflow; doubles must be finite.
template <typename T>
std::optional<T> Parse(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  const bool ok = ec == std::errc() && ptr == end && !text.empty() &&
                  std::isfinite(static_cast<double>(value));
  return ok ? std::optional<T>(value) : std::nullopt;
}
constexpr auto ParseUint = Parse<std::uint64_t>;
constexpr auto ParseReal = Parse<double>;

struct TenantSpec {
  std::string name;
  double weight = 1.0;
  std::size_t quota = 0;
};

// NAME:WEIGHT[:QUOTA], comma-separated; rejects duplicates and weight <= 0.
std::optional<std::vector<TenantSpec>> ParseTenants(const std::string& text) {
  std::vector<TenantSpec> tenants;
  for (const std::string& entry : Split(text, ',')) {
    const std::vector<std::string> parts = Split(Trim(entry), ':');
    if (parts.size() < 2 || parts.size() > 3 || parts[0].empty()) {
      return std::nullopt;
    }
    auto weight = ParseReal(parts[1]);
    auto quota = parts.size() == 3 ? ParseUint(parts[2]) : std::uint64_t{0};
    if (!weight || *weight <= 0 || !quota) return std::nullopt;
    for (const TenantSpec& existing : tenants) {
      if (existing.name == parts[0]) return std::nullopt;
    }
    tenants.push_back({parts[0], *weight, static_cast<std::size_t>(*quota)});
  }
  return tenants;
}

// REFILL_PER_SEC:BURST with refill >= 0 and burst >= 1.
std::optional<resilience::RetryBudgetOptions> ParseRetryBudget(
    const std::string& text) {
  const std::vector<std::string> parts = Split(text, ':');
  if (parts.size() != 2) return std::nullopt;
  auto refill = ParseReal(parts[0]);
  auto burst = ParseReal(parts[1]);
  if (!refill || *refill < 0 || !burst || *burst < 1) return std::nullopt;
  return resilience::RetryBudgetOptions{*refill, *burst};
}

// ONSET_US:SHED_US[:MAX_FRACTION] with 0 < onset < shed and fraction in
// (0, 1] (default 0.5), as {onset, shed, fraction}.
std::optional<std::vector<double>> ParseBrownout(const std::string& text) {
  std::vector<double> values;
  for (const std::string& part : Split(text, ':')) {
    auto value = ParseReal(part);
    if (!value) return std::nullopt;
    values.push_back(*value);
  }
  if (values.size() == 2) values.push_back(0.5);
  const bool ok = values.size() == 3 && values[0] > 0 &&
                  values[1] > values[0] && values[2] > 0 && values[2] <= 1.0;
  return ok ? std::optional(values) : std::nullopt;
}

// A technique roster is valid independent of the design space it is built
// for, so a one-factor space checks the names.
void CheckTechniques(const std::string& text) {
  tuner::DesignSpace space;
  space.factors.push_back(
      {"L0.tile", tuner::FactorKind::kLoopTile, 0, "", {1}});
  tuner::MakeTechniques(&space, 0, tuner::ParseTechniqueList(text));
}

// ------------------------------------------------------------ knob table

// Returns "" when `text` is acceptable, else what the knob expects.
using Check = std::function<std::string(const std::string& text)>;

constexpr double kIntMax = INT_MAX;
constexpr double kNoMax = HUGE_VAL;

std::string Num(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.15g", value);
  return buf;
}

// A number in [lo, hi] (lo itself excluded when `open`). Integers parse
// with ParseUint, so a sign, a fraction or an overflow is rejected.
Check Number(bool integer, double lo, double hi, bool open = false) {
  return [=](const std::string& text) -> std::string {
    std::optional<double> value = ParseReal(text);
    if (integer && !ParseUint(text)) value.reset();
    if (value && (open ? *value > lo : *value >= lo) && *value <= hi) {
      return "";
    }
    const std::string what = integer ? "an integer " : "a number ";
    if (hi == kNoMax) return what + (open ? "> " : ">= ") + Num(lo);
    return what + "in [" + Num(lo) + ", " + Num(hi) + "]";
  };
}
Check Int(double lo, double hi = kNoMax) { return Number(true, lo, hi); }
Check Real(double lo, double hi = kNoMax) { return Number(false, lo, hi); }
Check Positive() { return Number(false, 0, kNoMax, true); }

// A library parser that rejects bad input with an empty result or an
// s2fa::Error, whose message then says why.
template <typename Fn>
Check Parses(Fn parse, std::string expects) {
  return [parse, expects](const std::string& text) -> std::string {
    try {
      if constexpr (std::is_constructible_v<bool, decltype(parse(text))>) {
        if (!parse(text)) return expects;
      } else {
        parse(text);
      }
      return "";
    } catch (const Error& e) {
      return expects + " (" + e.what() + ")";
    }
  };
}

// An output path, probed up front so a long run cannot lose its artifact
// at exit. The append-mode probe leaves an existing file untouched; an
// empty path means "off".
std::string Writable(const std::string& path) {
  if (path.empty() || std::ofstream(path, std::ios::app)) return "";
  return "a writable path";
}

// The commands, as bits of a knob's command set.
enum Cmd : unsigned {
  kList = 1, kCompile = 2, kExplore = 4, kRun = 8, kServe = 16, kReport = 32,
  kProfile = 64, kPerfDiff = 128, kAnyCmd = 255
};

struct Knob {
  const char* flag;     // without the leading "--"
  const char* metavar;  // nullptr: a switch that takes no value
  const char* env;      // environment mirror, or nullptr
  unsigned commands;    // Cmd bits
  std::string def;      // value when neither env nor flag sets it ("" = unset)
  Check check;          // validates a value set by env or flag
  const char* help;
};

const std::vector<Knob>& KnobTable() {
  const resilience::ResilienceOptions eval{};
  const blaze::ClusterOptions cluster{};
  static const std::vector<Knob> table = {
      {"trace-out", "FILE", nullptr, kAnyCmd, "", Writable,
       "write the span trace as JSONL (enables the obs layer)"},
      {"metrics-out", "FILE", nullptr, kAnyCmd, "", Writable,
       "write the aggregated metrics summary (enables the obs layer)"},
      {"log-level", "LEVEL", nullptr, kAnyCmd, "",
       Parses(ParseLogLevel, "0-4 or off|error|warn|info|debug"),
       "logger level"},
      {"minutes", "N", nullptr, kExplore, "240", Real(0),
       "simulated DSE budget in minutes"},
      {"minutes", "N", nullptr, kRun | kServe, "120", Real(0),
       "simulated DSE budget of the accelerator build"},
      {"minutes", "N", nullptr, kProfile, "30", Real(0),
       "simulated DSE budget of the profiled build"},
      {"cores", "N", nullptr, kExplore, "8", Int(1, kIntMax),
       "simulated cores the partitions share"},
      {"seed", "N", nullptr, kExplore, "2018", Int(0), "DSE seed"},
      {"seed", "N", nullptr, kRun | kServe | kProfile, "1", Int(0),
       "workload and DSE seed"},
      {"vanilla", nullptr, nullptr, kExplore, "", nullptr,
       "run the vanilla OpenTuner baseline instead of the S2FA DSE"},
      {"no-seeds", nullptr, nullptr, kExplore, "", nullptr,
       "drop the rule-based seed designs"},
      {"no-partition", nullptr, nullptr, kExplore, "", nullptr,
       "explore the design space as one partition"},
      {"eval-timeout", "MIN", "S2FA_EVAL_TIMEOUT", kExplore,
       Num(eval.deadline_minutes), Positive(),
       "per-point deadline in simulated minutes"},
      {"eval-retries", "N", "S2FA_EVAL_RETRIES", kExplore,
       std::to_string(eval.max_retries), Int(0, kIntMax),
       "retries per point before it degrades to infeasible"},
      {"resume-journal", "FILE", "S2FA_RESUME_JOURNAL", kExplore, "",
       Writable, "journal every evaluation; a rerun resumes from it"},
      {"fault-rate", "P", "S2FA_FAULT_RATE", kExplore, "0", Real(0, 1),
       "injected evaluator failure rate (crash/timeout/garbage)"},
      {"scheduler", "adaptive|fcfs", "S2FA_SCHEDULER", kExplore,
       dse::SchedulerKindName(dse::ExplorerOptions{}.scheduler),
       Parses(dse::ParseSchedulerKind, "adaptive|fcfs"),
       "partition scheduler"},
      {"techniques", "LIST", "S2FA_TECHNIQUES", kExplore, "bandit",
       Parses(CheckTechniques, "a technique roster"),
       "comma-separated arms: bandit|greedy|de|pso|sa|bottleneck"},
      {"records", "N", nullptr, kRun | kProfile, "2048", Int(1),
       "input records"},
      {"replicas", "N", nullptr, kServe, "2", Int(1, kIntMax),
       "accelerator replicas"},
      {"requests", "N", nullptr, kServe, "32", Int(1, kIntMax),
       "requests (records in --stream mode) replayed"},
      {"records", "N", nullptr, kServe, "256", Int(1),
       "input records per request"},
      {"serve-queue", "N", "S2FA_SERVE_QUEUE", kServe, "64", Int(1),
       "cluster admission queue capacity"},
      {"quarantine-window", "N", "S2FA_QUARANTINE_WINDOW", kServe,
       std::to_string(cluster.health_window), Int(2),
       "per-replica health sample window"},
      {"exec-threads", "N", nullptr, kServe,
       std::to_string(cluster.exec_threads), Int(1, kIntMax),
       "functional execution threads (outcomes do not depend on it)"},
      {"shards", "N", "S2FA_SHARDS", kServe, "1", Int(1),
       "cluster fault domains the replicas spread over"},
      {"tenants", "NAME:WEIGHT[:QUOTA],..", "S2FA_TENANTS", kServe, "",
       Parses(ParseTenants, "unique NAME:WEIGHT[:QUOTA] with WEIGHT > 0"),
       "weighted-fair tenants, assigned requests round-robin"},
      {"chaos-plan", "PLAN", "S2FA_CHAOS_PLAN", kServe, "",
       Parses(blaze::ParseChaosPlan, "a chaos plan"),
       "scripted fault schedule (grammar in blaze/chaos.h)"},
      {"stream", nullptr, "S2FA_STREAM", kServe, "", nullptr,
       "stream records through StreamSession (env: any value but 0)"},
      {"arrival-rate", "R", "S2FA_ARRIVAL_RATE", kServe, "1", Positive(),
       "stream arrival rate as a multiple of modeled capacity"},
      {"slo", "US", "S2FA_SLO", kServe, "", Positive(),
       "per-record SLO in simulated us (unset: 30x request cost)"},
      {"retry-budget", "REFILL:BURST", "S2FA_RETRY_BUDGET", kServe, "",
       Parses(ParseRetryBudget, "REFILL:BURST, REFILL >= 0, BURST >= 1"),
       "per-tenant retry token bucket"},
      {"brownout", "ONSET:SHED[:FRAC]", "S2FA_BROWNOUT", kServe, "",
       Parses(ParseBrownout, "ONSET:SHED[:FRAC], 0<ONSET<SHED, 0<FRAC<=1"),
       "overload-ladder thresholds in us (unset: derived)"},
      {"top", "N", nullptr, kProfile, "20", Int(0),
       "rows in the hot-path table (0 = all)"},
      {"profile-out", "FILE", "S2FA_PROFILE_OUT", kProfile, "", Writable,
       "dump the spans as a Chrome trace-event file"},
      {"threshold", "P", "S2FA_PERF_THRESHOLD", kPerfDiff,
       Num(obs::kDefaultPerfThreshold), Real(0),
       "regression threshold as a fraction (0.1 = 10%)"},
  };
  return table;
}

// The row for `flag` under `cmds`; a name has the same arity everywhere.
const Knob* FindKnob(const std::string& flag, unsigned cmds) {
  for (const Knob& knob : KnobTable()) {
    if (flag == knob.flag && (knob.commands & cmds) != 0) return &knob;
  }
  return nullptr;
}

struct Command;

// The knob values one command runs with: flag text, else environment text,
// else the row default. Empty values are unset; every value set by a flag
// or the environment has passed its row's check.
struct Knobs {
  const Command* cmd = nullptr;
  std::vector<std::string> positional;  // [0] is the command name
  std::map<std::string, std::string> values;

  bool Has(const std::string& flag) const { return values.count(flag) != 0; }
  const std::string& Str(const std::string& flag) const {
    static const std::string kUnset;
    auto it = values.find(flag);
    return it == values.end() ? kUnset : it->second;
  }
  double Real(const std::string& f) const { return ParseReal(Str(f)).value(); }
  std::uint64_t Uint(const std::string& f) const {
    return ParseUint(Str(f)).value();
  }
  int Int(const std::string& f) const { return static_cast<int>(Uint(f)); }
};

// ------------------------------------------------------------ commands

int CmdReport(const Knobs& knobs) {
  const std::string& path = knobs.positional[1];
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    return 1;
  }
  std::ostringstream text;
  text << in.rdbuf();
  obs::Summary summary = obs::ParseSummaryJson(text.str());
  std::printf("%s", obs::RenderSummaryTable(summary).c_str());
  return 0;
}

int CmdList(const Knobs&) {
  TextTable table({"App", "Type", "Pattern", "Batch", "Loops", "Space"});
  for (apps::App& app : apps::AllApps()) {
    kir::Kernel k = b2c::CompileKernel(*app.pool, app.spec);
    tuner::DesignSpace space = tuner::BuildDesignSpace(k);
    table.AddRow({app.name, app.type_label,
                  kir::PatternName(app.spec.pattern),
                  std::to_string(app.spec.batch),
                  std::to_string(k.Loops().size()),
                  "10^" + FormatDouble(space.Log10Cardinality(), 1)});
  }
  std::printf("%s", table.Render().c_str());
  return 0;
}

int CmdCompile(const Knobs& knobs) {
  apps::App app = apps::FindApp(knobs.positional[1]);
  const jvm::Method& method =
      app.pool->Get(app.spec.klass).GetMethod(app.spec.method);
  std::printf("=== kernel bytecode (%s.%s) ===\n%s\n",
              app.spec.klass.c_str(), app.spec.method.c_str(),
              jvm::Disassemble(method.code).c_str());
  kir::Kernel k = b2c::CompileKernel(*app.pool, app.spec);
  std::printf("=== generated HLS C ===\n%s\n", kir::EmitC(k).c_str());
  blaze::SerializationPlan plan = blaze::MakeSerializationPlan(k);
  std::printf("=== accelerator interface ===\n");
  for (const auto& e : plan.entries) {
    std::printf("  %-6s %-7s %s x %lld/task%s\n", e.buffer.c_str(),
                e.is_input ? "input" : "output",
                e.element.ToString().c_str(),
                static_cast<long long>(e.per_task),
                e.broadcast ? "  (broadcast)" : "");
  }
  std::printf("\n=== generated Scala glue ===\n%s\n",
              blaze::RenderScalaHelper(plan).c_str());
  tuner::DesignSpace space = tuner::BuildDesignSpace(k);
  std::printf("=== design space: %zu factors, 10^%.1f points ===\n",
              space.num_factors(), space.Log10Cardinality());
  return 0;
}

int CmdExplore(const Knobs& knobs) {
  apps::App app = apps::FindApp(knobs.positional[1]);
  kir::Kernel k = b2c::CompileKernel(*app.pool, app.spec);
  tuner::DesignSpace space = tuner::BuildDesignSpace(k);
  tuner::EvalFn eval = MakeHlsEvaluator(k);
  const std::uint64_t seed = knobs.Uint("seed");

  // Evaluation-stack knobs (resilience, journal, faults) apply to the
  // vanilla baseline and the S2FA pipeline alike.
  dse::ExplorerOptions options;
  options.time_limit_minutes = knobs.Real("minutes");
  options.num_cores = knobs.Int("cores");
  options.seed = seed;
  options.enable_seeds = !knobs.Has("no-seeds");
  options.enable_partitioning = !knobs.Has("no-partition");
  options.resilience.deadline_minutes = knobs.Real("eval-timeout");
  options.resilience.max_retries = knobs.Int("eval-retries");
  options.journal_path = knobs.Str("resume-journal");
  options.scheduler =
      dse::ParseSchedulerKind(knobs.Str("scheduler")).value();
  options.techniques = tuner::ParseTechniqueList(knobs.Str("techniques"));
  const double fault_rate = knobs.Real("fault-rate");
  if (fault_rate > 0) {
    // Split the requested failure probability evenly across the taxonomy
    // so every failure mode gets exercised.
    options.faults.crash_rate = fault_rate / 3;
    options.faults.timeout_rate = fault_rate / 3;
    options.faults.garbage_rate = fault_rate / 3;
    options.faults.seed = seed ^ 0xFA17ULL;
  }

  const dse::DseResult result =
      knobs.Has("vanilla") ? dse::RunVanillaOpenTuner(space, eval, options)
                           : dse::RunS2faDse(space, k, eval, options);

  const resilience::ResilienceStats& rs = result.resilience;
  if (rs.retries > 0 || rs.exhausted > 0 || rs.short_circuits > 0) {
    std::printf("resilience: %zu retries (%zu crash, %zu timeout, "
                "%zu garbage), %zu points degraded, %zu breaker trips, "
                "%zu short-circuited\n",
                rs.retries, rs.crashes, rs.timeouts, rs.garbage,
                rs.exhausted, rs.breaker_trips, rs.short_circuits);
  }
  if (!options.journal_path.empty()) {
    std::printf("journal: %zu entries (%zu resumed, %zu re-used this "
                "run)\n",
                result.journal_entries, result.journal_resumed,
                result.journal_hits);
  }

  if (!knobs.Has("vanilla")) {
    std::printf("scheduler: %s\n",
                dse::SchedulerKindName(result.scheduler));
    if (result.scheduler == dse::SchedulerKind::kAdaptive &&
        result.schedule.reclaimed_minutes > 0) {
      std::printf("  budget ledger: %.0f min reclaimed, %.0f re-granted in "
                  "%zu slices (%zu preemptions), %zu extra evaluations, "
                  "%.0f min idle\n",
                  result.schedule.reclaimed_minutes,
                  result.schedule.regranted_minutes,
                  result.schedule.grants, result.schedule.preemptions,
                  result.schedule.reclaim_evaluations,
                  result.schedule.idle_minutes);
    }
  }
  std::printf("partitions:\n");
  for (const auto& p : result.partitions) {
    std::printf("  [%s] %s: %.0f-%.0f min, %zu evals, best %.2f us (%s)\n",
                p.description.c_str(), p.scheduled ? "ran" : "skipped",
                p.start_minutes, p.end_minutes, p.result.evaluations,
                p.clipped_best_cost, p.result.stop_reason.c_str());
    if (p.reclaim_grants > 0) {
      std::printf("      + %.0f reclaimed min in %zu grants, %zu evals, "
                  "best %.2f us\n",
                  p.reclaim_minutes, p.reclaim_grants,
                  p.reclaim_evaluations, p.reclaim_best_cost);
    }
  }
  std::printf("\ntrace (best-so-far):\n");
  for (const auto& tp : result.trace) {
    std::printf("  %7.1f min  %12.2f us\n", tp.time_minutes, tp.best_cost);
  }
  if (!result.found_feasible) {
    std::printf("\nno feasible design found\n");
    return 1;
  }
  std::printf("\nbest: %.2f us with %s\nfinished at %.0f simulated minutes, "
              "%zu evaluations\n",
              result.best_cost, result.best_config.ToString().c_str(),
              result.elapsed_minutes, result.evaluations);
  return 0;
}

// Fuzzy reference comparison shared by `run` and every `serve` path:
// relative tolerance 1e-4 with a floor of 1.
std::size_t CountMismatches(const blaze::Dataset& want,
                            const blaze::Dataset& got) {
  auto number = [](const jvm::Value& v) {
    return v.is_float()    ? v.AsFloat()
           : v.is_double() ? v.AsDouble()
                           : static_cast<double>(v.AsInt());
  };
  std::size_t mismatches = 0;
  for (std::size_t c = 0; c < want.num_columns(); ++c) {
    const blaze::Column& w = want.column(c);
    const blaze::Column& g = got.ColumnByField(w.field);
    for (std::size_t n = 0; n < w.data.size(); ++n) {
      const double wv = number(w.data[n]);
      if (std::fabs(number(g.data[n]) - wv) >
          1e-4 * std::max(1.0, std::fabs(wv))) {
        ++mismatches;
      }
    }
  }
  return mismatches;
}

// The app's broadcast dataset for `seed`; nullptr when it takes none.
std::unique_ptr<blaze::Dataset> MakeBroadcast(const apps::App& app,
                                              std::uint64_t seed) {
  if (!app.make_broadcast) return nullptr;
  Rng rng(seed ^ 0xBCA57ULL);
  return std::make_unique<blaze::Dataset>(app.make_broadcast(rng));
}

// Builds the accelerator behind a `--minutes` DSE and reports it.
Artifact BuildReported(apps::App& app, const Knobs& knobs) {
  FrameworkOptions options;
  options.dse.time_limit_minutes = knobs.Real("minutes");
  options.dse.seed = knobs.Uint("seed");
  Artifact artifact = BuildAccelerator(*app.pool, app.spec, options);
  std::printf("built %s: %.0f cycles @ %.0f MHz (%zu points explored)\n",
              app.name.c_str(), artifact.best_hls.cycles,
              artifact.best_hls.freq_mhz, artifact.exploration.evaluations);
  return artifact;
}

// Modeled accelerator time of one `records`-record request on `id`.
double RequestUs(blaze::BlazeRuntime& runtime, const std::string& id,
                 std::size_t records) {
  const blaze::ExecutionStats per = runtime.PerInvocationCost(id);
  const auto batch =
      static_cast<std::size_t>(runtime.manager().Get(id).plan.batch);
  return static_cast<double>(
             std::max<std::size_t>(1, (records + batch - 1) / batch)) *
         per.total_us;
}

int CmdRun(const Knobs& knobs) {
  apps::App app = apps::FindApp(knobs.positional[1]);
  const std::size_t records = knobs.Uint("records");
  const std::uint64_t seed = knobs.Uint("seed");
  Artifact artifact = BuildReported(app, knobs);

  blaze::BlazeRuntime runtime;
  RegisterWithBlaze(runtime, app.name, artifact);

  Rng rng(seed);
  blaze::Dataset input = app.make_input(records, rng);
  const auto broadcast = MakeBroadcast(app, seed);
  const blaze::Dataset* bc = broadcast.get();

  blaze::ExecutionStats stats;
  blaze::Dataset out =
      app.spec.pattern == kir::ParallelPattern::kReduce
          ? runtime.Reduce(app.name, input, bc, &stats)
          : runtime.Map(app.name, input, bc, &stats);
  apps::JvmRunResult jvm = apps::RunOnJvm(app, input, bc);
  const std::size_t mismatches = CountMismatches(jvm.output, out);

  std::printf("records: %zu  invocations: %zu  mismatches vs JVM: %zu\n",
              records, stats.invocations, mismatches);
  std::printf("JVM:  %10.2f ms (modeled single thread)\n",
              jvm.total_ns / 1e6);
  std::printf("FPGA: %10.3f ms  -> speedup %.1fx\n", stats.total_us / 1e3,
              jvm.total_ns / 1000.0 / stats.total_us);
  return mismatches == 0 ? 0 : 1;
}

// Streaming serve (--stream): records arrive continuously per a
// rate-programmed schedule and flow through StreamSession's SLO-bound
// micro-batching and overload ladder on top of the cluster. The ladder
// thresholds scale off the modeled per-request cost unless overridden, so
// the same flags behave sensibly across kernels. Exit 0 only when every
// record reached exactly one terminal state, the external watermark never
// regressed, and every committed output matches the native reference.
int RunStreamServe(apps::App& app, const Knobs& knobs,
                   blaze::BlazeCluster& cluster, std::size_t shards,
                   const std::vector<std::string>& tenant_names,
                   double record_us, const blaze::Dataset* bc) {
  const int requests = knobs.Int("requests");
  const std::size_t records = knobs.Uint("records");
  const double arrival_rate = knobs.Real("arrival-rate");

  blaze::StreamOptions sopts;
  sopts.slo_us = knobs.Has("slo") ? knobs.Real("slo") : 30.0 * record_us;
  sopts.batch_age_us = record_us;
  sopts.deadline_headroom_us = std::min(2.0 * record_us, sopts.slo_us / 4);
  sopts.codel_target_us = 2.0 * record_us;
  sopts.codel_interval_us = 4.0 * record_us;
  sopts.brownout_onset_us = 3.0 * record_us;
  sopts.shed_onset_us = 8.0 * record_us;
  if (auto brownout = ParseBrownout(knobs.Str("brownout"))) {
    sopts.brownout_onset_us = (*brownout)[0];
    sopts.shed_onset_us = (*brownout)[1];
    sopts.brownout_max_fraction = (*brownout)[2];
  }
  sopts.retry_budget = ParseRetryBudget(knobs.Str("retry-budget"))
                           .value_or(sopts.retry_budget);

  // One arrival phase per declared tenant, all spanning the same window;
  // the aggregate rate is `arrival_rate` times the modeled capacity of
  // `shards` lanes.
  const double duration_us = static_cast<double>(requests) * record_us /
                             (static_cast<double>(shards) * arrival_rate);
  blaze::ArrivalSchedule schedule;
  const auto total = static_cast<std::size_t>(requests);
  for (std::size_t t = 0; t < tenant_names.size(); ++t) {
    blaze::ArrivalPhase phase;
    phase.tenant = tenant_names[t];
    phase.start_us = 0;
    phase.duration_us = duration_us;
    phase.count = total / tenant_names.size() +
                  (t < total % tenant_names.size() ? 1 : 0);
    if (phase.count > 0) schedule.phases.push_back(std::move(phase));
  }

  // Inputs pre-generated by ordinal so the reference cross-check sees the
  // same data the generator hands the session.
  Rng rng(knobs.Uint("seed"));
  std::vector<blaze::Dataset> inputs;
  std::vector<blaze::Dataset> expected;
  inputs.reserve(static_cast<std::size_t>(requests));
  expected.reserve(static_cast<std::size_t>(requests));
  for (int i = 0; i < requests; ++i) {
    inputs.push_back(app.make_input(records, rng));
    expected.push_back(app.reference(inputs.back(), bc));
  }

  blaze::StreamSession session(cluster, sopts);
  std::vector<blaze::StreamRecordOutcome> outcomes = session.Run(
      schedule, [&app, &inputs, bc](std::size_t ordinal) {
        blaze::StreamRecord record;
        record.kernel = app.name;
        record.input = inputs[ordinal];
        record.broadcast = bc;
        return record;
      });

  std::size_t mismatches = 0;
  for (const blaze::StreamRecordOutcome& o : outcomes) {
    if (blaze::IsStreamShed(o.outcome)) continue;
    mismatches += CountMismatches(expected[o.seq], o.output);
  }
  const blaze::StreamStats& s = session.stats();
  const std::size_t lost = s.arrivals - s.committed - s.committed_host -
                           s.shed_total();
  const bool watermark_monotone = std::is_sorted(
      outcomes.begin(), outcomes.end(), [](const auto& a, const auto& b) {
        return a.external_commit_us < b.external_commit_us;
      });

  std::printf("stream serving %d records x %zu input records on %zu "
              "shard%s (%.2fx capacity, slo %.0f us)\n",
              requests, records, shards, shards == 1 ? "" : "s",
              arrival_rate, sopts.slo_us);
  std::printf("arrivals:  %zu; committed %zu cluster + %zu host; shed %zu "
              "(%zu unmeetable, %zu brownout, %zu retry-budget, %zu "
              "queue-full); %zu lost\n",
              s.arrivals, s.committed, s.committed_host, s.shed_total(),
              s.shed_unmeetable, s.shed_brownout, s.shed_retry_budget,
              s.shed_queue_full, lost);
  std::printf("batching:  %zu closed (%zu count / %zu age / %zu deadline), "
              "%zu dispatched, %zu host-routed, %zu shed\n",
              s.batches_closed, s.close_count, s.close_age, s.close_deadline,
              s.batches_dispatched, s.batches_host, s.batches_shed);
  std::printf("overload:  %zu codel engagements, retries %zu granted / %zu "
              "denied, max queue delay %.0f us\n",
              s.codel_engagements, s.retries_granted, s.retries_denied,
              s.max_queue_delay_us);
  std::printf("watermark: %.0f us (%s)\n", s.watermark_us,
              watermark_monotone ? "monotone" : "REGRESSED");
  std::printf("latency:   p50 %.0f / p95 %.0f / p99 %.0f us\n",
              s.LatencyQuantile(0.5), s.LatencyQuantile(0.95),
              s.LatencyQuantile(0.99));
  TextTable table({"Tenant", "Arrivals", "Committed", "Host", "Unmeetable",
                   "Brownout", "RetryBudget", "QueueFull", "Retries"});
  for (const auto& [name, ts] : s.tenants) {
    table.AddRow({name, std::to_string(ts.arrivals),
                  std::to_string(ts.committed),
                  std::to_string(ts.committed_host),
                  std::to_string(ts.shed_unmeetable),
                  std::to_string(ts.shed_brownout),
                  std::to_string(ts.shed_retry_budget),
                  std::to_string(ts.shed_queue_full),
                  std::to_string(ts.retries)});
  }
  std::printf("%s", table.Render().c_str());
  std::printf("mismatches vs reference: %zu\n", mismatches);
  return (lost == 0 && mismatches == 0 && watermark_monotone) ? 0 : 1;
}

// The age hedge's delay in modeled request costs: a request still
// uncommitted this long after it entered the cluster queue starts a host
// hedge. An accelerator timeout is detected only after 4x the expected
// latency, so a request that hits one is at least this late before its
// retry even starts. Fault-free requests that wait this long are queued
// behind an overloaded shard, and the host path shortens their wait too.
constexpr double kHedgeDelayRequests = 4.0;

// Serves the request stream through BlazeCluster: replicas spread
// round-robin over --shards fault domains (one by default), requests
// assigned to the declared tenants round-robin, optional scripted chaos
// (its `burst` windows fail replica invocations). Prints the cluster ledger,
// each shard's replica health once a failure or probe touched it, and a
// per-tenant fairness table; exit 0 only when nothing was lost and every
// served output matches the native reference.
int CmdServe(const Knobs& knobs) {
  apps::App app = apps::FindApp(knobs.positional[1]);
  const int replicas = knobs.Int("replicas");
  const int requests = knobs.Int("requests");
  const std::size_t records = knobs.Uint("records");
  const std::uint64_t seed = knobs.Uint("seed");
  const std::size_t shards = knobs.Uint("shards");
  Artifact artifact = BuildReported(app, knobs);

  blaze::BlazeRuntime runtime;
  std::vector<std::string> ids;
  for (int i = 0; i < replicas; ++i) {
    ids.push_back(app.name + "#" + std::to_string(i));
    RegisterWithBlaze(runtime, ids.back(), artifact);
  }
  const double request_us = RequestUs(runtime, ids.front(), records);

  blaze::ClusterOptions coptions;
  coptions.health_window = knobs.Uint("quarantine-window");
  coptions.seed = seed;
  coptions.exec_threads = knobs.Int("exec-threads");
  coptions.queue_capacity = knobs.Uint("serve-queue");
  coptions.queue_hedge_us = kHedgeDelayRequests * request_us;
  blaze::BlazeCluster cluster(runtime, coptions);
  for (std::size_t s = 0; s < shards; ++s) cluster.AddShard();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    cluster.AddReplica(i % shards, app.name, ids[i]);
  }
  std::vector<std::string> tenant_names;
  for (const TenantSpec& spec :
       ParseTenants(knobs.Str("tenants")).value_or(std::vector<TenantSpec>{})) {
    cluster.AddTenant(spec.name, spec.weight, spec.quota);
    tenant_names.push_back(spec.name);
  }
  if (tenant_names.empty()) tenant_names.push_back("default");

  Rng rng(seed);
  const auto broadcast = MakeBroadcast(app, seed);
  const blaze::Dataset* bc = broadcast.get();
  if (knobs.Has("chaos-plan")) {
    try {
      cluster.SetChaosPlan(blaze::ParseChaosPlan(knobs.Str("chaos-plan")));
    } catch (const Error& e) {
      std::fprintf(stderr, "error: --chaos-plan/S2FA_CHAOS_PLAN: %s\n",
                   e.what());
      return 2;
    }
    // Floods draw from the same workload generator on a disjoint stream.
    auto flood_rng = std::make_shared<Rng>(seed ^ 0xF100DULL);
    cluster.SetFloodGenerator(
        [&app, bc, records, flood_rng](std::size_t) {
          blaze::ClusterRequest rq;
          rq.kernel = app.name;
          rq.input = app.make_input(records, *flood_rng);
          rq.broadcast = bc;
          return rq;
        });
  }

  if (knobs.Has("stream")) {
    return RunStreamServe(app, knobs, cluster, shards, tenant_names,
                          request_us, bc);
  }

  // Open-loop arrivals near the full cluster's service rate.
  const double spacing_us = 0.8 * request_us / static_cast<double>(ids.size());
  std::vector<blaze::ClusterRequest> stream;
  std::vector<blaze::Dataset> expected;
  double arrival = 0;
  for (int i = 0; i < requests; ++i) {
    blaze::ClusterRequest rq;
    rq.kernel = app.name;
    rq.input = app.make_input(records, rng);
    rq.broadcast = bc;
    rq.arrival_us = arrival;
    rq.tenant = tenant_names[static_cast<std::size_t>(i) %
                             tenant_names.size()];
    arrival += spacing_us * rng.NextDouble(0.5, 1.5);
    expected.push_back(app.reference(rq.input, bc));
    stream.push_back(std::move(rq));
  }
  std::vector<blaze::ClusterRequestOutcome> outcomes =
      cluster.Run(std::move(stream));

  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const blaze::ClusterRequestOutcome& o = outcomes[i];
    if (o.outcome == blaze::ClusterServe::kRejectedFull ||
        o.outcome == blaze::ClusterServe::kTenantThrottled) {
      continue;
    }
    mismatches += CountMismatches(expected[i], o.output);
  }

  const blaze::ClusterStats& s = cluster.stats();
  const std::size_t lost =
      s.submitted - s.completed - s.rejected_full - s.tenant_throttled;
  std::printf("cluster serving %d requests x %zu records on %zu shard%s "
              "(%zu replicas, queue %zu, batch <= %zu, %d exec threads)\n",
              requests, records, shards, shards == 1 ? "" : "s",
              ids.size(), coptions.queue_capacity,
              coptions.batch_max_requests, coptions.exec_threads);
  std::printf("admitted:  %zu/%zu (%zu rejected at the gate, %zu tenant "
              "throttled), max queue depth %zu\n",
              s.admitted, s.submitted, s.rejected_full, s.tenant_throttled,
              s.max_queue_depth);
  std::printf("completed: %zu (%zu accelerator, %zu host, %zu hedged "
              "host), %zu lost\n",
              s.completed, s.completed_accel, s.completed_host,
              s.completed_hedge, lost);
  std::printf("batching:  %zu batches, %zu members, max batch %zu\n",
              s.batches, s.batched_requests, s.max_batch);
  std::printf("latency:   p50 %.0f / p95 %.0f / p99 %.0f us\n",
              s.LatencyQuantile(0.5), s.LatencyQuantile(0.95),
              s.LatencyQuantile(0.99));
  if (s.failovers > 0 || s.bisect_attempts > 0 || s.flood_injected > 0) {
    std::printf("chaos:     %zu failovers, %zu redirects (%zu exhausted), "
                "%zu bisect attempts, %zu poison isolated, %zu flood "
                "requests, %zu commit conflicts\n",
                s.failovers, s.redirects, s.redirect_exhausted,
                s.bisect_attempts, s.poison_isolated, s.flood_injected,
                s.commit_conflicts);
  }
  if (s.hedges_launched > 0) {
    std::printf("hedging:   %zu launched after %.0f us, %zu won, %zu "
                "cancelled\n",
                s.hedges_launched, coptions.queue_hedge_us, s.hedges_won,
                s.hedges_cancelled);
  }
  for (std::size_t i = 0; i < s.shards.size(); ++i) {
    const blaze::ShardStats& shard = s.shards[i];
    std::printf("shard %zu:   %zu batches, %zu requests, %zu kills, %zu "
                "restarts, %.1f ms busy (%.1f ms wasted)\n",
                i, shard.batches, shard.requests, shard.kills,
                shard.restarts, shard.busy_us / 1e3, shard.wasted_us / 1e3);
    // Health counters since the replay began; states since the shard's
    // last (re)start.
    if (shard.accel_failures == 0 && shard.probes == 0) continue;
    std::printf("  health:  %zu failed attempts (%zu crash, %zu timeout), "
                "%zu degradations, %zu quarantines, %zu probes (%zu ok / "
                "%zu failed), %zu re-enlistments;",
                shard.accel_failures, shard.crashes, shard.timeouts,
                shard.degradations, shard.quarantines, shard.probes,
                shard.probe_successes, shard.probe_failures,
                shard.reenlistments);
    for (std::size_t r = i; r < ids.size(); r += shards) {
      std::printf(" %s=%s", ids[r].c_str(),
                  blaze::HealthName(cluster.ReplicaHealth(ids[r])));
    }
    std::printf("\n");
  }
  // Shed columns split by reason (queue-full vs quota throttle) and
  // completions by serving path, so fairness regressions show *why* a
  // tenant lost traffic and *how* the surviving traffic was served.
  TextTable table({"Tenant", "Weight", "Quota", "Submitted", "Admitted",
                   "ShedFull", "Throttled", "Completed", "Accel", "Host",
                   "Hedge", "Records", "p50 us", "p99 us"});
  for (const auto& [name, ts] : s.tenants) {
    table.AddRow({name, FormatDouble(ts.weight, 1),
                  ts.quota == 0 ? "-" : std::to_string(ts.quota),
                  std::to_string(ts.submitted), std::to_string(ts.admitted),
                  std::to_string(ts.rejected_full),
                  std::to_string(ts.throttled), std::to_string(ts.completed),
                  std::to_string(ts.completed_accel),
                  std::to_string(ts.completed_host),
                  std::to_string(ts.completed_hedge),
                  std::to_string(ts.records_completed),
                  FormatDouble(ts.LatencyQuantile(0.5), 0),
                  FormatDouble(ts.LatencyQuantile(0.99), 0)});
  }
  std::printf("%s", table.Render().c_str());
  std::printf("mismatches vs reference: %zu\n", mismatches);
  return (lost == 0 && mismatches == 0) ? 0 : 1;
}

int CmdProfile(const Knobs& knobs) {
  apps::App app = apps::FindApp(knobs.positional[1]);
  const std::string& profile_out = knobs.Str("profile-out");
  const std::size_t records = knobs.Uint("records");
  const std::uint64_t seed = knobs.Uint("seed");
  const std::size_t top = knobs.Uint("top");

  // Single-core DSE keeps the whole run on one thread, so the hot-path
  // self times are disjoint and their sum is bounded by the wall clock.
  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  obs::Tracer::Global().Reset();
  const std::uint64_t t0 = MonotonicMicros();
  {
    S2FA_SPAN("cli.profile");
    FrameworkOptions options;
    options.dse.time_limit_minutes = knobs.Real("minutes");
    options.dse.num_cores = 1;
    options.dse.seed = seed;
    Artifact artifact = BuildAccelerator(*app.pool, app.spec, options);

    blaze::BlazeRuntime runtime;
    RegisterWithBlaze(runtime, app.name, artifact);
    Rng rng(seed);
    blaze::Dataset input = app.make_input(records, rng);
    const auto broadcast = MakeBroadcast(app, seed);
    if (app.spec.pattern == kir::ParallelPattern::kReduce) {
      runtime.Reduce(app.name, input, broadcast.get());
    } else {
      runtime.Map(app.name, input, broadcast.get());
    }
  }
  const double wall_us = static_cast<double>(MonotonicMicros() - t0);
  std::vector<obs::SpanEvent> events = obs::Tracer::Global().Drain();
  obs::SetEnabled(was_enabled);

  if (events.empty()) {
    std::fprintf(stderr,
                 "error: no spans recorded (obs compiled out?); nothing to "
                 "profile\n");
    return 1;
  }
  obs::Profile profile = obs::BuildProfile(events);
  std::printf("=== hot paths: %s, %zu records (top %zu) ===\n%s",
              app.name.c_str(), records, top,
              obs::RenderHotPathTable(profile, top,
                                      static_cast<double>(records))
                  .c_str());
  double self_sum_us = 0;
  for (const obs::HotPathRow& row : profile.flat) self_sum_us += row.self_us;
  std::printf("wall clock %.1f ms, span self-time total %.1f ms (%.0f%% "
              "attributed)\n",
              wall_us / 1e3, self_sum_us / 1e3,
              wall_us > 0 ? 100.0 * self_sum_us / wall_us : 0.0);
  if (!profile_out.empty()) {
    obs::WriteChromeTraceFile(profile_out, events);
    std::fprintf(stderr, "chrome trace written to %s\n", profile_out.c_str());
  }
  return 0;
}

int CmdPerfDiff(const Knobs& knobs) {
  const double threshold = knobs.Real("threshold");
  const std::vector<std::string>& args = knobs.positional;
  obs::PerfLedger prev = obs::LoadLedgerFile(args[1]);
  obs::PerfLedger next = obs::LoadLedgerFile(args[2]);
  std::printf("comparing %s (rev %s) -> %s (rev %s)\n", args[1].c_str(),
              prev.git_rev.c_str(), args[2].c_str(), next.git_rev.c_str());
  obs::LedgerDiff diff = obs::ComparePerfLedgers(prev, next, threshold);
  std::printf("%s", obs::RenderLedgerDiffTable(diff).c_str());
  if (diff.HasRegression()) {
    std::fprintf(stderr, "perf-diff: FAIL — regression past the %.0f%% "
                 "threshold\n", threshold * 100);
    return 1;
  }
  return 0;
}

struct Command {
  const char* name;
  Cmd bit;
  int (*run)(const Knobs& knobs);
  std::size_t operands;  // positional arguments after the command name
  const char* args;
  const char* help;
};

const Command kCommands[] = {
    {"list", kList, CmdList, 0, "", "the bundled evaluation kernels"},
    {"compile", kCompile, CmdCompile, 1, "<app>",
     "bytecode-to-C only: HLS C, interface, Scala glue, design space"},
    {"explore", kExplore, CmdExplore, 1, "<app>",
     "run the DSE; report partitions, the trace and the best design"},
    {"run", kRun, CmdRun, 1, "<app>",
     "build, run a workload through Blaze, cross-check against the JVM"},
    {"serve", kServe, CmdServe, 1, "<app>",
     "replay requests through BlazeCluster (one shard unless --shards)"},
    {"report", kReport, CmdReport, 1, "<metrics.json>",
     "render a --metrics-out summary as tables"},
    {"profile", kProfile, CmdProfile, 1, "<app>",
     "hot-path table of a traced compile + DSE slice + workload"},
    {"perf-diff", kPerfDiff, CmdPerfDiff, 2, "<old.json> <new.json>",
     "classify perf-ledger entries; exit 1 on a regression"},
};

void PrintUsage() {
  std::fprintf(stderr, "usage: s2fa <command> [args] [flags]\n\n");
  for (const Command& cmd : kCommands) {
    std::fprintf(stderr, "  %-34s %s\n",
                 (std::string(cmd.name) + " " + cmd.args).c_str(), cmd.help);
  }
  std::fprintf(stderr, "\nFlags, their environment mirror and [default]. "
               "The environment is read first\nand a flag wins; a malformed "
               "value, an unknown flag or a missing value exits 2.\n");
  // The global flags, then a section per command that has flags of its own.
  auto section = [](const char* title, unsigned cmds) {
    std::string rows;
    for (const Knob& knob : KnobTable()) {
      if ((knob.commands & cmds) == 0 ||
          (knob.commands == kAnyCmd) != (cmds == kAnyCmd)) {
        continue;
      }
      std::string name = std::string("--") + knob.flag;
      if (knob.metavar != nullptr) name += std::string(" ") + knob.metavar;
      std::string help = knob.help;
      if (!knob.def.empty()) help += " [" + knob.def + "]";
      char line[512];
      std::snprintf(line, sizeof line, "  %-34s %-23s %s\n", name.c_str(),
                    knob.env != nullptr ? knob.env : "-", help.c_str());
      rows += line;
    }
    if (rows.empty()) return;
    std::fprintf(stderr, "\n%s flags:\n%s", title, rows.c_str());
  };
  section("global", kAnyCmd);
  for (const Command& cmd : kCommands) section(cmd.name, cmd.bit);
}

std::nullopt_t Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return std::nullopt;
}

// Resolves argv and the environment against the knob table. Returns
// nullopt after printing the usage or naming the offending flag/env.
std::optional<Knobs> Resolve(int argc, char** argv) {
  Knobs knobs;
  std::map<std::string, std::string> given;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      knobs.positional.push_back(arg);
      continue;
    }
    // --name=value, a bare switch, or --name value.
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(2, eq - 2);
    const Knob* knob = FindKnob(name, kAnyCmd);
    const bool takes_value = knob != nullptr && knob->metavar != nullptr;
    if (eq != std::string::npos && knob != nullptr && !takes_value) {
      return Fail("--" + name + " takes no value");
    }
    if (eq == std::string::npos && takes_value && i + 1 == argc) {
      return Fail("--" + name + " expects a value");
    }
    given[name] = eq != std::string::npos ? arg.substr(eq + 1)
                  : takes_value           ? argv[++i]
                                          : "1";
  }
  for (const Command& cmd : kCommands) {
    if (!knobs.positional.empty() && knobs.positional[0] == cmd.name &&
        knobs.positional.size() > cmd.operands) {
      knobs.cmd = &cmd;
    }
  }
  if (knobs.cmd == nullptr) {
    PrintUsage();
    return std::nullopt;
  }
  for (const auto& [name, value] : given) {
    if (FindKnob(name, knobs.cmd->bit) == nullptr) {
      return Fail("unknown flag --" + name + " for 's2fa " +
                  knobs.cmd->name + "'");
    }
  }
  for (const Knob& knob : KnobTable()) {
    if ((knob.commands & knobs.cmd->bit) == 0) continue;
    std::string source = std::string("--") + knob.flag;
    std::optional<std::string> text;
    if (auto it = given.find(knob.flag); it != given.end()) {
      text = it->second;
    } else if (const char* env =
                   knob.env != nullptr ? std::getenv(knob.env) : nullptr;
               env != nullptr && env[0] != '\0') {
      text = env;
      source = knob.env;
    }
    if (!text) {
      text = knob.def;
    } else if (knob.metavar == nullptr) {
      text = *text == "0" ? "" : "1";
    } else if (std::string expects = knob.check(*text); !expects.empty()) {
      return Fail(source + " expects " + expects + ", got '" + *text + "'");
    }
    if (!text->empty()) knobs.values[knob.flag] = *text;
  }
  return knobs;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Knobs> knobs = Resolve(argc, argv);
  if (!knobs) return 2;
  if (knobs->Has("log-level")) {
    Logger::SetLevel(ParseLogLevel(knobs->Str("log-level")).value());
  }
  const std::string& trace_out = knobs->Str("trace-out");
  const std::string& metrics_out = knobs->Str("metrics-out");
  if (!trace_out.empty() || !metrics_out.empty()) obs::SetEnabled(true);

  try {
    const int rc = knobs->cmd->run(*knobs);
    if (!trace_out.empty()) {
      obs::WriteTraceFile(trace_out, obs::Tracer::Global().Events());
      std::fprintf(stderr, "trace written to %s\n", trace_out.c_str());
    }
    if (!metrics_out.empty()) {
      obs::WriteSummaryFile(metrics_out, obs::CaptureSummary());
      std::fprintf(stderr, "metrics written to %s\n", metrics_out.c_str());
    }
    return rc;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
