// s2fa_benchmark: the S2FA end-to-end benchmark.
//
//   s2fa_benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                  [--quick]
//   s2fa_benchmark [--seed N] [--seconds S] [--quick]
//   s2fa_benchmark compare A.json B.json
//
// With --workload, one run of that workload. It generates its inputs from
// the seed, sets up and runs once to warm up, then for --seconds (at least
// three reps) times a Setup() and a Run() per rep, scaled to a reference
// host speed (HostSpeedProbe), and checks every rep's outputs outside the
// timed window. The last stdout line is one JSON object
// holding the end-to-end metrics (--trace 0) or, after one more Setup + Run
// with tracing on, the per-layer metrics (--trace 1). Every sample goes to
// $S2FA_BENCH_OUT/<workload>.json (default bench_out/), and a traced run
// also writes <workload>.trace.json in Chrome trace format.
//
// Without --workload, every workload runs traced in a child process of its
// own, so peak memory is per workload, and the per-workload files are
// merged into $S2FA_BENCH_OUT/benchmark_result.json. compare reads two such
// files and judges them against the bounds in ./BENCHMARK.json.
//
// --quick shrinks every workload about fiftyfold and, unless --seconds is
// given, runs only the minimum three timed reps.
//
// Exit codes: 0 correct, 1 a check failed or the run threw, 2 usage.
#include <spawn.h>
#include <sys/wait.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "compare.h"
#include "harness.h"
#include "layers.h"
#include "obs/export.h"
#include "obs/json.h"
#include "workloads.h"

extern char** environ;

using namespace s2fa;
using namespace s2fa::e2e;

namespace {

constexpr std::size_t kMinReps = 3;
constexpr double kDefaultSeconds = 15;

struct Args {
  std::string workload;  // empty: every workload
  std::uint64_t seed = 1;
  double seconds = -1;   // -1: kDefaultSeconds, or 0 with --quick
  bool trace = false;
  bool quick = false;
};

int Usage(const std::string& why) {
  std::fprintf(stderr,
               "error: %s\nusage: s2fa_benchmark [--workload NAME] "
               "[--seed N] [--seconds S] [--trace 0|1] [--quick]\n"
               "       s2fa_benchmark compare A.json B.json\n",
               why.c_str());
  return 2;
}

// Returns an error message, or "" when the arguments parse.
std::string ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--quick") {
      args.quick = true;
      continue;
    }
    if (i + 1 >= argc) return flag + " needs a value";
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (!(args.seconds >= 0)) return "--seconds must be >= 0";
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return "--trace takes 0 or 1";
      args.trace = value == "1";
    } else {
      return "unknown flag " + flag;
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      return "bad number for " + flag + ": " + value;
    }
  }
  if (args.seconds < 0) args.seconds = args.quick ? 0 : kDefaultSeconds;
  if (args.workload.empty()) return "";
  for (const std::string& name : WorkloadNames()) {
    if (name == args.workload) return "";
  }
  return "unknown workload " + args.workload +
         " (expected explore8, stream_partial, cluster_full or stream_chaos)";
}

std::filesystem::path OutDir() {
  const char* env = std::getenv("S2FA_BENCH_OUT");
  std::filesystem::path dir =
      env != nullptr && env[0] != '\0' ? env : "bench_out";
  std::filesystem::create_directories(dir);
  return dir;
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += obs::json::JsonNumber(values[i]);
  }
  return out + "]";
}

// A metric with the samples behind it (one sample for a single reading).
// Its value is the samples' median.
struct Reported {
  Metric metric;
  std::vector<double> samples;
};

Reported FromSamples(std::string name, std::string unit,
                     std::vector<double> samples) {
  return {{std::move(name), Summarize(samples).median, std::move(unit)},
          std::move(samples)};
}

std::string MetricsJson(const std::vector<Reported>& reported,
                        bool with_summary) {
  std::string out = "{";
  for (std::size_t i = 0; i < reported.size(); ++i) {
    const Metric& m = reported[i].metric;
    if (i > 0) out += ", ";
    out += obs::json::JsonString(m.name) +
           ": {\"value\": " + obs::json::JsonNumber(m.value) +
           ", \"unit\": " + obs::json::JsonString(m.unit);
    if (with_summary) {
      const Summary s = Summarize(reported[i].samples);
      out += ", \"median\": " + obs::json::JsonNumber(s.median) +
             ", \"q1\": " + obs::json::JsonNumber(s.q1) +
             ", \"q3\": " + obs::json::JsonNumber(s.q3) +
             ", \"n\": " + std::to_string(s.n);
    }
    out += "}";
  }
  return out + "}";
}

void PrintMetrics(const std::vector<Reported>& reported) {
  for (const Reported& r : reported) {
    const Summary s = Summarize(r.samples);
    std::printf("%-30s %16.6g %-8s", r.metric.name.c_str(), r.metric.value,
                r.metric.unit.c_str());
    if (s.n > 1) std::printf(" [%.6g, %.6g] n=%zu", s.q1, s.q3, s.n);
    std::printf("\n");
  }
}

std::string HexHash(std::uint64_t hash) {
  char text[17];
  std::snprintf(text, sizeof text, "%016" PRIx64, hash);
  return text;
}

// One traced Setup + Run and the per-layer metrics it yields, plus the
// tracing-overhead and input-generation guards.
std::vector<Reported> TracedLayers(const Args& args, Workload& workload,
                                   const std::function<RepCheck()>& check,
                                   double wall_median, double gen_s) {
  TracedRep traced;
  double generator_s = 0;
  obs::Registry::Global().Reset();
  obs::Tracer::Global().Reset();
  obs::SetEnabled(true);
  double start = NowSeconds();
  workload.Setup();
  traced.setup_wall_s = NowSeconds() - start;
  start = NowSeconds();
  workload.Run(&generator_s);
  traced.rep_wall_s = NowSeconds() - start;
  obs::SetEnabled(false);
  const std::vector<obs::SpanEvent> events = obs::Tracer::Global().Drain();
  traced.profile = obs::BuildProfile(events);
  traced.snapshot = obs::Registry::Global().Snapshot();
  const RepCheck traced_check = check();
  traced.check = &traced_check;
  obs::WriteChromeTraceFile(
      (OutDir() / (args.workload + ".trace.json")).string(), events);

  std::vector<Reported> layers;
  for (const Metric& m : LayerMetrics(traced, workload.Probes())) {
    layers.push_back({m, {m.value}});
  }
  layers.push_back(FromSamples("obs.trace_overhead_frac", "fraction",
                               {traced.rep_wall_s / wall_median - 1}));
  layers.push_back(FromSamples("bench.gen_s", "s", {gen_s + generator_s}));
  return layers;
}

int RunWorkload(const Args& args) {
  HostSpeedProbe probe;  // first, so its table sits below the workload's heap
  double start = NowSeconds();
  std::unique_ptr<Workload> workload =
      MakeWorkload(args.workload, args.seed, args.quick);
  const double gen_s = NowSeconds() - start;

  // Every rep, warm-up and traced ones included, is checked against the
  // references and must hash like the first.
  std::size_t attempted = 0, failed = 0;
  bool consistent = true;
  double check_s = 0;
  std::uint64_t reference_hash = 0;
  std::function<RepCheck()> check = [&] {
    const double begin = NowSeconds();
    RepCheck c = workload->Check();
    check_s += NowSeconds() - begin;
    if (reference_hash == 0) reference_hash = c.hash;
    consistent = consistent && c.hash == reference_hash;
    attempted += c.attempted;
    failed += c.failed;
    return c;
  };

  // Warm-up: caches, the allocator and lazy state settle before timing.
  workload->Setup();
  workload->Run(nullptr);
  RepCheck last = check();

  // Each timed rep is a probe, a timed Setup() and a timed Run(). Set-up
  // samples spread over the whole run, like the reps, steady the set-up
  // median far better than a burst of set-ups at the start. Set-up leaves
  // no lazy state for the next Run() to rebuild. Each rep's timings are
  // scaled by the host-speed probe taken just before it.
  std::vector<double> probes, setups, walls, unit_ms;
  double peak_rss_mb = 0;
  const double deadline = NowSeconds() + args.seconds;
  while (walls.size() < kMinReps || NowSeconds() < deadline) {
    probes.push_back(probe.Measure());
    start = NowSeconds();
    workload->Setup();
    setups.push_back(NowSeconds() - start);
    start = NowSeconds();
    workload->Run(nullptr);
    walls.push_back(NowSeconds() - start);
    last = check();
    unit_ms.insert(unit_ms.end(), last.unit_ms.begin(), last.unit_ms.end());
    // Later reps only add allocator fragmentation, which lands at random
    // reps and would make the peak depend on how many reps a run fits.
    if (walls.size() == kMinReps) {
      peak_rss_mb = PeakRssMb() - HostSpeedProbe::kTablesMb;
    }
  }

  std::vector<double> setup_ref, wall_ref;
  for (std::size_t i = 0; i < walls.size(); ++i) {
    const double scale = HostSpeedProbe::kReferenceSeconds / probes[i];
    setup_ref.push_back(setups[i] * scale);
    wall_ref.push_back(walls[i] * scale);
  }
  const std::vector<Reported> e2e = {
      FromSamples("setup_s", "s", setup_ref),
      FromSamples("wall_s", "s", wall_ref),
      FromSamples("peak_rss_mb", "MB", {peak_rss_mb}),
      FromSamples("goodput_frac", "fraction", {last.goodput_frac}),
  };
  std::vector<Reported> layers;
  if (args.trace) {
    layers = TracedLayers(args, *workload, check, Summarize(walls).median,
                          gen_s);
    layers.push_back(FromSamples("bench.check_s", "s", {check_s}));
  }
  const bool correct = consistent && failed == 0 && attempted > 0;

  std::printf("== %s (seed %" PRIu64 ")\n", args.workload.c_str(), args.seed);
  PrintMetrics(e2e);
  std::printf("%-30s %16.6g s        unscaled: wall_s %.6g s, "
              "setup_s %.6g s\n",
              "host_probe_s", Summarize(probes).median,
              Summarize(walls).median, Summarize(setups).median);
  if (!unit_ms.empty()) {
    std::printf("%-30s %16.6g ms       design_ms_p95 %.6g ms, n=%zu\n",
                "design_ms_p50", Quantile(unit_ms, 0.5),
                Quantile(unit_ms, 0.95), unit_ms.size());
  }
  std::printf("%-30s %16.6g fraction %zu of %zu\n", "failed_frac",
              static_cast<double>(failed) / static_cast<double>(attempted),
              failed, attempted);
  PrintMetrics(layers);
  std::printf("%-30s %16zu reps, outcome hash %s%s\n", "timed",
              walls.size(), HexHash(reference_hash).c_str(),
              consistent ? "" : " (MISMATCH across reps)");

  std::ostringstream detail;
  detail << "{\"workload\": " << obs::json::JsonString(args.workload)
         << ", \"seed\": " << args.seed
         << ", \"seconds\": " << obs::json::JsonNumber(args.seconds)
         << ", \"quick\": " << (args.quick ? "true" : "false")
         << ", \"trace\": " << (args.trace ? "true" : "false")
         << ", \"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << attempted << ", \"failed\": " << failed
         << ", \"hash\": \"" << HexHash(reference_hash)
         << "\", \"samples\": {\"probe_s\": " << JsonArray(probes)
         << ", \"host_setup_s\": " << JsonArray(setups)
         << ", \"host_wall_s\": " << JsonArray(walls)
         << ", \"unit_ms\": " << JsonArray(unit_ms)
         << "}, \"metrics\": " << MetricsJson(e2e, true)
         << ", \"layers\": " << MetricsJson(layers, false) << "}\n";
  std::ofstream(OutDir() / (args.workload + ".json")) << detail.str();

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              MetricsJson(args.trace ? layers : e2e, false).c_str());
  return correct ? 0 : 1;
}

// Runs `argv` and waits for it; returns its exit code, or -1 if it could
// not start or did not exit normally.
int SpawnAndWait(const std::vector<std::string>& argv) {
  std::vector<char*> raw;
  for (const std::string& arg : argv) {
    raw.push_back(const_cast<char*>(arg.c_str()));
  }
  raw.push_back(nullptr);
  pid_t pid = 0;
  if (posix_spawn(&pid, raw[0], nullptr, nullptr, raw.data(), environ) != 0) {
    return -1;
  }
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

int RunAll(const Args& args) {
  const std::filesystem::path out = OutDir();
  bool ok = true;
  std::string merged;
  for (const std::string& name : WorkloadNames()) {
    const std::filesystem::path file = out / (name + ".json");
    std::filesystem::remove(file);
    std::vector<std::string> child = {
        "/proc/self/exe", "--workload", name, "--seed",
        std::to_string(args.seed), "--seconds",
        obs::json::JsonNumber(args.seconds), "--trace", "1"};
    if (args.quick) child.push_back("--quick");
    std::fflush(stdout);
    const int code = SpawnAndWait(child);
    if (code != 0) {
      std::fprintf(stderr, "error: workload %s exited with %d\n",
                   name.c_str(), code);
      ok = false;
    }
    std::ifstream in(file);
    if (!in) {
      ok = false;
      continue;
    }
    std::ostringstream text;
    text << in.rdbuf();
    if (!merged.empty()) merged += ", ";
    merged += obs::json::JsonString(name) + ": " + text.str();
  }
  const std::filesystem::path result = out / "benchmark_result.json";
  std::ofstream(result) << "{\"seed\": " << args.seed
                        << ", \"seconds\": "
                        << obs::json::JsonNumber(args.seconds)
                        << ", \"quick\": " << (args.quick ? "true" : "false")
                        << ", \"workloads\": {" << merged << "}}\n";
  std::printf("wrote %s\n", result.string().c_str());
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc > 1 && std::string(argv[1]) == "compare") {
      if (argc != 4) return Usage("compare takes two result files");
      return Compare(argv[2], argv[3], "BENCHMARK.json");
    }
    Args args;
    const std::string error = ParseArgs(argc, argv, args);
    if (!error.empty()) return Usage(error);
    return args.workload.empty() ? RunAll(args) : RunWorkload(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
