// Component microbenchmarks (google-benchmark): throughput of the pieces
// every DSE iteration exercises — bytecode interpretation, kernel-IR
// evaluation, the Merlin transform, the HLS estimator, design-space
// operations, serialization, and one full tuner evaluation round trip.
//
// Every run also updates the persistent perf ledger (obs/ledger.h): each
// benchmark's ns/op lands in BENCH_micro.json (or $S2FA_PERF_LEDGER), where
// `s2fa perf-diff` gates regressions against a previous snapshot.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>

#include "apps/app.h"
#include "apps/jvm_baseline.h"
#include "b2c/compiler.h"
#include "bench_util.h"
#include "blaze/runtime.h"
#include "blaze/serialization.h"
#include "dse/partition.h"
#include "dse/stopping.h"
#include "hls/estimator.h"
#include "hls/view.h"
#include "kir/eval.h"
#include "merlin/transform.h"
#include "obs/ledger.h"
#include "s2fa/framework.h"
#include "tuner/space.h"

namespace {

using namespace s2fa;

struct Fixture {
  apps::App app;
  kir::Kernel kernel;
  tuner::DesignSpace space;
  tuner::EvalFn evaluate;
  merlin::DesignConfig mid_config;

  explicit Fixture(const std::string& name) : app(apps::FindApp(name)) {
    kernel = b2c::CompileKernel(*app.pool, app.spec);
    space = tuner::BuildDesignSpace(kernel);
    evaluate = MakeHlsEvaluator(kernel);
    // A representative mid-weight configuration.
    for (const kir::Stmt* loop : kernel.Loops()) {
      mid_config.loops[loop->loop_id()] = {1, 2, merlin::PipelineMode::kOn};
    }
  }
};

Fixture& Svm() {
  static Fixture fixture("SVM");
  return fixture;
}

Fixture& Aes() {
  static Fixture fixture("AES");
  return fixture;
}

void BM_BytecodeCompile(benchmark::State& state) {
  Fixture& f = Svm();
  for (auto _ : state) {
    benchmark::DoNotOptimize(b2c::CompileKernel(*f.app.pool, f.app.spec));
  }
}
BENCHMARK(BM_BytecodeCompile);

void BM_InterpreterBatch(benchmark::State& state) {
  // The JVM side of the same kernel: one op interprets 64 records; items/s
  // counts them.
  Fixture& f = Svm();
  Rng rng(1);
  blaze::Dataset input = f.app.make_input(64, rng);
  Rng brng(2);
  blaze::Dataset broadcast = f.app.make_broadcast(brng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(apps::RunOnJvm(f.app, input, &broadcast));
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_InterpreterBatch);

void BM_KirEvalBatch(benchmark::State& state) {
  // The accelerator-side half of a Blaze invocation: evaluate the kernel
  // IR over one already-serialized batch in typed device buffers (what
  // RunBatch does per attempt, minus the packing measured by
  // BM_SerializationRoundTrip). One op is one batch; items/s counts its
  // records.
  Fixture& f = Svm();
  blaze::SerializationPlan plan = blaze::MakeSerializationPlan(f.kernel);
  const std::size_t records = static_cast<std::size_t>(plan.batch);
  Rng rng(9);
  blaze::Dataset input = f.app.make_input(records, rng);
  Rng brng(10);
  blaze::Dataset broadcast = f.app.make_broadcast(brng);
  kir::DeviceBuffers buffers;
  blaze::SerializeBatch(plan, input, 0, records, buffers, &broadcast);
  kir::Evaluator evaluator(f.kernel);
  const std::map<std::string, jvm::Value> scalars = {
      {"N", jvm::Value::OfInt(static_cast<std::int32_t>(records))}};
  for (auto _ : state) {
    evaluator.Run(scalars, buffers);
    benchmark::DoNotOptimize(buffers);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(records));
}
BENCHMARK(BM_KirEvalBatch);

void BM_SerializationRoundTrip(benchmark::State& state) {
  // Pack one batch into the typed device buffers and unpack the results,
  // as BlazeRuntime::Map does per batch — the JVM boundary cost the
  // paper's method generator (§3.2) automates away.
  Fixture& f = Svm();
  blaze::SerializationPlan plan = blaze::MakeSerializationPlan(f.kernel);
  const std::size_t records = static_cast<std::size_t>(plan.batch);
  Rng rng(11);
  blaze::Dataset input = f.app.make_input(records, rng);
  Rng brng(12);
  blaze::Dataset broadcast = f.app.make_broadcast(brng);
  // Output buffers come from one evaluator run; the loop then measures
  // pure (de)serialization against them.
  kir::DeviceBuffers buffers;
  blaze::SerializeBatch(plan, input, 0, records, buffers, &broadcast);
  kir::Evaluator(f.kernel).Run(
      {{"N", jvm::Value::OfInt(static_cast<std::int32_t>(records))}},
      buffers);
  blaze::Dataset out = blaze::MakeOutputShell(plan, records);
  for (auto _ : state) {
    blaze::SerializeBatch(plan, input, 0, records, buffers, &broadcast);
    blaze::DeserializeBatch(plan, buffers, 0, records, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(records));
}
BENCHMARK(BM_SerializationRoundTrip);

void BM_MerlinTransform(benchmark::State& state) {
  Fixture& f = Svm();
  for (auto _ : state) {
    benchmark::DoNotOptimize(merlin::ApplyDesign(f.kernel, f.mid_config));
  }
}
BENCHMARK(BM_MerlinTransform);

void BM_HlsEstimateSmallKernel(benchmark::State& state) {
  Fixture& f = Svm();
  kir::Kernel transformed =
      merlin::ApplyDesign(f.kernel, f.mid_config).kernel;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hls::EstimateHls(transformed));
  }
}
BENCHMARK(BM_HlsEstimateSmallKernel);

void BM_HlsEstimateView(benchmark::State& state) {
  // What one DSE evaluation estimates: the same SVM design as an overlay
  // on the base kernel's shared tables, with no materialized kernel.
  Fixture& f = Svm();
  const hls::DesignBase base(f.kernel);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hls::EstimateHls(hls::DesignView(base, f.mid_config)));
  }
}
BENCHMARK(BM_HlsEstimateView);

void BM_HlsEstimateLargeKernel(benchmark::State& state) {
  Fixture& f = Aes();
  kir::Kernel transformed =
      merlin::ApplyDesign(f.kernel, f.app.manual_config).kernel;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hls::EstimateHls(transformed));
  }
}
BENCHMARK(BM_HlsEstimateLargeKernel);

void BM_FullDesignPointEvaluation(benchmark::State& state) {
  Fixture& f = Svm();
  Rng rng(3);
  for (auto _ : state) {
    tuner::Point p = f.space.RandomPoint(rng);
    benchmark::DoNotOptimize(f.evaluate(f.space.ToConfig(p)));
  }
}
BENCHMARK(BM_FullDesignPointEvaluation);

void BM_DesignSpaceMutation(benchmark::State& state) {
  Fixture& f = Aes();
  Rng rng(4);
  tuner::Point p = f.space.RandomPoint(rng);
  for (auto _ : state) {
    p = f.space.Mutate(p, rng, 2);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_DesignSpaceMutation);

void BM_PartitionTraining(benchmark::State& state) {
  Fixture& f = Svm();
  std::function<double(const tuner::Point&)> log_cost =
      [&](const tuner::Point& p) {
        tuner::EvalOutcome out = f.evaluate(f.space.ToConfig(p));
        return out.feasible ? std::log(out.cost) : 30.0;
      };
  for (auto _ : state) {
    Rng rng(5);
    auto samples = dse::DrawTrainingSamples(f.space, 160, log_cost, rng);
    auto candidates = dse::RuleCandidateFactors(f.space, f.kernel);
    benchmark::DoNotOptimize(
        dse::BuildPartitions(f.space, candidates, samples, {}));
  }
}
BENCHMARK(BM_PartitionTraining);

void BM_EntropyComputation(benchmark::State& state) {
  tuner::ResultDatabase db;
  Rng rng(6);
  Fixture& f = Svm();
  for (int i = 0; i < 500; ++i) {
    db.Add(f.space.RandomPoint(rng), rng.NextDouble(1, 100), true,
           static_cast<double>(i), 0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dse::UphillEntropy(db, f.space.num_factors()));
  }
}
BENCHMARK(BM_EntropyComputation);

void BM_BlazeMapBatch(benchmark::State& state) {
  Fixture& f = Svm();
  Artifact artifact =
      BuildWithConfig(*f.app.pool, f.app.spec, merlin::DesignConfig{});
  blaze::BlazeRuntime runtime;
  RegisterWithBlaze(runtime, "svm", artifact);
  Rng rng(7);
  blaze::Dataset input = f.app.make_input(1024, rng);
  Rng brng(8);
  blaze::Dataset broadcast = f.app.make_broadcast(brng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(runtime.Map("svm", input, &broadcast));
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_BlazeMapBatch);

void BM_BlazeMapPartialBatch(benchmark::State& state) {
  // A short final batch: 8 live rows in one 1024-task invocation, the
  // shape stream serving closes on its record count. The runtime pads the
  // batch and bounds the kernel by its live rows.
  Fixture& f = Svm();
  Artifact artifact =
      BuildWithConfig(*f.app.pool, f.app.spec, merlin::DesignConfig{});
  blaze::BlazeRuntime runtime;
  RegisterWithBlaze(runtime, "svm", artifact);
  Rng rng(13);
  blaze::Dataset input = f.app.make_input(8, rng);
  Rng brng(14);
  blaze::Dataset broadcast = f.app.make_broadcast(brng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(runtime.Map("svm", input, &broadcast));
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_BlazeMapPartialBatch);

// Console reporting plus ledger capture: every finished (non-aggregate,
// non-errored) run contributes its real-time ns/op to the perf ledger.
class LedgerReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& report) override {
    for (const Run& run : report) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      const double iterations =
          std::max<double>(1.0, static_cast<double>(run.iterations));
      obs::LedgerEntry entry;
      entry.ns_per_op = run.real_accumulated_time * 1e9 / iterations;
      entry.ops = iterations;
      entry.wall_ms = run.real_accumulated_time * 1e3;
      entries_[run.benchmark_name()] = entry;
    }
    ConsoleReporter::ReportRuns(report);
  }

  const std::map<std::string, obs::LedgerEntry>& entries() const {
    return entries_;
  }

 private:
  std::map<std::string, obs::LedgerEntry> entries_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  LedgerReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  const std::string path = s2fa::bench::UpdatePerfLedger(reporter.entries());
  std::fprintf(stderr, "perf ledger: %s (%zu benchmarks)\n", path.c_str(),
               reporter.entries().size());
  return 0;
}
