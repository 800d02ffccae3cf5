// Per-layer metrics of the traced rep. Three sources, all read from
// outside the program: the spans and counters it already emits (obs), the
// workload's own outcomes and runtime stats (RepCheck::layer), and the
// benchmark's timed calls into the kernel layer (the kernel probes).
#pragma once

#include <vector>

#include "harness.h"
#include "obs/obs.h"
#include "obs/profile.h"
#include "workloads.h"

namespace s2fa::e2e {

// Everything a traced Setup + Run left behind.
struct TracedRep {
  obs::Profile profile;
  obs::MetricsSnapshot snapshot;
  const RepCheck* check = nullptr;
  double setup_wall_s = 0;  // traced Setup()
  double rep_wall_s = 0;    // traced Run()
};

// Every per-layer metric, in BENCHMARK.json order, except the obs and
// harness guards main.cc measures itself. Metrics a workload never
// exercises read 0.
std::vector<Metric> LayerMetrics(const TracedRep& traced,
                                 const std::vector<KernelProbe>& probes);

}  // namespace s2fa::e2e
