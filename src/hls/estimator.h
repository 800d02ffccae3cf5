// The HLS estimator: s2fa's stand-in for Xilinx SDx synthesis (paper §3.2,
// Impediment 1).
//
// Given a design as a view (hls/view.h: a base kernel plus the Merlin loop
// pragmas, tile factors and interface bit-widths of one design point),
// produces the quantities the DSE needs from a black-box HLS run:
//   * execution cycles for one accelerator invocation (whole batch),
//   * post-synthesis resource utilization (BRAM/DSP/FF/LUT),
//   * achieved clock frequency (degrades with congestion / deep unrolling),
//   * feasibility (resource cap, timing),
//   * a simulated synthesis wall-time ("minutes to an hour", §4.3.3) that
//     drives the DSE's exploration-time axis.
//
// The model is analytic but physically grounded: pipelined loops get
// II = max(recurrence II, memory-port II); unrolling replicates operators
// and pressures ports; off-chip throughput scales with interface bit-width;
// tree reduction breaks accumulation recurrences. These are exactly the
// landscape features the paper's DSE strategies are designed around.
#pragma once

#include <string>
#include <vector>

#include "hls/bottleneck.h"
#include "hls/device.h"
#include "hls/view.h"
#include "kir/kernel.h"

namespace s2fa::hls {

struct Utilization {
  double bram = 0, dsp = 0, ff = 0, lut = 0;  // used (raw units)
  // Fractions of the device's raw totals.
  double bram_frac = 0, dsp_frac = 0, ff_frac = 0, lut_frac = 0;

  double MaxFraction() const;
};

struct HlsResult {
  bool feasible = true;
  std::string infeasible_reason;

  double cycles = 0;       // one invocation over the whole batch
  double freq_mhz = 0;     // achieved clock
  double exec_us = 0;      // cycles / freq
  Utilization util;
  double eval_minutes = 0; // simulated HLS synthesis wall time
  std::vector<std::string> notes;
  // What binds this design, recorded where the estimator took the decision
  // (dominant pipelined II, resource-cap argmax, frequency-slowdown split)
  // — never re-derived in a second pass. kNone when nothing binds.
  Bottleneck bottleneck;

  // Sanity check for results crossing a trust boundary (the real flow
  // treats the HLS tool as an unreliable oracle): a feasible result must
  // report positive finite cycles/frequency/latency, utilization fractions
  // in [0, 1], and a positive finite synthesis time; the bottleneck
  // attribution must carry finite numbers and, on an infeasible verdict,
  // blame the same resource/decision as infeasible_reason. The resilience
  // layer classifies implausible results as garbage rather than acting on
  // them.
  bool Plausible() const;
};

struct EstimatorOptions {
  DeviceModel device = DeviceModel::VU9P();

  // Fixed control/shell-adjacent overhead inside the usable region.
  double base_lut = 5000, base_ff = 8000, base_bram = 16;

  // Frequency model coefficients (see hls::EstimateHls implementation).
  double lut_congestion_knee = 0.25;
  double lut_congestion_slope = 0.9;
  double ff_congestion_knee = 0.30;
  double ff_congestion_slope = 0.5;
  double unroll_slowdown = 0.018;      // x log2(max parallel factor)
  // Routing-complexity wall: slowdown += (max_parallel/knee)^power. The
  // paper: "coarse-grained parallelism with factor 256 ... might be
  // infeasible for most designs due to high routing complexity, but it
  // could be an optimal choice for certain designs" (4.3.2).
  double routing_knee = 256.0;
  double routing_power = 1.5;
  double wavefront_slowdown = 1.3;     // unrolled buffer-carried recurrence
  double min_feasible_mhz = 60.0;

  // Attribution thresholds for *feasible* designs: a clock below
  // freq_attr_fraction * target blames the frequency model, and a max
  // utilization above near_cap_fraction * usable cap blames that resource
  // when nothing else binds first.
  double freq_attr_fraction = 0.8;
  double near_cap_fraction = 0.9;

  // Synthesis-time model: minutes = a + b * sqrt(spatial kops) (+/- 25%
  // deterministic jitter), clamped to [min, max].
  double synth_base_min = 2.0;
  double synth_scale = 0.55;
  double synth_min = 1.5;
  double synth_max = 45.0;
};

// Estimates one design point. The DSE builds one DesignBase per space and
// one DesignView per evaluation.
HlsResult EstimateHls(const DesignView& view,
                      const EstimatorOptions& options = {});

// Estimates a kernel as it is, pragmas and interface widths included (for
// instance merlin::ApplyDesign's output): validates it and estimates a
// view of it with nothing overlaid. Throws MalformedInput if the kernel
// does not validate.
HlsResult EstimateHls(const kir::Kernel& kernel,
                      const EstimatorOptions& options = {});

}  // namespace s2fa::hls
