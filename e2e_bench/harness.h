// Measurement plumbing shared by the benchmark workloads: a host clock and
// host-speed probe, sample summaries, peak-RSS sampling, a canonical outcome
// hash, and the reference comparison.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "blaze/dataset.h"

namespace s2fa::e2e {

// One reported metric: the name and unit BENCHMARK.json declares.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// Monotonic host seconds (steady_clock).
double NowSeconds();

// How fast the host runs right now. Shared hosts change speed by tens of
// percent over minutes, which no median within one run averages away, so
// every timed rep is paired with one probe, and its timings are reported
// scaled by kReferenceSeconds / Measure(): seconds on a host where the
// probe takes kReferenceSeconds. The probe has three fixed parts, since the
// workloads lean on all three and other tenants slow each differently:
// integer mixing, random read-modify-writes in a 4 MiB table that fits the
// last-level cache, and in a 64 MiB one that competes for it.
class HostSpeedProbe {
 public:
  static constexpr double kReferenceSeconds = 0.015;
  // Resident size of the tables, which every peak-RSS reading includes.
  static constexpr double kTablesMb = 68;

  HostSpeedProbe();
  double Measure();

 private:
  static constexpr int kMixSteps = 1'700'000;
  static constexpr int kCacheSteps = 1'400'000;
  static constexpr int kMemorySteps = 300'000;

  std::vector<std::uint32_t> cache_table_;
  std::vector<std::uint32_t> memory_table_;
};

// Median and quartiles the way Python's statistics.quantiles(n=4) reports
// them (the "exclusive" method), so the benchmark and the tools reading its
// output agree on the spread.
struct Summary {
  double median = 0;
  double q1 = 0;
  double q3 = 0;
  std::size_t n = 0;
};
Summary Summarize(std::vector<double> samples);

// Nearest-rank quantile (q in [0, 1]); 0 for no samples.
double Quantile(std::vector<double> samples, double q);
double GeoMean(const std::vector<double>& samples);

// Peak resident set size of this process, in MiB.
double PeakRssMb();

// FNV-1a over the raw bytes of modeled outcomes: two reps of the same
// inputs must hash equal, bit for bit.
class CanonHash {
 public:
  void Add(std::string_view text);
  void Add(double value);
  void Add(std::uint64_t value);
  void Add(const blaze::Dataset& data);
  std::uint64_t value() const { return state_; }

 private:
  void Bytes(const void* data, std::size_t size);
  std::uint64_t state_ = 1469598103934665603ULL;
};

// Whether every value of `got` matches `want` field by field, with the
// relative tolerance the CLI's reference cross-checks use (1e-4).
bool MatchesReference(const blaze::Dataset& got, const blaze::Dataset& want);

}  // namespace s2fa::e2e
