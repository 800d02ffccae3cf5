#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>

namespace s2fa::e2e {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

void XorShift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
}

// `steps` random read-modify-writes in `table` (a power-of-two size).
std::uint64_t Scatter(std::vector<std::uint32_t>& table, int steps) {
  std::uint64_t x = 88172645463325252ULL;
  std::uint64_t sum = 0;
  for (int i = 0; i < steps; ++i) {
    XorShift(x);
    std::uint32_t& slot = table[x & (table.size() - 1)];
    slot += static_cast<std::uint32_t>(x >> 32);
    sum += slot;
  }
  return sum;
}

}  // namespace

HostSpeedProbe::HostSpeedProbe()
    : cache_table_(std::size_t{1} << 20), memory_table_(std::size_t{1} << 24) {}

double HostSpeedProbe::Measure() {
  // Each part takes about 5 ms on a quiet host. The table parts first run
  // untimed, so the timed pass sees how well the cache keeps their lines
  // against other tenants, not what the last rep evicted.
  volatile std::uint64_t sink =
      Scatter(cache_table_, kCacheSteps) + Scatter(memory_table_, kMemorySteps);
  const double start = NowSeconds();
  std::uint64_t x = 1;
  std::uint64_t sum = 0;
  for (int i = 0; i < kMixSteps; ++i) {
    XorShift(x);
    sum += x % 7;
  }
  sink = sink + sum + Scatter(cache_table_, kCacheSteps) +
         Scatter(memory_table_, kMemorySteps);
  return NowSeconds() - start;
}

Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  s.median = n % 2 == 1 ? samples[n / 2]
                        : (samples[n / 2 - 1] + samples[n / 2]) / 2;
  if (n == 1) {
    s.q1 = s.q3 = samples[0];
    return s;
  }
  // statistics.quantiles(data, n=4, method="exclusive").
  auto cut = [&](std::size_t i) {
    const std::size_t m = n + 1;
    std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, n - 1);
    const double delta =
        static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (samples[j - 1] * (4 - delta) + samples[j] * delta) / 4;
  };
  s.q1 = cut(1);
  s.q3 = cut(3);
  return s;
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size())) - 1;
  const auto index = static_cast<std::size_t>(std::max(0.0, rank));
  return samples[std::min(index, samples.size() - 1)];
}

double GeoMean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  double log_sum = 0;
  for (double v : samples) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(samples.size()));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void CanonHash::Bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    state_ ^= p[i];
    state_ *= 1099511628211ULL;
  }
}

void CanonHash::Add(std::string_view text) {
  Bytes(text.data(), text.size());
  Add(static_cast<std::uint64_t>(text.size()));
}

void CanonHash::Add(double value) { Bytes(&value, sizeof value); }

void CanonHash::Add(std::uint64_t value) { Bytes(&value, sizeof value); }

namespace {

double AsNumber(const jvm::Value& v) {
  if (v.is_double()) return v.AsDouble();
  if (v.is_float()) return v.AsFloat();
  if (v.is_long()) return static_cast<double>(v.AsLong());
  return v.AsInt();
}

}  // namespace

void CanonHash::Add(const blaze::Dataset& data) {
  Add(static_cast<std::uint64_t>(data.num_records()));
  for (std::size_t c = 0; c < data.num_columns(); ++c) {
    const blaze::Column& column = data.column(c);
    Add(column.field);
    for (const jvm::Value& v : column.data) Add(AsNumber(v));
  }
}

bool MatchesReference(const blaze::Dataset& got, const blaze::Dataset& want) {
  if (got.num_records() != want.num_records()) return false;
  for (std::size_t c = 0; c < want.num_columns(); ++c) {
    const blaze::Column& w = want.column(c);
    if (!got.HasField(w.field)) return false;
    const blaze::Column& g = got.ColumnByField(w.field);
    if (g.data.size() != w.data.size()) return false;
    for (std::size_t i = 0; i < w.data.size(); ++i) {
      const double expect = AsNumber(w.data[i]);
      if (std::fabs(AsNumber(g.data[i]) - expect) >
          1e-4 * std::max(1.0, std::fabs(expect))) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace s2fa::e2e
