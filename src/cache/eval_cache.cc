#include "cache/eval_cache.h"

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "obs/obs.h"
#include "support/error.h"

namespace s2fa::cache {

double EvalCacheStats::DuplicateRate() const {
  if (lookups == 0) return 0;
  return static_cast<double>(hits + inflight_joins) /
         static_cast<double>(lookups);
}

void EvalCacheStats::Merge(const EvalCacheStats& other) {
  lookups += other.lookups;
  hits += other.hits;
  misses += other.misses;
  inflight_joins += other.inflight_joins;
  evictions += other.evictions;
  minutes_saved += other.minutes_saved;
}

std::optional<EvalCacheOptions> ParseCacheSpec(const std::string& spec) {
  EvalCacheOptions options;
  if (spec == "on" || spec == "1") return options;
  if (spec == "off" || spec == "0") {
    options.enabled = false;
    return options;
  }
  // A positive integer is an LRU capacity. strtoull would happily wrap a
  // negative sign, so insist on digits only.
  if (spec.empty() ||
      spec.find_first_not_of("0123456789") != std::string::npos) {
    return std::nullopt;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(spec.c_str(), &end, 10);
  if (end == spec.c_str() || *end != '\0' || value == 0 || errno == ERANGE ||
      value > std::numeric_limits<std::size_t>::max()) {
    return std::nullopt;
  }
  options.capacity = static_cast<std::size_t>(value);
  return options;
}

namespace {

template <typename T>
void AppendBytes(std::string& out, T value) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  out.append(bytes, sizeof(T));
}

}  // namespace

std::string ConfigKey(const merlin::DesignConfig& config) {
  constexpr std::size_t kLoopBytes = 4 + 8 + 8 + 1;
  std::size_t size = 4 + config.loops.size() * kLoopBytes;
  for (const auto& [name, bits] : config.buffer_bits) size += name.size() + 5;
  std::string key;
  key.reserve(size);
  AppendBytes(key, static_cast<std::uint32_t>(config.loops.size()));
  for (const auto& [id, loop] : config.loops) {
    AppendBytes(key, static_cast<std::int32_t>(id));
    AppendBytes(key, static_cast<std::int64_t>(loop.tile));
    AppendBytes(key, static_cast<std::int64_t>(loop.parallel));
    AppendBytes(key, static_cast<std::uint8_t>(loop.pipeline));
  }
  for (const auto& [name, bits] : config.buffer_bits) {
    key.append(name.c_str(), name.size() + 1);  // the name and its NUL
    AppendBytes(key, static_cast<std::int32_t>(bits));
  }
  return key;
}

EvalCache::EvalCache(EvalCacheOptions options) : options_(options) {}

std::optional<tuner::EvalOutcome> EvalCache::Find(
    const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second.outcome;
}

void EvalCache::TouchLocked(Entry& entry, const std::string& key) {
  if (bounded() && entry.lru_it != lru_.begin()) {
    lru_.erase(entry.lru_it);
    lru_.push_front(key);
    entry.lru_it = lru_.begin();
  }
}

void EvalCache::InsertLocked(const std::string& key,
                             const tuner::EvalOutcome& outcome) {
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second.outcome = outcome;
    TouchLocked(it->second, key);
    return;
  }
  if (!bounded()) {
    entries_.emplace(key, Entry{outcome, {}});
    return;
  }
  lru_.push_front(key);
  entries_.emplace(key, Entry{outcome, lru_.begin()});
  while (entries_.size() > options_.capacity) {
    entries_.erase(lru_.back());
    lru_.pop_back();
    ++stats_.evictions;
    S2FA_COUNT("cache.evictions", 1);
  }
}

void EvalCache::Insert(const std::string& key,
                       const tuner::EvalOutcome& outcome) {
  std::lock_guard<std::mutex> lock(mutex_);
  InsertLocked(key, outcome);
}

tuner::EvalOutcome EvalCache::GetOrCompute(
    const std::string& key,
    const std::function<tuner::EvalOutcome()>& compute) {
  S2FA_REQUIRE(compute != nullptr, "cache needs a compute function");
  if (!options_.enabled) return compute();

  for (;;) {
    std::shared_ptr<Flight> flight;
    bool leader = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.lookups;
      auto it = entries_.find(key);
      if (it != entries_.end()) {
        ++stats_.hits;
        stats_.minutes_saved += it->second.outcome.eval_minutes;
        TouchLocked(it->second, key);
        S2FA_COUNT("cache.hits", 1);
        return it->second.outcome;
      }
      auto in = inflight_.find(key);
      if (in != inflight_.end()) {
        flight = in->second;
        ++stats_.inflight_joins;
        S2FA_COUNT("cache.inflight_joins", 1);
      } else {
        flight = std::make_shared<Flight>();
        inflight_[key] = flight;
        leader = true;
        ++stats_.misses;
        S2FA_COUNT("cache.misses", 1);
      }
    }

    if (!leader) {
      std::unique_lock<std::mutex> wait_lock(flight->mutex);
      flight->cv.wait(wait_lock, [&] { return flight->done; });
      if (!flight->failed) {
        // The joined evaluation ran once for everyone in the flight; the
        // join avoided re-paying its simulated minutes.
        std::lock_guard<std::mutex> lock(mutex_);
        stats_.minutes_saved += flight->outcome.eval_minutes;
        return flight->outcome;
      }
      continue;  // leader threw: retry (possibly becoming the leader)
    }

    tuner::EvalOutcome outcome;
    try {
      outcome = compute();
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        inflight_.erase(key);
      }
      {
        std::lock_guard<std::mutex> flight_lock(flight->mutex);
        flight->done = true;
        flight->failed = true;
      }
      flight->cv.notify_all();
      throw;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      InsertLocked(key, outcome);
      inflight_.erase(key);
    }
    {
      std::lock_guard<std::mutex> flight_lock(flight->mutex);
      flight->outcome = outcome;
      flight->done = true;
    }
    flight->cv.notify_all();
    return outcome;
  }
}

tuner::EvalFn EvalCache::Wrap(tuner::EvalFn inner) {
  S2FA_REQUIRE(inner != nullptr, "cache needs an inner evaluator");
  if (!options_.enabled) return inner;
  return [this, inner = std::move(inner)](const merlin::DesignConfig& config) {
    return GetOrCompute(ConfigKey(config), [&] { return inner(config); });
  };
}

EvalCacheStats EvalCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t EvalCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace s2fa::cache
