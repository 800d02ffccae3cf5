#include "cache/eval_cache.h"

#include <algorithm>
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
char* Put(char* out, T value) {
  std::memcpy(out, &value, sizeof(T));
  return out + sizeof(T);
}

// Writes ConfigKey(config) into `key` with one resize, reusing its storage.
void EncodeConfigKey(const merlin::DesignConfig& config, std::string& key) {
  std::size_t size = 4 + config.loops.size() * (4 + 8 + 8 + 1);
  for (const auto& [name, bits] : config.buffer_bits) size += name.size() + 5;
  key.resize(size);
  char* out = Put(key.data(), static_cast<std::uint32_t>(config.loops.size()));
  for (const auto& [id, loop] : config.loops) {
    out = Put(out, static_cast<std::int32_t>(id));
    out = Put(out, static_cast<std::int64_t>(loop.tile));
    out = Put(out, static_cast<std::int64_t>(loop.parallel));
    out = Put(out, static_cast<std::uint8_t>(loop.pipeline));
  }
  for (const auto& [name, bits] : config.buffer_bits) {
    out = std::copy_n(name.c_str(), name.size() + 1, out);  // and its NUL
    out = Put(out, static_cast<std::int32_t>(bits));
  }
}

}  // namespace

std::string ConfigKey(const merlin::DesignConfig& config) {
  std::string key;
  EncodeConfigKey(config, key);
  return key;
}

EvalCache::EvalCache(EvalCacheOptions options)
    : options_(options), stripes_(bounded() ? 1 : 16) {}

std::size_t EvalCache::StripeOf(std::string_view key) const {
  return stripes_.size() == 1 ? 0 : KeyHash{}(key) % stripes_.size();
}

std::optional<tuner::EvalOutcome> EvalCache::Find(std::string_view key) const {
  const Stripe& stripe = stripes_[StripeOf(key)];
  std::lock_guard<std::mutex> lock(stripe.mutex);
  auto it = stripe.entries.find(key);
  if (it == stripe.entries.end() || !it->second.done) return std::nullopt;
  return it->second.outcome;
}

void EvalCache::StoreLocked(Stripe& stripe, Map::value_type& node,
                            const tuner::EvalOutcome& outcome) {
  Entry& entry = node.second;
  entry.outcome = outcome;
  if (bounded()) {
    if (entry.done) {
      stripe.lru.splice(stripe.lru.begin(), stripe.lru, entry.lru_it);
    } else {
      entry.lru_it = stripe.lru.insert(stripe.lru.begin(), &node.first);
    }
  }
  entry.done = true;
  EvictLocked(stripe);
}

void EvalCache::EvictLocked(Stripe& stripe) {
  for (auto it = stripe.lru.end();
       stripe.lru.size() > options_.capacity && it != stripe.lru.begin();) {
    auto node = stripe.entries.find(**--it);
    if (node->second.waiters > 0) continue;
    stripe.entries.erase(node);
    it = stripe.lru.erase(it);
    ++stripe.stats.evictions;
    S2FA_COUNT("cache.evictions", 1);
  }
}

void EvalCache::Insert(std::string_view key,
                       const tuner::EvalOutcome& outcome) {
  Stripe& stripe = stripes_[StripeOf(key)];
  std::lock_guard<std::mutex> lock(stripe.mutex);
  auto [it, inserted] = stripe.entries.try_emplace(std::string(key));
  if (inserted || it->second.done) StoreLocked(stripe, *it, outcome);
}

tuner::EvalOutcome EvalCache::GetOrCompute(
    std::string_view key,
    const std::function<tuner::EvalOutcome()>& compute) {
  S2FA_REQUIRE(compute != nullptr, "cache needs a compute function");
  if (!options_.enabled) return compute();

  Stripe& stripe = stripes_[StripeOf(key)];
  std::unique_lock<std::mutex> lock(stripe.mutex);
  for (;;) {
    ++stripe.stats.lookups;
    auto it = stripe.entries.find(key);
    if (it == stripe.entries.end()) break;  // a miss: lead the flight
    Entry& entry = it->second;
    if (entry.done) {
      ++stripe.stats.hits;
      stripe.stats.minutes_saved += entry.outcome.eval_minutes;
      if (bounded()) {
        stripe.lru.splice(stripe.lru.begin(), stripe.lru, entry.lru_it);
      }
      S2FA_COUNT("cache.hits", 1);
      return entry.outcome;
    }
    ++stripe.stats.inflight_joins;
    S2FA_COUNT("cache.inflight_joins", 1);
    ++entry.waiters;
    const std::uint64_t flight = entry.flight;
    // Wakes when the flight lands, or when its leader threw and the entry
    // is gone (and maybe already another flight's).
    stripe.landed.wait(lock, [&] {
      it = stripe.entries.find(key);
      return it == stripe.entries.end() || it->second.flight != flight ||
             it->second.done;
    });
    if (it != stripe.entries.end() && it->second.flight == flight) {
      // The joined evaluation ran once for everyone in the flight; the
      // join avoided re-paying its simulated minutes.
      const tuner::EvalOutcome outcome = it->second.outcome;
      --it->second.waiters;
      stripe.stats.minutes_saved += outcome.eval_minutes;
      EvictLocked(stripe);
      return outcome;
    }
    // The leader threw: retry (possibly becoming the leader).
  }
  ++stripe.stats.misses;
  S2FA_COUNT("cache.misses", 1);
  // Nodes of an unordered_map stay put, and only this leader may erase an
  // entry in flight, so `node` outlives the unlocked compute.
  Map::value_type& node = *stripe.entries.try_emplace(std::string(key)).first;
  node.second.flight = ++stripe.flights;
  lock.unlock();

  tuner::EvalOutcome outcome;
  try {
    outcome = compute();
  } catch (...) {
    lock.lock();
    const bool joined = node.second.waiters > 0;
    stripe.entries.erase(stripe.entries.find(node.first));
    lock.unlock();
    if (joined) stripe.landed.notify_all();
    throw;
  }
  lock.lock();
  const bool joined = node.second.waiters > 0;
  StoreLocked(stripe, node, outcome);
  lock.unlock();
  if (joined) stripe.landed.notify_all();
  return outcome;
}

tuner::EvalFn EvalCache::Wrap(tuner::EvalFn inner) {
  S2FA_REQUIRE(inner != nullptr, "cache needs an inner evaluator");
  if (!options_.enabled) return inner;
  return [this, inner = std::move(inner)](const merlin::DesignConfig& config) {
    thread_local std::string key;
    EncodeConfigKey(config, key);
    return GetOrCompute(key, [&] { return inner(config); });
  };
}

EvalCacheStats EvalCache::stats() const {
  EvalCacheStats total;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mutex);
    total.Merge(stripe.stats);
  }
  return total;
}

std::size_t EvalCache::size() const {
  std::size_t done = 0;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mutex);
    for (const auto& [key, entry] : stripe.entries) done += entry.done;
  }
  return done;
}

}  // namespace s2fa::cache
