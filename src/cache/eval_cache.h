// Shared memoizing evaluation cache (the "never pay for the same design
// point twice" layer).
//
// OpenTuner answers re-proposed configurations from its results database
// and AutoDSE treats the HLS oracle as far too expensive to consult twice
// for the same point; this cache gives the whole evaluation stack that
// property. It is content-addressed on a compact binary encoding of the
// config (`ConfigKey`, not the human-readable `DesignConfig::ToString()`,
// which costs an ostringstream per lookup), deliberately *unscoped* — the
// training phase, every partition, and a vanilla run all share one cache,
// so a point the trainer already synthesized is free for whichever
// partition re-proposes it.
//
// Three properties beyond a plain map:
//   * thread safety — keys spread over lock stripes; a hit takes one
//     short lock and allocates nothing, a miss two, and the black box
//     itself is never called under one;
//   * single-flight in-flight deduplication — when two evaluators request
//     the same key concurrently, one computes and the others block and
//     join its result instead of racing duplicate synthesis jobs;
//   * an optional LRU capacity bound (`capacity` entries; 0 = unbounded)
//     for explorations too large to memoize wholesale. A bounded cache
//     keeps one stripe, so its recency order is exact; the unbounded
//     default keeps no recency list.
//
// Determinism: a hit replays the stored EvalOutcome bit-for-bit —
// including its charged `eval_minutes` — so the simulated clock advances
// exactly as if the evaluation had been re-paid, and a cache-on run's
// trace is identical to the cache-off run's (the wall clock is what
// shrinks). Layering is journal -> cache -> resilience -> raw evaluator:
// a cache hit skips fault injection and retries exactly like a journal
// hit, and a journal hit never touches the cache at all.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "tuner/driver.h"

namespace s2fa::cache {

struct EvalCacheOptions {
  bool enabled = true;
  // Maximum completed entries kept (least-recently-used wins); 0 keeps
  // everything. In-flight evaluations are not counted against it.
  std::size_t capacity = 0;
};

struct EvalCacheStats {
  std::size_t lookups = 0;         // GetOrCompute calls while enabled
  std::size_t hits = 0;            // answered from a completed entry
  std::size_t misses = 0;          // had to run the black box
  std::size_t inflight_joins = 0;  // joined a concurrent evaluation
  std::size_t evictions = 0;       // LRU entries dropped
  double minutes_saved = 0;        // simulated eval_minutes not re-paid

  // hits + joins over lookups — the duplicate-point rate of the proposal
  // stream the cache observed.
  double DuplicateRate() const;

  void Merge(const EvalCacheStats& other);
};

// Parses an --eval-cache / S2FA_EVAL_CACHE spec: "on" (unbounded),
// "off" (disabled), or a positive integer N (LRU capacity N). Returns
// nullopt on anything else.
std::optional<EvalCacheOptions> ParseCacheSpec(const std::string& spec);

// The cache key of `config`: a compact binary encoding, injective over
// configs whose buffer names hold no NUL byte (kernel buffer names are C
// identifiers). Layout, in native byte order: the loop count (4 bytes);
// per loop in id order its id (4), tile (8), parallel (8) and pipeline
// mode (1); then per buffer in name order its name, a NUL byte and its
// bits (4).
std::string ConfigKey(const merlin::DesignConfig& config);

class EvalCache {
 public:
  explicit EvalCache(EvalCacheOptions options = {});

  bool enabled() const { return options_.enabled; }

  // Peeks at a completed entry without touching single-flight state.
  // Counts nothing; intended for tests and diagnostics.
  std::optional<tuner::EvalOutcome> Find(std::string_view key) const;

  // Stores a completed outcome (evicting LRU entries past capacity). A key
  // in flight keeps its flight: its leader's outcome is what is stored.
  void Insert(std::string_view key, const tuner::EvalOutcome& outcome);

  // The heart of the layer: returns the cached outcome for `key`, joins a
  // concurrent in-flight evaluation of it, or runs `compute` (outside the
  // lock) and publishes the result. If the leader's compute throws, the
  // exception propagates to the leader and every waiter retries (one of
  // them becoming the new leader).
  tuner::EvalOutcome GetOrCompute(
      std::string_view key,
      const std::function<tuner::EvalOutcome()>& compute);

  // Wraps `inner`, keying on ConfigKey(config), encoded into a per-thread
  // buffer. The cache must outlive the returned function. Pass-through
  // when disabled.
  tuner::EvalFn Wrap(tuner::EvalFn inner);

  EvalCacheStats stats() const;
  std::size_t size() const;  // completed entries currently held

 private:
  // A key's entry: in flight until its leader publishes, then done. A
  // leader whose compute throws erases it.
  struct Entry {
    tuner::EvalOutcome outcome;
    std::uint64_t flight = 0;  // which of the stripe's misses created it
    bool done = false;
    std::size_t waiters = 0;  // joiners yet to read it: not evicted
    std::list<const std::string*>::iterator lru_it;  // bounded and done
  };
  // Lets the maps look a key up by string_view, without a std::string.
  struct KeyHash : std::hash<std::string_view> {
    using is_transparent = void;
  };
  using Map = std::unordered_map<std::string, Entry, KeyHash, std::equal_to<>>;

  // One lock's share of the keys, cache-line aligned so stripes share none.
  struct alignas(64) Stripe {
    mutable std::mutex mutex;
    std::condition_variable landed;  // a joined flight landed or failed
    Map entries;
    std::list<const std::string*> lru;  // front = most recent; bounded only
    std::uint64_t flights = 0;
    EvalCacheStats stats;
  };

  bool bounded() const { return options_.capacity > 0; }
  std::size_t StripeOf(std::string_view key) const;
  // Marks `node` done with `outcome` as the most recent entry and evicts
  // past capacity.
  void StoreLocked(Stripe& stripe, Map::value_type& node,
                   const tuner::EvalOutcome& outcome);
  // Evicts least recent first down to capacity, sparing entries whose
  // joiners have yet to read them.
  void EvictLocked(Stripe& stripe);

  EvalCacheOptions options_;
  std::vector<Stripe> stripes_;  // 16 lock stripes; 1 when bounded
};

}  // namespace s2fa::cache
