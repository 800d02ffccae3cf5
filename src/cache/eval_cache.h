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
//   * thread safety — lookups/inserts take one short lock; the black box
//     itself is never called under it;
//   * single-flight in-flight deduplication — when two evaluators request
//     the same key concurrently, one computes and the others block and
//     join its result instead of racing duplicate synthesis jobs;
//   * an optional LRU capacity bound (`capacity` entries; 0 = unbounded)
//     for explorations too large to memoize wholesale. The recency list
//     is kept only when a bound is set; the unbounded default never
//     touches it.
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
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

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
  const EvalCacheOptions& options() const { return options_; }

  // Peeks without touching single-flight state. Counts nothing; intended
  // for tests and diagnostics.
  std::optional<tuner::EvalOutcome> Find(const std::string& key) const;

  // Stores a completed outcome (evicting LRU entries past capacity).
  void Insert(const std::string& key, const tuner::EvalOutcome& outcome);

  // The heart of the layer: returns the cached outcome for `key`, joins a
  // concurrent in-flight evaluation of it, or runs `compute` (outside the
  // lock) and publishes the result. If the leader's compute throws, the
  // exception propagates to the leader and every waiter retries (one of
  // them becoming the new leader).
  tuner::EvalOutcome GetOrCompute(
      const std::string& key,
      const std::function<tuner::EvalOutcome()>& compute);

  // Wraps `inner`, keying on ConfigKey(config). The cache must outlive
  // the returned function. Pass-through when disabled.
  tuner::EvalFn Wrap(tuner::EvalFn inner);

  EvalCacheStats stats() const;
  std::size_t size() const;  // completed entries currently held

 private:
  // One in-flight evaluation; waiters block on `cv` until `done`.
  struct Flight {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    bool failed = false;
    tuner::EvalOutcome outcome;
  };

  struct Entry {
    tuner::EvalOutcome outcome;
    std::list<std::string>::iterator lru_it;  // only when bounded()
  };

  bool bounded() const { return options_.capacity > 0; }

  void InsertLocked(const std::string& key,
                    const tuner::EvalOutcome& outcome);
  void TouchLocked(Entry& entry, const std::string& key);

  EvalCacheOptions options_;

  mutable std::mutex mutex_;
  std::unordered_map<std::string, Entry> entries_;
  std::list<std::string> lru_;  // front = most recently used; bounded only
  std::unordered_map<std::string, std::shared_ptr<Flight>> inflight_;
  EvalCacheStats stats_;
};

}  // namespace s2fa::cache
