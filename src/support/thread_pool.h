// Fork-join parallelism for the DSE's partition phase and budget-reclaim
// waves and for the serving fan-outs.
#pragma once

#include <cstddef>
#include <functional>

namespace s2fa {

// Runs body(0) .. body(n - 1), each exactly once, and returns when all
// have finished. The caller claims indices in order alongside at most
// `threads - 1` workers (none if `threads` <= 1) of one process-wide set
// that outlives every call, so an exploration or a drain starts no
// threads. Overlapping and nested calls share that set, so `threads` is a
// cap: a call may get no worker, and a body must not block waiting for a
// sibling index. The caller never waits for a worker to start, so a
// nested call completes even when every worker is busy. If bodies throw,
// the lowest failing index's exception is rethrown once all others finish.
void ForkJoin(std::size_t n, std::size_t threads,
              const std::function<void(std::size_t)>& body);

// Workers ForkJoin has started so far: the most helpers one call asked for.
std::size_t ForkJoinWorkers();

}  // namespace s2fa
