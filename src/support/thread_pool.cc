#include "support/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

namespace s2fa {

namespace {

// One ForkJoin call: the caller and every worker holding one of its
// tickets claim indices from `next` until none are left.
struct Job {
  const std::function<void(std::size_t)>* body = nullptr;
  std::size_t n = 0;
  std::atomic<std::size_t> next{0};
  std::size_t helping = 0;       // workers inside Run; under Workers::mutex
  std::condition_variable done;  // `helping` dropped to 0
  std::mutex error_mutex;
  std::size_t error_index = std::numeric_limits<std::size_t>::max();
  std::exception_ptr error;

  void Run() {
    for (std::size_t i; (i = next.fetch_add(1)) < n;) {
      try {
        (*body)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
      }
    }
  }
};

// The process-wide workers, joined at exit. A ticket lends one worker to
// one call; the set grows to the most tickets a call has asked for.
struct Workers {
  std::mutex mutex;
  std::condition_variable wake;
  std::deque<Job*> tickets;
  bool stopping = false;
  std::vector<std::thread> threads;

  static Workers& Get() {
    static Workers workers;
    return workers;
  }

  ~Workers() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      stopping = true;
    }
    wake.notify_all();
    for (auto& thread : threads) thread.join();
  }

  void Loop() {
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
      wake.wait(lock, [this] { return stopping || !tickets.empty(); });
      if (tickets.empty()) return;
      Job* job = tickets.front();
      tickets.pop_front();
      ++job->helping;
      lock.unlock();
      job->Run();
      lock.lock();
      // Under the lock, so the caller cannot return and free the job first.
      if (--job->helping == 0) job->done.notify_one();
    }
  }
};

}  // namespace

void ForkJoin(std::size_t n, std::size_t threads,
              const std::function<void(std::size_t)>& body) {
  Job job;
  job.body = &body;
  job.n = n;
  const std::size_t team = std::min(threads, n);  // the caller included
  const std::size_t helpers = team > 1 ? team - 1 : 0;
  Workers& workers = Workers::Get();
  if (helpers > 0) {
    {
      std::lock_guard<std::mutex> lock(workers.mutex);
      while (workers.threads.size() < helpers) {
        workers.threads.emplace_back([&workers] { workers.Loop(); });
      }
      workers.tickets.insert(workers.tickets.end(), helpers, &job);
    }
    for (std::size_t i = 0; i < helpers; ++i) workers.wake.notify_one();
  }
  job.Run();
  if (helpers > 0) {
    // Every index is claimed: withdraw the tickets nobody picked up and
    // wait out the workers still inside the job.
    std::unique_lock<std::mutex> lock(workers.mutex);
    std::erase(workers.tickets, &job);
    job.done.wait(lock, [&] { return job.helping == 0; });
  }
  if (job.error) std::rethrow_exception(job.error);
}

std::size_t ForkJoinWorkers() {
  Workers& workers = Workers::Get();
  std::lock_guard<std::mutex> lock(workers.mutex);
  return workers.threads.size();
}

}  // namespace s2fa
