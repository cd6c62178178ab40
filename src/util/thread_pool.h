// Persistent thread pool shared by training and inference.
//
// Design notes:
//  - One process-wide pool (ThreadPool::Global()) sized to the hardware,
//    instead of spawning raw std::thread workers per training call. Worker
//    threads park on a condition variable between bursts, so an idle pool
//    costs nothing and a WorkloadModel::Predict call never pays thread
//    start-up latency on the query path.
//  - ParallelFor hands out loop indices through a shared atomic counter
//    (no work stealing, no per-task queues). The caller participates as a
//    worker, so a pool with zero workers degrades to a plain sequential
//    loop — which is also the deterministic reference behaviour.
//  - Determinism: every call site writes only to per-index state and merges
//    in index order afterwards, so results are bit-identical no matter how
//    indices are interleaved across threads (see the determinism guard in
//    tests/predictor_test.cc).
#ifndef PYTHIA_UTIL_THREAD_POOL_H_
#define PYTHIA_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace pythia {

class ThreadPool {
 public:
  // Starts `num_workers` parked worker threads (0 is valid: every
  // ParallelFor then runs inline on the caller).
  explicit ThreadPool(size_t num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_workers() const { return workers_.size(); }

  // Runs fn(i) exactly once for every i in [begin, end) and blocks until
  // all calls completed. Up to `max_parallelism` threads (caller included)
  // work concurrently; 0 means "workers + caller". fn must not throw.
  //
  // Calls issued from inside a pool worker run inline on that worker (no
  // nested fan-out), which makes the helper safe to use from code that may
  // itself be running under ParallelFor.
  void ParallelFor(size_t begin, size_t end,
                   const std::function<void(size_t)>& fn,
                   size_t max_parallelism = 0);

  // Handle to a task submitted through SubmitBackground. Join() blocks
  // until the task has run to completion; it is idempotent and a no-op on a
  // default-constructed (empty) handle. Handles are movable and copyable
  // (copies share the same completion state).
  class BackgroundTask {
   public:
    BackgroundTask() = default;
    // Blocks until the task finished (returns immediately if it already
    // has, or if the handle is empty).
    void Join();
    bool valid() const { return state_ != nullptr; }
    // True once the task function has returned. Non-blocking.
    bool done() const;

   private:
    friend class ThreadPool;
    struct State;
    std::shared_ptr<State> state_;
  };

  // Background lane: runs `fn` once on some pool worker, off the caller's
  // thread, and returns a joinable handle. Unlike ParallelFor the caller
  // does NOT participate — the point is to keep long-running work (e.g.
  // incremental model retraining) off the query hot path. With zero
  // workers, or when called from inside a pool worker, `fn` runs inline
  // before returning (the deterministic sequential fallback, mirroring
  // ParallelFor's).
  BackgroundTask SubmitBackground(std::function<void()> fn);

  // Process-wide shared pool. Sized to hardware_concurrency() - 1 workers
  // (the caller thread is the remaining lane); the PYTHIA_THREADS
  // environment variable overrides the total lane count when set.
  static ThreadPool& Global();

 private:
  void WorkerLoop();
  void Submit(std::function<void()> task);

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace pythia

#endif  // PYTHIA_UTIL_THREAD_POOL_H_
