#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>

namespace pythia {

namespace {
// Set while a thread is executing inside WorkerLoop; nested ParallelFor
// calls detect it and run inline instead of re-entering the queue (which
// could deadlock with every worker waiting on a nested loop's completion).
thread_local bool tls_in_worker = false;
}  // namespace

ThreadPool::ThreadPool(size_t num_workers) {
  workers_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::WorkerLoop() {
  tls_in_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

struct ThreadPool::BackgroundTask::State {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
};

void ThreadPool::BackgroundTask::Join() {
  if (state_ == nullptr) return;
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [this] { return state_->done; });
}

bool ThreadPool::BackgroundTask::done() const {
  if (state_ == nullptr) return true;
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->done;
}

ThreadPool::BackgroundTask ThreadPool::SubmitBackground(
    std::function<void()> fn) {
  BackgroundTask handle;
  handle.state_ = std::make_shared<BackgroundTask::State>();
  auto state = handle.state_;
  if (workers_.empty() || tls_in_worker) {
    // Sequential fallback: no lane to run on (or we already are one) —
    // execute inline so callers never deadlock waiting on themselves.
    fn();
    std::lock_guard<std::mutex> lock(state->mu);
    state->done = true;
    return handle;
  }
  Submit([state, fn = std::move(fn)] {
    fn();
    {
      std::lock_guard<std::mutex> lock(state->mu);
      state->done = true;
    }
    state->cv.notify_all();
  });
  return handle;
}

void ThreadPool::ParallelFor(size_t begin, size_t end,
                             const std::function<void(size_t)>& fn,
                             size_t max_parallelism) {
  if (begin >= end) return;
  const size_t total = end - begin;
  const size_t lanes =
      max_parallelism == 0 ? workers_.size() + 1 : max_parallelism;
  const size_t helpers =
      std::min({workers_.size(), total - 1, lanes > 0 ? lanes - 1 : 0});
  if (helpers == 0 || tls_in_worker) {
    for (size_t i = begin; i < end; ++i) fn(i);
    return;
  }

  struct State {
    std::atomic<size_t> next;
    std::atomic<size_t> done{0};
    size_t end;
    size_t total;
    const std::function<void(size_t)>* fn;
    std::mutex mu;
    std::condition_variable cv;
  };
  // shared_ptr keeps the state alive for stragglers that wake after the
  // caller has already observed completion and returned.
  auto state = std::make_shared<State>();
  state->next.store(begin, std::memory_order_relaxed);
  state->end = end;
  state->total = total;
  state->fn = &fn;

  auto run = [state] {
    for (;;) {
      const size_t i = state->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= state->end) return;
      (*state->fn)(i);
      if (state->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          state->total) {
        std::lock_guard<std::mutex> lock(state->mu);
        state->cv.notify_all();
      }
    }
  };
  for (size_t h = 0; h < helpers; ++h) Submit(run);
  run();  // the caller is a lane too
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&] {
    return state->done.load(std::memory_order_acquire) == state->total;
  });
}

ThreadPool& ThreadPool::Global() {
  // Leaked on purpose: worker threads may outlive every static destructor
  // ordering we could rely on, and the OS reclaims them at process exit.
  static ThreadPool* pool = [] {
    size_t lanes = std::thread::hardware_concurrency();
    if (lanes == 0) lanes = 1;
    if (const char* env = std::getenv("PYTHIA_THREADS")) {
      char* endp = nullptr;
      const long v = std::strtol(env, &endp, 10);
      if (endp != env && *endp == '\0' && v >= 1) {
        lanes = static_cast<size_t>(v);
      }
    }
    return new ThreadPool(lanes - 1);
  }();
  return *pool;
}

}  // namespace pythia
