#include "util/thread_pool.hpp"

#include <cstdlib>
#include <limits>

#include "util/inject.hpp"
#include "util/knobs.hpp"

namespace hlts::util {

namespace {

/// Set while a thread is executing pool tasks, so a nested parallel_for
/// from inside a task runs inline instead of deadlocking on submit_mutex_.
thread_local const ThreadPool* t_current_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = default_threads();
  workers_.reserve(threads - 1);
  for (std::size_t i = 0; i + 1 < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

std::size_t ThreadPool::default_threads() {
  // Registry-audited read; malformed or < 1 values fall back to the
  // hardware default (the knob's documented Ignore policy).
  if (const std::optional<long long> v = knobs::read_int("HLTS_THREADS");
      v && *v >= 1) {
    return static_cast<std::size_t>(*v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(default_threads());
  return pool;
}

void ThreadPool::run_indices(const std::function<void(std::size_t)>& fn,
                             std::size_t n) {
  std::size_t completed = 0;
  for (;;) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) break;
    try {
      HLTS_FAILPOINT("pool.task");
      fn(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!error_ || i < error_index_) {
        error_ = std::current_exception();
        error_index_ = i;
      }
    }
    ++completed;
  }
  if (completed > 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    done_ += completed;
    if (done_ == n) done_cv_.notify_all();
  }
}

void ThreadPool::worker_loop() {
  t_current_pool = this;
  std::unique_lock<std::mutex> lock(mutex_);
  std::uint64_t seen = 0;
  for (;;) {
    work_cv_.wait(lock, [&] {
      return stop_ || (job_ != nullptr && generation_ != seen);
    });
    if (stop_) return;
    seen = generation_;
    const std::function<void(std::size_t)>* fn = job_;
    const std::size_t n = job_n_;
    ++active_workers_;
    lock.unlock();
    run_indices(*fn, n);
    lock.lock();
    if (--active_workers_ == 0) done_cv_.notify_all();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  // Inline when there is nothing to fan out to, or when called from inside
  // one of this pool's own tasks (nested use).
  if (workers_.empty() || n == 1 || t_current_pool == this) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  std::lock_guard<std::mutex> submit(submit_mutex_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = &fn;
    job_n_ = n;
    done_ = 0;
    error_ = nullptr;
    error_index_ = std::numeric_limits<std::size_t>::max();
    next_.store(0, std::memory_order_relaxed);
    ++generation_;
  }
  work_cv_.notify_all();
  {
    // Mark the caller as inside the pool while it participates, so a
    // nested parallel_for from one of its own tasks runs inline instead of
    // re-locking submit_mutex_.
    const ThreadPool* prev = t_current_pool;
    t_current_pool = this;
    run_indices(fn, n);
    t_current_pool = prev;
  }

  std::exception_ptr err;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    // Wait for every index to finish *and* every worker to leave
    // run_indices, so no stale worker can touch the next job's cursor.
    done_cv_.wait(lock, [&] { return done_ == n && active_workers_ == 0; });
    job_ = nullptr;
    err = error_;
    error_ = nullptr;
  }
  if (err) std::rethrow_exception(err);
}

}  // namespace hlts::util
