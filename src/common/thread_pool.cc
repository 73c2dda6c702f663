#include "src/common/thread_pool.h"

#include <atomic>
#include <exception>
#include <memory>

namespace vdp {

ThreadPool::ThreadPool(size_t worker_count) {
  if (worker_count == 0) {
    worker_count = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(worker_count);
  for (size_t i = 0; i < worker_count; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (auto& w : workers_) {
    w.join();
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock, [this] { return shutting_down_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        return;  // shutting down
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

namespace {

// Shared between the calling thread and every queued shard. Heap-allocated and
// owned jointly (shared_ptr) so a queued task can never observe a destroyed
// stack frame, no matter how the calling thread unwinds.
struct ParallelForControl {
  std::atomic<size_t> next{0};
  std::atomic<bool> abort{false};
  size_t count = 0;
  size_t shards = 0;
  std::function<void(size_t)> fn;  // owned copy; outlives the caller's argument

  std::mutex done_mutex;
  std::condition_variable done_cv;
  size_t done_shards = 0;               // guarded by done_mutex
  std::exception_ptr first_error;       // guarded by done_mutex
};

}  // namespace

void ThreadPool::ParallelFor(size_t count, const std::function<void(size_t)>& fn) {
  if (count == 0) {
    return;
  }
  size_t shards = std::min(count, workers_.size());
  if (shards <= 1) {
    for (size_t i = 0; i < count; ++i) {
      fn(i);
    }
    return;
  }

  auto ctl = std::make_shared<ParallelForControl>();
  ctl->count = count;
  ctl->shards = shards;
  ctl->fn = fn;

  auto shard_body = [ctl] {
    for (;;) {
      if (ctl->abort.load(std::memory_order_relaxed)) {
        break;
      }
      size_t i = ctl->next.fetch_add(1);
      if (i >= ctl->count) {
        break;
      }
      try {
        ctl->fn(i);
      } catch (...) {
        ctl->abort.store(true, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(ctl->done_mutex);
        if (!ctl->first_error) {
          ctl->first_error = std::current_exception();
        }
      }
    }
    std::lock_guard<std::mutex> lock(ctl->done_mutex);
    if (++ctl->done_shards == ctl->shards) {
      ctl->done_cv.notify_all();
    }
  };

  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (size_t s = 0; s + 1 < shards; ++s) {
      tasks_.push(shard_body);
    }
  }
  work_available_.notify_all();
  shard_body();  // The calling thread participates as the final shard.

  std::unique_lock<std::mutex> lock(ctl->done_mutex);
  ctl->done_cv.wait(lock, [&] { return ctl->done_shards == ctl->shards; });
  if (ctl->first_error) {
    std::rethrow_exception(ctl->first_error);
  }
}

void ForEachIndex(ThreadPool* pool, size_t count, const std::function<void(size_t)>& fn) {
  if (pool != nullptr) {
    pool->ParallelFor(count, fn);
    return;
  }
  for (size_t i = 0; i < count; ++i) {
    fn(i);
  }
}

ThreadPool& GlobalPool() {
  // Intentionally leaked: a function-local static ThreadPool would run its
  // destructor during static teardown, joining workers while other static
  // destructors (gtest fixtures, group parameter caches) may still race with
  // or wait on the pool -- a known deadlock class. Worker threads either park
  // in the condition-variable wait or are reaped by the OS at process exit,
  // so leaking the object is safe and deliberate.
  static ThreadPool* pool = new ThreadPool();
  return *pool;
}

}  // namespace vdp
