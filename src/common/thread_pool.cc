#include "src/common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

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

// One ParallelFor call, shared by the calling thread and its queued shards.
struct ThreadPool::Batch {
  Batch(size_t count, size_t shards, const std::function<void(size_t)>& fn)
      : count(count), shards(shards), fn(fn) {}

  std::atomic<size_t> next{0};
  std::atomic<bool> abort{false};
  const size_t count;
  const size_t shards;
  const std::function<void(size_t)>& fn;  // the caller's; it outlives every shard

  std::mutex done_mutex;
  std::condition_variable done_cv;
  size_t done_shards = 0;          // guarded by done_mutex
  std::exception_ptr first_error;  // guarded by done_mutex
};

void ThreadPool::WorkerLoop() {
  for (;;) {
    Batch* batch = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock, [this] { return shutting_down_ || head_ < tasks_.size(); });
      if (head_ == tasks_.size()) {
        return;  // shutting down
      }
      batch = tasks_[head_++];
      if (head_ == tasks_.size()) {
        tasks_.clear();
        head_ = 0;
      }
    }
    RunShard(batch);
  }
}

void ThreadPool::RunShard(Batch* batch) {
  for (;;) {
    if (batch->abort.load(std::memory_order_relaxed)) {
      break;
    }
    size_t i = batch->next.fetch_add(1);
    if (i >= batch->count) {
      break;
    }
    try {
      batch->fn(i);
    } catch (...) {
      batch->abort.store(true, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(batch->done_mutex);
      if (!batch->first_error) {
        batch->first_error = std::current_exception();
      }
    }
  }
  // The last touch of *batch: once this shard is counted, the caller may
  // return and destroy it.
  std::lock_guard<std::mutex> lock(batch->done_mutex);
  if (++batch->done_shards == batch->shards) {
    batch->done_cv.notify_all();
  }
}

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

  Batch batch(count, shards, fn);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Reclaim the taken prefix first, so a queue that never drains (callers
    // on several threads keeping it busy) does not grow without bound.
    tasks_.erase(tasks_.begin(), tasks_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
    // All or nothing: if growing the queue throws, no shard references
    // `batch` and the exception leaves this frame cleanly.
    tasks_.insert(tasks_.end(), shards - 1, &batch);
  }
  work_available_.notify_all();
  RunShard(&batch);  // The calling thread participates as the final shard.

  std::unique_lock<std::mutex> lock(batch.done_mutex);
  batch.done_cv.wait(lock, [&] { return batch.done_shards == batch.shards; });
  if (batch.first_error) {
    std::rethrow_exception(batch.first_error);
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
