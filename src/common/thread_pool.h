// Fixed-size worker pool with a blocking ParallelFor. The paper notes that the
// Sigma-OR proofs for distinct coins/coordinates are independent and can be
// created and verified on separate cores; this pool backs those batch paths.
#ifndef SRC_COMMON_THREAD_POOL_H_
#define SRC_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace vdp {

class ThreadPool {
 public:
  // worker_count == 0 means hardware_concurrency (at least 1).
  explicit ThreadPool(size_t worker_count = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t worker_count() const { return workers_.size(); }

  // Runs fn(i) for i in [0, count), blocking until all iterations finish.
  // Exception-safe: if any iteration throws, remaining iterations are skipped
  // (already-started ones run to completion), the call still blocks until all
  // shards have drained, and the first exception is rethrown on the calling
  // thread. Shared state lives in a heap-allocated control block co-owned by
  // the queued tasks, so no queued shard can dangle into the caller's stack.
  void ParallelFor(size_t count, const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  bool shutting_down_ = false;
};

// Runs fn(i) for i in [0, count): on `pool` when there is one, else inline on
// the calling thread.
void ForEachIndex(ThreadPool* pool, size_t count, const std::function<void(size_t)>& fn);

// Process-wide pool sized to the machine; use for batch crypto operations.
// The pool is intentionally leaked (never destroyed): joining workers from a
// static destructor can deadlock against other static teardown.
ThreadPool& GlobalPool();

}  // namespace vdp

#endif  // SRC_COMMON_THREAD_POOL_H_
