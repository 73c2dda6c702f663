// Fixed-size worker pool with a blocking ParallelFor. The paper notes that the
// Sigma-OR proofs for distinct coins/coordinates are independent and can be
// created and verified on separate cores; this pool backs those batch paths.
#ifndef SRC_COMMON_THREAD_POOL_H_
#define SRC_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
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
  // thread. The call's shared state lives on the caller's stack: the caller
  // returns only after every queued shard has signalled, and a shard's last
  // touch of that state is that signal, under its done mutex. So workers
  // never allocate or free. Under glibc this matters for memory: a thread
  // that frees takes a per-thread arena, and a pool that starts late in a
  // process would take over the arenas (and their retained pages) that
  // exited threads left for the next new thread, which then touches fresh
  // pages instead.
  void ParallelFor(size_t count, const std::function<void(size_t)>& fn);

 private:
  struct Batch;

  void WorkerLoop();
  static void RunShard(Batch* batch);

  std::vector<std::thread> workers_;
  // Queued shards, one entry each, taken in FIFO order from head_. Only
  // callers' threads grow the vector, after erasing the taken prefix; a
  // worker that takes the last entry clears it, keeping its capacity.
  std::vector<Batch*> tasks_;
  size_t head_ = 0;
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
