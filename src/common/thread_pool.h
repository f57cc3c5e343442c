#ifndef SKNN_COMMON_THREAD_POOL_H_
#define SKNN_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

// A small fixed-size thread pool plus a ParallelFor helper used by Party A
// and Party B to spread a query's ciphertexts across cores. With
// num_threads <= 1 all work runs inline on the calling thread (the default
// on single-core containers).

namespace sknn {

class ThreadPool {
 public:
  // Creates a pool with `num_threads` workers; 0 means
  // hardware_concurrency().
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return threads_.size(); }

  // Schedules `fn` for execution; fire-and-forget (use ParallelFor for
  // joinable batches).
  void Schedule(std::function<void()> fn);

  // Runs fn(i) for i in [begin, end), partitioned across the pool, and
  // blocks until all iterations complete. fn must not throw. The calling
  // thread's trace-span path (common/trace.h) is propagated into the
  // workers, so TraceSpans opened inside fn nest under the caller's span.
  void ParallelFor(size_t begin, size_t end,
                   const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop();

  std::vector<std::thread> threads_;
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool shutdown_ = false;
};

}  // namespace sknn

#endif  // SKNN_COMMON_THREAD_POOL_H_
