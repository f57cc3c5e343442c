#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>

#include "common/trace.h"

namespace sknn {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 1;
  }
  if (num_threads <= 1) return;  // inline mode, no workers
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Schedule(std::function<void()> fn) {
  if (threads_.empty()) {
    fn();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push(std::move(fn));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> fn;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (shutdown_ && queue_.empty()) return;
      fn = std::move(queue_.front());
      queue_.pop();
    }
    fn();
  }
}

void ThreadPool::ParallelFor(size_t begin, size_t end,
                             const std::function<void(size_t)>& fn) {
  if (begin >= end) return;
  // The caller takes iterations too, so a batch needs at most end-begin-1
  // helpers; a single iteration (a one-unit query) wakes no worker.
  const size_t helpers = std::min(threads_.size(), end - begin - 1);
  if (helpers == 0) {
    for (size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  // Shared state lives in a shared_ptr: worker lambdas scheduled for this
  // call may wake after the caller has already observed completion and
  // returned, so they must not reference the caller's stack.
  struct BatchState {
    std::atomic<size_t> next;
    std::atomic<size_t> done{0};
    size_t end;
    size_t total;
    const std::function<void(size_t)>* fn;
    std::mutex mu;
    std::condition_variable cv;
  };
  auto state = std::make_shared<BatchState>();
  state->next.store(begin);
  state->end = end;
  state->total = end - begin;
  state->fn = &fn;
  // Workers inherit the caller's trace-span path and distributed trace id
  // so spans opened inside fn nest under the phase that issued the
  // ParallelFor and stay attributed to the same query (the caller's own
  // iterations already run under both).
  const std::string trace_path = trace::Tracer::CurrentPath();
  const uint64_t trace_id = trace::CurrentTraceId();
  for (size_t w = 0; w < helpers; ++w) {
    Schedule([state, trace_path, trace_id] {
      trace::Tracer::ScopedPath scoped_path(trace_path);
      trace::ScopedTraceId scoped_trace_id(trace_id);
      for (;;) {
        size_t i = state->next.fetch_add(1);
        if (i >= state->end) break;
        (*state->fn)(i);
        if (state->done.fetch_add(1) + 1 == state->total) {
          std::lock_guard<std::mutex> lock(state->mu);
          state->cv.notify_all();
        }
      }
    });
  }
  // The caller also participates so the pool cannot deadlock on nested
  // ParallelFor calls issued from worker threads.
  for (;;) {
    size_t i = state->next.fetch_add(1);
    if (i >= state->end) break;
    fn(i);
    if (state->done.fetch_add(1) + 1 == state->total) {
      std::lock_guard<std::mutex> lock(state->mu);
      state->cv.notify_all();
    }
  }
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&] { return state->done.load() == state->total; });
}

}  // namespace sknn
