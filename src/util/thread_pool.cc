#include "util/thread_pool.h"

#include <algorithm>
#include <exception>

namespace gva {

struct ThreadPool::Batch {
  const std::function<void(size_t, size_t, size_t)>& body;
  size_t begin;
  size_t base;   // chunk length before the remainder is spread
  size_t extra;  // the first `extra` chunks get one more index
  /// Queued chunks not yet finished; guarded by the pool's mu_.
  size_t remaining;
  std::exception_ptr first_error;
  std::condition_variable done;

  size_t ChunkBegin(size_t c) const {
    return begin + c * base + std::min(c, extra);
  }

  /// Runs chunk `c`, returning what it threw (never unwinds: a worker loop
  /// must keep draining, and queued chunks reference the caller's frame).
  std::exception_ptr RunChunk(size_t c) const {
    try {
      body(ChunkBegin(c), ChunkBegin(c + 1), c);
    } catch (...) {
      return std::current_exception();
    }
    return nullptr;
  }
};

size_t ThreadPool::ResolveThreadCount(size_t requested) {
  if (requested != 0) {
    return std::min(requested, kMaxLanes);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

ThreadPool::ThreadPool()
    : queue_depth_(obs::GlobalMetrics().gauge("threadpool.queue.depth")),
      tasks_submitted_(
          obs::GlobalMetrics().counter("threadpool.tasks.submitted")),
      tasks_executed_(
          obs::GlobalMetrics().counter("threadpool.tasks.executed")),
      tasks_stolen_(obs::GlobalMetrics().counter("threadpool.tasks.stolen")) {
  obs::GlobalMetrics().gauge("threadpool.pools.live").Add(1);
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool* pool = new ThreadPool();
  return *pool;
}

size_t ThreadPool::num_workers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return workers_.size();
}

void ThreadPool::GrowTo(size_t lanes) {
  const size_t target = std::min(lanes, ResolveThreadCount(0)) - 1;
  while (workers_.size() < target) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    wake_.wait(lock, [this] { return !queue_.empty(); });
    const Task task = queue_.front();
    queue_.pop_front();
    RunQueued(lock, task);
  }
}

void ThreadPool::RunQueued(std::unique_lock<std::mutex>& lock, Task task) {
  queue_depth_.Set(static_cast<int64_t>(queue_.size()));
  lock.unlock();
  const std::exception_ptr error = task.batch->RunChunk(task.chunk);
  tasks_executed_.Add();
  lock.lock();
  Batch& batch = *task.batch;
  if (error != nullptr && batch.first_error == nullptr) {
    batch.first_error = error;
  }
  // Notifying under mu_ keeps `batch` alive: its owner re-checks
  // `remaining` under mu_ before its frame can go away.
  if (--batch.remaining == 0) {
    batch.done.notify_one();
  }
}

void ThreadPool::ParallelFor(
    size_t num_threads, size_t begin, size_t end,
    const std::function<void(size_t, size_t, size_t)>& body) {
  if (begin >= end) {
    return;
  }
  const size_t chunks = std::min(end - begin, ResolveThreadCount(num_threads));
  if (chunks == 1) {
    body(begin, end, 0);  // single lane: exceptions propagate directly
    return;
  }
  Shared().Run(chunks, begin, end, body);
}

void ThreadPool::Run(size_t chunks, size_t begin, size_t end,
                     const std::function<void(size_t, size_t, size_t)>& body) {
  const size_t n = end - begin;
  Batch batch{body, begin, n / chunks, n % chunks, chunks - 1, nullptr, {}};
  std::unique_lock<std::mutex> lock(mu_);
  GrowTo(chunks);
  for (size_t c = 1; c < chunks; ++c) {
    queue_.push_back(Task{&batch, c});
  }
  tasks_submitted_.Add(chunks - 1);
  queue_depth_.Set(static_cast<int64_t>(queue_.size()));
  lock.unlock();
  wake_.notify_all();

  // The caller's lane: its own chunk first, then whichever of its chunks
  // no worker has picked up yet, so a busy pool (other callers, fewer
  // workers than lanes) delays this call by at most the chunks in flight.
  const std::exception_ptr caller_error = batch.RunChunk(0);
  const auto mine = [&batch](const Task& t) { return t.batch == &batch; };
  lock.lock();
  while (batch.remaining > 0) {
    const auto own = std::find_if(queue_.begin(), queue_.end(), mine);
    if (own == queue_.end()) {
      batch.done.wait(lock);
      continue;
    }
    const Task task = *own;
    queue_.erase(own);
    tasks_stolen_.Add();
    RunQueued(lock, task);
  }
  if (caller_error != nullptr) {
    std::rethrow_exception(caller_error);
  }
  if (batch.first_error != nullptr) {
    std::rethrow_exception(batch.first_error);
  }
}

}  // namespace gva
