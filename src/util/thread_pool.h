#ifndef GVA_UTIL_THREAD_POOL_H_
#define GVA_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace gva {

/// The one process-wide executor behind every parallel loop (the discord
/// searches, the ensemble, the parameter sweep). Callers never own a pool:
/// they pass their lane cap (`num_threads`) to ParallelFor, which splits the
/// range into min(n, lanes) chunks, queues all but the first on the shared
/// pool and runs chunk 0 on the calling thread. A one-lane call runs inline
/// and never creates the pool.
///
/// Workers start on demand, up to the widest lane count any call has asked
/// for, and never beyond ResolveThreadCount(0) lanes (the caller counts as
/// one), so a long-lived process holds at most hardware-concurrency - 1
/// workers however many searches it runs. They park on a condition
/// variable between calls and are never joined (the pool is a leaked
/// singleton, like obs::FlightRecorder::Global()).
///
/// Exception safety: a chunk body that throws does not tear down the pool.
/// The exception is caught inside the chunk, and the first one caught is
/// rethrown on the calling thread after every chunk of that ParallelFor has
/// finished.
class ThreadPool {
 public:
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide pool (created on the first multi-lane ParallelFor).
  static ThreadPool& Shared();

  /// Splits [begin, end) into min(end - begin, ResolveThreadCount(
  /// num_threads)) contiguous chunks and runs `body(chunk_begin, chunk_end,
  /// chunk_index)` for each, chunk 0 on the calling thread, which then
  /// steals its own still-queued chunks instead of idling. Blocks until
  /// every chunk has finished (the join gives the caller a happens-before
  /// edge over all chunk writes). Chunk boundaries depend only on the lane
  /// cap, never on how many workers exist, so callers that promise
  /// thread-count-invariant results must still reduce chunk outputs with an
  /// order-independent rule (e.g. arg-max with a total-order tie-break).
  /// If one or more chunk bodies throw, the first exception (in completion
  /// order) is rethrown here after all chunks have finished.
  static void ParallelFor(
      size_t num_threads, size_t begin, size_t end,
      const std::function<void(size_t, size_t, size_t)>& body);

  /// Worker threads started so far (never shrinks).
  size_t num_workers() const;

  /// Maps the user-facing `num_threads` knob to an actual lane count:
  /// 0 means "all hardware threads" (at least 1); other values are taken
  /// as-is up to kMaxLanes, beyond which they are clamped. The clamp keeps
  /// a garbage knob value (e.g. "-1" wrapped through an unsigned parse)
  /// from producing billions of chunks; results are
  /// thread-count-invariant, so clamping never changes any answer.
  static size_t ResolveThreadCount(size_t requested);

  /// Upper bound on concurrency lanes; far above any plausible hardware.
  static constexpr size_t kMaxLanes = 256;

 private:
  /// Completion state of one ParallelFor call, on the caller's stack.
  struct Batch;
  struct Task {
    Batch* batch;
    size_t chunk;
  };

  ThreadPool();

  /// Starts workers until `lanes` lanes (workers + one caller) exist,
  /// capped at ResolveThreadCount(0). mu_ must be held.
  void GrowTo(size_t lanes);
  void WorkerLoop();
  /// Runs one queued chunk and records its completion.
  void RunQueued(std::unique_lock<std::mutex>& lock, Task task);
  void Run(size_t chunks, size_t begin, size_t end,
           const std::function<void(size_t, size_t, size_t)>& body);

  mutable std::mutex mu_;
  std::condition_variable wake_;
  std::deque<Task> queue_;
  /// Never joined: the pool, and so every worker, lives until exit.
  std::vector<std::thread> workers_;

  // Live GlobalMetrics() handles, so a telemetry scrape sees the
  // `threadpool.*` series move while a search runs.
  obs::Gauge& queue_depth_;
  obs::Counter& tasks_submitted_;
  obs::Counter& tasks_executed_;
  obs::Counter& tasks_stolen_;
};

}  // namespace gva

#endif  // GVA_UTIL_THREAD_POOL_H_
