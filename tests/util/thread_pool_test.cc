#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace gva {
namespace {

TEST(ThreadPoolTest, ResolveThreadCountMapsZeroToHardware) {
  EXPECT_GE(ThreadPool::ResolveThreadCount(0), 1u);
  EXPECT_EQ(ThreadPool::ResolveThreadCount(1), 1u);
  EXPECT_EQ(ThreadPool::ResolveThreadCount(7), 7u);
}

TEST(ThreadPoolTest, ResolveThreadCountClampsAbsurdRequests) {
  // A "-1" that went through an unsigned parse must not translate into an
  // attempt to spawn SIZE_MAX workers.
  EXPECT_EQ(ThreadPool::ResolveThreadCount(ThreadPool::kMaxLanes),
            ThreadPool::kMaxLanes);
  EXPECT_EQ(ThreadPool::ResolveThreadCount(ThreadPool::kMaxLanes + 1),
            ThreadPool::kMaxLanes);
  EXPECT_EQ(ThreadPool::ResolveThreadCount(static_cast<size_t>(-1)),
            ThreadPool::kMaxLanes);
}

/// Process-wide `threadpool.*` counter value (0 when obs is compiled out).
uint64_t PoolCounter(const char* name) {
  return obs::GlobalMetrics().counter(name).value();
}

TEST(ThreadPoolTest, SingleLanePoolSpawnsNoWorkers) {
  // A one-lane call is a plain loop on the calling thread: one chunk, no
  // queued task, no pool involvement.
  const uint64_t submitted = PoolCounter("threadpool.tasks.submitted");
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> chunks;
  const auto body = [&](size_t begin, size_t end, size_t chunk) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 100u);
    chunks.push_back(chunk);
  };
  ThreadPool::ParallelFor(1, 0, 100, body);
  EXPECT_EQ(chunks, std::vector<size_t>{0});
  EXPECT_EQ(PoolCounter("threadpool.tasks.submitted"), submitted);
}

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  for (size_t threads : {1u, 2u, 3u, 4u, 8u}) {
    std::vector<std::atomic<int>> hits(101);
    for (auto& h : hits) {
      h.store(0);
    }
    ThreadPool::ParallelFor(threads, 0, hits.size(),
                            [&](size_t begin, size_t end, size_t /*chunk*/) {
                              for (size_t i = begin; i < end; ++i) {
                                hits[i].fetch_add(1);
                              }
                            });
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ThreadPoolTest, ChunkIndicesAreDistinctAndBounded) {
  std::mutex mu;
  std::vector<size_t> seen;
  const auto body = [&](size_t begin, size_t end, size_t chunk) {
    EXPECT_LT(begin, end);
    EXPECT_LT(chunk, 4u);
    std::lock_guard<std::mutex> lock(mu);
    seen.push_back(chunk);
  };
  ThreadPool::ParallelFor(4, 10, 90, body);
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::unique(seen.begin(), seen.end()), seen.end());
  EXPECT_EQ(seen.size(), 4u);
}

TEST(ThreadPoolTest, EmptyRangeRunsNothing) {
  int calls = 0;
  ThreadPool::ParallelFor(4, 5, 5, [&](size_t, size_t, size_t) { ++calls; });
  ThreadPool::ParallelFor(4, 7, 3, [&](size_t, size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, RangeSmallerThanLanesStillCovers) {
  std::vector<std::atomic<int>> hits(3);
  for (auto& h : hits) {
    h.store(0);
  }
  ThreadPool::ParallelFor(8, 0, hits.size(),
                          [&](size_t begin, size_t end, size_t /*chunk*/) {
                            for (size_t i = begin; i < end; ++i) {
                              hits[i].fetch_add(1);
                            }
                          });
  for (auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, ReusableAcrossRounds) {
  // Every top-k round of every search runs on the one shared pool; sums
  // must stay correct when ParallelFor is invoked repeatedly.
  std::vector<uint64_t> values(1000);
  std::iota(values.begin(), values.end(), 0);
  const uint64_t expected = 1000ull * 999ull / 2;
  for (int round = 0; round < 50; ++round) {
    std::atomic<uint64_t> sum{0};
    ThreadPool::ParallelFor(3, 0, values.size(),
                            [&](size_t begin, size_t end, size_t /*chunk*/) {
                              uint64_t local = 0;
                              for (size_t i = begin; i < end; ++i) {
                                local += values[i];
                              }
                              sum.fetch_add(local);
                            });
    ASSERT_EQ(sum.load(), expected) << "round " << round;
  }
}

TEST(ThreadPoolTest, JoinPublishesChunkWrites) {
  // ParallelFor must give the caller a happens-before edge over worker
  // writes: plain (non-atomic) writes to disjoint slices are visible after
  // the call returns. This is the access pattern of the brute-force search.
  std::vector<double> out(4096, -1.0);
  ThreadPool::ParallelFor(4, 0, out.size(),
                          [&](size_t begin, size_t end, size_t /*chunk*/) {
                            for (size_t i = begin; i < end; ++i) {
                              out[i] = static_cast<double>(i) * 0.5;
                            }
                          });
  for (size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], static_cast<double>(i) * 0.5);
  }
}

TEST(ThreadPoolTest, ThrowingBodyRethrowsOnCallerAndPoolSurvives) {
  // Regression: a chunk body that throws used to leave ParallelFor's
  // completion state torn (workers could still reference the dead frame) and
  // an exception escaping the worker loop would std::terminate. Now the
  // first exception must surface on the calling thread after all chunks of
  // that ParallelFor have drained, with the pool fully usable afterwards.
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    std::atomic<int> ran{0};
    const auto body = [&](size_t begin, size_t end, size_t /*chunk*/) {
      ran.fetch_add(static_cast<int>(end - begin));
      if (begin == 0) {
        throw std::runtime_error("chunk failed");
      }
    };
    EXPECT_THROW(ThreadPool::ParallelFor(threads, 0, 64, body),
                 std::runtime_error)
        << "threads " << threads;
    // Every chunk ran to the throw point or completion — none was stranded.
    EXPECT_EQ(ran.load(), 64) << "threads " << threads;

    // The pool is reusable: the next ParallelFor still covers the range.
    std::atomic<int> hits{0};
    ThreadPool::ParallelFor(threads, 0, 100,
                            [&](size_t begin, size_t end, size_t /*chunk*/) {
                              hits.fetch_add(static_cast<int>(end - begin));
                            });
    EXPECT_EQ(hits.load(), 100) << "threads " << threads;
  }
}

TEST(ThreadPoolTest, EveryChunkThrowingStillDrainsAndRethrowsOne) {
  std::atomic<int> attempts{0};
  const auto body = [&](size_t, size_t, size_t chunk) {
    attempts.fetch_add(1);
    throw std::runtime_error("chunk " + std::to_string(chunk));
  };
  EXPECT_THROW(ThreadPool::ParallelFor(4, 0, 4, body), std::runtime_error);
  EXPECT_EQ(attempts.load(), 4);
}

TEST(ThreadPoolTest, SharedPoolCountsSubmittedExecutedAndStolen) {
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "pool metrics compile to no-ops with GVA_OBS=OFF";
  }
  const uint64_t submitted = PoolCounter("threadpool.tasks.submitted");
  const uint64_t executed = PoolCounter("threadpool.tasks.executed");
  const uint64_t stolen = PoolCounter("threadpool.tasks.stolen");
  constexpr uint64_t kRounds = 10;
  for (uint64_t round = 0; round < kRounds; ++round) {
    ThreadPool::ParallelFor(4, 0, 400, [&](size_t, size_t, size_t) {});
  }
  // 4 lanes over 400 indices: 3 queued chunks per round plus the caller's.
  EXPECT_EQ(PoolCounter("threadpool.tasks.submitted") - submitted, 3 * kRounds);
  // Every queued chunk ran, on a worker or stolen back by its caller.
  EXPECT_EQ(PoolCounter("threadpool.tasks.executed") - executed, 3 * kRounds);
  EXPECT_LE(PoolCounter("threadpool.tasks.stolen") - stolen, 3 * kRounds);
  EXPECT_EQ(obs::GlobalMetrics().gauge("threadpool.pools.live").value(), 1);
}

TEST(ThreadPoolTest, WorkersNeverExceedHardwareLanes) {
  // However wide and however many the calls, the one pool holds at most
  // hardware-concurrency - 1 workers (the caller is the remaining lane).
  const auto noop = [](size_t, size_t, size_t) {};
  for (int call = 0; call < 100; ++call) {
    ThreadPool::ParallelFor(ThreadPool::kMaxLanes, 0, 1000, noop);
  }
  EXPECT_LE(ThreadPool::Shared().num_workers(),
            ThreadPool::ResolveThreadCount(0) - 1);
}

TEST(ThreadPoolTest, ConcurrentCallersEachSeeTheirOwnRange) {
  // Several threads share the pool at once (serverd job slots do): every
  // caller's chunks run exactly once and only its own results come back.
  constexpr size_t kCallers = 4;
  std::vector<uint64_t> sums(kCallers, 0);
  std::vector<std::thread> callers;
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([c, &sums] {
      for (int round = 0; round < 20; ++round) {
        std::atomic<uint64_t> sum{0};
        const auto body = [&sum](size_t begin, size_t end, size_t) {
          uint64_t local = 0;
          for (size_t i = begin; i < end; ++i) {
            local += i;
          }
          sum.fetch_add(local);
        };
        ThreadPool::ParallelFor(4, 0, 1000 * (c + 1), body);
        sums[c] = sum.load();
      }
    });
  }
  for (std::thread& t : callers) {
    t.join();
  }
  for (size_t c = 0; c < kCallers; ++c) {
    const uint64_t n = 1000 * (c + 1);
    EXPECT_EQ(sums[c], n * (n - 1) / 2) << "caller " << c;
  }
}

}  // namespace
}  // namespace gva
