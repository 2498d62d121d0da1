// Fixture: thread pools built outside src/util/thread_pool.*. Expected
// pool-construction findings: 3 (a local pool, a heap pool, and a
// make_unique pool). Prose such as "ThreadPool perCallPool{4}" in comments
// and strings must not fire, and neither must the suppressed line or the
// shared-pool calls.
#include <cstddef>
#include <memory>

#include "util/thread_pool.h"

namespace gva {

const char* kDoc = "the old way was ThreadPool perCallPool(num_threads)";

void PerCallPools(size_t num_threads) {
  ThreadPool perCallPool(num_threads);  // finding: local pool
  auto* heap = new ThreadPool(num_threads);  // finding: heap pool
  auto owned = std::make_unique<ThreadPool>(num_threads);  // finding
  ThreadPool legacy{2};  // gva-lint: allow(pool-construction)
}

void SharedPoolCalls(size_t num_threads) {
  auto& shared = ThreadPool::Shared();
  ThreadPool::ParallelFor(num_threads, 0, 10, [](size_t, size_t, size_t) {});
  const size_t lanes = ThreadPool::ResolveThreadCount(num_threads);
  (void)shared;
  (void)lanes;
}

}  // namespace gva
