#ifndef GVA_OBS_TRACE_H_
#define GVA_OBS_TRACE_H_

#include <cstdint>

#include "obs/metrics.h"

namespace gva::obs {

/// Process-wide switch for stage wall-time metrics: when on, ScopedSpan
/// also accumulates its duration into GlobalMetrics() counters
/// `stage.<name>.us` / `stage.<name>.count`. Enabled by ObsSession when a
/// metrics export was requested; off by default so plain library use never
/// touches the registry from a span.
bool StageTimingEnabled();
void SetStageTimingEnabled(bool enabled);

/// RAII span: records its begin and end edges into the flight recorder
/// (obs/recorder.h), the one span store, which also feeds any active
/// capture (--trace). With stage timing on, the duration between the two
/// edges' timestamps is added to the stage metrics as well. `name` and
/// `category` must be string literals — the recorder keeps the pointers.
/// Does nothing in -DGVA_OBS=OFF builds.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, const char* category = "gva");
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  uint64_t start_us_ = 0;
  bool timing_ = false;
};

}  // namespace gva::obs

/// Span convenience macro: two flight-recorder edges per span;
/// compiles to nothing when the library is built with -DGVA_OBS=OFF.
#define GVA_OBS_CONCAT_INNER(a, b) a##b
#define GVA_OBS_CONCAT(a, b) GVA_OBS_CONCAT_INNER(a, b)
#ifdef GVA_OBS_DISABLED
#define GVA_OBS_SPAN(name) \
  do {                     \
  } while (false)
#else
#define GVA_OBS_SPAN(name) \
  ::gva::obs::ScopedSpan GVA_OBS_CONCAT(gva_obs_span_, __LINE__)(name)
#endif

#endif  // GVA_OBS_TRACE_H_
