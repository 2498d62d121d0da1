#include "obs/trace.h"

#include <atomic>
#include <string>

#include "obs/recorder.h"

namespace gva::obs {

namespace {

std::atomic<bool> g_stage_timing{false};

}  // namespace

bool StageTimingEnabled() {
  return g_stage_timing.load(std::memory_order_relaxed);
}

void SetStageTimingEnabled(bool enabled) {
  g_stage_timing.store(enabled, std::memory_order_relaxed);
}

ScopedSpan::ScopedSpan(const char* name, const char* category) : name_(name) {
  if constexpr (kEnabled) {
    start_us_ = FlightRecorder::Global().RecordBegin(name, category);
    timing_ = StageTimingEnabled();
  }
}

ScopedSpan::~ScopedSpan() {
  if constexpr (kEnabled) {
    const uint64_t end_us = FlightRecorder::Global().RecordEnd(name_);
    if (timing_) {
      const uint64_t dur = end_us - start_us_;
      MetricsRegistry& metrics = GlobalMetrics();
      metrics.counter(std::string("stage.") + name_ + ".us").Add(dur);
      metrics.counter(std::string("stage.") + name_ + ".count").Add(1);
    }
  }
}

}  // namespace gva::obs
