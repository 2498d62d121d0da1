#include "obs/trace.h"

#include <cstdlib>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "obs/recorder.h"
#include "util/thread_pool.h"

namespace gva::obs {
namespace {

/// Test-scoped capture on the global recorder (the macro records there).
class GlobalTraceCapture {
 public:
  GlobalTraceCapture() { FlightRecorder::Global().StartCapture(); }
  ~GlobalTraceCapture() {
    FlightRecorder::Global().StopCapture();
    SetStageTimingEnabled(false);
  }
};

size_t CountOccurrences(const std::string& haystack,
                        const std::string& needle) {
  size_t count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(ScopedSpanTest, IdleSpanIsANoOp) {
  // Outside a capture window a span reaches only the flight ring: the
  // capture export never sees it.
  FlightRecorder::Global().StartCapture();
  FlightRecorder::Global().StopCapture();
  {
    GVA_OBS_SPAN("should.not.record");
  }
  EXPECT_EQ(FlightRecorder::Global().CaptureJson().find("should.not.record"),
            std::string::npos);
}

TEST(ScopedSpanTest, NestedSpansAreContainedIntervals) {
  GlobalTraceCapture capture;
  {
    ScopedSpan outer("outer");
    {
      ScopedSpan inner("inner");
    }
  }
  if constexpr (!kEnabled) {
    return;  // spans compile to nothing with GVA_OBS=OFF
  }
  const std::string json = FlightRecorder::Global().CaptureJson();
  EXPECT_EQ(CountOccurrences(json, "\"ph\": \"X\""), 2u);
  // Inner ends (and thus is emitted) first.
  const size_t inner_at = json.find("\"name\": \"inner\"");
  const size_t outer_at = json.find("\"name\": \"outer\"");
  ASSERT_NE(inner_at, std::string::npos);
  ASSERT_NE(outer_at, std::string::npos);
  EXPECT_LT(inner_at, outer_at);
}

// The capture window (StartCapture .. StopCapture) is the span sink that
// --trace drives; these cases pin how it starts and stops.
TEST(TracerTest, EnableClearsAndReanchors) {
  if constexpr (!kEnabled) {
    return;
  }
  FlightRecorder& recorder = FlightRecorder::Global();
  recorder.StartCapture();
  {
    GVA_OBS_SPAN("stale");
  }
  recorder.StopCapture();
  ASSERT_EQ(CountOccurrences(recorder.CaptureJson(), "\"name\": \"stale\""),
            1u);
  GlobalTraceCapture capture;
  {
    GVA_OBS_SPAN("fresh");
  }
  const std::string json = recorder.CaptureJson();
  // The new capture dropped the previous one's spans.
  EXPECT_EQ(json.find("\"name\": \"stale\""), std::string::npos);
  const size_t at = json.find("\"name\": \"fresh\"");
  ASSERT_NE(at, std::string::npos);
  const size_t ts = json.find("\"ts\": ", at);
  ASSERT_NE(ts, std::string::npos);
  // Origin re-anchored at StartCapture: near zero, not process-age-scale.
  EXPECT_LT(std::strtoull(json.c_str() + ts + 6, nullptr, 10), 1000000u);
}

TEST(TracerTest, SpanCrossingDisableIsDroppedNotLeaked) {
  if constexpr (!kEnabled) {
    return;
  }
  FlightRecorder& recorder = FlightRecorder::Global();
  recorder.StartCapture();
  auto span = std::make_unique<ScopedSpan>("crosses.disable");
  recorder.StopCapture();
  span.reset();  // its end falls outside the window
  // The window it began in reports it once, ended at StopCapture.
  EXPECT_EQ(CountOccurrences(recorder.CaptureJson(), "\"crosses.disable\""),
            1u);
  // It is not carried into the next capture as a still-open span.
  GlobalTraceCapture capture;
  EXPECT_EQ(recorder.CaptureJson().find("\"crosses.disable\""),
            std::string::npos);
}

TEST(ScopedSpanTest, PoolChunksRecordPerThreadSpans) {
  GlobalTraceCapture capture;
  ThreadPool::ParallelFor(4, 0, 4, [&](size_t, size_t, size_t) {
    GVA_OBS_SPAN("chunk");
  });
  if constexpr (!kEnabled) {
    return;
  }
  // Every chunk's span is captured on the track of the thread that ran it.
  const std::string json = FlightRecorder::Global().CaptureJson();
  EXPECT_EQ(CountOccurrences(json, "\"name\": \"chunk\""), 4u);
}

TEST(ScopedSpanTest, StageTimingFeedsTheGlobalRegistry) {
  if constexpr (!kEnabled) {
    return;
  }
  GlobalTraceCapture capture;
  Counter& count = GlobalMetrics().counter("stage.teststage.alpha.count");
  Counter& us = GlobalMetrics().counter("stage.teststage.alpha.us");
  const uint64_t count_before = count.value();
  const uint64_t us_before = us.value();
  SetStageTimingEnabled(true);
  {
    ScopedSpan span("teststage.alpha");
  }
  {
    ScopedSpan span("teststage.alpha");
  }
  SetStageTimingEnabled(false);
  EXPECT_EQ(count.value() - count_before, 2u);
  // .us is duration-dependent; only its monotonicity is stable. Two
  // instant spans may still round to 0 microseconds.
  EXPECT_GE(us.value(), us_before);
}

}  // namespace
}  // namespace gva::obs
