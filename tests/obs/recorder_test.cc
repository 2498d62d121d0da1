#include "obs/recorder.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "discord/hotsax.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace gva {
namespace {

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Minimal recursive-descent JSON validator — enough to prove a dump is
/// well-formed without a JSON library. Numbers, strings (no escapes needed
/// here), bools, null, arrays, objects.
class JsonValidator {
 public:
  explicit JsonValidator(std::string_view text) : text_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) {
      return false;
    }
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\r' || text_[pos_] == '\t')) {
      ++pos_;
    }
  }
  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return false;
    }
    pos_ += word.size();
    return true;
  }
  bool String() {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return false;
    }
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;
      }
      ++pos_;
    }
    if (pos_ >= text_.size()) {
      return false;
    }
    ++pos_;  // closing quote
    return true;
  }
  bool Number() {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      if (!Value()) {
        return false;
      }
      SkipWs();
      if (pos_ >= text_.size()) {
        return false;
      }
      if (text_[pos_] == ',') {
        ++pos_;
        SkipWs();
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      if (!String()) {
        return false;
      }
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return false;
      }
      ++pos_;
      if (!Value()) {
        return false;
      }
      SkipWs();
      if (pos_ >= text_.size()) {
        return false;
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool Value() {
    SkipWs();
    if (pos_ >= text_.size()) {
      return false;
    }
    switch (text_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
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

// The recorder is a process-wide singleton with monotonic rings, so the
// tests assert on deltas and on the *presence* of their own uniquely named
// spans rather than on a pristine global state.

TEST(FlightRecorderTest, BeginEndBecomesCompleteEvent) {
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  recorder.RecordBegin("flight_test.pair", "test");
  recorder.RecordEnd("flight_test.pair");
  const std::string json = recorder.ToJson();
  EXPECT_TRUE(JsonValidator(json).Valid()) << json;
  EXPECT_NE(json.find("\"name\": \"flight_test.pair\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
}

TEST(FlightRecorderTest, OpenSpanIsSynthesizedAtDumpTime) {
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  recorder.RecordBegin("flight_test.open", "test");
  const std::string json = recorder.ToJson();
  EXPECT_TRUE(JsonValidator(json).Valid()) << json;
  // The begin had no end, yet it shows up as a complete event.
  EXPECT_GE(CountOccurrences(json, "\"name\": \"flight_test.open\""), 1u);
  recorder.RecordEnd("flight_test.open");  // restore balance for later tests
}

TEST(FlightRecorderTest, EventsRecordedAdvancesAndRingBounds) {
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  const uint64_t before = recorder.events_recorded();
  // Overfill this thread's ring: only the newest ~kFlightSlotsPerThread
  // events survive, but the monotonic counter sees every write.
  const size_t spans = obs::kFlightSlotsPerThread;
  for (size_t i = 0; i < spans; ++i) {
    recorder.RecordBegin("flight_test.wrap", "test");
    recorder.RecordEnd("flight_test.wrap");
  }
  EXPECT_EQ(recorder.events_recorded() - before, 2 * spans);
  const std::string json = recorder.ToJson();
  EXPECT_TRUE(JsonValidator(json).Valid());
  const size_t emitted = CountOccurrences(json, "\"flight_test.wrap\"");
  EXPECT_GE(emitted, 1u);
  EXPECT_LE(emitted, obs::kFlightSlotsPerThread);
}

TEST(FlightRecorderTest, EachThreadGetsItsOwnTrack) {
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  const size_t threads_before = recorder.threads_seen();
  std::thread worker([&recorder] {
    recorder.RecordBegin("flight_test.worker", "test");
    recorder.RecordEnd("flight_test.worker");
  });
  worker.join();
  EXPECT_GE(recorder.threads_seen(), threads_before + 1);
  const std::string json = recorder.ToJson();
  EXPECT_NE(json.find("\"flight_test.worker\""), std::string::npos);
}

TEST(FlightRecorderTest, ConcurrentRecordAndDumpStaysWellFormed) {
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&recorder, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        recorder.RecordBegin("flight_test.storm", "test");
        recorder.RecordEnd("flight_test.storm");
      }
    });
  }
  for (int i = 0; i < 20; ++i) {
    const std::string json = recorder.ToJson();
    ASSERT_TRUE(JsonValidator(json).Valid());
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& w : writers) {
    w.join();
  }
}

TEST(FlightRecorderTest, DumpToFdMatchesToJsonShape) {
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  recorder.RecordBegin("flight_test.fd", "test");
  recorder.RecordEnd("flight_test.fd");
  const std::string path = ::testing::TempDir() + "gva_flight_fd_test.json";
  std::remove(path.c_str());
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  recorder.DumpToFd(fd);
  ::close(fd);
  const std::string json = ReadFileOrEmpty(path);
  EXPECT_TRUE(JsonValidator(json).Valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"flight_test.fd\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(FlightRecorderTest, WriteJsonWritesTheSameDocument) {
  const std::string path = ::testing::TempDir() + "gva_flight_wj_test.json";
  std::remove(path.c_str());
  ASSERT_TRUE(obs::FlightRecorder::Global().WriteJson(path).ok());
  EXPECT_TRUE(JsonValidator(ReadFileOrEmpty(path)).Valid());
  std::remove(path.c_str());
}

TEST(FlightRecorderTest, ScopedSpanFeedsTheRecorderEvenWithTracerOff) {
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "observability disabled in this build";
  }
  // No capture is active: the ring alone keeps the span.
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  const uint64_t before = recorder.events_recorded();
  {
    GVA_OBS_SPAN("flight_test.alwayson");
  }
  EXPECT_EQ(recorder.events_recorded() - before, 2u);
  EXPECT_NE(recorder.ToJson().find("\"flight_test.alwayson\""),
            std::string::npos);
}


// Regression: every search used to build its own pool, so each call
// started fresh threads, each took a flight ring, and after 256 of them
// no new thread's spans reached /flightz. The shared pool bounds rings.
TEST(FlightRecorderTest, StaysLiveAcrossManyParallelSearches) {
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "observability disabled in this build";
  }
  std::vector<double> series(240);
  for (size_t i = 0; i < series.size(); ++i) {
    series[i] = std::sin(static_cast<double>(i) * 0.3) +
                (i >= 150 && i < 160 ? 1.5 : 0.0);
  }
  HotSaxOptions options;
  options.sax.window = 20;
  options.sax.paa_size = 4;
  options.sax.alphabet_size = 4;
  options.num_threads = 4;
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  const size_t threads_before = recorder.threads_seen();
  for (int call = 0; call < 2000; ++call) {
    ASSERT_TRUE(FindDiscordsHotSax(series, options).ok()) << "call " << call;
  }
  EXPECT_LE(recorder.threads_seen() - threads_before,
            ThreadPool::ResolveThreadCount(0));

  std::thread fresh([&recorder] {
    recorder.RecordBegin("flight_test.fresh_thread", "test");
    recorder.RecordEnd("flight_test.fresh_thread");
  });
  fresh.join();
  EXPECT_NE(recorder.ToJson().find("\"flight_test.fresh_thread\""),
            std::string::npos);
}

/// The tids of every event named `name` in a Chrome trace document.
std::vector<long> TidsOf(const std::string& json, const std::string& name) {
  std::vector<long> tids;
  const std::string key = "\"name\": \"" + name + "\"";
  for (size_t at = json.find(key); at != std::string::npos;
       at = json.find(key, at + key.size())) {
    const size_t tid = json.find("\"tid\": ", at);
    tids.push_back(std::strtol(json.c_str() + tid + 7, nullptr, 10));
  }
  return tids;
}

/// The "ts" of the first event named `name`.
uint64_t TsOf(const std::string& json, const std::string& name) {
  const size_t at = json.find("\"name\": \"" + name + "\"");
  const size_t ts = json.find("\"ts\": ", at);
  return std::strtoull(json.c_str() + ts + 6, nullptr, 10);
}

// A capture (what --trace drives) is the recorder's unbounded sink: the
// rings keep the last kFlightSlotsPerThread edges, the capture keeps every
// edge of its window.
class FlightCaptureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if constexpr (!obs::kEnabled) {
      GTEST_SKIP() << "spans compile to nothing with GVA_OBS=OFF";
    }
  }
  void TearDown() override { recorder_.StopCapture(); }

  obs::FlightRecorder& recorder_ = obs::FlightRecorder::Global();
};

TEST_F(FlightCaptureTest, KeepsEverySpanBeyondTheRing) {
  const size_t spans = 2 * obs::kFlightSlotsPerThread + 17;
  recorder_.StartCapture();
  for (size_t i = 0; i < spans; ++i) {
    GVA_OBS_SPAN("capture_test.many");
  }
  recorder_.StopCapture();
  const std::string path = ::testing::TempDir() + "gva_capture_test.json";
  std::remove(path.c_str());
  ASSERT_TRUE(recorder_.WriteCapture(path).ok());
  const std::string json = ReadFileOrEmpty(path);
  std::remove(path.c_str());
  EXPECT_TRUE(JsonValidator(json).Valid());
  EXPECT_EQ(CountOccurrences(json, "\"capture_test.many\""), spans);
  // The ring itself wrapped: it holds fewer than the capture.
  EXPECT_LT(CountOccurrences(recorder_.ToJson(), "\"capture_test.many\""),
            spans);
}

TEST_F(FlightCaptureTest, ParallelForChunksLandOnDistinctTids) {
  if (ThreadPool::ResolveThreadCount(0) < 4) {
    GTEST_SKIP() << "needs 4 hardware threads for 4 concurrent chunks";
  }
  recorder_.StartCapture();
  // Each chunk holds its span open until all four have started, so no
  // thread can run two of them: the four spans need four threads.
  std::atomic<int> started{0};
  ThreadPool::ParallelFor(4, 0, 4, [&](size_t, size_t, size_t) {
    GVA_OBS_SPAN("capture_test.chunk");
    started.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (started.load() < 4 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  });
  recorder_.StopCapture();
  ASSERT_EQ(started.load(), 4);
  const std::string json = recorder_.CaptureJson();
  const std::vector<long> tids = TidsOf(json, "capture_test.chunk");
  ASSERT_EQ(tids.size(), 4u);
  EXPECT_EQ(std::set<long>(tids.begin(), tids.end()).size(), 4u);
}

TEST_F(FlightCaptureTest, OpenSpanAppearsOnceInValidJson) {
  recorder_.StartCapture();
  auto span = std::make_unique<obs::ScopedSpan>("capture_test.open");
  const std::string json = recorder_.CaptureJson();
  EXPECT_TRUE(JsonValidator(json).Valid()) << json;
  EXPECT_EQ(CountOccurrences(json, "\"capture_test.open\""), 1u);
  // Ending it afterwards still yields exactly one event.
  span.reset();
  const std::string ended = recorder_.CaptureJson();
  EXPECT_EQ(CountOccurrences(ended, "\"capture_test.open\""), 1u);
}

TEST_F(FlightCaptureTest, OnlySpansInsideTheWindowAppear) {
  {
    GVA_OBS_SPAN("capture_test.before");
  }
  auto straddles_start = std::make_unique<obs::ScopedSpan>("capture_test.x");
  const uint64_t before_start = recorder_.NowMicros();
  recorder_.StartCapture();
  straddles_start.reset();
  {
    GVA_OBS_SPAN("capture_test.inside");
  }
  auto straddles_stop = std::make_unique<obs::ScopedSpan>("capture_test.y");
  recorder_.StopCapture();
  const uint64_t after_stop = recorder_.NowMicros();
  straddles_stop.reset();
  {
    GVA_OBS_SPAN("capture_test.after");
  }
  const std::string json = recorder_.CaptureJson();
  EXPECT_TRUE(JsonValidator(json).Valid()) << json;
  EXPECT_EQ(CountOccurrences(json, "\"capture_test.inside\""), 1u);
  EXPECT_EQ(json.find("\"capture_test.before\""), std::string::npos);
  EXPECT_EQ(json.find("\"capture_test.x\""), std::string::npos);
  EXPECT_EQ(json.find("\"capture_test.after\""), std::string::npos);
  // A span open at StopCapture ends there.
  EXPECT_EQ(CountOccurrences(json, "\"capture_test.y\""), 1u);
  // Timestamps count from StartCapture, not from process start.
  EXPECT_LE(TsOf(json, "capture_test.inside"), after_stop - before_start);
}

}  // namespace
}  // namespace gva
