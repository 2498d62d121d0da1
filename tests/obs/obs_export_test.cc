#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "backend/backend.h"
#include "core/rra.h"
#include "datasets/ecg.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/session.h"
#include "obs/trace.h"

namespace gva {
namespace {

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class ObsExportTest : public ::testing::Test {
 protected:
  std::string TmpPath(const std::string& name) {
    return ::testing::TempDir() + "gva_obs_export_" + name;
  }
  void TearDown() override {
    // The session toggles process-wide state; leave it off for other suites.
    obs::FlightRecorder::Global().StopCapture();
    obs::SetStageTimingEnabled(false);
  }
};

TEST_F(ObsExportTest, SessionWritesBothFilesOnDestruction) {
  const std::string trace_path = TmpPath("trace.json");
  const std::string metrics_path = TmpPath("metrics.json");
  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());
  {
    obs::ObsSession::Options options;
    options.trace_path = trace_path;
    options.metrics_path = metrics_path;
    options.announce = false;
    obs::ObsSession session(options);
    EXPECT_TRUE(session.tracing());
    EXPECT_TRUE(session.metrics());
    GVA_OBS_SPAN("export_test.stage");
  }
  const std::string trace = ReadFileOrEmpty(trace_path);
  const std::string metrics = ReadFileOrEmpty(metrics_path);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(metrics.find("\"metrics\""), std::string::npos);
  if constexpr (obs::kEnabled) {
    EXPECT_NE(trace.find("export_test.stage"), std::string::npos);
    EXPECT_NE(metrics.find("stage.export_test.stage.count"),
              std::string::npos);
  }
}

TEST_F(ObsExportTest, SearchUnderSessionExportsItsMetrics) {
  if constexpr (!obs::kEnabled) {
    return;
  }
  const std::string metrics_path = TmpPath("search_metrics.json");
  {
    obs::ObsSession::Options options;
    options.metrics_path = metrics_path;
    options.announce = false;
    obs::ObsSession session(options);

    EcgOptions ecg;
    ecg.num_beats = 20;
    const LabeledSeries data = MakeEcg(ecg);
    RraOptions rra;
    rra.sax.window = 120;
    rra.sax.paa_size = 4;
    rra.sax.alphabet_size = 4;
    rra.top_k = 1;
    rra.num_threads = 2;
    auto detection = FindRraDiscords(data.series, rra);
    ASSERT_TRUE(detection.ok());
  }
  const std::string metrics = ReadFileOrEmpty(metrics_path);
  // The search-level accumulation, the stage spans, and the shared pool's
  // live counters all surface in one snapshot.
  EXPECT_NE(metrics.find("search.rra.calls.completed"), std::string::npos);
  EXPECT_NE(metrics.find("search.rra.discords"), std::string::npos);
  EXPECT_NE(metrics.find("stage.grammar.sequitur.us"), std::string::npos);
  EXPECT_NE(metrics.find("threadpool.tasks.submitted"), std::string::npos);
}

TEST_F(ObsExportTest, MetricsOnlySessionLeavesTracerIdle) {
  const std::string metrics_path = TmpPath("only_metrics.json");
  {
    obs::ObsSession::Options options;
    options.metrics_path = metrics_path;
    options.announce = false;
    obs::ObsSession session(options);
    EXPECT_FALSE(session.tracing());
    GVA_OBS_SPAN("export_test.metrics_only");
  }
  EXPECT_NE(ReadFileOrEmpty(metrics_path).find("\"metrics\""),
            std::string::npos);
  // No capture ran, so the span reached only the flight ring.
  const std::string capture = obs::FlightRecorder::Global().CaptureJson();
  EXPECT_EQ(capture.find("export_test.metrics_only"), std::string::npos);
}

TEST_F(ObsExportTest, FailedMetricsWriteIsAnIoError) {
  if (::access("/dev/full", W_OK) != 0) {
    GTEST_SKIP() << "/dev/full is not available";
  }
  obs::ObsSession::Options options;
  options.metrics_path = "/dev/full";
  options.announce = false;
  obs::ObsSession session(options);
  // The buffered write only fails when the file is closed.
  const Status status = session.Flush();
  EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();
}

// The registry is monotonic; a session exports what accumulated inside its
// window as a delta over the snapshot it took at construction (DESIGN.md
// §6). Nothing is cleared, so nothing has to be re-announced.
class ObsSessionDeltaTest : public ObsExportTest {
 protected:
  void SetUp() override {
    if constexpr (!obs::kEnabled) {
      GTEST_SKIP() << "metrics compiled out";
    }
  }

  /// Runs `body` inside a metrics session; returns the exported file.
  template <typename Body>
  std::string ExportFrom(const std::string& name, Body body) {
    const std::string path = TmpPath(name);
    {
      obs::ObsSession::Options options;
      options.metrics_path = path;
      options.announce = false;
      obs::ObsSession session(options);
      body(session);
    }
    const std::string json = ReadFileOrEmpty(path);
    std::remove(path.c_str());
    return json;
  }
};

/// The exported value text of metric `name` in a metrics JSON file (up to
/// the end of its line, trailing comma dropped), or "<absent>".
std::string ExportedValue(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\": ";
  const size_t at = json.find(key);
  if (at == std::string::npos) {
    return "<absent>";
  }
  const size_t begin = at + key.size();
  std::string value = json.substr(begin, json.find('\n', begin) - begin);
  if (!value.empty() && value.back() == ',') {
    value.pop_back();
  }
  return value;
}

const obs::MetricSample* FindSample(
    const std::vector<obs::MetricSample>& samples, const std::string& name) {
  for (const obs::MetricSample& s : samples) {
    if (s.name == name) {
      return &s;
    }
  }
  return nullptr;
}

TEST_F(ObsSessionDeltaTest, CounterBumpedBeforeSessionExportsZero) {
  obs::GlobalMetrics().counter("session_test.before_only").Add(7);
  std::vector<obs::MetricSample> snapshot;
  const std::string json =
      ExportFrom("before_only.json", [&](const obs::ObsSession& session) {
        snapshot = session.MetricsSnapshot();
      });
  const obs::MetricSample* sample =
      FindSample(snapshot, "session_test.before_only");
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->counter_value, 0u);
  EXPECT_EQ(ExportedValue(json, "session_test.before_only"), "0");
  // The live registry still holds the process total.
  EXPECT_GE(obs::GlobalMetrics().counter("session_test.before_only").value(),
            7u);
}

TEST_F(ObsSessionDeltaTest, BumpsInsideSessionExportExactCount) {
  obs::Counter& inside = obs::GlobalMetrics().counter("session_test.inside");
  obs::Histogram& latency =
      obs::GlobalMetrics().histogram("session_test.inside.us");
  inside.Add(11);  // before the window: excluded
  latency.Record(3.0);
  const std::string json =
      ExportFrom("inside.json", [&](const obs::ObsSession&) {
        inside.Add(3);
        latency.Record(3.0);
        latency.Record(3.0);
      });
  EXPECT_EQ(ExportedValue(json, "session_test.inside"), "3");
  EXPECT_EQ(ExportedValue(json, "session_test.inside.us"),
            "{\"count\": 2, \"sum\": 6.000000, \"buckets\": {\"2\": 2}}");
}

TEST_F(ObsSessionDeltaTest, BackendSelectedExportedWithoutReannounce) {
  const backend::KernelBackend& active = backend::ActiveBackend();
  const std::string json =
      ExportFrom("backend.json", [](const obs::ObsSession&) {});
  EXPECT_EQ(ExportedValue(json, "backend.selected"),
            std::to_string(static_cast<int>(active.id)));
}

}  // namespace
}  // namespace gva
