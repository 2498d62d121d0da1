#include "obs/session.h"

#include <cstdio>

#include "obs/recorder.h"
#include "util/csv.h"

namespace gva::obs {

ObsSession::ObsSession(Options options) : options_(std::move(options)) {
  if (tracing()) {
    FlightRecorder::Global().StartCapture();
  }
  if (metrics()) {
    baseline_ = GlobalMetrics().Snapshot();
    SetStageTimingEnabled(true);
  }
}

ObsSession::~ObsSession() {
  if (!flushed_) {
    const Status status = Flush();
    if (!status.ok()) {
      std::fprintf(stderr, "obs export failed: %s\n",
                   status.ToString().c_str());
    }
  }
  if (tracing()) {
    FlightRecorder::Global().StopCapture();
  }
  if (metrics()) {
    SetStageTimingEnabled(false);
  }
}

std::vector<MetricSample> ObsSession::MetricsSnapshot() const {
  if (!metrics()) {
    return {};
  }
  return MetricsDelta(baseline_, GlobalMetrics().Snapshot());
}

Status ObsSession::Flush() {
  Status first = Status::Ok();
  const auto write = [&](const std::string& path, const char* what,
                         const std::string& contents) {
    const Status status = WriteStringToFile(path, contents);
    if (!status.ok()) {
      if (first.ok()) {
        first = status;
      }
    } else if (options_.announce && !flushed_) {
      std::printf("%s written: %s\n", what, path.c_str());
    }
  };
  if (tracing()) {
    write(options_.trace_path, "trace", FlightRecorder::Global().CaptureJson());
  }
  if (metrics()) {
    write(options_.metrics_path, "metrics", MetricsJson(MetricsSnapshot()));
  }
  flushed_ = true;
  return first;
}

}  // namespace gva::obs
