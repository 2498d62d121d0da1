#ifndef GVA_OBS_SESSION_H_
#define GVA_OBS_SESSION_H_

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/status.h"

namespace gva::obs {

/// RAII capture window for the process-wide observability surfaces: starts
/// a flight-recorder capture and/or stage-time metrics on construction and,
/// on destruction, writes the requested export files. The CLI and the bench
/// binaries create one of these from their --trace/--metrics flags; library
/// code never does (it only hosts instrumentation points).
///
/// The global registry is monotonic, so a session never clears it: it
/// snapshots a baseline at construction and exports what accumulated since
/// (see MetricsSnapshot). Everything else reading the registry meanwhile —
/// a live /metrics scrape in particular — keeps seeing process totals.
class ObsSession {
 public:
  struct Options {
    /// Chrome trace-event JSON output path; empty disables the capture.
    std::string trace_path;
    /// Metrics JSON output path; empty disables the metrics export (stage
    /// timing is enabled whenever this is set).
    std::string metrics_path;
    /// Announce written files on stdout.
    bool announce = true;
  };

  explicit ObsSession(Options options);
  ~ObsSession();

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  bool tracing() const { return !options_.trace_path.empty(); }
  bool metrics() const { return !options_.metrics_path.empty(); }
  bool active() const { return tracing() || metrics(); }

  /// The session's view of GlobalMetrics(): counters and histograms as
  /// deltas over the construction-time baseline (a metric bumped only
  /// before the session exports 0), gauges as current values. This is what
  /// the metrics file holds. Empty when the session does not collect
  /// metrics.
  std::vector<MetricSample> MetricsSnapshot() const;

  /// Writes the export files now, checking every write and close. Returns
  /// the first error. The destructor flushes only if this was never called,
  /// so a caller that wants to act on a failed export calls it explicitly.
  Status Flush();

 private:
  Options options_;
  std::vector<MetricSample> baseline_;
  bool flushed_ = false;
};

}  // namespace gva::obs

#endif  // GVA_OBS_SESSION_H_
