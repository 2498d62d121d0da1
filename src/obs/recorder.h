#ifndef GVA_OBS_RECORDER_H_
#define GVA_OBS_RECORDER_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

#include "util/status.h"

namespace gva::obs {

/// Fixed per-thread byte budget of the flight recorder's ring. 64 KiB at
/// 32 bytes per event slot keeps the last ~2048 span begin/end events per
/// thread — hours of stage-granular history at the repo's span density.
inline constexpr size_t kFlightBytesPerThread = 64 * 1024;

/// Event slots per ring (derived; each slot is four 8-byte atomic words).
inline constexpr size_t kFlightSlotsPerThread = kFlightBytesPerThread / 32;

/// Upper bound on distinct recording threads. Rings are allocated on a
/// thread's first span and intentionally never freed (a crashed thread's
/// history must survive for the post-mortem dump), so worst-case retained
/// memory is kMaxFlightThreads * kFlightBytesPerThread = 16 MiB.
inline constexpr size_t kMaxFlightThreads = 256;

/// Always-on span flight recorder and the one span store: every ScopedSpan
/// writes begin/end events into a lock-free per-thread ring buffer. The
/// ring holds the most recent events only, so the steady-state cost is a
/// bounded memory footprint and a few relaxed atomic stores plus one clock
/// read per span edge — no locks, no allocation after a thread's first
/// span.
///
/// A capture (StartCapture .. StopCapture, what --trace drives) keeps
/// every edge of its window, however long: while one is active each ring
/// also appends its edges to an unbounded per-ring vector under a per-ring
/// mutex. Only that ring's writer and the capture's own calls contend for
/// it, and the signal path never touches it.
///
/// Dumps can happen at any moment (the /flightz telemetry endpoint, or a
/// fatal-signal handler): readers walk the rings with a per-slot sequence
/// protocol (seq, fields, seq re-check) so a concurrently overwritten slot
/// is skipped rather than torn. Begin/end events are matched per thread
/// into Chrome trace "X" complete events; a span still open at dump time
/// gets its end synthesized at "now", and an end whose begin has been
/// overwritten by ring wraparound is dropped (its start is unknowable).
///
/// The signal path (DumpToFd) is async-signal-safe: it formats into
/// static scratch with hand-rolled integer conversion and emits through
/// write(2) only — no malloc, no stdio, no locks.
class FlightRecorder {
 public:
  /// Opaque per-thread ring; defined in recorder.cc (public so the file's
  /// internal dump helpers can take it by reference).
  struct Ring;

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// The process-wide recorder every ScopedSpan feeds.
  static FlightRecorder& Global();

  /// Appends a span-begin event for the calling thread and returns its
  /// timestamp (NowMicros()). `name` and `category` must be string literals
  /// (slots keep the pointer).
  uint64_t RecordBegin(const char* name, const char* category);

  /// Appends the matching span-end event for the calling thread and returns
  /// its timestamp.
  uint64_t RecordEnd(const char* name);

  /// Microseconds since the recorder's origin (process start).
  uint64_t NowMicros() const;

  /// Chrome trace-event JSON ({"traceEvents": [...]}) of every ring's
  /// retained history, begin/end pairs folded into "X" events and open
  /// spans closed at now. Never blocks recorders.
  std::string ToJson() const;

  /// ToJson() to a file. Returns the first I/O error.
  Status WriteJson(const std::string& path) const;

  /// Starts a capture, dropping the previous one's edges. Timestamps in
  /// the capture are relative to this call.
  void StartCapture();

  /// Ends the capture: later edges are not kept. Spans still open here get
  /// their end synthesized at this moment when the capture is written.
  void StopCapture();

  /// Chrome trace-event JSON of every span the current (or last) capture
  /// saw begin, one track per ring (tid = ring index). Spans open at write
  /// time end at now (or at StopCapture); spans that began before
  /// StartCapture are absent.
  std::string CaptureJson() const;

  /// CaptureJson() to a file. Returns the first I/O error.
  Status WriteCapture(const std::string& path) const;

  /// Async-signal-safe dump of the same JSON document to `fd` via
  /// write(2). Intended for fatal-signal handlers; callable from normal
  /// context too (tests, /flightz fallbacks).
  void DumpToFd(int fd) const;

  /// Rings ever registered (threads that recorded at least one event).
  size_t threads_seen() const;

  /// Total events ever written across all rings (monotonic; not bounded
  /// by ring capacity).
  uint64_t events_recorded() const;

 private:
  FlightRecorder();

  Ring* RingForThisThread();

  /// Writes one span edge to the calling thread's ring (and to its capture
  /// while one is active); returns the edge's timestamp.
  uint64_t Record(const char* name, const char* category, bool is_begin);

  /// Calls `fn(Ring&)` for every registered ring, in tid order.
  /// Allocation-free, so the signal path may use it.
  template <typename Fn>
  void ForEachRing(Fn&& fn) const;

  std::chrono::steady_clock::time_point origin_;
  std::atomic<size_t> ring_count_{0};
  std::atomic<Ring*> rings_[kMaxFlightThreads];

  std::atomic<bool> capturing_{false};
  /// NowMicros() at StartCapture / StopCapture.
  std::atomic<uint64_t> capture_start_us_{0};
  std::atomic<uint64_t> capture_stop_us_{0};
};

/// Installs SIGSEGV/SIGABRT/SIGBUS handlers that write the global
/// recorder's retained history to ./gva_flight.json (write(2) only — see
/// DESIGN.md §12 for the signal-safety rules), then re-raise so the
/// process still dies with the original signal. Idempotent.
void InstallFlightSignalHandler();

}  // namespace gva::obs

#endif  // GVA_OBS_RECORDER_H_
