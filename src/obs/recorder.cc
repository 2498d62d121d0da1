#include "obs/recorder.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#include "util/csv.h"
#include "util/strings.h"

namespace gva::obs {

namespace {

/// One span edge: a consistent copy of a ring slot, or a capture entry.
struct EventCopy {
  const char* name;
  const char* category;
  uint64_t ts_us;
  bool is_begin;
};

}  // namespace

/// One ring of span-edge slots, owned by exactly one writer thread and
/// readable by any dumper. Every field of a slot is a relaxed/acquire
/// atomic: the writer publishes with a per-slot sequence word (0 while a
/// write is in flight, (id << 1) | is_begin once stable), readers load the
/// sequence, then the fields, then the sequence again, and skip the slot
/// on any mismatch. A reader therefore never blocks a recorder and never
/// observes a torn event. The capture vector is separate: plain data under
/// a mutex, touched only while a capture is active or being written.
struct FlightRecorder::Ring {
  struct Slot {
    std::atomic<uint64_t> seq{0};
    std::atomic<const char*> name{nullptr};
    std::atomic<const char*> category{nullptr};
    std::atomic<uint64_t> ts_us{0};
  };

  explicit Ring(int tid_in) : tid(tid_in) {}

  const int tid;
  /// Events ever written to this ring (the next event's 0-based id).
  std::atomic<uint64_t> head{0};
  Slot slots[kFlightSlotsPerThread];

  std::mutex capture_mu;
  std::vector<EventCopy> capture;  ///< guarded by capture_mu
};

namespace {

constexpr const char* kJsonHead =
    "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
constexpr const char* kJsonTail = "\n]}\n";

/// Scratch for one ring's worth of collection + begin/end matching. The
/// signal path uses a statically allocated instance (no malloc in a
/// handler); the normal path heap-allocates its own per call.
struct DumpScratch {
  EventCopy events[kFlightSlotsPerThread];
  uint32_t stack[kFlightSlotsPerThread];
};

/// Statically initialized (no magic-static guard — a guard could block
/// inside a signal handler) scratch + one-dumper-at-a-time latch for the
/// signal path.
DumpScratch g_signal_scratch;
std::atomic_flag g_signal_dump_lock = ATOMIC_FLAG_INIT;

/// Copies the retained, still-consistent slots of `ring` into `out`
/// (capacity kFlightSlotsPerThread) in chronological order. Slots
/// overwritten or mid-write during the walk are skipped.
size_t CollectRing(const FlightRecorder::Ring& ring, EventCopy* out) {
  const uint64_t head = ring.head.load(std::memory_order_acquire);
  const uint64_t oldest =
      head > kFlightSlotsPerThread ? head - kFlightSlotsPerThread : 0;
  size_t n = 0;
  for (uint64_t i = oldest; i < head; ++i) {
    const FlightRecorder::Ring::Slot& slot =
        ring.slots[i % kFlightSlotsPerThread];
    const uint64_t seq = slot.seq.load(std::memory_order_acquire);
    if ((seq >> 1) != i + 1) {
      continue;  // overwritten by a newer event, or write in flight
    }
    EventCopy e;
    e.name = slot.name.load(std::memory_order_relaxed);
    e.category = slot.category.load(std::memory_order_relaxed);
    e.ts_us = slot.ts_us.load(std::memory_order_relaxed);
    e.is_begin = (seq & 1) != 0;
    if (slot.seq.load(std::memory_order_acquire) != seq ||
        e.name == nullptr) {
      continue;  // torn: the writer lapped us mid-copy
    }
    out[n++] = e;
  }
  return n;
}

/// Folds a ring's chronological begin/end events into Chrome "X" complete
/// events via a per-thread LIFO match (RAII spans nest, so LIFO is exact).
/// A begin with no end by dump time is closed at `now_us` (the span is
/// still running); an end whose begin was overwritten by wraparound is
/// dropped — its start is unknowable.
template <typename Emitter>
void EmitMatched(const EventCopy* events, size_t n, int tid, uint64_t now_us,
                 uint32_t* stack, Emitter& emit) {
  size_t depth = 0;
  for (size_t i = 0; i < n; ++i) {
    if (events[i].is_begin) {
      stack[depth++] = static_cast<uint32_t>(i);
      continue;
    }
    if (depth == 0) {
      continue;
    }
    const EventCopy& begin = events[stack[--depth]];
    const uint64_t end_ts = events[i].ts_us;
    emit.Event(begin.name, begin.category, tid, begin.ts_us,
               end_ts >= begin.ts_us ? end_ts - begin.ts_us : 0);
  }
  for (size_t d = 0; d < depth; ++d) {
    const EventCopy& begin = events[stack[d]];
    emit.Event(begin.name, begin.category, tid, begin.ts_us,
               now_us >= begin.ts_us ? now_us - begin.ts_us : 0);
  }
}

/// Emits trace events into a growing string (the allocating path).
class StringEmitter {
 public:
  explicit StringEmitter(std::string& out) : out_(out) {}
  void Event(const char* name, const char* category, int tid, uint64_t ts,
             uint64_t dur) {
    out_ += StrFormat(
        "%s  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
        "\"tid\": %d, \"ts\": %llu, \"dur\": %llu}",
        first_ ? "" : ",\n", name, category, tid,
        static_cast<unsigned long long>(ts),
        static_cast<unsigned long long>(dur));
    first_ = false;
  }

 private:
  std::string& out_;
  bool first_ = true;
};

/// Emits trace events straight to a file descriptor with hand-rolled
/// formatting — the async-signal-safe path (write(2) is the only call).
class FdEmitter {
 public:
  explicit FdEmitter(int fd) : fd_(fd) {}

  void Raw(const char* text) {
    size_t length = 0;
    while (text[length] != '\0') {
      ++length;
    }
    WriteAll(text, length);
  }

  void Event(const char* name, const char* category, int tid, uint64_t ts,
             uint64_t dur) {
    char buf[kCap];
    size_t pos = 0;
    if (!first_) {
      pos = Append(buf, pos, ",\n");
    }
    first_ = false;
    pos = Append(buf, pos, "  {\"name\": \"");
    pos = Append(buf, pos, name);
    pos = Append(buf, pos, "\", \"cat\": \"");
    pos = Append(buf, pos, category);
    pos = Append(buf, pos, "\", \"ph\": \"X\", \"pid\": 1, \"tid\": ");
    pos = AppendU64(buf, pos, static_cast<uint64_t>(tid < 0 ? 0 : tid));
    pos = Append(buf, pos, ", \"ts\": ");
    pos = AppendU64(buf, pos, ts);
    pos = Append(buf, pos, ", \"dur\": ");
    pos = AppendU64(buf, pos, dur);
    pos = Append(buf, pos, "}");
    WriteAll(buf, pos);
  }

 private:
  static constexpr size_t kCap = 320;

  static size_t Append(char* buf, size_t pos, const char* text) {
    while (*text != '\0' && pos < kCap) {
      buf[pos++] = *text++;
    }
    return pos;
  }

  static size_t AppendU64(char* buf, size_t pos, uint64_t value) {
    char digits[20];
    size_t n = 0;
    do {
      digits[n++] = static_cast<char>('0' + value % 10);
      value /= 10;
    } while (value != 0);
    while (n > 0 && pos < kCap) {
      buf[pos++] = digits[--n];
    }
    return pos;
  }

  void WriteAll(const char* data, size_t size) {
    size_t off = 0;
    while (off < size) {
      const ssize_t written = ::write(fd_, data + off, size - off);
      if (written <= 0) {
        return;  // best effort: a failing fd must not abort the dump
      }
      off += static_cast<size_t>(written);
    }
  }

  const int fd_;
  bool first_ = true;
};

}  // namespace

FlightRecorder::FlightRecorder()
    : origin_(std::chrono::steady_clock::now()) {
  for (std::atomic<Ring*>& ring : rings_) {
    ring.store(nullptr, std::memory_order_relaxed);
  }
}

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

uint64_t FlightRecorder::NowMicros() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - origin_)
          .count());
}

FlightRecorder::Ring* FlightRecorder::RingForThisThread() {
  // One ring per thread per process: the recorder is a process-wide
  // singleton (the constructor is private), so a plain thread_local works.
  thread_local Ring* ring = nullptr;
  thread_local bool exhausted = false;
  if (ring != nullptr || exhausted) {
    return ring;
  }
  const size_t index = ring_count_.fetch_add(1, std::memory_order_relaxed);
  if (index >= kMaxFlightThreads) {
    exhausted = true;  // over budget: this thread records nothing, forever
    return nullptr;
  }
  ring = new Ring(static_cast<int>(index));
  rings_[index].store(ring, std::memory_order_release);
  return ring;
}

uint64_t FlightRecorder::RecordBegin(const char* name, const char* category) {
  return Record(name, category, true);
}

uint64_t FlightRecorder::RecordEnd(const char* name) {
  return Record(name, "gva", false);
}

uint64_t FlightRecorder::Record(const char* name, const char* category,
                                bool is_begin) {
  const uint64_t ts = NowMicros();
  Ring* ring = RingForThisThread();
  if (ring == nullptr) {
    return ts;
  }
  const uint64_t h = ring->head.load(std::memory_order_relaxed);
  Ring::Slot& slot = ring->slots[h % kFlightSlotsPerThread];
  slot.seq.store(0, std::memory_order_release);
  slot.name.store(name, std::memory_order_relaxed);
  slot.category.store(category, std::memory_order_relaxed);
  slot.ts_us.store(ts, std::memory_order_relaxed);
  slot.seq.store(((h + 1) << 1) | (is_begin ? 1 : 0),
                 std::memory_order_release);
  ring->head.store(h + 1, std::memory_order_release);
  if (capturing_.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lock(ring->capture_mu);
    ring->capture.push_back(EventCopy{name, category, ts, is_begin});
  }
  return ts;
}

template <typename Fn>
void FlightRecorder::ForEachRing(Fn&& fn) const {
  for (size_t r = 0; r < threads_seen(); ++r) {
    Ring* ring = rings_[r].load(std::memory_order_acquire);
    if (ring != nullptr) {  // null: registration in flight on another thread
      fn(*ring);
    }
  }
}

std::string FlightRecorder::ToJson() const {
  const uint64_t now = NowMicros();
  auto scratch = std::make_unique<DumpScratch>();
  std::string json = kJsonHead;
  StringEmitter emit(json);
  ForEachRing([&](const Ring& ring) {
    const size_t n = CollectRing(ring, scratch->events);
    EmitMatched(scratch->events, n, ring.tid, now, scratch->stack, emit);
  });
  json += kJsonTail;
  return json;
}

Status FlightRecorder::WriteJson(const std::string& path) const {
  return WriteStringToFile(path, ToJson());
}

void FlightRecorder::StartCapture() {
  capturing_.store(false, std::memory_order_release);
  ForEachRing([](Ring& ring) {
    std::lock_guard<std::mutex> lock(ring.capture_mu);
    ring.capture.clear();
  });
  capture_start_us_.store(NowMicros(), std::memory_order_relaxed);
  capturing_.store(true, std::memory_order_release);
}

void FlightRecorder::StopCapture() {
  capture_stop_us_.store(NowMicros(), std::memory_order_relaxed);
  capturing_.store(false, std::memory_order_release);
}

std::string FlightRecorder::CaptureJson() const {
  const uint64_t start = capture_start_us_.load(std::memory_order_relaxed);
  uint64_t stop = capture_stop_us_.load(std::memory_order_relaxed);
  if (capturing_.load(std::memory_order_acquire)) {
    stop = NowMicros();
  }
  stop = std::max(stop, start);  // a StartCapture racing this call
  std::string json = kJsonHead;
  StringEmitter emit(json);
  std::vector<EventCopy> events;
  std::vector<uint32_t> stack;
  ForEachRing([&](Ring& ring) {
    events.clear();
    {
      std::lock_guard<std::mutex> lock(ring.capture_mu);
      for (const EventCopy& e : ring.capture) {
        // Edges that raced a Start/Stop call fall outside the window.
        if (e.ts_us >= start && e.ts_us <= stop) {
          events.push_back({e.name, e.category, e.ts_us - start, e.is_begin});
        }
      }
    }
    stack.resize(events.size());
    EmitMatched(events.data(), events.size(), ring.tid, stop - start,
                stack.data(), emit);
  });
  json += kJsonTail;
  return json;
}

Status FlightRecorder::WriteCapture(const std::string& path) const {
  return WriteStringToFile(path, CaptureJson());
}

void FlightRecorder::DumpToFd(int fd) const {
  if (g_signal_dump_lock.test_and_set(std::memory_order_acquire)) {
    return;  // a dump is already in flight (e.g. two threads crashed)
  }
  const uint64_t now = NowMicros();
  FdEmitter emit(fd);
  emit.Raw(kJsonHead);
  ForEachRing([&](const Ring& ring) {
    const size_t n = CollectRing(ring, g_signal_scratch.events);
    EmitMatched(g_signal_scratch.events, n, ring.tid, now,
                g_signal_scratch.stack, emit);
  });
  emit.Raw(kJsonTail);
  g_signal_dump_lock.clear(std::memory_order_release);
}

size_t FlightRecorder::threads_seen() const {
  return std::min(ring_count_.load(std::memory_order_acquire),
                  kMaxFlightThreads);
}

uint64_t FlightRecorder::events_recorded() const {
  uint64_t total = 0;
  ForEachRing([&total](const Ring& ring) {
    total += ring.head.load(std::memory_order_relaxed);
  });
  return total;
}

namespace {

/// The fatal-signal dump. Async-signal-safe by construction: open(2),
/// write(2) (inside DumpToFd), close(2), and raise(2) only — the
/// signal-safety lint rule (tools/lint/gva_lint.py) machine-checks that
/// no allocation, stdio, or lock ever creeps in here.
void FlightSignalHandler(int signum) {
  const int fd =
      ::open("gva_flight.json", O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd >= 0) {
    FlightRecorder::Global().DumpToFd(fd);
    ::close(fd);
  }
  // SA_RESETHAND restored the default disposition before this handler ran,
  // so re-raising terminates the process with the original signal.
  ::raise(signum);
}

}  // namespace

void InstallFlightSignalHandler() {
  static std::atomic<bool> installed{false};
  if (installed.exchange(true)) {
    return;
  }
  // Force the recorder's construction here, in normal context: the
  // handler must never be the first caller of Global() (a magic-static
  // guard can block inside a signal).
  FlightRecorder::Global();
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = FlightSignalHandler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = static_cast<int>(SA_RESETHAND);
  for (const int sig : {SIGSEGV, SIGABRT, SIGBUS}) {
    sigaction(sig, &action, nullptr);
  }
}

}  // namespace gva::obs
