// gvabench_calibrate: a fixed unit of CPU work that measures how fast the
// host runs at the moment, independent of the program under test.
//
// The benchmark shares a few virtual cores of a busy host, whose speed
// drifts by up to about 2x over minutes. The same gva_cli job then takes
// twice as long for reasons no change to the program caused. The benchmark
// times this kernel between the timed operations and scales each measured
// time by (reference sample time / sample times around it; speed.py), so
// the reported figures read as times on a host running at the reference
// speed.
//
// The kernel does what the detectors spend their time on, in fixed
// amounts: short SAX-like words hashed into a map with small allocations
// (discretization and grammar induction), and squared Euclidean distances
// over 128-point windows (the discord searches). It links nothing from the
// program, so no change to the program can move it.
//
// `gvabench_calibrate once` runs the kernel once, prints its milliseconds
// and exits: a job of fixed size that, timed from the caller, goes through
// the same process start and exit as a gva_cli job.
//
// Without arguments it serves samples; one command per stdin line:
//   p <period_ms>  runs the kernel once every `period_ms`, printing for
//                  each "<start> <ms>" (start in seconds on the monotonic
//                  clock), until the next line arrives (that line is
//                  consumed); then prints "end";
//   any other line runs the kernel once and prints its milliseconds.
// Exits at end of input.

#include <poll.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <vector>

namespace {

// Words over a 4-letter alphabet, as SAX produces them, counted per word
// with the positions they occur at.
double HashWords(std::uint32_t seed) {
  std::unordered_map<std::string, std::vector<int>> words;
  std::uint32_t r = seed;
  std::string word(5, 'a');
  double checksum = 0.0;
  for (int i = 0; i < 24000; ++i) {
    r = r * 1103515245u + 12345u;
    for (int k = 0; k < 5; ++k) {
      word[k] = static_cast<char>('a' + ((r >> (3 * k + 8)) & 3u));
    }
    words[word].push_back(i);
    if ((i & 2047) == 2047) {
      checksum += static_cast<double>(words.size());
      words.clear();
    }
  }
  return checksum;
}

// Nearest-neighbour distances between 128-point windows of a 2048-point
// series, as the discord searches compute them.
double Distances(const std::vector<double>& x) {
  constexpr int kWindow = 128;
  const int n = static_cast<int>(x.size()) - kWindow;
  double checksum = 0.0;
  for (int i = 0; i < n; i += 61) {
    double best = INFINITY;
    for (int j = 0; j < n; j += 3) {
      double d = 0.0;
      for (int k = 0; k < kWindow; ++k) {
        const double e = x[i + k] - x[j + k];
        d += e * e;
      }
      if (j != i && d < best) best = d;
    }
    checksum += std::sqrt(best);
  }
  return checksum;
}

// Milliseconds one run of the kernel takes, started at `*started`; `sink`
// keeps the work from being optimized away.
double TimeKernel(const std::vector<double>& series, volatile double& sink,
                  std::chrono::steady_clock::time_point* started) {
  const auto start = std::chrono::steady_clock::now();
  *started = start;
  const double checksum = HashWords(1u) + Distances(series);
  const std::chrono::duration<double, std::milli> elapsed =
      std::chrono::steady_clock::now() - start;
  sink = sink + checksum;
  return elapsed.count();
}

// True once stdin has a line (or end of input) waiting, after at most
// `timeout_ms`.
bool InputWithin(int timeout_ms) {
  pollfd fd{STDIN_FILENO, POLLIN, 0};
  return poll(&fd, 1, timeout_ms) > 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<double> series(2048);
  for (std::size_t i = 0; i < series.size(); ++i) {
    series[i] = std::sin(0.05 * static_cast<double>(i)) +
                0.01 * static_cast<double>(i % 7);
  }
  volatile double sink = 0.0;
  std::chrono::steady_clock::time_point start;
  if (argc > 1 && std::string(argv[1]) == "once") {
    std::printf("%.6f\n", TimeKernel(series, sink, &start));
    return 0;
  }
  char line[64];
  while (std::fgets(line, sizeof line, stdin) != nullptr) {
    if (line[0] == 'p') {
      const int period_ms =
          static_cast<int>(std::strtol(line + 1, nullptr, 10));
      do {
        const double ms = TimeKernel(series, sink, &start);
        const std::chrono::duration<double> since_epoch =
            start.time_since_epoch();
        std::printf("%.6f %.6f\n", since_epoch.count(), ms);
        std::fflush(stdout);
      } while (!InputWithin(period_ms));
      // The line that stopped the sampling is not a command.
      if (std::fgets(line, sizeof line, stdin) == nullptr) break;
      std::printf("end\n");
      std::fflush(stdout);
      continue;
    }
    std::printf("%.6f\n", TimeKernel(series, sink, &start));
    std::fflush(stdout);
  }
  return 0;
}
