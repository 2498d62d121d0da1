// Shared declarations of the benchmark harness (harness.cc, replay.cc).
//
// The harness is the benchmark's in-process side: it generates the seeded
// inputs, computes the library reference every timed output is checked
// against, and replays the same inputs with a span around each call into a
// library layer. run.py drives the user-facing programs and compares.

#ifndef GVABENCH_HARNESS_H_
#define GVABENCH_HARNESS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/job_runner.h"
#include "core/rra.h"
#include "core/rule_density_detector.h"
#include "core/streaming.h"
#include "ensemble/ensemble.h"
#include "timeseries/interval.h"
#include "util/json.h"
#include "util/statusor.h"

namespace gvabench {

/// One `gva_cli <command> <csv> --quiet --threads N [--window ...]` run.
/// Zero window/paa/alphabet means the flag is not passed.
struct CliJob {
  std::string key;
  std::string command;  ///< density | rra | ensemble
  std::string csv;
  size_t window = 0;
  size_t paa = 0;
  size_t alphabet = 0;
  size_t top = 3;
  size_t threads = 1;
  double threshold = 0.05;
  std::vector<gva::Interval> truth;
};

/// One POST /v1/jobs body with an inline series read from `csv`.
struct ServerJob {
  std::string key;
  std::string detector;
  std::string csv;
  size_t window = 0;
  size_t paa = 0;
  size_t alphabet = 0;
  size_t top = 3;
  double threshold = 0.05;
  std::vector<gva::Interval> truth;
};

/// One streaming session: `batches` appends of `batch` samples from the
/// head of `csv`, with a report after every `report_every`-th append.
struct StreamSpec {
  std::string key;
  std::string csv;
  size_t window = 0;
  size_t paa = 0;
  size_t alphabet = 0;
  size_t horizon = 0;
  size_t top = 3;
  double threshold = 0.05;
  size_t batch = 0;
  size_t batches = 0;
  size_t report_every = 1;
};

struct Specs {
  std::vector<CliJob> cli;
  std::vector<ServerJob> server;
  std::vector<StreamSpec> streams;
};

/// The value after `flag` in argv[2..], or `fallback`.
const char* FlagValue(int argc, char** argv, const char* flag,
                      const char* fallback);
gva::StatusOr<gva::JsonValue> LoadJson(const std::string& path);
gva::StatusOr<Specs> LoadSpecs(const std::string& path);
gva::Status WriteText(const std::string& path, const std::string& text);

/// The series a job reads, cached per path: CSV parsing is part of what
/// the CLI does, but references and replays must not pay for it twice.
gva::StatusOr<const std::vector<double>*> SeriesFor(const std::string& csv);

/// What gva_cli prints for a job, and the intervals it reports.
struct CliOutput {
  std::string text;
  std::vector<gva::Interval> found;
  /// One window of slack for the recall/precision match: the resolved
  /// window, or the largest window of an ensemble grid.
  size_t slack = 0;
};
CliOutput RenderDensity(const gva::DensityDetection& detection,
                        const gva::SaxOptions& sax);
CliOutput RenderRra(const gva::RraDetection& detection,
                    const gva::SaxOptions& sax);
CliOutput RenderEnsemble(const gva::EnsembleDetection& detection);

/// Parameter resolution shared by gva_cli and RunDetectionJob: given
/// (nonzero) values win, zeros come from `suggested` (SuggestParameters,
/// or the defaults when it failed).
gva::StatusOr<gva::SaxOptions> ResolveSax(size_t window, size_t paa,
                                          size_t alphabet,
                                          const gva::SaxOptions& suggested);
bool CliNeedsSuggestion(const CliJob& job);
gva::EnsembleOptions CliEnsembleOptions(const CliJob& job,
                                        const gva::SaxOptions* single);

/// The library call sequence gva_cli makes for `job`, monolithic.
gva::StatusOr<CliOutput> CliReference(const CliJob& job,
                                      const std::vector<double>& series);

gva::JobSpec ToJobSpec(const ServerJob& job, const std::vector<double>& series);
/// The "result" object of GET /v1/jobs/{id} for a finished job.
gva::JsonValue ServerResultJson(const gva::JobSpec& spec,
                                const gva::JobOutcome& outcome);

gva::StreamingOptions ToStreamingOptions(const StreamSpec& stream);

/// `harness replay`: the traced in-process run. Returns the exit code.
int RunReplay(int argc, char** argv);

}  // namespace gvabench

#endif  // GVABENCH_HARNESS_H_
