// gvabench_harness — the benchmark's in-process side.
//
//   gvabench_harness gen --seed N --out DIR
//       Writes the seeded inputs: one CSV per series (%.17g, one value per
//       line) and DIR/inputs.json with each series' length, ground-truth
//       anomalies and the generator's recommended parameters.
//   gvabench_harness ref --specs SPECS.json --out REFS.json [--threads N]
//       Computes the library reference for every job and stream in SPECS:
//       what gva_cli prints, the result object gva_serverd returns
//       (RunDetectionJob) and every stream report (StreamingAnomalyMonitor),
//       plus recall/precision against the ground truth.
//   gvabench_harness replay ...
//       The traced in-process run (replay.cc).

#include "harness.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "core/evaluate.h"
#include "core/parameter_profile.h"
#include "datasets/ecg.h"
#include "datasets/power_demand.h"
#include "datasets/respiration.h"
#include "datasets/simple.h"
#include "datasets/tek.h"
#include "datasets/video.h"
#include "timeseries/io.h"
#include "util/rng.h"
#include "viz/ascii_plot.h"
#include "viz/json_report.h"
#include "viz/report.h"

namespace gvabench {

using gva::Interval;
using gva::JsonValue;
using gva::Status;
using gva::StatusOr;

namespace {

std::map<std::string, std::vector<double>>& SeriesCache() {
  static std::map<std::string, std::vector<double>> cache;
  return cache;
}
std::mutex g_series_mu;

size_t SizeField(const JsonValue& object, const char* key, size_t fallback) {
  const JsonValue* value = object.Find(key);
  return value != nullptr && value->is_number()
             ? static_cast<size_t>(value->as_number())
             : fallback;
}

double NumberField(const JsonValue& object, const char* key, double fallback) {
  const JsonValue* value = object.Find(key);
  return value != nullptr && value->is_number() ? value->as_number()
                                                : fallback;
}

std::string StringField(const JsonValue& object, const char* key) {
  const JsonValue* value = object.Find(key);
  return value != nullptr && value->is_string() ? value->as_string() : "";
}

std::vector<Interval> IntervalsField(const JsonValue& object, const char* key) {
  std::vector<Interval> out;
  const JsonValue* value = object.Find(key);
  if (value == nullptr || !value->is_array()) {
    return out;
  }
  for (const JsonValue& pair : value->items()) {
    if (pair.is_array() && pair.items().size() == 2) {
      out.push_back(Interval{static_cast<size_t>(pair.items()[0].as_number()),
                             static_cast<size_t>(pair.items()[1].as_number())});
    }
  }
  return out;
}

JsonValue IntervalsJson(const std::vector<Interval>& intervals) {
  JsonValue out = JsonValue::Array();
  for (const Interval& interval : intervals) {
    JsonValue pair = JsonValue::Array();
    pair.Append(JsonValue::Number(static_cast<double>(interval.start)));
    pair.Append(JsonValue::Number(static_cast<double>(interval.end)));
    out.Append(std::move(pair));
  }
  return out;
}

// ---------------------------------------------------------------------------
// gen

struct Generated {
  std::string name;
  gva::LabeledSeries data;
};

/// The series of one input group. Lengths and shapes are fixed per group
/// so that run cost does not depend on the seed; the seed moves the noise,
/// the per-cycle jitter and where each anomaly sits.
std::vector<Generated> MakeGroup(const std::string& group, uint64_t seed) {
  uint64_t salt = 0;
  for (const char c : group) {
    salt = salt * 131 + static_cast<unsigned char>(c);
  }
  gva::Rng rng(seed * 0x9e3779b97f4a7c15ULL + salt);
  std::vector<Generated> out;
  auto pick = [&rng](size_t lo, size_t span) {
    return lo + static_cast<size_t>(rng.UniformInt(span));
  };
  // Several series of each kind, so that a run averages over more shapes
  // than one seed's draw of each: three for batch, whose latency_ms.p90
  // falls among the few slowest jobs of the mix. Serve jobs carry their
  // series inline in the request body; they are about a quarter of the
  // batch series.
  const bool big = group == "batch";
  const size_t copies = big ? 3 : group == "serve" ? 2 : 0;
  for (size_t copy = 0; copy < copies; ++copy) {
    const std::string tag = "-" + std::to_string(copy);
    {
      gva::EcgOptions o;
      o.num_beats = big ? 40 : 8;
      o.anomalous_beats = {big ? pick(8, 24) : pick(2, 4)};
      o.seed = rng.NextUint64();
      out.push_back({"ecg" + tag, gva::MakeEcg(o)});
    }
    {
      // Serve: hourly readings, so that six weeks fit in 1008 points.
      gva::PowerDemandOptions o;
      o.weeks = 6;
      o.samples_per_day = big ? 96 : 24;
      o.holiday_days = {7 * pick(1, 4) + pick(0, 5)};
      o.seed = rng.NextUint64();
      out.push_back({"power" + tag, gva::MakePowerDemand(o)});
    }
    {
      gva::RespirationOptions o;
      o.length = big ? 4000 : 1000;
      o.anomaly_length = big ? 300 : 150;
      o.anomaly_start = big ? pick(800, 2400) : pick(250, 500);
      o.seed = rng.NextUint64();
      out.push_back({"respiration" + tag, gva::MakeRespiration(o)});
    }
    {
      gva::TekOptions o;
      o.num_cycles = big ? 16 : 4;
      o.anomalous_cycles = {big ? pick(3, 10) : pick(1, 2)};
      o.seed = rng.NextUint64();
      out.push_back({"tek" + tag, gva::MakeTek(o)});
    }
    {
      gva::VideoOptions o;
      o.num_cycles = big ? 24 : 7;
      o.anomalous_cycles = {big ? pick(4, 16) : pick(2, 3)};
      o.seed = rng.NextUint64();
      out.push_back({"video" + tag, gva::MakeVideo(o)});
    }
    {
      const size_t length = big ? 3000 : 1000;
      const size_t start = big ? pick(500, 2000) : pick(250, 500);
      const uint64_t s = rng.NextUint64();
      out.push_back({"sine" + tag, gva::MakeSineWithAnomaly(
                                       length, 60.0, 0.05, start, 120, s)});
    }
  }
  if (group == "stream") {
    {
      gva::EcgOptions o;
      o.num_beats = 800;
      o.anomalous_beats = {pick(100, 600)};
      o.seed = rng.NextUint64();
      out.push_back({"ecg", gva::MakeEcg(o)});
    }
    {
      gva::RespirationOptions o;
      o.length = 96000;
      o.anomaly_start = pick(10000, 70000);
      o.seed = rng.NextUint64();
      out.push_back({"respiration", gva::MakeRespiration(o)});
    }
    {
      const uint64_t s = rng.NextUint64();
      out.push_back({"sine", gva::MakeSineWithAnomaly(
                                 96000, 64.0, 0.05, pick(10000, 70000), 150,
                                 s)});
    }
  }
  return out;
}

int RunGen(int argc, char** argv) {
  const uint64_t seed =
      std::strtoull(FlagValue(argc, argv, "--seed", "1"), nullptr, 10);
  const std::string dir = FlagValue(argc, argv, "--out", ".");
  JsonValue groups = JsonValue::Object();
  for (const std::string group : {"batch", "serve", "stream"}) {
    JsonValue list = JsonValue::Array();
    for (const Generated& g : MakeGroup(group, seed)) {
      const std::string file = group + "-" + g.name + ".csv";
      const Status written =
          gva::WriteTimeSeriesCsv(dir + "/" + file, g.data.series);
      if (!written.ok()) {
        std::fprintf(stderr, "gen: %s\n", written.ToString().c_str());
        return 1;
      }
      JsonValue entry = JsonValue::Object();
      entry.Set("name", JsonValue::String(g.name));
      entry.Set("csv", JsonValue::String(file));
      entry.Set("length",
                JsonValue::Number(static_cast<double>(g.data.series.size())));
      JsonValue recommended = JsonValue::Array();
      recommended.Append(
          JsonValue::Number(static_cast<double>(g.data.recommended.window)));
      recommended.Append(
          JsonValue::Number(static_cast<double>(g.data.recommended.paa_size)));
      recommended.Append(JsonValue::Number(
          static_cast<double>(g.data.recommended.alphabet_size)));
      entry.Set("recommended", std::move(recommended));
      entry.Set("truth", IntervalsJson(g.data.anomalies));
      list.Append(std::move(entry));
    }
    groups.Set(group, std::move(list));
  }
  JsonValue manifest = JsonValue::Object();
  manifest.Set("seed", JsonValue::Number(static_cast<double>(seed)));
  manifest.Set("groups", std::move(groups));
  const Status written = WriteText(dir + "/inputs.json", manifest.Dump());
  if (!written.ok()) {
    std::fprintf(stderr, "gen: %s\n", written.ToString().c_str());
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// ref

/// Job anomalies as intervals, for recall/precision.
std::vector<Interval> OutcomeIntervals(const gva::JobOutcome& outcome) {
  std::vector<Interval> out;
  for (const gva::JobAnomaly& a : outcome.anomalies) {
    out.push_back(Interval{a.start, a.end});
  }
  return out;
}

/// One window of slack: the resolved window, or the widest window of the
/// automatic ensemble grid.
size_t OutcomeSlack(const gva::JobOutcome& outcome, size_t series_length) {
  if (outcome.window != 0) {
    return outcome.window;
  }
  size_t widest = 0;
  for (const gva::EnsembleConfig& c : gva::AutoEnsembleGrid(series_length)) {
    widest = std::max(widest, std::min(c.window, series_length));
  }
  return widest;
}

JsonValue QualityJson(const std::vector<Interval>& found,
                      const std::vector<Interval>& truth, size_t slack) {
  JsonValue out = JsonValue::Object();
  out.Set("found", IntervalsJson(found));
  out.Set("slack", JsonValue::Number(static_cast<double>(slack)));
  out.Set("recall", JsonValue::Number(gva::Recall(found, truth, slack)));
  out.Set("precision",
          JsonValue::Number(gva::Precision(found, truth, slack)));
  return out;
}

/// Runs `work(i)` for i in [0, n) on `threads` workers; the first error
/// wins.
Status ParallelFor(size_t n, size_t threads,
                   const std::function<Status(size_t)>& work) {
  std::atomic<size_t> next{0};
  std::mutex mu;
  Status first = Status::Ok();
  std::vector<std::thread> pool;
  for (size_t t = 0; t < std::max<size_t>(1, threads); ++t) {
    pool.emplace_back([&] {
      for (size_t i = next++; i < n; i = next++) {
        Status status = work(i);
        if (!status.ok()) {
          std::lock_guard<std::mutex> lock(mu);
          if (first.ok()) {
            first = status;
          }
        }
      }
    });
  }
  for (std::thread& thread : pool) {
    thread.join();
  }
  return first;
}

int RunRef(int argc, char** argv) {
  const std::string specs_path = FlagValue(argc, argv, "--specs", "");
  const std::string out_path = FlagValue(argc, argv, "--out", "");
  const size_t threads =
      std::strtoul(FlagValue(argc, argv, "--threads", "4"), nullptr, 10);
  StatusOr<Specs> specs = LoadSpecs(specs_path);
  if (!specs.ok()) {
    std::fprintf(stderr, "ref: %s\n", specs.status().ToString().c_str());
    return 1;
  }
  std::vector<JsonValue> cli(specs->cli.size());
  std::vector<JsonValue> server(specs->server.size());
  std::vector<JsonValue> streams(specs->streams.size());
  const size_t n_cli = specs->cli.size();
  const size_t n_server = specs->server.size();
  const Status status = ParallelFor(
      n_cli + n_server + specs->streams.size(), threads,
      [&](size_t i) -> Status {
        if (i < n_cli) {
          const CliJob& job = specs->cli[i];
          GVA_ASSIGN_OR_RETURN(const std::vector<double>* series,
                               SeriesFor(job.csv));
          GVA_ASSIGN_OR_RETURN(CliOutput output, CliReference(job, *series));
          JsonValue entry = QualityJson(output.found, job.truth, output.slack);
          entry.Set("stdout", JsonValue::String(output.text));
          cli[i] = std::move(entry);
          return Status::Ok();
        }
        if (i < n_cli + n_server) {
          const ServerJob& job = specs->server[i - n_cli];
          GVA_ASSIGN_OR_RETURN(const std::vector<double>* series,
                               SeriesFor(job.csv));
          const gva::JobSpec spec = ToJobSpec(job, {});
          GVA_ASSIGN_OR_RETURN(gva::JobOutcome outcome,
                               gva::RunDetectionJob(spec, *series, nullptr));
          JsonValue entry =
              QualityJson(OutcomeIntervals(outcome), job.truth,
                          OutcomeSlack(outcome, series->size()));
          entry.Set("result", ServerResultJson(spec, outcome));
          server[i - n_cli] = std::move(entry);
          return Status::Ok();
        }
        const StreamSpec& stream = specs->streams[i - n_cli - n_server];
        GVA_ASSIGN_OR_RETURN(const std::vector<double>* series,
                             SeriesFor(stream.csv));
        if (stream.batch * stream.batches > series->size()) {
          return Status::InvalidArgument("stream " + stream.key +
                                         " needs more samples than " +
                                         stream.csv + " holds");
        }
        GVA_ASSIGN_OR_RETURN(
            gva::StreamingAnomalyMonitor monitor,
            gva::StreamingAnomalyMonitor::Create(ToStreamingOptions(stream)));
        JsonValue reports = JsonValue::Array();
        for (size_t b = 0; b < stream.batches; ++b) {
          monitor.PushAll(std::span<const double>(*series).subspan(
              b * stream.batch, stream.batch));
          if ((b + 1) % stream.report_every == 0) {
            GVA_ASSIGN_OR_RETURN(gva::StreamingReport report,
                                 monitor.Report());
            reports.Append(
                gva::StreamReportJson(report, monitor.samples_seen()));
          }
        }
        streams[i - n_cli - n_server] = std::move(reports);
        return Status::Ok();
      });
  if (!status.ok()) {
    std::fprintf(stderr, "ref: %s\n", status.ToString().c_str());
    return 1;
  }

  JsonValue out = JsonValue::Object();
  JsonValue cli_out = JsonValue::Object();
  for (size_t i = 0; i < cli.size(); ++i) {
    cli_out.Set(specs->cli[i].key, std::move(cli[i]));
  }
  JsonValue server_out = JsonValue::Object();
  for (size_t i = 0; i < server.size(); ++i) {
    server_out.Set(specs->server[i].key, std::move(server[i]));
  }
  JsonValue streams_out = JsonValue::Object();
  for (size_t i = 0; i < streams.size(); ++i) {
    streams_out.Set(specs->streams[i].key, std::move(streams[i]));
  }
  out.Set("cli", std::move(cli_out));
  out.Set("server", std::move(server_out));
  out.Set("streams", std::move(streams_out));
  const Status written = WriteText(out_path, out.Dump());
  if (!written.ok()) {
    std::fprintf(stderr, "ref: %s\n", written.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace

// ---------------------------------------------------------------------------
// Shared helpers

const char* FlagValue(int argc, char** argv, const char* flag,
                      const char* fallback) {
  for (int i = 2; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == flag) {
      return argv[i + 1];
    }
  }
  return fallback;
}

StatusOr<JsonValue> LoadJson(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open " + path);
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  return gva::ParseJson(buffer.str());
}

Status WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  out.close();
  if (!out) {
    return Status::Internal("cannot write " + path);
  }
  return Status::Ok();
}

StatusOr<Specs> LoadSpecs(const std::string& path) {
  GVA_ASSIGN_OR_RETURN(JsonValue doc, LoadJson(path));
  Specs specs;
  if (const JsonValue* list = doc.Find("cli"); list != nullptr) {
    for (const JsonValue& item : list->items()) {
      CliJob job;
      job.key = StringField(item, "key");
      job.command = StringField(item, "command");
      job.csv = StringField(item, "csv");
      job.window = SizeField(item, "window", 0);
      job.paa = SizeField(item, "paa", 0);
      job.alphabet = SizeField(item, "alphabet", 0);
      job.top = SizeField(item, "top", 3);
      job.threads = SizeField(item, "threads", 1);
      job.threshold = NumberField(item, "threshold", 0.05);
      job.truth = IntervalsField(item, "truth");
      specs.cli.push_back(std::move(job));
    }
  }
  if (const JsonValue* list = doc.Find("server"); list != nullptr) {
    for (const JsonValue& item : list->items()) {
      ServerJob job;
      job.key = StringField(item, "key");
      job.detector = StringField(item, "detector");
      job.csv = StringField(item, "csv");
      job.window = SizeField(item, "window", 0);
      job.paa = SizeField(item, "paa", 0);
      job.alphabet = SizeField(item, "alphabet", 0);
      job.top = SizeField(item, "top", 3);
      job.threshold = NumberField(item, "threshold", 0.05);
      job.truth = IntervalsField(item, "truth");
      specs.server.push_back(std::move(job));
    }
  }
  if (const JsonValue* list = doc.Find("streams"); list != nullptr) {
    for (const JsonValue& item : list->items()) {
      StreamSpec stream;
      stream.key = StringField(item, "key");
      stream.csv = StringField(item, "csv");
      stream.window = SizeField(item, "window", 0);
      stream.paa = SizeField(item, "paa", 0);
      stream.alphabet = SizeField(item, "alphabet", 0);
      stream.horizon = SizeField(item, "horizon", 0);
      stream.top = SizeField(item, "top", 3);
      stream.threshold = NumberField(item, "threshold", 0.05);
      stream.batch = SizeField(item, "batch", 0);
      stream.batches = SizeField(item, "batches", 0);
      stream.report_every =
          std::max<size_t>(1, SizeField(item, "report_every", 1));
      specs.streams.push_back(std::move(stream));
    }
  }
  return specs;
}

StatusOr<const std::vector<double>*> SeriesFor(const std::string& csv) {
  std::lock_guard<std::mutex> lock(g_series_mu);
  auto& cache = SeriesCache();
  auto it = cache.find(csv);
  if (it == cache.end()) {
    GVA_ASSIGN_OR_RETURN(gva::TimeSeries series, gva::ReadTimeSeriesCsv(csv));
    it = cache.emplace(csv, series.values()).first;
  }
  return &it->second;
}

CliOutput RenderDensity(const gva::DensityDetection& detection,
                        const gva::SaxOptions& sax) {
  CliOutput out;
  out.text = gva::RenderDensityShading(detection.decomposition.density) +
             "\n" + gva::DensityAnomalyTable(detection);
  for (const gva::DensityAnomaly& a : detection.anomalies) {
    out.found.push_back(a.span);
  }
  out.slack = sax.window;
  return out;
}

CliOutput RenderRra(const gva::RraDetection& detection,
                    const gva::SaxOptions& sax) {
  CliOutput out;
  out.text = gva::DiscordTable(detection);
  for (const gva::DiscordRecord& d : detection.result.discords) {
    out.found.push_back(Interval{d.position, d.position + d.length});
  }
  out.slack = sax.window;
  return out;
}

CliOutput RenderEnsemble(const gva::EnsembleDetection& detection) {
  CliOutput out;
  out.text = gva::EnsembleAnomalyTable(detection);
  for (const gva::EnsembleAnomaly& a : detection.anomalies) {
    out.found.push_back(a.span);
  }
  out.slack = detection.max_window;
  return out;
}

bool CliNeedsSuggestion(const CliJob& job) {
  // gva_cli's ensemble command skips the suggestion unless a single-config
  // flag is given; the other commands suggest unless all three are given.
  if (job.command == "ensemble" && job.window == 0 && job.paa == 0 &&
      job.alphabet == 0) {
    return false;
  }
  return job.window == 0 || job.paa == 0 || job.alphabet == 0;
}

StatusOr<gva::SaxOptions> ResolveSax(size_t window, size_t paa,
                                     size_t alphabet,
                                     const gva::SaxOptions& suggested) {
  gva::SaxOptions sax = suggested;
  if (window != 0) {
    sax.window = window;
  }
  if (paa != 0) {
    sax.paa_size = paa;
  }
  if (alphabet != 0) {
    sax.alphabet_size = alphabet;
  }
  GVA_RETURN_IF_ERROR(sax.Validate());
  return sax;
}

gva::EnsembleOptions CliEnsembleOptions(const CliJob& job,
                                        const gva::SaxOptions* single) {
  gva::EnsembleOptions options;
  options.anomaly.threshold_fraction = job.threshold;
  options.anomaly.max_anomalies = job.top;
  options.num_threads = job.threads;
  if (single != nullptr) {
    options.configs.push_back(gva::EnsembleConfig{
        single->window, single->paa_size, single->alphabet_size});
  }
  return options;
}

gva::JobSpec ToJobSpec(const ServerJob& job,
                       const std::vector<double>& series) {
  gva::JobSpec spec;
  spec.detector = *gva::ParseJobDetector(job.detector);
  spec.series = series;
  spec.window = job.window;
  spec.paa = job.paa;
  spec.alphabet = job.alphabet;
  spec.top_k = job.top;
  spec.threshold = job.threshold;
  return spec;
}

JsonValue ServerResultJson(const gva::JobSpec& spec,
                           const gva::JobOutcome& outcome) {
  gva::JobSnapshot snapshot;
  snapshot.state = gva::JobState::kDone;
  snapshot.spec = spec;
  snapshot.spec.series.clear();
  snapshot.outcome = outcome;
  const JsonValue job = gva::JobJson(snapshot);
  const JsonValue* result = job.Find("result");
  return result != nullptr ? *result : JsonValue::Null();
}

gva::StreamingOptions ToStreamingOptions(const StreamSpec& stream) {
  // The server's stream defaults (ParseStreamOptions), then the fields the
  // benchmark sends.
  gva::StreamingOptions options;
  options.sax.window = stream.window;
  options.sax.paa_size = stream.paa;
  options.sax.alphabet_size = stream.alphabet;
  options.horizon = stream.horizon;
  options.density.threshold_fraction = stream.threshold;
  options.density.max_anomalies = stream.top;
  return options;
}

/// The library call gva_cli makes for `job`, as one monolithic sequence.
StatusOr<CliOutput> CliReference(const CliJob& job,
                                 const std::vector<double>& series) {
  gva::SaxOptions suggested;
  if (CliNeedsSuggestion(job)) {
    StatusOr<gva::SaxOptions> s = gva::SuggestParameters(series);
    if (s.ok()) {
      suggested = *s;
    }
  }
  if (job.command == "ensemble") {
    const bool single = job.window != 0 || job.paa != 0 || job.alphabet != 0;
    gva::SaxOptions sax;
    if (single) {
      GVA_ASSIGN_OR_RETURN(
          sax, ResolveSax(job.window, job.paa, job.alphabet, suggested));
    }
    GVA_ASSIGN_OR_RETURN(
        gva::EnsembleDetection detection,
        gva::RunEnsemble(series,
                         CliEnsembleOptions(job, single ? &sax : nullptr)));
    return RenderEnsemble(detection);
  }
  GVA_ASSIGN_OR_RETURN(
      gva::SaxOptions sax,
      ResolveSax(job.window, job.paa, job.alphabet, suggested));
  if (job.command == "density") {
    gva::DensityAnomalyOptions options;
    options.threshold_fraction = job.threshold;
    options.max_anomalies = job.top;
    GVA_ASSIGN_OR_RETURN(gva::DensityDetection detection,
                         gva::DetectDensityAnomalies(series, sax, options));
    return RenderDensity(detection, sax);
  }
  if (job.command == "rra") {
    gva::RraOptions options;
    options.sax = sax;
    options.top_k = job.top;
    options.num_threads = job.threads;
    GVA_ASSIGN_OR_RETURN(gva::RraDetection detection,
                         gva::FindRraDiscords(series, options));
    return RenderRra(detection, sax);
  }
  return Status::InvalidArgument("unknown cli command " + job.command);
}

}  // namespace gvabench

int main(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  if (command == "gen") {
    return gvabench::RunGen(argc, argv);
  }
  if (command == "ref") {
    return gvabench::RunRef(argc, argv);
  }
  if (command == "replay") {
    return gvabench::RunReplay(argc, argv);
  }
  std::fprintf(stderr,
               "usage: gvabench_harness gen|ref|replay [flags] "
               "(see the header of harness.cc)\n");
  return 2;
}
