// `gvabench_harness replay` — the traced in-process run.
//
//   gvabench_harness replay --specs SPECS.json --refs REFS.json
//       --mode batch|serve --seconds S --trace-out TRACE.json
//       [--schedule SCHEDULE.json] [--requests REQUESTS.json]
//       [--slots N] [--queue N]
//
// Replays a workload's inputs through the library with a span around each
// call into a layer's public function, the composition gva_cli and
// gva_serverd make. Every replayed output is checked against the
// reference. The spans stay in memory and are written at the end as
// Chrome trace-event JSON ("ph": "X", dense tids). stdout gets one JSON
// object of raw per-layer totals; run.py turns them into the per-layer
// metrics.
//
// batch: the CLI jobs of SPECS in order, cycled for S seconds. Each job
//   runs twice, once as the monolithic library sequence (untraced) and once
//   layer by layer (traced), alternating which goes first; the median of
//   the per-job ratios is the tracing overhead.
// serve: (1) the server job sequence of SCHEDULE replayed layer by layer
//   as RunDetectionJob composes it, for up to S/3 seconds; (2) the same
//   arrival schedule submitted to an in-process JobRunner with the server's
//   slot count, timing queue wait and execution; (3) every stream of SPECS
//   through StreamingAnomalyMonitor; (4) the recorded request bytes
//   through HttpParser and their bodies through ParseJson.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/parameter_profile.h"
#include "discord/hotsax.h"
#include "grammar/rule_intervals.h"
#include "grammar/sequitur.h"
#include "harness.h"
#include "net/http.h"
#include "sax/sax_transform.h"
#include "timeseries/io.h"
#include "viz/json_report.h"

namespace gvabench {

using gva::JsonValue;
using gva::Status;
using gva::StatusOr;

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

struct Span {
  std::string name;
  double start_ms = 0.0;
  double dur_ms = 0.0;
  int tid = 0;
  long job = -1;
};

/// In-memory span store. Spans on tid 0 nest strictly (job span around
/// its layer spans); the job-runner lanes use tids 1.. so that concurrent
/// queue/execute intervals never overlap on one tid.
class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) {}

  double NowMs() const { return MsSince(epoch_, Clock::now()); }

  void Add(std::string name, double start_ms, double end_ms, int tid,
           long job) {
    spans_.push_back(Span{std::move(name), start_ms, end_ms - start_ms, tid,
                          job});
  }

  const std::vector<Span>& spans() const { return spans_; }

  std::string ToChromeJson() const {
    std::string out = "{\"traceEvents\": [";
    bool first = true;
    for (const Span& s : spans_) {
      out += first ? "\n" : ",\n";
      first = false;
      out += "{\"name\": \"" + gva::JsonEscape(s.name) +
             "\", \"cat\": \"gvabench\", \"ph\": \"X\", \"ts\": " +
             gva::JsonNumber(s.start_ms * 1000.0) +
             ", \"dur\": " + gva::JsonNumber(s.dur_ms * 1000.0) +
             ", \"pid\": 1, \"tid\": " + std::to_string(s.tid) +
             ", \"args\": {\"job\": " + std::to_string(s.job) + "}}";
    }
    out += "\n], \"displayTimeUnit\": \"ms\"}\n";
    return out;
  }

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// RAII span on tid 0 for job `job`.
class Scoped {
 public:
  Scoped(SpanLog& log, const char* name, long job)
      : log_(log), name_(name), job_(job), start_(log.NowMs()) {}
  ~Scoped() { log_.Add(name_, start_, log_.NowMs(), 0, job_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog& log_;
  const char* name_;
  long job_;
  double start_;
};

/// Counters gathered at the layer boundaries, summed over the replay.
struct Counts {
  double sax_words = 0;
  double sax_windows = 0;
  double sax_calls = 0;
  double grammar_rules = 0;
  double grammar_size = 0;
  double grammar_tokens = 0;
  double grammar_calls = 0;
  double suggest_configs = 0;
  double suggest_calls = 0;
  double rra_calls = 0;
  double rra_distance_calls = 0;
  double rra_abandoned = 0;
  double rra_visited = 0;
  double rra_pruned = 0;
  double hotsax_calls = 0;
  double hotsax_distance_calls = 0;
  double ensemble_hits = 0;
  double ensemble_lookups = 0;
  double stream_samples = 0;
  double stream_reports = 0;
  double stream_retained_tokens = 0;
  double http_requests = 0;
  double json_bodies = 0;

  JsonValue ToJson() const {
    JsonValue out = JsonValue::Object();
    auto set = [&out](const char* key, double value) {
      out.Set(key, JsonValue::Number(value));
    };
    set("sax.words", sax_words);
    set("sax.windows", sax_windows);
    set("sax.calls", sax_calls);
    set("grammar.rules", grammar_rules);
    set("grammar.size", grammar_size);
    set("grammar.tokens", grammar_tokens);
    set("grammar.calls", grammar_calls);
    set("parameter_profile.configs", suggest_configs);
    set("parameter_profile.calls", suggest_calls);
    set("rra.calls", rra_calls);
    set("rra.distance_calls", rra_distance_calls);
    set("rra.abandoned", rra_abandoned);
    set("rra.visited", rra_visited);
    set("rra.pruned", rra_pruned);
    set("discord.calls", hotsax_calls);
    set("discord.distance_calls", hotsax_distance_calls);
    set("ensemble.cache_hits", ensemble_hits);
    set("ensemble.cache_lookups", ensemble_lookups);
    set("streaming.samples", stream_samples);
    set("streaming.reports", stream_reports);
    set("streaming.retained_tokens", stream_retained_tokens);
    set("net.requests", http_requests);
    set("json.bodies", json_bodies);
    return out;
  }
};

struct Replay {
  SpanLog log;
  Counts counts;
  long mismatches = 0;
  long jobs = 0;
  /// Per job: traced wall time over untraced wall time.
  std::vector<double> overhead;
  std::vector<double> queue_wait_ms;
  std::vector<double> execute_ms;
  long rejected = 0;
};

/// Profiled grid size: SweepParameterGrid skips combinations whose window
/// exceeds the series or whose PAA exceeds the window.
size_t GridConfigs(size_t n) {
  const gva::ParameterGrid grid;
  size_t count = 0;
  for (const size_t w : grid.windows) {
    for (const size_t p : grid.paa_sizes) {
      if (w <= n && p <= w) {
        count += grid.alphabet_sizes.size();
      }
    }
  }
  return count;
}

gva::SaxOptions SuggestTraced(Replay& r, std::span<const double> series,
                              long job) {
  Scoped span(r.log, "parameter_profile.suggest", job);
  r.counts.suggest_configs += static_cast<double>(GridConfigs(series.size()));
  r.counts.suggest_calls += 1;
  StatusOr<gva::SaxOptions> suggested = gva::SuggestParameters(series);
  return suggested.ok() ? *suggested : gva::SaxOptions{};
}

/// DecomposeSeries, one layer call per span.
StatusOr<gva::GrammarDecomposition> DecomposeTraced(
    Replay& r, std::span<const double> series, const gva::SaxOptions& sax,
    long job) {
  gva::GrammarDecomposition out;
  out.series_length = series.size();
  out.window = sax.window;
  {
    Scoped span(r.log, "sax.discretize", job);
    GVA_ASSIGN_OR_RETURN(out.records, gva::Discretize(series, sax));
  }
  r.counts.sax_calls += 1;
  r.counts.sax_words += static_cast<double>(out.records.size());
  r.counts.sax_windows += static_cast<double>(series.size() - sax.window + 1);
  {
    Scoped span(r.log, "grammar.sequitur", job);
    GVA_ASSIGN_OR_RETURN(out.grammar,
                         gva::InferGrammarFromWords(out.records.words));
  }
  size_t rhs = 0;
  for (const gva::GrammarRule& rule : out.grammar.grammar.rules()) {
    rhs += rule.rhs.size();
  }
  r.counts.grammar_calls += 1;
  r.counts.grammar_rules += static_cast<double>(out.grammar.grammar.size());
  r.counts.grammar_size += static_cast<double>(rhs);
  r.counts.grammar_tokens += static_cast<double>(out.records.size());
  {
    Scoped span(r.log, "grammar.intervals", job);
    out.intervals = gva::MapRuleIntervals(out.grammar.grammar, out.records,
                                          sax.window, series.size());
    out.density = gva::RuleDensityCurve(out.intervals, series.size());
  }
  return out;
}

void CountRra(Replay& r, const gva::DiscordResult& result) {
  r.counts.rra_calls += 1;
  r.counts.rra_distance_calls += static_cast<double>(result.distance_calls);
  r.counts.rra_abandoned +=
      static_cast<double>(result.distance_calls_abandoned);
  r.counts.rra_visited += static_cast<double>(result.candidates_visited);
  r.counts.rra_pruned += static_cast<double>(result.candidates_pruned);
}

StatusOr<gva::EnsembleDetection> EnsembleTraced(
    Replay& r, std::span<const double> series,
    const gva::EnsembleOptions& options, long job) {
  StatusOr<gva::EnsembleDetection> detection = [&] {
    Scoped span(r.log, "ensemble.run", job);
    return gva::RunEnsemble(series, options);
  }();
  if (detection.ok()) {
    r.counts.ensemble_hits += static_cast<double>(detection->cache_hits);
    r.counts.ensemble_lookups +=
        static_cast<double>(detection->cache_hits + detection->cache_misses);
  }
  return detection;
}

/// gva_cli's job, one layer call per span.
StatusOr<CliOutput> CliTraced(Replay& r, const CliJob& job, long id) {
  gva::TimeSeries loaded;
  {
    Scoped span(r.log, "timeseries.load", id);
    GVA_ASSIGN_OR_RETURN(loaded, gva::ReadTimeSeriesCsv(job.csv));
  }
  const std::span<const double> series(loaded.values());
  gva::SaxOptions suggested;
  if (CliNeedsSuggestion(job)) {
    suggested = SuggestTraced(r, series, id);
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
        EnsembleTraced(r, series,
                       CliEnsembleOptions(job, single ? &sax : nullptr), id));
    Scoped span(r.log, "viz.render", id);
    return RenderEnsemble(detection);
  }
  GVA_ASSIGN_OR_RETURN(
      gva::SaxOptions sax,
      ResolveSax(job.window, job.paa, job.alphabet, suggested));
  GVA_ASSIGN_OR_RETURN(gva::GrammarDecomposition decomposition,
                       DecomposeTraced(r, series, sax, id));
  if (job.command == "density") {
    gva::DensityAnomalyOptions options;
    options.threshold_fraction = job.threshold;
    options.max_anomalies = job.top;
    GVA_RETURN_IF_ERROR(options.Validate());
    gva::DensityDetection detection;
    {
      Scoped span(r.log, "rule_density.find", id);
      detection.anomalies = gva::FindLowDensityIntervals(
          decomposition.density, sax.window, options);
    }
    detection.decomposition = std::move(decomposition);
    Scoped span(r.log, "viz.render", id);
    return RenderDensity(detection, sax);
  }
  gva::RraOptions options;
  options.sax = sax;
  options.top_k = job.top;
  options.num_threads = job.threads;
  gva::RraDetection detection;
  {
    Scoped span(r.log, "rra.search", id);
    GVA_ASSIGN_OR_RETURN(detection.result,
                         gva::FindRraDiscordsInDecomposition(
                             series, decomposition, options));
  }
  CountRra(r, detection.result);
  detection.decomposition = std::move(decomposition);
  Scoped span(r.log, "viz.render", id);
  return RenderRra(detection, sax);
}

/// gva_cli's table minus the distance-call line, which depends on how the
/// two search threads interleave.
std::string StableText(const std::string& text) {
  std::string out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    end = end == std::string::npos ? text.size() : end + 1;
    if (text.compare(pos, 15, "distance calls:") != 0) {
      out.append(text, pos, end - pos);
    }
    pos = end;
  }
  return out;
}

Status ReplayBatch(Replay& r, const Specs& specs, const JsonValue& refs,
                   double seconds) {
  const JsonValue* cli_refs = refs.Find("cli");
  if (cli_refs == nullptr || specs.cli.empty()) {
    return Status::InvalidArgument("replay batch needs cli specs and refs");
  }
  const Clock::time_point start = Clock::now();
  for (size_t i = 0;; ++i) {
    if (i >= specs.cli.size() && MsSince(start, Clock::now()) > seconds * 1e3) {
      break;
    }
    const CliJob& job = specs.cli[i % specs.cli.size()];
    const long id = static_cast<long>(i);
    double untraced_ms = 0.0;
    double traced_ms = 0.0;
    auto untraced = [&]() -> Status {
      const Clock::time_point t0 = Clock::now();
      GVA_ASSIGN_OR_RETURN(gva::TimeSeries series,
                           gva::ReadTimeSeriesCsv(job.csv));
      GVA_ASSIGN_OR_RETURN(CliOutput output,
                           CliReference(job, series.values()));
      untraced_ms = MsSince(t0, Clock::now());
      return Status::Ok();
    };
    auto traced = [&]() -> Status {
      const double t0 = r.log.NowMs();
      StatusOr<CliOutput> output = CliTraced(r, job, id);
      const double t1 = r.log.NowMs();
      r.log.Add("job." + job.command, t0, t1, 0, id);
      traced_ms = t1 - t0;
      GVA_RETURN_IF_ERROR(output.status());
      const JsonValue* ref = cli_refs->Find(job.key);
      const JsonValue* text = ref != nullptr ? ref->Find("stdout") : nullptr;
      if (text == nullptr ||
          StableText(text->as_string()) != StableText(output->text)) {
        ++r.mismatches;
        std::fprintf(stderr, "replay: %s differs from the reference\n",
                     job.key.c_str());
      }
      return Status::Ok();
    };
    if (i % 2 == 0) {
      GVA_RETURN_IF_ERROR(untraced());
      GVA_RETURN_IF_ERROR(traced());
    } else {
      GVA_RETURN_IF_ERROR(traced());
      GVA_RETURN_IF_ERROR(untraced());
    }
    r.overhead.push_back(traced_ms / untraced_ms);
    ++r.jobs;
  }
  return Status::Ok();
}

/// RunDetectionJob's composition for one server job, one layer call per
/// span, ending in the JSON the server renders for GET /v1/jobs/{id}.
StatusOr<JsonValue> ServerTraced(Replay& r, const ServerJob& job,
                                 const std::vector<double>& series, long id) {
  const gva::JobSpec spec = ToJobSpec(job, {});
  gva::JobOutcome outcome;
  const bool all_given = job.window != 0 && job.paa != 0 && job.alphabet != 0;
  const bool none_given = job.window == 0 && job.paa == 0 && job.alphabet == 0;
  gva::SaxOptions sax;
  const bool needs_sax = !(job.detector == "ensemble" && none_given);
  if (needs_sax) {
    GVA_ASSIGN_OR_RETURN(
        sax, ResolveSax(job.window, job.paa, job.alphabet,
                        all_given ? gva::SaxOptions{}
                                  : SuggestTraced(r, series, id)));
    outcome.window = sax.window;
    outcome.paa = sax.paa_size;
    outcome.alphabet = sax.alphabet_size;
  }
  auto fill_discords = [&outcome](const gva::DiscordResult& result) {
    outcome.distance_calls = result.distance_calls;
    size_t rank = 0;
    for (const gva::DiscordRecord& d : result.discords) {
      outcome.anomalies.push_back(
          gva::JobAnomaly{d.position, d.position + d.length, d.distance,
                          rank++});
    }
  };
  outcome.detector = job.detector;
  if (job.detector == "hotsax") {
    gva::HotSaxOptions options;
    options.sax = sax;
    options.top_k = job.top;
    StatusOr<gva::DiscordResult> result = [&] {
      Scoped span(r.log, "discord.hotsax", id);
      return gva::FindDiscordsHotSax(series, options);
    }();
    GVA_RETURN_IF_ERROR(result.status());
    r.counts.hotsax_calls += 1;
    r.counts.hotsax_distance_calls +=
        static_cast<double>(result->distance_calls);
    fill_discords(*result);
  } else if (job.detector == "rra" || job.detector == "density") {
    GVA_ASSIGN_OR_RETURN(gva::GrammarDecomposition decomposition,
                         DecomposeTraced(r, series, sax, id));
    if (job.detector == "rra") {
      gva::RraOptions options;
      options.sax = sax;
      options.top_k = job.top;
      StatusOr<gva::DiscordResult> result = [&] {
        Scoped span(r.log, "rra.search", id);
        return gva::FindRraDiscordsInDecomposition(series, decomposition,
                                                   options);
      }();
      GVA_RETURN_IF_ERROR(result.status());
      CountRra(r, *result);
      fill_discords(*result);
    } else {
      gva::DensityAnomalyOptions options;
      options.threshold_fraction = job.threshold;
      options.max_anomalies = job.top;
      GVA_RETURN_IF_ERROR(options.Validate());
      std::vector<gva::DensityAnomaly> anomalies;
      {
        Scoped span(r.log, "rule_density.find", id);
        anomalies = gva::FindLowDensityIntervals(decomposition.density,
                                                 sax.window, options);
      }
      for (const gva::DensityAnomaly& a : anomalies) {
        outcome.anomalies.push_back(gva::JobAnomaly{
            a.span.start, a.span.end, a.mean_density, a.rank});
      }
    }
    outcome.density = std::move(decomposition.density);
  } else if (job.detector == "ensemble") {
    gva::EnsembleOptions options;
    options.anomaly.threshold_fraction = job.threshold;
    options.anomaly.max_anomalies = job.top;
    if (!none_given) {
      options.configs.push_back(
          gva::EnsembleConfig{sax.window, sax.paa_size, sax.alphabet_size});
    }
    GVA_ASSIGN_OR_RETURN(gva::EnsembleDetection detection,
                         EnsembleTraced(r, series, options, id));
    for (const gva::EnsembleAnomaly& a : detection.anomalies) {
      outcome.anomalies.push_back(
          gva::JobAnomaly{a.span.start, a.span.end, a.mean_score, a.rank});
    }
    outcome.score_curve = std::move(detection.score);
  } else {
    return Status::InvalidArgument("unsupported detector " + job.detector);
  }
  gva::JobSnapshot snapshot;
  snapshot.id = static_cast<uint64_t>(id);
  snapshot.state = gva::JobState::kDone;
  snapshot.spec = spec;
  snapshot.outcome = outcome;
  {
    Scoped span(r.log, "viz.render", id);
    (void)gva::JobJson(snapshot).Dump();
  }
  return ServerResultJson(spec, outcome);
}

struct Arrival {
  double due_ms = 0.0;
  size_t job = 0;  ///< index into Specs::server
};

StatusOr<std::vector<Arrival>> LoadSchedule(const std::string& path,
                                            size_t jobs) {
  GVA_ASSIGN_OR_RETURN(JsonValue doc, LoadJson(path));
  std::vector<Arrival> out;
  const JsonValue* list = doc.Find("arrivals");
  if (list == nullptr || !list->is_array()) {
    return Status::InvalidArgument("schedule needs an 'arrivals' array");
  }
  for (const JsonValue& item : list->items()) {
    if (!item.is_array() || item.items().size() != 2) {
      return Status::InvalidArgument("arrival must be [due_ms, job]");
    }
    Arrival a{item.items()[0].as_number(),
              static_cast<size_t>(item.items()[1].as_number())};
    if (a.job >= jobs) {
      return Status::InvalidArgument("arrival names an unknown job");
    }
    out.push_back(a);
  }
  return out;
}

/// The fixed-rate arrival schedule against an in-process JobRunner with the
/// server's slot count: queue wait and execution time per job, observed by
/// polling job state every ~50 us.
Status ReplayJobRunner(Replay& r, const Specs& specs, const JsonValue& refs,
                       const std::vector<Arrival>& arrivals, size_t slots,
                       size_t queue) {
  gva::JobRunnerOptions options;
  options.slots = slots;
  options.queue_capacity = queue;
  options.max_threads_per_job = 1;
  GVA_ASSIGN_OR_RETURN(std::unique_ptr<gva::JobRunner> runner,
                       gva::JobRunner::Create(options));
  struct Pending {
    uint64_t id = 0;
    size_t job = 0;
    double submit_ms = 0.0;
    double run_ms = -1.0;
  };
  std::vector<Pending> pending;
  std::vector<double> lane_free_ms;  // job-runner lanes, tids 1..
  const JsonValue* server_refs = refs.Find("server");
  const double base = r.log.NowMs();
  size_t next = 0;
  while (next < arrivals.size() || !pending.empty()) {
    const double now = r.log.NowMs();
    while (next < arrivals.size() && base + arrivals[next].due_ms <= now) {
      const size_t j = arrivals[next].job;
      GVA_ASSIGN_OR_RETURN(const std::vector<double>* series,
                           SeriesFor(specs.server[j].csv));
      StatusOr<uint64_t> id = runner->Submit(ToJobSpec(specs.server[j],
                                                       *series));
      if (id.ok()) {
        pending.push_back(Pending{*id, j, r.log.NowMs(), -1.0});
      } else if (id.status().code() == gva::StatusCode::kResourceExhausted) {
        ++r.rejected;
      } else {
        return id.status();
      }
      ++next;
    }
    for (size_t i = 0; i < pending.size();) {
      Pending& p = pending[i];
      GVA_ASSIGN_OR_RETURN(gva::JobSnapshot snapshot, runner->Get(p.id));
      const double seen = r.log.NowMs();
      if (snapshot.state == gva::JobState::kQueued) {
        ++i;
        continue;
      }
      if (p.run_ms < 0.0) {
        p.run_ms = seen;
      }
      if (snapshot.state == gva::JobState::kRunning) {
        ++i;
        continue;
      }
      if (snapshot.state != gva::JobState::kDone) {
        return Status::Internal("job runner replay: job did not finish");
      }
      const ServerJob& job = specs.server[p.job];
      const JsonValue* ref =
          server_refs != nullptr ? server_refs->Find(job.key) : nullptr;
      const JsonValue* result = ref != nullptr ? ref->Find("result") : nullptr;
      if (result == nullptr ||
          result->Dump() !=
              ServerResultJson(snapshot.spec, snapshot.outcome).Dump()) {
        ++r.mismatches;
        std::fprintf(stderr, "replay: job runner %s differs\n",
                     job.key.c_str());
      }
      r.queue_wait_ms.push_back(p.run_ms - p.submit_ms);
      r.execute_ms.push_back(seen - p.run_ms);
      size_t lane = 0;
      while (lane < lane_free_ms.size() && lane_free_ms[lane] > p.submit_ms) {
        ++lane;
      }
      if (lane == lane_free_ms.size()) {
        lane_free_ms.push_back(0.0);
      }
      lane_free_ms[lane] = seen;
      const int tid = static_cast<int>(lane) + 1;
      r.log.Add("job_runner.queue_wait", p.submit_ms, p.run_ms, tid,
                static_cast<long>(p.id));
      r.log.Add("job_runner.execute", p.run_ms, seen, tid,
                static_cast<long>(p.id));
      pending.erase(pending.begin() + static_cast<long>(i));
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return Status::Ok();
}

Status ReplayStreams(Replay& r, const Specs& specs, const JsonValue& refs) {
  const JsonValue* stream_refs = refs.Find("streams");
  long id = 1000000;
  for (const StreamSpec& stream : specs.streams) {
    GVA_ASSIGN_OR_RETURN(const std::vector<double>* series,
                         SeriesFor(stream.csv));
    GVA_ASSIGN_OR_RETURN(
        gva::StreamingAnomalyMonitor monitor,
        gva::StreamingAnomalyMonitor::Create(ToStreamingOptions(stream)));
    const JsonValue* expected =
        stream_refs != nullptr ? stream_refs->Find(stream.key) : nullptr;
    size_t report = 0;
    for (size_t b = 0; b < stream.batches; ++b, ++id) {
      {
        Scoped span(r.log, "streaming.push", id);
        monitor.PushAll(std::span<const double>(*series).subspan(
            b * stream.batch, stream.batch));
      }
      r.counts.stream_samples += static_cast<double>(stream.batch);
      if ((b + 1) % stream.report_every != 0) {
        continue;
      }
      StatusOr<gva::StreamingReport> got = [&] {
        Scoped span(r.log, "streaming.report", id);
        return monitor.Report();
      }();
      GVA_RETURN_IF_ERROR(got.status());
      r.counts.stream_reports += 1;
      r.counts.stream_retained_tokens +=
          static_cast<double>(monitor.retained_tokens());
      const std::string text =
          gva::StreamReportJson(*got, monitor.samples_seen()).Dump();
      if (expected == nullptr || report >= expected->items().size() ||
          expected->items()[report].Dump() != text) {
        ++r.mismatches;
        std::fprintf(stderr, "replay: stream %s report %zu differs\n",
                     stream.key.c_str(), report);
      }
      ++report;
    }
  }
  return Status::Ok();
}

/// Recorded request bytes through the server's parsers: HttpParser on the
/// whole request, ParseJson on its body. Each distinct request is parsed
/// as many times as it was sent.
Status ReplayRequests(Replay& r, const std::string& path) {
  GVA_ASSIGN_OR_RETURN(JsonValue doc, LoadJson(path));
  const JsonValue* list = doc.Find("requests");
  if (list == nullptr || !list->is_array()) {
    return Status::InvalidArgument("requests file needs a 'requests' array");
  }
  long id = 2000000;
  for (const JsonValue& item : list->items()) {
    const JsonValue* text = item.Find("text");
    const JsonValue* count = item.Find("count");
    if (text == nullptr || count == nullptr) {
      return Status::InvalidArgument("request needs 'text' and 'count'");
    }
    for (long c = 0; c < static_cast<long>(count->as_number()); ++c, ++id) {
      gva::net::HttpParser parser;
      gva::net::HttpParser::State state;
      {
        Scoped span(r.log, "net.http_parse", id);
        parser.Feed(text->as_string());
        state = parser.Parse();
      }
      if (state != gva::net::HttpParser::State::kComplete) {
        return Status::InvalidArgument("recorded request does not parse");
      }
      r.counts.http_requests += 1;
      if (parser.request().body.empty()) {
        continue;
      }
      StatusOr<JsonValue> body = [&] {
        Scoped span(r.log, "json.parse", id);
        return gva::ParseJson(parser.request().body);
      }();
      GVA_RETURN_IF_ERROR(body.status());
      r.counts.json_bodies += 1;
    }
  }
  return Status::Ok();
}

Status ReplayServe(Replay& r, const Specs& specs, const JsonValue& refs,
                   double seconds, const std::string& schedule_path,
                   const std::string& requests_path, size_t slots,
                   size_t queue) {
  GVA_ASSIGN_OR_RETURN(std::vector<Arrival> arrivals,
                       LoadSchedule(schedule_path, specs.server.size()));
  const JsonValue* server_refs = refs.Find("server");
  if (server_refs == nullptr || arrivals.empty()) {
    return Status::InvalidArgument("replay serve needs refs and arrivals");
  }
  // (1) Layer by layer, in arrival order.
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < arrivals.size(); ++i) {
    if (MsSince(start, Clock::now()) > seconds * 1e3 / 3.0) {
      break;
    }
    const ServerJob& job = specs.server[arrivals[i].job];
    GVA_ASSIGN_OR_RETURN(const std::vector<double>* series,
                         SeriesFor(job.csv));
    const long id = static_cast<long>(i);
    const Clock::time_point u0 = Clock::now();
    GVA_ASSIGN_OR_RETURN(gva::JobOutcome plain,
                         gva::RunDetectionJob(ToJobSpec(job, {}), *series,
                                              nullptr));
    const double untraced_ms = MsSince(u0, Clock::now());
    const double t0 = r.log.NowMs();
    StatusOr<JsonValue> result = ServerTraced(r, job, *series, id);
    const double t1 = r.log.NowMs();
    r.log.Add("job." + job.detector, t0, t1, 0, id);
    r.overhead.push_back((t1 - t0) / untraced_ms);
    GVA_RETURN_IF_ERROR(result.status());
    const JsonValue* ref = server_refs->Find(job.key);
    const JsonValue* expected = ref != nullptr ? ref->Find("result") : nullptr;
    if (expected == nullptr || expected->Dump() != result->Dump() ||
        ServerResultJson(ToJobSpec(job, {}), plain).Dump() != result->Dump()) {
      ++r.mismatches;
      std::fprintf(stderr, "replay: %s differs from the reference\n",
                   job.key.c_str());
    }
    ++r.jobs;
  }
  // (2) Queueing in the job runner at the fixed rate.
  GVA_RETURN_IF_ERROR(
      ReplayJobRunner(r, specs, refs, arrivals, slots, queue));
  // (3) Streams, (4) request parsing.
  GVA_RETURN_IF_ERROR(ReplayStreams(r, specs, refs));
  return ReplayRequests(r, requests_path);
}

JsonValue Numbers(const std::vector<double>& values) {
  JsonValue out = JsonValue::Array();
  for (const double v : values) {
    out.Append(JsonValue::Number(v));
  }
  return out;
}

}  // namespace

int RunReplay(int argc, char** argv) {
  const std::string mode = FlagValue(argc, argv, "--mode", "");
  const double seconds = std::strtod(FlagValue(argc, argv, "--seconds", "5"),
                                     nullptr);
  const size_t slots =
      std::strtoul(FlagValue(argc, argv, "--slots", "2"), nullptr, 10);
  const size_t queue =
      std::strtoul(FlagValue(argc, argv, "--queue", "8"), nullptr, 10);
  StatusOr<Specs> specs = LoadSpecs(FlagValue(argc, argv, "--specs", ""));
  StatusOr<JsonValue> refs = LoadJson(FlagValue(argc, argv, "--refs", ""));
  if (!specs.ok() || !refs.ok()) {
    std::fprintf(stderr, "replay: cannot load specs/refs\n");
    return 1;
  }
  Replay r;
  Status status = Status::Ok();
  if (mode == "batch") {
    status = ReplayBatch(r, *specs, *refs, seconds);
  } else if (mode == "serve") {
    status = ReplayServe(r, *specs, *refs, seconds,
                         FlagValue(argc, argv, "--schedule", ""),
                         FlagValue(argc, argv, "--requests", ""), slots, queue);
  } else {
    status = Status::InvalidArgument("--mode must be batch or serve");
  }
  if (!status.ok()) {
    std::fprintf(stderr, "replay: %s\n", status.ToString().c_str());
    return 1;
  }

  // Layer totals; per-job wall time and the part of it under layer spans.
  // Layer spans on tid 0 never overlap, so their sum is the covered time.
  std::map<std::string, std::pair<double, double>> layers;  // calls, ms
  std::map<std::string, std::map<std::string, double>> by_detector;
  std::map<long, double> covered;
  std::map<long, std::pair<std::string, double>> job_spans;
  for (const Span& s : r.log.spans()) {
    if (s.tid == 0 && s.name.rfind("job.", 0) == 0) {
      job_spans[s.job] = {s.name.substr(4), s.dur_ms};
      continue;
    }
    auto& layer = layers[s.name];
    layer.first += 1;
    layer.second += s.dur_ms;
    if (s.tid == 0) {
      covered[s.job] += s.dur_ms;
    }
  }
  double job_ms = 0.0;
  double covered_ms = 0.0;
  for (const auto& [job, span] : job_spans) {
    job_ms += span.second;
    covered_ms += covered[job];
    by_detector[span.first]["job"] += span.second;
  }
  for (const Span& s : r.log.spans()) {
    const auto it = job_spans.find(s.job);
    if (s.tid == 0 && it != job_spans.end() && s.name.rfind("job.", 0) != 0) {
      by_detector[it->second.first][s.name] += s.dur_ms;
    }
  }

  JsonValue out = JsonValue::Object();
  out.Set("jobs", JsonValue::Number(static_cast<double>(r.jobs)));
  out.Set("mismatches", JsonValue::Number(static_cast<double>(r.mismatches)));
  out.Set("job_ms", JsonValue::Number(job_ms));
  out.Set("covered_ms", JsonValue::Number(covered_ms));
  out.Set("overhead", Numbers(r.overhead));
  JsonValue layer_json = JsonValue::Object();
  for (const auto& [name, totals] : layers) {
    JsonValue entry = JsonValue::Object();
    entry.Set("calls", JsonValue::Number(totals.first));
    entry.Set("ms", JsonValue::Number(totals.second));
    layer_json.Set(name, std::move(entry));
  }
  out.Set("layers", std::move(layer_json));
  JsonValue detector_json = JsonValue::Object();
  for (const auto& [detector, totals] : by_detector) {
    JsonValue entry = JsonValue::Object();
    for (const auto& [name, ms] : totals) {
      entry.Set(name, JsonValue::Number(ms));
    }
    detector_json.Set(detector, std::move(entry));
  }
  out.Set("by_detector", std::move(detector_json));
  out.Set("counts", r.counts.ToJson());
  out.Set("queue_wait_ms", Numbers(r.queue_wait_ms));
  out.Set("execute_ms", Numbers(r.execute_ms));
  out.Set("rejected", JsonValue::Number(static_cast<double>(r.rejected)));

  const Status written =
      WriteText(FlagValue(argc, argv, "--trace-out", "gvabench_trace.json"),
                r.log.ToChromeJson());
  if (!written.ok()) {
    std::fprintf(stderr, "replay: %s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("%s\n", out.Dump().c_str());
  return r.mismatches == 0 ? 0 : 3;
}

}  // namespace gvabench
