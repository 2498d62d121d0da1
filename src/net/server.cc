#include "net/server.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <utility>

#include "datasets/ecg.h"
#include "datasets/power_demand.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "timeseries/io.h"
#include "util/json.h"
#include "util/strings.h"
#include "viz/json_report.h"

namespace gva::net {

namespace {

/// Tenant and stream identifiers share one restricted alphabet so the
/// "<tenant>/<id>" stream key is unambiguous and identifiers embed into
/// JSON and logs without escaping.
bool ValidName(std::string_view name) {
  if (name.empty() || name.size() > 64) {
    return false;
  }
  return std::all_of(name.begin(), name.end(), [](unsigned char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '-' || c == '_';
  });
}

std::string TenantOf(const HttpRequest& request) {
  const std::string* header = request.FindHeader("x-gva-tenant");
  return header != nullptr ? *header : std::string("default");
}

int HttpStatusFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kFailedPrecondition:
    case StatusCode::kCancelled:
      return 409;
    case StatusCode::kResourceExhausted:
      return 429;
    default:
      return 503;
  }
}

void FillJson(const JsonValue& value, int status, HttpResponse* response) {
  response->status = status;
  response->content_type = "application/json";
  response->body = value.Dump() + "\n";
}

void FillError(const Status& status, HttpResponse* response) {
  JsonValue error = JsonValue::Object();
  error.Set("error", JsonValue::String(status.ToString()));
  FillJson(error, HttpStatusFor(status), response);
  if (response->status == 429) {
    // The queue drains at detection speed, not wire speed; one second is
    // an honest lower bound for a slot to free up.
    response->extra_headers.emplace_back("Retry-After", "1");
  }
}

void FillMethodNotAllowed(std::string_view allowed, HttpResponse* response) {
  response->status = 405;
  response->content_type = "text/plain; charset=utf-8";
  response->body = "method not allowed; use " + std::string(allowed) + "\n";
}

/// Strict non-negative integer out of a JSON number: fractions, negatives,
/// and values beyond exact double-integer range are rejected rather than
/// silently truncated.
Status ReadSize(const JsonValue& value, std::string_view key, size_t* out) {
  if (!value.is_number()) {
    return Status::InvalidArgument("field '" + std::string(key) +
                                   "' must be a number");
  }
  const double number = value.as_number();
  if (!(number >= 0) || number != std::floor(number) || number > 9e15) {
    return Status::InvalidArgument("field '" + std::string(key) +
                                   "' must be a non-negative integer");
  }
  *out = static_cast<size_t>(number);
  return Status::Ok();
}

Status ReadSamples(const JsonValue& value, std::string_view key,
                   std::vector<double>* out) {
  if (!value.is_array()) {
    return Status::InvalidArgument("field '" + std::string(key) +
                                   "' must be an array of numbers");
  }
  out->reserve(value.items().size());
  for (const JsonValue& item : value.items()) {
    if (!item.is_number()) {
      return Status::InvalidArgument("field '" + std::string(key) +
                                     "' must contain only numbers");
    }
    // An overflowing literal such as 1e999 parses to +-inf, which would
    // poison every prefix sum after it.
    if (!std::isfinite(item.as_number())) {
      return Status::InvalidArgument(
          StrFormat("%.*s[%zu] is not finite", static_cast<int>(key.size()),
                    key.data(), out->size()));
    }
    out->push_back(item.as_number());
  }
  return Status::Ok();
}

/// Materializes a series reference the way gva_cli's LoadInput does:
/// "demo:*" builds the synthetic dataset in-process, anything else reads a
/// CSV column — the bit-identical contract starts at the input bytes.
Status LoadSeriesReference(const std::string& input, size_t column,
                           std::vector<double>* out) {
  if (input == "demo:ecg") {
    *out = MakeEcg().series.values();
    return Status::Ok();
  }
  if (input == "demo:power") {
    *out = MakePowerDemand().series.values();
    return Status::Ok();
  }
  if (input.rfind("demo:", 0) == 0) {
    return Status::NotFound("unknown demo dataset '" + input +
                            "' (have demo:ecg, demo:power)");
  }
  StatusOr<TimeSeries> loaded = ReadTimeSeriesCsv(input, column);
  GVA_RETURN_IF_ERROR(loaded.status());
  *out = loaded->values();
  return Status::Ok();
}

/// Parses a POST /v1/jobs body into a JobSpec. Strict: unknown fields are
/// 400, not ignored — a typoed "widnow" must not silently run with the
/// suggested window instead.
Status ParseJobRequest(const HttpRequest& request, JobSpec* spec) {
  spec->tenant = TenantOf(request);
  if (request.body.empty()) {
    return Status::InvalidArgument("job submission needs a JSON body");
  }
  StatusOr<JsonValue> doc = ParseJson(request.body);
  GVA_RETURN_IF_ERROR(doc.status());
  if (!doc->is_object()) {
    return Status::InvalidArgument("job request must be a JSON object");
  }

  std::string input;
  size_t column = 0;
  for (const auto& [key, value] : doc->members()) {
    if (key == "tenant") {
      if (!value.is_string()) {
        return Status::InvalidArgument("field 'tenant' must be a string");
      }
      spec->tenant = value.as_string();
    } else if (key == "detector") {
      if (!value.is_string()) {
        return Status::InvalidArgument("field 'detector' must be a string");
      }
      StatusOr<JobDetector> detector = ParseJobDetector(value.as_string());
      GVA_RETURN_IF_ERROR(detector.status());
      spec->detector = *detector;
    } else if (key == "series") {
      GVA_RETURN_IF_ERROR(ReadSamples(value, key, &spec->series));
    } else if (key == "input") {
      if (!value.is_string()) {
        return Status::InvalidArgument("field 'input' must be a string");
      }
      input = value.as_string();
    } else if (key == "column") {
      GVA_RETURN_IF_ERROR(ReadSize(value, key, &column));
    } else if (key == "window") {
      GVA_RETURN_IF_ERROR(ReadSize(value, key, &spec->window));
    } else if (key == "paa") {
      GVA_RETURN_IF_ERROR(ReadSize(value, key, &spec->paa));
    } else if (key == "alphabet") {
      GVA_RETURN_IF_ERROR(ReadSize(value, key, &spec->alphabet));
    } else if (key == "top") {
      GVA_RETURN_IF_ERROR(ReadSize(value, key, &spec->top_k));
    } else if (key == "threads") {
      GVA_RETURN_IF_ERROR(ReadSize(value, key, &spec->num_threads));
    } else if (key == "threshold") {
      if (!value.is_number()) {
        return Status::InvalidArgument("field 'threshold' must be a number");
      }
      spec->threshold = value.as_number();
    } else if (key == "approx") {
      if (!value.is_bool()) {
        return Status::InvalidArgument("field 'approx' must be a boolean");
      }
      spec->approx = value.as_bool();
    } else {
      return Status::InvalidArgument("unknown job field '" + key + "'");
    }
  }

  if (!ValidName(spec->tenant)) {
    return Status::InvalidArgument(
        "tenant must be 1-64 chars of [A-Za-z0-9_-]");
  }
  if (!spec->series.empty() && !input.empty()) {
    return Status::InvalidArgument(
        "give either an inline 'series' or an 'input' reference, not both");
  }
  if (spec->series.empty()) {
    if (input.empty()) {
      return Status::InvalidArgument(
          "job needs an inline 'series' or an 'input' reference");
    }
    GVA_RETURN_IF_ERROR(LoadSeriesReference(input, column, &spec->series));
  }
  return Status::Ok();
}

/// Parses a POST /v1/streams/{id} body. An empty body means all defaults
/// (the CLI's stdin-streaming defaults: library SAX triple, threshold
/// 0.05, top 3, unbounded horizon).
Status ParseStreamOptions(const std::string& body, StreamingOptions* options) {
  options->density.threshold_fraction = 0.05;
  options->density.max_anomalies = 3;
  if (body.empty()) {
    return Status::Ok();
  }
  StatusOr<JsonValue> doc = ParseJson(body);
  GVA_RETURN_IF_ERROR(doc.status());
  if (!doc->is_object()) {
    return Status::InvalidArgument("stream config must be a JSON object");
  }
  for (const auto& [key, value] : doc->members()) {
    if (key == "window") {
      GVA_RETURN_IF_ERROR(ReadSize(value, key, &options->sax.window));
    } else if (key == "paa") {
      GVA_RETURN_IF_ERROR(ReadSize(value, key, &options->sax.paa_size));
    } else if (key == "alphabet") {
      GVA_RETURN_IF_ERROR(ReadSize(value, key, &options->sax.alphabet_size));
    } else if (key == "top") {
      GVA_RETURN_IF_ERROR(
          ReadSize(value, key, &options->density.max_anomalies));
    } else if (key == "horizon") {
      GVA_RETURN_IF_ERROR(ReadSize(value, key, &options->horizon));
    } else if (key == "threshold") {
      if (!value.is_number()) {
        return Status::InvalidArgument("field 'threshold' must be a number");
      }
      options->density.threshold_fraction = value.as_number();
    } else {
      return Status::InvalidArgument("unknown stream field '" + key + "'");
    }
  }
  return Status::Ok();
}

bool WantsKeepAlive(const HttpRequest& request) {
  const std::string* connection = request.FindHeader("connection");
  if (connection == nullptr) {
    return true;  // HTTP/1.1 default
  }
  std::string value = *connection;
  std::transform(value.begin(), value.end(), value.begin(),
                 [](unsigned char c) { return static_cast<char>(
                     c >= 'A' && c <= 'Z' ? c - 'A' + 'a' : c); });
  return value != "close";
}

bool ParseJobId(std::string_view text, uint64_t* out) {
  if (text.empty() || text.size() > 18) {
    return false;
  }
  uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      return false;
    }
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

}  // namespace

StatusOr<std::unique_ptr<AnomalyServer>> AnomalyServer::Start(
    const AnomalyServerOptions& options) {
  StatusOr<std::unique_ptr<JobRunner>> runner =
      JobRunner::Create(options.runner);
  GVA_RETURN_IF_ERROR(runner.status());
  int event[2];
  if (::pipe(event) != 0) {
    return Status::IoError("server event pipe failed");
  }
  std::unique_ptr<AnomalyServer> server(
      new AnomalyServer(options, event[0], event[1], std::move(*runner)));
  StatusOr<std::unique_ptr<HttpServer>> http = HttpServer::Start(
      options, [raw = server.get()](const HttpRequest& request) {
        return raw->HandleRequest(request);
      });
  GVA_RETURN_IF_ERROR(http.status());  // ~AnomalyServer releases the rest
  server->http_ = std::move(*http);
  return server;
}

AnomalyServer::AnomalyServer(const AnomalyServerOptions& options,
                             int event_read_fd, int event_write_fd,
                             std::unique_ptr<JobRunner> runner)
    : options_(options),
      shutdown_event_read_fd_(event_read_fd),
      shutdown_event_write_fd_(event_write_fd),
      started_(std::chrono::steady_clock::now()),
      runner_(std::move(runner)) {}

AnomalyServer::~AnomalyServer() { Stop(); }

void AnomalyServer::Stop() {
  if (stopping_.exchange(true)) {
    return;
  }
  if (http_ != nullptr) {
    http_->Stop();
  }
  runner_->Shutdown();
  ::close(shutdown_event_read_fd_);
  ::close(shutdown_event_write_fd_);
}

size_t AnomalyServer::stream_count() const {
  std::lock_guard<std::mutex> lock(streams_mu_);
  return streams_.size();
}

HttpResponse AnomalyServer::HandleRequest(const HttpRequest& request) {
  const bool keep_alive = WantsKeepAlive(request);
  obs::GlobalMetrics().counter("server.requests").Add(1);

  HttpResponse response;
  const std::string& method = request.method;
  const std::string& path = request.path;

  if (path == "/v1/admin/shutdown") {
    if (method != "POST") {
      FillMethodNotAllowed("POST", &response);
    } else {
      shutdown_requested_.store(true, std::memory_order_relaxed);
      const ssize_t poked = ::write(shutdown_event_write_fd_, "s", 1);
      (void)poked;
      JsonValue body = JsonValue::Object();
      body.Set("status", JsonValue::String("shutting-down"));
      FillJson(body, 202, &response);
      response.keep_alive = false;
      return response;
    }
  } else if (obs::HandleTelemetryRoute(method, path, started_,
                                       HealthzExtra(), &response)) {
    // Shared telemetry surface (/metrics, /metrics.json, /healthz,
    // /flightz) with server health appended to /healthz.
  } else if (path == "/v1/jobs") {
    if (method == "POST") {
      HandleJobSubmit(request, &response);
    } else if (method == "GET") {
      HandleJobList(request, &response);
    } else {
      FillMethodNotAllowed("GET or POST", &response);
    }
  } else if (path.rfind("/v1/jobs/", 0) == 0) {
    HandleJobRoute(request, std::string_view(path).substr(9), &response);
  } else if (path.rfind("/v1/streams/", 0) == 0) {
    HandleStreamRoute(request, std::string_view(path).substr(12), &response);
  } else {
    FillError(Status::NotFound("no route for '" + path + "'"), &response);
  }

  response.keep_alive = keep_alive;
  return response;
}

void AnomalyServer::HandleJobSubmit(const HttpRequest& request,
                                    HttpResponse* response) {
  JobSpec spec;
  const Status parsed = ParseJobRequest(request, &spec);
  if (!parsed.ok()) {
    FillError(parsed, response);
    return;
  }
  const std::string tenant = spec.tenant;
  StatusOr<uint64_t> id = runner_->Submit(std::move(spec));
  if (!id.ok()) {
    FillError(id.status(), response);
    return;
  }
  JsonValue body = JsonValue::Object();
  body.Set("id", JsonValue::Number(static_cast<double>(*id)));
  body.Set("tenant", JsonValue::String(tenant));
  body.Set("state", JsonValue::String("queued"));
  FillJson(body, 202, response);
}

void AnomalyServer::HandleJobList(const HttpRequest& request,
                                  HttpResponse* response) {
  // `?tenant=` filters; without it the listing spans tenants (ids are
  // global — this is an operations surface, not an isolation boundary).
  const std::string tenant = QueryParam(request.query, "tenant");
  JsonValue jobs = JsonValue::Array();
  for (const JobSnapshot& snapshot : runner_->List(tenant)) {
    jobs.Append(JobSummaryJson(snapshot));
  }
  JsonValue body = JsonValue::Object();
  body.Set("jobs", std::move(jobs));
  FillJson(body, 200, response);
}

void AnomalyServer::HandleJobRoute(const HttpRequest& request,
                                   std::string_view rest,
                                   HttpResponse* response) {
  bool svg = false;
  std::string_view id_part = rest;
  if (rest.size() > 4 && rest.substr(rest.size() - 4) == "/svg") {
    svg = true;
    id_part = rest.substr(0, rest.size() - 4);
  }
  uint64_t id = 0;
  if (!ParseJobId(id_part, &id)) {
    FillError(Status::NotFound("malformed job id"), response);
    return;
  }
  const std::string& method = request.method;

  if (svg) {
    if (method != "GET") {
      FillMethodNotAllowed("GET", response);
      return;
    }
    StatusOr<JobSnapshot> snapshot = runner_->Get(id);
    if (!snapshot.ok()) {
      FillError(snapshot.status(), response);
      return;
    }
    if (snapshot->state != JobState::kDone) {
      FillError(Status::FailedPrecondition(
                    "job is not finished; poll GET /v1/jobs/{id} first"),
                response);
      return;
    }
    response->status = 200;
    response->content_type = "image/svg+xml";
    response->body = JobSvg(*snapshot);
    return;
  }

  if (method == "GET") {
    StatusOr<JobSnapshot> snapshot = runner_->Get(id);
    if (!snapshot.ok()) {
      FillError(snapshot.status(), response);
      return;
    }
    FillJson(JobJson(*snapshot), 200, response);
    return;
  }
  if (method == "DELETE") {
    const Status cancelled = runner_->Cancel(id);
    if (!cancelled.ok()) {
      FillError(cancelled, response);
      return;
    }
    StatusOr<JobSnapshot> snapshot = runner_->Get(id);
    if (!snapshot.ok()) {
      FillError(snapshot.status(), response);
      return;
    }
    FillJson(JobJson(*snapshot), 200, response);
    return;
  }
  FillMethodNotAllowed("GET or DELETE", response);
}

void AnomalyServer::HandleStreamRoute(const HttpRequest& request,
                                      std::string_view rest,
                                      HttpResponse* response) {
  const size_t slash = rest.find('/');
  const std::string id(
      rest.substr(0, slash == std::string_view::npos ? rest.size() : slash));
  const std::string_view action =
      slash == std::string_view::npos ? std::string_view()
                                      : rest.substr(slash + 1);
  if (!ValidName(id)) {
    FillError(Status::InvalidArgument(
                  "stream id must be 1-64 chars of [A-Za-z0-9_-]"),
              response);
    return;
  }
  const std::string tenant = TenantOf(request);
  if (!ValidName(tenant)) {
    FillError(Status::InvalidArgument(
                  "tenant must be 1-64 chars of [A-Za-z0-9_-]"),
              response);
    return;
  }
  const std::string key = tenant + "/" + id;
  const std::string& method = request.method;

  if (action.empty()) {
    if (method == "POST") {
      StreamingOptions options;
      const Status parsed = ParseStreamOptions(request.body, &options);
      if (!parsed.ok()) {
        FillError(parsed, response);
        return;
      }
      StatusOr<StreamingAnomalyMonitor> monitor =
          StreamingAnomalyMonitor::Create(options);
      if (!monitor.ok()) {
        FillError(monitor.status(), response);
        return;
      }
      std::lock_guard<std::mutex> lock(streams_mu_);
      if (streams_.size() >= options_.max_streams) {
        FillError(Status::ResourceExhausted("stream capacity reached"),
                  response);
        return;
      }
      if (streams_.count(key) != 0) {
        FillError(Status::FailedPrecondition("stream '" + id +
                                             "' already exists"),
                  response);
        return;
      }
      streams_.emplace(key, StreamSession{tenant, std::move(*monitor)});
      JsonValue body = JsonValue::Object();
      body.Set("stream", JsonValue::String(id));
      body.Set("tenant", JsonValue::String(tenant));
      body.Set("window",
               JsonValue::Number(static_cast<double>(options.sax.window)));
      body.Set("paa",
               JsonValue::Number(static_cast<double>(options.sax.paa_size)));
      body.Set("alphabet", JsonValue::Number(static_cast<double>(
                               options.sax.alphabet_size)));
      body.Set("horizon",
               JsonValue::Number(static_cast<double>(options.horizon)));
      FillJson(body, 201, response);
      return;
    }
    if (method == "DELETE") {
      std::lock_guard<std::mutex> lock(streams_mu_);
      if (streams_.erase(key) == 0) {
        FillError(Status::NotFound("no stream '" + id + "'"), response);
        return;
      }
      JsonValue body = JsonValue::Object();
      body.Set("status", JsonValue::String("deleted"));
      FillJson(body, 200, response);
      return;
    }
    FillMethodNotAllowed("POST or DELETE", response);
    return;
  }

  if (action == "samples") {
    if (method != "POST") {
      FillMethodNotAllowed("POST", response);
      return;
    }
    if (request.body.empty()) {
      FillError(Status::InvalidArgument("samples need a JSON body"),
                response);
      return;
    }
    StatusOr<JsonValue> doc = ParseJson(request.body);
    if (!doc.ok()) {
      FillError(doc.status(), response);
      return;
    }
    std::vector<double> samples;
    const JsonValue* field =
        doc->is_object() ? doc->Find("samples") : nullptr;
    if (field == nullptr) {
      FillError(Status::InvalidArgument(
                    "body must be {\"samples\": [numbers...]}"),
                response);
      return;
    }
    const Status read = ReadSamples(*field, "samples", &samples);
    if (!read.ok()) {
      FillError(read, response);
      return;
    }
    std::lock_guard<std::mutex> lock(streams_mu_);
    const auto it = streams_.find(key);
    if (it == streams_.end()) {
      FillError(Status::NotFound("no stream '" + id + "'"), response);
      return;
    }
    it->second.monitor.PushAll(samples);
    JsonValue body = JsonValue::Object();
    body.Set("samples_seen", JsonValue::Number(static_cast<double>(
                                 it->second.monitor.samples_seen())));
    FillJson(body, 200, response);
    return;
  }

  if (action == "report") {
    if (method != "GET") {
      FillMethodNotAllowed("GET", response);
      return;
    }
    std::lock_guard<std::mutex> lock(streams_mu_);
    const auto it = streams_.find(key);
    if (it == streams_.end()) {
      FillError(Status::NotFound("no stream '" + id + "'"), response);
      return;
    }
    StatusOr<StreamingReport> report = it->second.monitor.Report();
    if (!report.ok()) {
      FillError(report.status(), response);
      return;
    }
    FillJson(
        StreamReportJson(*report, it->second.monitor.samples_seen()), 200,
        response);
    return;
  }

  FillError(Status::NotFound("no stream action '" + std::string(action) +
                             "'"),
            response);
}

std::vector<std::string> AnomalyServer::HealthzExtra() const {
  std::vector<std::string> extra;
  extra.push_back(StrFormat("\"server_slots\": %zu", runner_->slots()));
  extra.push_back(
      StrFormat("\"server_slots_busy\": %zu", runner_->slots_busy()));
  extra.push_back(
      StrFormat("\"server_queue_depth\": %zu", runner_->queue_depth()));
  extra.push_back(StrFormat("\"server_queue_capacity\": %zu",
                            runner_->queue_capacity()));
  extra.push_back(StrFormat(
      "\"server_jobs_accepted\": %llu",
      static_cast<unsigned long long>(runner_->jobs_accepted())));
  extra.push_back(StrFormat(
      "\"server_jobs_rejected\": %llu",
      static_cast<unsigned long long>(runner_->jobs_rejected())));
  extra.push_back(StrFormat(
      "\"server_jobs_completed\": %llu",
      static_cast<unsigned long long>(runner_->jobs_completed())));
  extra.push_back(StrFormat(
      "\"server_jobs_failed\": %llu",
      static_cast<unsigned long long>(runner_->jobs_failed())));
  extra.push_back(StrFormat(
      "\"server_jobs_cancelled\": %llu",
      static_cast<unsigned long long>(runner_->jobs_cancelled())));
  extra.push_back(StrFormat("\"server_streams\": %zu", stream_count()));
  return extra;
}

}  // namespace gva::net
