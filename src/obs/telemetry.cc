#include "obs/telemetry.h"

#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "backend/backend.h"
#include "net/http.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "util/strings.h"

namespace gva::obs {

bool HandleTelemetryRoute(std::string_view method, std::string_view path,
                          std::chrono::steady_clock::time_point started,
                          const std::vector<std::string>& healthz_extra,
                          net::HttpResponse* response) {
  const bool is_route = path == "/metrics" || path == "/metrics.json" ||
                        path == "/healthz" || path == "/flightz";
  if (!is_route) {
    return false;
  }
  if (method != "GET") {
    response->status = 405;
    response->content_type = "text/plain; charset=utf-8";
    response->body = "telemetry endpoints are GET-only\n";
    return true;
  }
  MetricsRegistry& metrics = GlobalMetrics();
  if (path == "/metrics") {
    response->content_type = "text/plain; version=0.0.4; charset=utf-8";
    response->body = RenderPrometheusText(metrics);
    return true;
  }
  if (path == "/metrics.json") {
    response->content_type = "application/json";
    response->body = metrics.ToJson();
    return true;
  }
  if (path == "/healthz") {
    const uint64_t uptime_us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - started)
            .count());
    const FlightRecorder& recorder = FlightRecorder::Global();
    std::string body = StrFormat(
        "{\"status\": \"ok\", \"backend\": \"%s\", \"obs_enabled\": %s, "
        "\"uptime_us\": %llu, \"flight_threads\": %zu, "
        "\"flight_events\": %llu",
        backend::ActiveBackend().name, kEnabled ? "true" : "false",
        static_cast<unsigned long long>(uptime_us), recorder.threads_seen(),
        static_cast<unsigned long long>(recorder.events_recorded()));
    for (const std::string& field : healthz_extra) {
      body += ", ";
      body += field;
    }
    body += "}\n";
    response->content_type = "application/json";
    response->body = std::move(body);
    return true;
  }
  // path == "/flightz"
  response->content_type = "application/json";
  response->body = FlightRecorder::Global().ToJson();
  return true;
}

namespace {

std::mutex g_global_mu;
std::unique_ptr<net::HttpServer> g_global_server;

}  // namespace

Status StartGlobalTelemetry(const net::HttpServerOptions& options) {
  std::lock_guard<std::mutex> lock(g_global_mu);
  if (g_global_server != nullptr) {
    return Status::FailedPrecondition("global telemetry already running");
  }
  const auto started = std::chrono::steady_clock::now();
  StatusOr<std::unique_ptr<net::HttpServer>> server = net::HttpServer::Start(
      options, [started](const net::HttpRequest& request) {
        GlobalMetrics().counter("telemetry.requests").Add(1);
        net::HttpResponse response;
        if (!HandleTelemetryRoute(request.method, request.path, started, {},
                                  &response)) {
          response.status = 404;
          response.body =
              "not found; try /metrics /metrics.json /healthz /flightz\n";
        }
        return response;
      });
  GVA_RETURN_IF_ERROR(server.status());
  g_global_server = std::move(server).value();
  GlobalMetrics().gauge("telemetry.port").Set(g_global_server->port());
  // Join the loop thread on normal exit so no binary needs an explicit
  // shutdown call (and tsan sees no leaked thread). Registering more than
  // once is harmless — StopGlobalTelemetry is idempotent.
  std::atexit(StopGlobalTelemetry);
  return Status::Ok();
}

net::HttpServer* GlobalTelemetry() {
  std::lock_guard<std::mutex> lock(g_global_mu);
  return g_global_server.get();
}

void StopGlobalTelemetry() {
  std::lock_guard<std::mutex> lock(g_global_mu);
  g_global_server.reset();
}

}  // namespace gva::obs
