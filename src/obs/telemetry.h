#ifndef GVA_OBS_TELEMETRY_H_
#define GVA_OBS_TELEMETRY_H_

#include <chrono>
#include <string>
#include <string_view>
#include <vector>

#include "net/http.h"
#include "net/http_server.h"
#include "util/status.h"

namespace gva::obs {

/// The four always-on telemetry routes, shared by every daemon that mounts
/// them (the --telemetry-port endpoint and gva_serverd serve the same
/// surface from one implementation):
///
///   /metrics       Prometheus text exposition of GlobalMetrics()
///   /metrics.json  the registry's native JSON export
///   /healthz       liveness + backend/uptime snapshot (JSON)
///   /flightz       the flight recorder's Chrome trace JSON
///
/// Returns true when `path` (already normalized — query string stripped by
/// the net::HttpParser) names one of them, with `response` filled in;
/// non-GET methods on a telemetry route get 405. `healthz_extra` appends
/// caller-supplied `"key": value` JSON fragments to the /healthz body —
/// gva_serverd reports its slot/queue state there. `started` anchors the
/// uptime field.
bool HandleTelemetryRoute(std::string_view method, std::string_view path,
                          std::chrono::steady_clock::time_point started,
                          const std::vector<std::string>& healthz_extra,
                          net::HttpResponse* response);

/// Process-wide telemetry endpoint for binaries that take
/// --telemetry-port: a net::HttpServer (the same reactor gva_serverd runs
/// on) serving HandleTelemetryRoute plus a 404 for every other path. Each
/// request bumps the `telemetry.requests` counter; the `telemetry.port`
/// gauge is set once, at start — the registry is monotonic, so nothing
/// has to re-publish it. Starts the singleton (FailedPrecondition if
/// already running) and registers an atexit hook that stops it, so the
/// loop thread is joined on normal exit. Port 0 still works; read it back
/// via GlobalTelemetry()->port().
Status StartGlobalTelemetry(const net::HttpServerOptions& options);

/// The running global server, or nullptr.
net::HttpServer* GlobalTelemetry();

/// Stops and destroys the global server. Idempotent, safe without a
/// prior Start.
void StopGlobalTelemetry();

}  // namespace gva::obs

#endif  // GVA_OBS_TELEMETRY_H_
