// The --telemetry-port endpoint: obs::StartGlobalTelemetry serving the
// telemetry routes on the shared net::HttpServer reactor, driven over real
// sockets.
#include "obs/telemetry.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/http_server.h"
#include "obs/metrics.h"
#include "obs/session.h"

namespace gva {
namespace {

/// A connected loopback TCP socket, or -1.
int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Blocking one-shot HTTP GET over a raw socket; returns the full response
/// (headers + body), or empty on any failure.
std::string HttpGet(uint16_t port, const std::string& path) {
  const int fd = ConnectLoopback(port);
  if (fd < 0) {
    return std::string();
  }
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  size_t off = 0;
  while (off < request.size()) {
    const ssize_t n = ::write(fd, request.data() + off, request.size() - off);
    if (n <= 0) {
      ::close(fd);
      return std::string();
    }
    off += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) {
      break;  // server closes after one response
    }
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

class TelemetryServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net::HttpServerOptions options;  // port 0: ephemeral
    const Status started = obs::StartGlobalTelemetry(options);
    ASSERT_TRUE(started.ok()) << started.ToString();
    ASSERT_NE(port(), 0);
  }
  void TearDown() override { obs::StopGlobalTelemetry(); }

  uint16_t port() const { return obs::GlobalTelemetry()->port(); }
};

TEST_F(TelemetryServerTest, MetricsRouteServesPrometheusText) {
  obs::GlobalMetrics().counter("telemetry_test.hits").Add(3);
  const std::string response = HttpGet(port(), "/metrics");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  if constexpr (obs::kEnabled) {
    EXPECT_NE(response.find("gva_telemetry_test_hits_total 3"),
              std::string::npos);
  }
}

TEST_F(TelemetryServerTest, MetricsJsonRouteServesRegistryJson) {
  const std::string response = HttpGet(port(), "/metrics.json");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("application/json"), std::string::npos);
  EXPECT_NE(response.find("\"metrics\""), std::string::npos);
}

TEST_F(TelemetryServerTest, HealthzReportsOkAndBackend) {
  const std::string response = HttpGet(port(), "/healthz");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(response.find("\"backend\": \""), std::string::npos);
  EXPECT_NE(response.find("\"uptime_us\": "), std::string::npos);
}

TEST_F(TelemetryServerTest, FlightzServesChromeTraceJson) {
  const std::string response = HttpGet(port(), "/flightz");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("\"traceEvents\""), std::string::npos);
}

TEST_F(TelemetryServerTest, UnknownPathIs404) {
  const std::string response = HttpGet(port(), "/nope");
  EXPECT_NE(response.find("HTTP/1.1 404 Not Found"), std::string::npos);
}

TEST_F(TelemetryServerTest, QueryStringIsIgnoredForRouting) {
  const std::string response = HttpGet(port(), "/healthz?probe=1");
  EXPECT_NE(response.find("\"status\": \"ok\""), std::string::npos);
}

TEST_F(TelemetryServerTest, RequestCounterAdvancesPerScrape) {
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "metrics compiled out";
  }
  const obs::Counter& requests =
      obs::GlobalMetrics().counter("telemetry.requests");
  const uint64_t before = requests.value();
  HttpGet(port(), "/metrics");
  HttpGet(port(), "/healthz");
  EXPECT_EQ(requests.value(), before + 2);
  const std::string response = HttpGet(port(), "/metrics");
  EXPECT_NE(response.find("gva_telemetry_requests_total"), std::string::npos);
}

// A scraper that connects and stalls mid-request holds only its own
// connection: the reactor keeps serving everyone else.
TEST_F(TelemetryServerTest, StalledScraperDoesNotBlockHealthz) {
  const int stalled = ConnectLoopback(port());
  ASSERT_GE(stalled, 0);
  ASSERT_EQ(::write(stalled, "GET /metr", 9), 9);
  // Give the loop time to accept the stalled connection and read its
  // fragment before the healthy request arrives.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto start = std::chrono::steady_clock::now();
  const std::string response = HttpGet(port(), "/healthz");
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_NE(response.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_LT(elapsed, std::chrono::milliseconds(500));
  ::close(stalled);
}

// The registry is monotonic and the port gauge is set once, at start: a
// scrape inside an ObsSession's window still shows it, with nothing
// re-published per request.
TEST_F(TelemetryServerTest, MetricsScrapeDuringObsSessionShowsTelemetryPort) {
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "observability disabled in this build";
  }
  const std::string metrics_path =
      ::testing::TempDir() + "gva_telemetry_session_metrics.json";
  {
    obs::ObsSession::Options options;
    options.metrics_path = metrics_path;
    options.announce = false;
    obs::ObsSession session(options);
    const std::string during = HttpGet(port(), "/metrics");
    const std::string expected =
        "gva_telemetry_port " + std::to_string(port());
    EXPECT_NE(during.find(expected), std::string::npos) << during;
  }
  std::remove(metrics_path.c_str());
}

// tsan workload: four mutator threads hammer counters/gauges/histograms
// while two scrapers render /metrics — the registry snapshot and the
// exposition renderer must be race-free against live mutation.
TEST_F(TelemetryServerTest, ConcurrentScrapeAndMutationIsRaceFree) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> mutators;
  for (int t = 0; t < 4; ++t) {
    mutators.emplace_back([t, &stop] {
      obs::MetricsRegistry& metrics = obs::GlobalMetrics();
      obs::Counter& counter = metrics.counter("telemetry_test.storm.count");
      obs::Gauge& gauge = metrics.gauge("telemetry_test.storm.depth");
      obs::Histogram& histogram =
          metrics.histogram("telemetry_test.storm.us");
      while (!stop.load(std::memory_order_relaxed)) {
        counter.Add(1);
        gauge.Set(t);
        histogram.Record(static_cast<double>(t) * 7.0);
      }
    });
  }
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 2; ++t) {
    scrapers.emplace_back([this] {
      for (int i = 0; i < 10; ++i) {
        const std::string response = HttpGet(port(), "/metrics");
        EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
      }
    });
  }
  for (std::thread& s : scrapers) {
    s.join();
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& m : mutators) {
    m.join();
  }
}

TEST(TelemetryServerStartTest, RejectsBadBindAddress) {
  net::HttpServerOptions options;
  options.bind_address = "not-an-address";
  EXPECT_FALSE(obs::StartGlobalTelemetry(options).ok());
  EXPECT_EQ(obs::GlobalTelemetry(), nullptr);
}

TEST(TelemetryServerStartTest, PortCollisionFailsCleanly) {
  auto first = net::HttpServer::Start(
      net::HttpServerOptions{},
      [](const net::HttpRequest&) { return net::HttpResponse{}; });
  ASSERT_TRUE(first.ok());
  net::HttpServerOptions options;
  options.port = first.value()->port();
  const Status second = obs::StartGlobalTelemetry(options);
  EXPECT_EQ(second.code(), StatusCode::kIoError);
  EXPECT_EQ(obs::GlobalTelemetry(), nullptr);
}

TEST(GlobalTelemetryTest, StartScrapeStopIsIdempotent) {
  obs::StopGlobalTelemetry();  // clean slate; safe without a prior Start
  EXPECT_EQ(obs::GlobalTelemetry(), nullptr);

  net::HttpServerOptions options;
  ASSERT_TRUE(obs::StartGlobalTelemetry(options).ok());
  ASSERT_NE(obs::GlobalTelemetry(), nullptr);
  const uint16_t port = obs::GlobalTelemetry()->port();
  EXPECT_NE(HttpGet(port, "/healthz").find("\"status\": \"ok\""),
            std::string::npos);

  // Second start while running: refused, first server keeps serving.
  EXPECT_EQ(obs::StartGlobalTelemetry(options).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(obs::GlobalTelemetry()->port(), port);

  obs::StopGlobalTelemetry();
  obs::StopGlobalTelemetry();  // double stop: no-op
  EXPECT_EQ(obs::GlobalTelemetry(), nullptr);
}

}  // namespace
}  // namespace gva
