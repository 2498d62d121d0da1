#ifndef GVA_NET_HTTP_SERVER_H_
#define GVA_NET_HTTP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "net/http.h"
#include "util/statusor.h"

namespace gva::net {

struct HttpServerOptions {
  /// TCP port; 0 asks the kernel for an ephemeral one (read it back from
  /// port()).
  uint16_t port = 0;
  /// Loopback by default — every surface served here is plaintext and
  /// unauthenticated, so exposing it beyond the host is an explicit act.
  std::string bind_address = "127.0.0.1";
  /// Cap on simultaneously open connections; the listener stops accepting
  /// (clients queue in the kernel backlog) while at the cap.
  size_t max_connections = 64;
  /// Parser limits (header block 16 KiB, body 8 MiB by default — an inline
  /// series of ~400k JSON doubles).
  HttpParser::Limits http_limits;
};

/// The one HTTP/1.1 reactor every gva daemon runs on: a single thread
/// poll()s the listener, a self-pipe for Stop(), and every live connection
/// (non-blocking sockets, POLLOUT armed only while a response is pending).
/// Bytes arriving in any fragmentation feed a per-connection HttpParser;
/// each complete request — several may be pipelined in one read — goes to
/// the handler on the loop thread, and the responses are written back in
/// arrival order. A client that stalls mid-request holds only its own
/// connection: every other connection keeps being served. Handlers must
/// therefore be quick (gva_serverd hands detection work to a JobRunner and
/// answers 202); the server itself knows nothing about routes.
class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  /// Binds, listens, and starts the loop thread. InvalidArgument for an
  /// unparsable bind address, IoError when the port cannot be bound.
  static StatusOr<std::unique_ptr<HttpServer>> Start(
      const HttpServerOptions& options, Handler handler);

  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Wakes the loop, flushes pending responses briefly (so an
  /// acknowledgement queued just before Stop still reaches its client),
  /// joins the thread, and closes every socket. Idempotent.
  void Stop();

  /// The bound port (the kernel's choice when options.port was 0).
  uint16_t port() const { return port_; }

 private:
  struct Connection {
    int fd = -1;
    HttpParser parser;
    std::string out;  ///< serialized responses awaiting POLLOUT
    bool close_after_write = false;
  };

  HttpServer(const HttpServerOptions& options, Handler handler, int listen_fd,
             int wake_read_fd, int wake_write_fd, uint16_t port);

  void EventLoop();
  void AcceptConnections(std::vector<Connection>* connections);
  /// Reads, parses, handles, and queues responses for one connection.
  /// Returns false when the connection should be dropped immediately.
  bool ServiceReadable(Connection* connection);
  bool ServiceWritable(Connection* connection);
  /// Best-effort flush of pending responses at shutdown.
  void DrainPendingWrites(std::vector<Connection>* connections);

  const HttpServerOptions options_;
  const Handler handler_;
  const int listen_fd_;
  const int wake_read_fd_;  ///< self-pipe: Stop() wakes the poll loop
  const int wake_write_fd_;
  const uint16_t port_;
  std::atomic<bool> stopping_{false};
  std::thread thread_;
};

/// Strict TCP port parse for command-line flags: decimal digits only,
/// 0..65535. Returns false (leaving *port untouched) for anything else, so
/// `--telemetry-port 70000` is an error instead of a silent wrap to 4464.
bool ParsePort(std::string_view text, uint16_t* port);

}  // namespace gva::net

#endif  // GVA_NET_HTTP_SERVER_H_
