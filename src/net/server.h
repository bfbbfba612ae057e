// The socket front-end: ModelManager as a real server.
//
// One listening TCP socket speaks two protocols, sniffed per connection
// from the first byte (wire::kRequestMagic can never open an HTTP method):
//
//   * Binary (wire.h): length-prefixed serve::Request/Response frames, the
//     data plane. Connections are persistent and may pipeline up to
//     max_pipeline requests; responses always return in request order.
//     Requests ride ModelManager::SubmitRequest, so wire traffic
//     micro-batches with in-process traffic and obeys the same admission
//     control: a full engine queue answers kShedding (RESOURCE_EXHAUSTED)
//     immediately instead of queueing unboundedly, and per-request
//     deadlines propagate into the batcher.
//
//   * HTTP/1.1 (http.h), the ops plane:
//       GET /healthz        "ok" (200) — or "draining" (503) during Stop
//       GET /metrics        Prometheus text exposition of the obs registry
//       GET /slowlog        recent slow queries, one line each
//       GET /v1/models      hosted models/versions as JSON
//       GET /v1/recommend?symptoms=1,4,9&k=10[&deadline_ms=5][&model=m]
//                          [&version=v]   one recommendation as JSON; the
//                          HTTP status mirrors the serving status
//                          (serve::HttpStatusFor).
//
// Threading: one accept thread plus one thread per live connection,
// bounded by max_connections (excess connections are closed on accept).
// Accepted sockets have TCP_NODELAY set (net::AcceptTcp), so small
// response frames are never held back waiting for a delayed ACK.
// Stop() drains gracefully: the listener shuts down first, connection loops
// stop reading new requests, every request already admitted is answered,
// then all threads join. Stop never touches the ModelManager — engines
// keep serving in-process callers.
#ifndef SMGCN_NET_SERVER_H_
#define SMGCN_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/net/http.h"
#include "src/net/socket.h"
#include "src/obs/registry.h"
#include "src/serve/model_manager.h"
#include "src/util/status.h"

namespace smgcn {
namespace net {

struct ServerOptions {
  /// IPv4 address to bind. Loopback by default: exposing a model is an
  /// explicit decision.
  std::string host = "127.0.0.1";
  /// 0 asks the kernel for an ephemeral port; Server::port() reports it.
  std::uint16_t port = 0;
  /// Live connections; the accept loop closes arrivals beyond this.
  std::size_t max_connections = 64;
  /// Outstanding pipelined requests per binary connection before the
  /// reader blocks on the oldest response.
  std::size_t max_pipeline = 32;
  /// Per-read idle timeout; an idle keep-alive connection is closed after
  /// this long. Also bounds how fast drain is noticed by blocked reads.
  int idle_timeout_ms = 30000;
  /// Socket write timeout (a stalled reader cannot wedge a worker).
  int write_timeout_ms = 5000;
  int listen_backlog = 128;
  /// SO_RCVBUF cap for accepted connections (0 = OS default). Bounding the
  /// kernel receive buffer bounds the *invisible* request backlog in front
  /// of admission control: an overloaded server then backpressures senders
  /// via TCP instead of buffering seconds of requests it will answer late.
  int recv_buffer_bytes = 0;
};

/// A running server. Create with Start (binds, listens, spawns the accept
/// loop); destruction stops and drains. Thread-safe.
class Server {
 public:
  /// `manager` must outlive the server. Publishing at least one model
  /// before Start is typical but not required — an empty manager answers
  /// kUnavailable until the first publish (hot-add).
  static Result<std::unique_ptr<Server>> Start(serve::ModelManager* manager,
                                               ServerOptions options = {});

  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (the actual one when options.port was 0).
  std::uint16_t port() const { return port_; }
  const std::string& host() const { return options_.host; }

  /// Graceful drain: stop accepting, answer everything already admitted,
  /// join every thread. Idempotent; implicit in the destructor.
  void Stop();

  /// Scope of this server's instruments in obs::Registry::Global()
  /// (e.g. "net.server0."): connections, http_requests, binary_requests,
  /// responses.<status>, protocol_errors, rejected_connections.
  const std::string& obs_prefix() const { return obs_prefix_; }

 private:
  Server(serve::ModelManager* manager, ServerOptions options, OwnedFd listen_fd,
         std::uint16_t port);

  void AcceptLoop();
  void ServeConnection(OwnedFd fd);
  void ServeBinary(int fd);
  void ServeHttp(int fd, std::uint8_t first_byte);
  /// Routes one parsed HTTP request; returns the full response bytes.
  std::string HandleHttp(const http::Request& request, bool* keep_alive);
  /// Renders the /v1/recommend JSON body. `request_id_out` receives the
  /// response's correlation id (for the X-Request-Id response header);
  /// empty when the request never reached an engine.
  std::string RecommendJson(const http::Request& request, int* http_status,
                            std::string* request_id_out);
  void CountResponse(serve::StatusCode status);

  serve::ModelManager* manager_;
  ServerOptions options_;
  OwnedFd listen_fd_;
  std::uint16_t port_ = 0;
  std::string obs_prefix_;

  std::atomic<bool> draining_{false};
  std::atomic<std::size_t> live_connections_{0};
  std::thread accept_thread_;
  std::mutex threads_mu_;
  std::vector<std::thread> connection_threads_;  // guarded by threads_mu_
  std::once_flag stop_once_;

  obs::Counter* connections_;           // <prefix>connections
  obs::Counter* rejected_connections_;  // <prefix>rejected_connections
  obs::Counter* http_requests_;         // <prefix>http_requests
  obs::Counter* binary_requests_;       // <prefix>binary_requests
  obs::Counter* protocol_errors_;       // <prefix>protocol_errors
  /// One counter per serve::StatusCode, indexed by wire byte:
  /// <prefix>responses.<lowercase name>.
  std::vector<obs::Counter*> responses_by_status_;
};

}  // namespace net
}  // namespace smgcn

#endif  // SMGCN_NET_SERVER_H_
