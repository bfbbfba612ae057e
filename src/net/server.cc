#include "src/net/server.h"

#include <sys/socket.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <future>
#include <utility>

#include "src/audit/audit.h"
#include "src/net/wire.h"
#include "src/serve/status.h"
#include "src/util/logging.h"
#include "src/util/string_util.h"

namespace smgcn {
namespace net {

namespace {

/// Lowercase instrument segment per status ("ok", "invalid_argument", ...).
std::string StatusSegment(serve::StatusCode code) {
  std::string name = serve::StatusCodeName(code);
  for (char& c : name) {
    c = c == ' ' ? '_' : static_cast<char>(std::tolower(c));
  }
  return name;
}

/// How long a connection read waits per poll slice. Short enough that a
/// blocked reader notices draining_ promptly, long enough to stay cheap.
constexpr int kPollSliceMs = 50;

}  // namespace

Result<std::unique_ptr<Server>> Server::Start(serve::ModelManager* manager,
                                              ServerOptions options) {
  if (manager == nullptr) {
    return Status::InvalidArgument("manager must be non-null");
  }
  if (options.max_connections == 0) {
    return Status::InvalidArgument("max_connections must be positive");
  }
  if (options.max_pipeline == 0) {
    return Status::InvalidArgument("max_pipeline must be positive");
  }
  std::uint16_t port = 0;
  ASSIGN_OR_RETURN(OwnedFd listen_fd,
                   ListenTcp(options.host, options.port, options.listen_backlog,
                             &port, options.recv_buffer_bytes));
  return std::unique_ptr<Server>(
      new Server(manager, std::move(options), std::move(listen_fd), port));
}

Server::Server(serve::ModelManager* manager, ServerOptions options,
               OwnedFd listen_fd, std::uint16_t port)
    : manager_(manager),
      options_(std::move(options)),
      listen_fd_(std::move(listen_fd)),
      port_(port),
      obs_prefix_(obs::Registry::Global().NextScopeId("net.server")),
      connections_(
          obs::Registry::Global().GetCounter(obs_prefix_ + "connections")),
      rejected_connections_(obs::Registry::Global().GetCounter(
          obs_prefix_ + "rejected_connections")),
      http_requests_(
          obs::Registry::Global().GetCounter(obs_prefix_ + "http_requests")),
      binary_requests_(
          obs::Registry::Global().GetCounter(obs_prefix_ + "binary_requests")),
      protocol_errors_(
          obs::Registry::Global().GetCounter(obs_prefix_ + "protocol_errors")) {
  responses_by_status_.reserve(serve::kMaxWireStatusByte + 1);
  for (std::uint8_t b = 0; b <= serve::kMaxWireStatusByte; ++b) {
    responses_by_status_.push_back(obs::Registry::Global().GetCounter(
        obs_prefix_ + "responses." +
        StatusSegment(static_cast<serve::StatusCode>(b))));
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

Server::~Server() { Stop(); }

void Server::Stop() {
  std::call_once(stop_once_, [this] {
    draining_.store(true, std::memory_order_release);
    // Shutting the listener down refuses new connections and wakes the
    // accept poll at once; connection loops notice draining_ within one
    // poll slice. The fd itself is closed only after the accept thread,
    // which reads it, has joined.
    (void)::shutdown(listen_fd_.get(), SHUT_RDWR);
    if (accept_thread_.joinable()) accept_thread_.join();
    listen_fd_.Reset();
    std::vector<std::thread> threads;
    {
      std::lock_guard<std::mutex> lock(threads_mu_);
      threads.swap(connection_threads_);
    }
    for (std::thread& t : threads) {
      if (t.joinable()) t.join();
    }
  });
}

void Server::CountResponse(serve::StatusCode status) {
  responses_by_status_[serve::ToWireByte(status)]->Increment();
}

void Server::AcceptLoop() {
  while (!draining_.load(std::memory_order_acquire)) {
    const Status ready = WaitReadable(listen_fd_.get(), kPollSliceMs);
    if (!ready.ok()) {
      if (ready.code() == StatusCode::kDeadlineExceeded) continue;
      break;  // listener closed (Stop) or failed
    }
    auto accepted = AcceptTcp(listen_fd_.get());
    if (!accepted.ok()) continue;
    OwnedFd conn = std::move(accepted).value();
    if (draining_.load(std::memory_order_acquire)) break;
    if (live_connections_.load(std::memory_order_acquire) >=
        options_.max_connections) {
      // Beyond capacity the cheapest honest answer is a refused
      // connection: anything smarter would need a thread we don't have.
      rejected_connections_->Increment();
      continue;  // conn closes via RAII
    }
    connections_->Increment();
    live_connections_.fetch_add(1, std::memory_order_acq_rel);
    std::lock_guard<std::mutex> lock(threads_mu_);
    connection_threads_.emplace_back(
        [this, fd = std::move(conn)]() mutable { ServeConnection(std::move(fd)); });
  }
}

void Server::ServeConnection(OwnedFd fd) {
  const auto peeked = PeekByte(fd.get(), options_.idle_timeout_ms);
  if (peeked.ok()) {
    if (*peeked == wire::kRequestMagic) {
      ServeBinary(fd.get());
    } else {
      ServeHttp(fd.get(), *peeked);
    }
  }
  live_connections_.fetch_sub(1, std::memory_order_acq_rel);
}

void Server::ServeBinary(int fd) {
  // In-order pipelining: admitted requests' futures queue here; responses
  // are written oldest-first, so the client can match by position.
  std::deque<std::future<serve::Response>> inflight;
  const auto flush_one = [&]() -> Status {
    serve::Response response = inflight.front().get();
    inflight.pop_front();
    auto frame = wire::EncodeResponse(response);
    if (!frame.ok()) {
      // Unencodable response (messages are bounded upstream, so this is
      // effectively unreachable); close rather than desync the stream.
      return frame.status();
    }
    CountResponse(response.status);
    return WriteAll(fd, frame->data(), frame->size(),
                    options_.write_timeout_ms);
  };
  const auto flush_all = [&]() -> Status {
    while (!inflight.empty()) RETURN_IF_ERROR(flush_one());
    return Status::OK();
  };

  while (true) {
    if (draining_.load(std::memory_order_acquire)) {
      // Drain: everything admitted is answered, nothing new is read.
      (void)flush_all();
      return;
    }
    // Flush whatever already resolved, then prefer reading: buffered
    // frames must reach admission control promptly (a full queue sheds at
    // admission, not after a batch window). Only when the socket is idle
    // does the loop wait on the oldest response — a closed-loop client is
    // blocked on it. That wait is a SHORT slice with the socket re-checked
    // in between: on loopback the receive buffer refills only after an ACK
    // round trip, so a momentarily-empty socket under load does not mean
    // the peer went quiet, and a long future-wait here would pace reads at
    // the service rate while requests age in kernel buffers. Every wait is
    // bounded so drain is noticed.
    while (!inflight.empty() &&
           inflight.front().wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready) {
      if (!flush_one().ok()) return;
    }
    Status readable = WaitReadable(fd, 0);
    if (!readable.ok() && readable.code() == StatusCode::kDeadlineExceeded) {
      if (!inflight.empty()) {
        if (inflight.front().wait_for(std::chrono::milliseconds(1)) ==
            std::future_status::ready) {
          if (!flush_one().ok()) return;
        }
        continue;
      }
      readable = WaitReadable(fd, kPollSliceMs);
      if (!readable.ok() && readable.code() == StatusCode::kDeadlineExceeded) {
        continue;
      }
    }
    if (!readable.ok()) {
      (void)flush_all();
      return;
    }
    std::uint8_t header[wire::kHeaderBytes];
    if (!ReadExact(fd, header, sizeof(header), options_.idle_timeout_ms)
             .ok()) {
      (void)flush_all();
      return;
    }
    std::uint32_t payload_len = 0;
    std::uint8_t wire_version = 0;
    const Status head_status =
        wire::DecodeHeader(header, wire::kRequestMagic, &payload_len,
                           &wire_version);
    if (!head_status.ok()) {
      // Malformed or oversized frame: the stream cannot be resynced, so
      // answer with one well-formed error frame and close.
      protocol_errors_->Increment();
      serve::Response error;
      error.status = serve::FromInternalStatus(head_status);
      error.message = head_status.message();
      (void)flush_all();
      if (auto frame = wire::EncodeResponse(error); frame.ok()) {
        CountResponse(error.status);
        (void)WriteAll(fd, frame->data(), frame->size(),
                       options_.write_timeout_ms);
      }
      return;
    }
    std::vector<std::uint8_t> payload(payload_len);
    if (payload_len > 0 &&
        !ReadExact(fd, payload.data(), payload.size(),
                   options_.idle_timeout_ms)
             .ok()) {
      (void)flush_all();
      return;
    }
    binary_requests_->Increment();
    auto request = wire::DecodeRequestPayload(payload.data(), payload.size(),
                                              wire_version);
    if (!request.ok()) {
      // Framing held but the payload is malformed: answer in-stream (in
      // order) and keep the connection — the next frame is parseable.
      protocol_errors_->Increment();
      serve::Response error;
      error.status = serve::StatusCode::kInvalidArgument;
      error.message = request.status().message();
      std::promise<serve::Response> ready;
      ready.set_value(std::move(error));
      inflight.push_back(ready.get_future());
    } else {
      inflight.push_back(manager_->SubmitRequest(*std::move(request)));
    }
    // Backpressure: past max_pipeline the reader stops and waits for the
    // oldest response, so one connection cannot queue unboundedly.
    while (inflight.size() >= options_.max_pipeline) {
      if (!flush_one().ok()) return;
    }
    // Opportunistically flush whatever is already resolved.
    while (!inflight.empty() &&
           inflight.front().wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready) {
      if (!flush_one().ok()) return;
    }
  }
}

namespace {

/// Doubles in attribution JSON use %.17g so every f64 term round-trips
/// exactly — the bit-exact reconstruction must survive the JSON hop.
std::string JsonF64(double v) { return StrFormat("%.17g", v); }

std::string AttributionJson(const audit::QueryAttribution& attr) {
  std::string out = "{\"symptom_ids\":[";
  for (std::size_t i = 0; i < attr.symptom_ids.size(); ++i) {
    if (i > 0) out += ",";
    out += StrFormat("%d", attr.symptom_ids[i]);
  }
  out += "],\"herbs\":[";
  for (std::size_t i = 0; i < attr.herbs.size(); ++i) {
    const audit::HerbAttribution& herb = attr.herbs[i];
    if (i > 0) out += ",";
    out += StrFormat(
        "{\"herb_id\":%zu,\"score\":%s,\"bipar\":%s,\"synergy\":%s,"
        "\"pool_bias\":%s,\"pool_residual\":%s,\"has_components\":%s,"
        "\"exact\":%s,\"per_symptom\":[",
        herb.herb_id, JsonF64(herb.score).c_str(),
        JsonF64(herb.bipar).c_str(), JsonF64(herb.synergy).c_str(),
        JsonF64(herb.pool_bias).c_str(), JsonF64(herb.pool_residual).c_str(),
        herb.has_components ? "true" : "false",
        herb.exact ? "true" : "false");
    for (std::size_t s = 0; s < herb.per_symptom.size(); ++s) {
      if (s > 0) out += ",";
      out += JsonF64(herb.per_symptom[s]);
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

}  // namespace

std::string Server::RecommendJson(const http::Request& request,
                                  int* http_status,
                                  std::string* request_id_out) {
  serve::Request serving;
  const auto symptoms = request.query.find("symptoms");
  serve::Response response;
  if (symptoms == request.query.end()) {
    response.status = serve::StatusCode::kInvalidArgument;
    response.message = "missing required query parameter 'symptoms'";
  } else {
    auto ids = http::ParseIntList(symptoms->second);
    if (!ids.ok()) {
      response.status = serve::StatusCode::kInvalidArgument;
      response.message = ids.status().message();
    } else {
      serving.symptoms = *std::move(ids);
      serving.top_k = 10;
      if (const auto k = request.query.find("k"); k != request.query.end()) {
        serving.top_k = static_cast<std::size_t>(
            std::strtoul(k->second.c_str(), nullptr, 10));
      }
      if (const auto d = request.query.find("deadline_ms");
          d != request.query.end()) {
        serving.deadline_ms = std::strtod(d->second.c_str(), nullptr);
      }
      if (const auto m = request.query.find("model");
          m != request.query.end()) {
        serving.model = m->second;
      }
      if (const auto v = request.query.find("version");
          v != request.query.end()) {
        serving.version = v->second;
      }
      if (const auto a = request.query.find("attribution");
          a != request.query.end()) {
        serving.attribution = a->second == "1" || a->second == "true";
      }
      // Correlation id: the query parameter wins over the X-Request-Id
      // header; both are optional (the engine mints one when absent).
      if (const auto r = request.query.find("request_id");
          r != request.query.end()) {
        serving.request_id = r->second;
      } else if (const auto h = request.headers.find("x-request-id");
                 h != request.headers.end()) {
        serving.request_id = h->second;
      }
      if (serving.top_k == 0) {
        response.status = serve::StatusCode::kInvalidArgument;
        response.message = "k must be >= 1";
      } else {
        // Ride the async path: HTTP requests micro-batch with binary and
        // in-process traffic and obey the same admission control.
        response = manager_->SubmitRequest(std::move(serving)).get();
      }
    }
  }
  *http_status = serve::HttpStatusFor(response.status);
  *request_id_out = response.request_id;
  CountResponse(response.status);
  std::string ids_json;
  for (std::size_t i = 0; i < response.herb_ids.size(); ++i) {
    if (i > 0) ids_json += ",";
    ids_json += StrFormat("%zu", response.herb_ids[i]);
  }
  std::string attribution_json;
  if (response.attribution.has_value()) {
    attribution_json =
        ",\"attribution\":" + AttributionJson(*response.attribution);
  }
  return StrFormat(
      "{\"status\":\"%s\",\"model\":\"%s\",\"version\":\"%s\","
      "\"request_id\":\"%s\",\"herb_ids\":[%s],\"message\":\"%s\"%s}\n",
      serve::StatusCodeName(response.status),
      http::JsonEscape(response.model).c_str(),
      http::JsonEscape(response.version).c_str(),
      http::JsonEscape(response.request_id).c_str(), ids_json.c_str(),
      http::JsonEscape(response.message).c_str(), attribution_json.c_str());
}

std::string Server::HandleHttp(const http::Request& request,
                               bool* keep_alive) {
  *keep_alive = request.keep_alive;
  if (request.method != "GET") {
    return http::FormatResponse(405, "text/plain",
                                "only GET is supported\n", *keep_alive);
  }
  if (request.path == "/healthz") {
    if (draining_.load(std::memory_order_acquire)) {
      return http::FormatResponse(503, "text/plain", "draining\n",
                                  *keep_alive);
    }
    return http::FormatResponse(200, "text/plain", "ok\n", *keep_alive);
  }
  if (request.path == "/metrics") {
    return http::FormatResponse(
        200, "text/plain; version=0.0.4",
        obs::Registry::Global().ExportPrometheus(), *keep_alive);
  }
  if (request.path == "/slowlog") {
    std::string body;
    for (const auto& model : manager_->ListModels()) {
      auto engine = manager_->Engine(model.name);
      if (!engine.ok()) continue;
      for (const auto& record : (*engine)->slow_query_log().Snapshot()) {
        body += model.name + " " + record.ToString() + "\n";
      }
    }
    return http::FormatResponse(200, "text/plain", body, *keep_alive);
  }
  if (request.path == "/v1/models") {
    std::string body = "{\"models\":[";
    bool first_model = true;
    for (const auto& model : manager_->ListModels()) {
      if (!first_model) body += ",";
      first_model = false;
      body += StrFormat("{\"name\":\"%s\",\"active_version\":\"%s\","
                        "\"versions\":[",
                        http::JsonEscape(model.name).c_str(),
                        http::JsonEscape(model.active_version).c_str());
      for (std::size_t i = 0; i < model.versions.size(); ++i) {
        const auto& v = model.versions[i];
        if (i > 0) body += ",";
        body += StrFormat(
            "{\"version\":\"%s\",\"active\":%s,\"num_symptoms\":%zu,"
            "\"num_herbs\":%zu,\"dim\":%zu}",
            http::JsonEscape(v.version).c_str(), v.active ? "true" : "false",
            v.num_symptoms, v.num_herbs, v.dim);
      }
      body += "]}";
    }
    body += "]}\n";
    return http::FormatResponse(200, "application/json", body, *keep_alive);
  }
  if (request.path == "/v1/recommend") {
    int status = 200;
    std::string request_id;
    const std::string body = RecommendJson(request, &status, &request_id);
    std::vector<std::pair<std::string, std::string>> extra;
    if (!request_id.empty()) extra.emplace_back("X-Request-Id", request_id);
    return http::FormatResponse(status, "application/json", body,
                                *keep_alive, extra);
  }
  return http::FormatResponse(404, "text/plain",
                              "unknown path; try /healthz /metrics /slowlog "
                              "/v1/models /v1/recommend\n",
                              *keep_alive);
}

void Server::ServeHttp(int fd, std::uint8_t first_byte) {
  (void)first_byte;  // still unconsumed (MSG_PEEK); read with the head
  while (!draining_.load(std::memory_order_acquire)) {
    // Accumulate one request head. Reads come in kPollSliceMs slices so a
    // drain is noticed while idle; idle_timeout_ms bounds the total wait.
    std::string head;
    int waited_ms = 0;
    bool closed = false;
    while (head.find("\r\n\r\n") == std::string::npos) {
      if (head.size() > http::kMaxHeadBytes) break;
      if (draining_.load(std::memory_order_acquire) && head.empty()) return;
      const Status readable = WaitReadable(fd, kPollSliceMs);
      if (!readable.ok()) {
        if (readable.code() != StatusCode::kDeadlineExceeded) return;
        waited_ms += kPollSliceMs;
        if (waited_ms >= options_.idle_timeout_ms) return;
        continue;
      }
      char buf[2048];
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) {
        closed = true;
        break;
      }
      head.append(buf, static_cast<std::size_t>(n));
    }
    if (closed) return;
    http_requests_->Increment();
    auto request = http::ParseRequest(head);
    if (!request.ok()) {
      protocol_errors_->Increment();
      const std::string response = http::FormatResponse(
          400, "text/plain", std::string(request.status().message()) + "\n",
          /*keep_alive=*/false);
      (void)WriteAll(fd, response.data(), response.size(),
                     options_.write_timeout_ms);
      return;
    }
    bool keep_alive = true;
    const std::string response = HandleHttp(*request, &keep_alive);
    if (!WriteAll(fd, response.data(), response.size(),
                  options_.write_timeout_ms)
             .ok()) {
      return;
    }
    if (!keep_alive) return;
  }
}

}  // namespace net
}  // namespace smgcn
