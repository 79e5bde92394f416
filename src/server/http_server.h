// A small dependency-free HTTP/1.1 server built on a non-blocking event
// loop: edge-triggered epoll (the server targets Linux only), with a fixed
// set of I/O threads owning per-connection state machines — incremental
// request parsing, buffered writes, keep-alive reuse, idle timeouts.
// Exactly what the estimation front end needs — POST bodies with
// Content-Length, keep-alive, graceful drain — and nothing more (no TLS, no
// chunked transfer encoding, no multiplexing).
//
// Threading model: Start() spawns `io_threads` event loops. Loop 0 owns the
// listener and accepts until EAGAIN on readiness; accepted sockets are
// handed round-robin to the loops over their wake pipes. A connection lives
// on exactly one loop for its whole keep-alive lifetime, so its state
// machine needs no locks. Handlers run inline on the loop thread and hand
// their response to an HttpResponseSender — a one-shot, copyable handle
// that may be invoked from any thread (it marshals the response back to
// the owning loop), which is what lets the serving layer defer a request
// into a cross-request batch without blocking the loop. A handler with
// blocking work hands it to its own thread or pool and responds from
// there. Work a handler does inline delays every other connection on the
// same loop.
//
// Passes: each loop iteration handles the events of one epoll_wait inside
// a LoopPass (src/common/loop_pass.h); work a handler defers with
// LoopPass::Defer runs on the loop when the pass ends, after every request
// the pass read was parsed. The serving layer's coalescer sends the pass's
// requests as one batch there. A lone request of at most
// kInlineBatchMaxItems work items (src/serving/estimation_service.h) is
// estimated to completion on the loop thread, so it delays the loop's next
// request by its own execution time; a pass that read several hands their
// batch to the pool.
//
// Lifecycle: Start() binds and spawns the loops; Stop() closes the
// listener (no new connections), closes idle keep-alive connections — a
// connection whose request bytes reached the socket before the drain began
// is NOT idle and is still answered — and blocks until every in-flight
// request has been answered: the server's half of the zero-dropped-
// responses drain contract (the service destructor provides the other half
// by draining submitted batches). The destructor calls Stop().
#ifndef RESEST_SERVER_HTTP_SERVER_H_
#define RESEST_SERVER_HTTP_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace resest {

struct HttpRequest {
  std::string method;  ///< Uppercase as sent: "GET", "POST", ...
  std::string target;  ///< Path part of the request target (no query).
  std::string query;   ///< Query string after '?', or empty.
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  /// Case-insensitive header lookup; null if absent.
  const std::string* FindHeader(const std::string& name) const;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// Returns the canonical reason phrase for the handful of codes the wire
/// API uses; "Status" for anything unrecognized.
const char* HttpReasonPhrase(int status);

class HttpServer;

/// One-shot handle delivering the response for one parsed request back to
/// the connection that carried it. Copyable and safe to invoke from any
/// thread; the first invocation wins and later ones are ignored. If every
/// copy is destroyed without sending, a 500 is delivered in its place so
/// the connection (and the drain accounting) can never be wedged by a
/// handler that drops a request.
class HttpResponseSender {
 public:
  HttpResponseSender() = default;

  /// Delivers `response`; returns immediately (the owning I/O loop writes
  /// it out asynchronously).
  void Send(HttpResponse response) const;
  void operator()(HttpResponse response) const { Send(std::move(response)); }

 private:
  friend class HttpServer;
  struct Core;
  std::shared_ptr<Core> core_;
};

/// Handles one parsed request and eventually invokes `respond` exactly once
/// (synchronously or from any other thread). Runs on an I/O loop thread, so
/// it must not block; whatever it computes inline, or defers to the end of
/// the loop's pass (the serving layer runs small estimate batches to
/// completion there), delays the loop's next request by that long. An
/// escaping exception is answered with a 500 so the connection stays
/// intact.
using HttpAsyncHandler =
    std::function<void(const HttpRequest&, HttpResponseSender)>;

struct HttpServerOptions {
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;  ///< 0 = ephemeral; the bound port is port().
  int backlog = 128;
  size_t max_header_bytes = 16 * 1024;
  /// Requests whose body exceeds this answer 400 without invoking the
  /// handler (the wire contract: oversized bodies never touch the service).
  size_t max_body_bytes = 4 * 1024 * 1024;
  /// Event-loop wakeup granularity when nothing else is happening: bounds
  /// how late an idle-timeout close can fire, not request latency (request
  /// and shutdown wakeups are immediate via the loops' wake pipes).
  int poll_interval_ms = 100;
  /// An idle keep-alive connection is closed after this many milliseconds
  /// without a new request byte. Connections waiting on a handler response
  /// never time out.
  int idle_timeout_ms = 30 * 1000;
  /// Event-loop threads. 0 = auto: half the hardware threads, clamped to
  /// [1, 4] — the loops shuffle bytes and run small estimate batches; larger
  /// batches run on the shared ThreadPool.
  size_t io_threads = 0;
  /// Housekeeping hook run on loop 0's sweep pass — the event loop's timer
  /// path, firing at least every poll_interval_ms while the server runs.
  /// Runs on the I/O thread, so it must be cheap and must not block; the
  /// callee rate-limits itself (the serving layer hangs its tenant
  /// heartbeat/aging sweep here). Null = no hook.
  std::function<void()> on_sweep;
};

/// Connection-level counters (monotonic except open_connections).
struct HttpServerStats {
  uint64_t requests_served = 0;        ///< Responses queued for delivery.
  uint64_t connections_accepted = 0;   ///< Sockets accepted since Start().
  /// Requests beyond the first on their connection — how much keep-alive
  /// reuse the clients actually achieve.
  uint64_t keepalive_requests = 0;
  size_t open_connections = 0;
};

class HttpServer {
 public:
  /// Implementation types, public only so the .cc can name them at
  /// namespace scope (thread-local loop pointer); not part of the API.
  struct Conn;
  struct IoLoop;

  /// `handler` runs on the I/O threads and must not block; it responds
  /// through the sender (possibly later, from another thread).
  explicit HttpServer(HttpAsyncHandler handler, HttpServerOptions options = {});
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens, and spawns the I/O loops. False (with the reason in
  /// *error if non-null) on bind/listen failure; the server is then inert
  /// and Start() may be retried with different options.
  bool Start(std::string* error = nullptr);

  /// Graceful drain: stop accepting, close idle connections (after
  /// answering any request whose bytes already reached the socket), wait
  /// for in-flight requests to be answered. Idempotent; safe to call from
  /// any thread except an I/O loop.
  void Stop();

  /// The bound port (after Start); 0 before.
  uint16_t port() const { return port_; }

  /// Connections currently open (point-in-time; for tests/metrics).
  size_t active_connections() const;

  /// Requests answered since Start (including error responses the parser
  /// generated without reaching the handler).
  uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

  /// Point-in-time connection counters for /metrics.
  HttpServerStats stats() const;

 private:
  friend class HttpResponseSender;
  friend struct HttpResponseSender::Core;

  void LoopMain(IoLoop* loop);
  /// Accepts until EAGAIN (loop 0 only) and distributes round-robin.
  void AcceptReady(IoLoop* loop);
  void AdoptConnection(IoLoop* loop, int fd);
  /// Reads until EAGAIN/EOF, then advances the parse state machine.
  void OnReadable(IoLoop* loop, uint64_t id);
  void OnWritable(IoLoop* loop, uint64_t id);
  /// Parses and dispatches buffered requests until the buffer runs dry or
  /// a response is pending (responses are strictly ordered per connection,
  /// which is what makes pipelining safe).
  void ProcessInput(IoLoop* loop, uint64_t id);
  /// Queues `response` on the connection and flushes; entered from the
  /// loop itself or via the completion queue (PostResponse).
  void DeliverResponse(IoLoop* loop, uint64_t id, HttpResponse response);
  /// Sends buffered bytes until EAGAIN; arms/disarms write readiness.
  void FlushWrites(IoLoop* loop, uint64_t id);
  void CloseConn(IoLoop* loop, uint64_t id);
  /// Drain-time and idle-timeout housekeeping, run on every loop wakeup.
  void SweepConnections(IoLoop* loop);
  /// Marshals a finished response to the loop owning `conn` (invoked by
  /// HttpResponseSender from any thread; delivered inline when already on
  /// that loop).
  void PostResponse(size_t loop_index, uint64_t conn_id,
                    HttpResponse response);
  void WakeLoop(IoLoop* loop);
  HttpResponseSender MakeSender(size_t loop_index, uint64_t conn_id);
  size_t EffectiveIoThreads() const;

  HttpAsyncHandler handler_;
  HttpServerOptions options_;

  std::vector<std::unique_ptr<IoLoop>> loops_;
  int listen_fd_ = -1;  ///< Owned by loop 0 once started.
  uint16_t port_ = 0;
  bool started_ = false;
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> requests_served_{0};
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> keepalive_requests_{0};
  /// Starts at 2: ids tag epoll events, and 0/1 are the wake-pipe and
  /// listener tags — a connection with either id would have its readiness
  /// events misrouted and dropped.
  std::atomic<uint64_t> next_conn_id_{2};
  size_t next_loop_ = 0;  ///< Round-robin accept target (loop 0 only).

  mutable std::mutex conn_mu_;
  std::condition_variable conn_idle_;
  size_t open_connections_ = 0;
};

}  // namespace resest

#endif  // RESEST_SERVER_HTTP_SERVER_H_
