#include "src/server/http_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <unordered_map>

#include "src/common/loop_pass.h"

namespace resest {
namespace {

bool EqualsIgnoreCase(const std::string& a, const std::string& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

HttpResponse MakeError(int status, const std::string& message) {
  HttpResponse response;
  response.status = status;
  response.body = message;
  response.body.push_back('\n');
  return response;
}

void CloseFd(int fd) {
  if (fd >= 0) ::close(fd);
}

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// Adds (EPOLL_CTL_ADD) or re-arms (EPOLL_CTL_MOD) `fd` in `epfd` for
/// `events`, tagged with `tag`; false on failure.
bool EpollCtl(int epfd, int op, int fd, uint32_t events, uint64_t tag) {
  epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = events;
  ev.data.u64 = tag;
  return ::epoll_ctl(epfd, op, fd, &ev) == 0;
}

/// Serializes one response onto a connection's output buffer.
void AppendResponse(const HttpResponse& response, bool keep_alive,
                    std::string* out) {
  *out += "HTTP/1.1 " + std::to_string(response.status) + " " +
          HttpReasonPhrase(response.status) + "\r\n";
  *out += "Content-Type: " + response.content_type + "\r\n";
  *out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  *out += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  *out += "\r\n";
  *out += response.body;
}

enum class ParseOutcome { kNeedMore, kRequest, kError };

/// Incremental request parser: attempts to cut one complete request off the
/// front of `buffer` (bytes beyond it — pipelined requests — are left in
/// place). kNeedMore leaves the buffer untouched so the caller can retry
/// after the next read; kError fills *error_response (the caller answers it
/// and closes).
ParseOutcome ParseOneRequest(std::string* buffer,
                             const HttpServerOptions& options,
                             HttpRequest* request, bool* keep_alive,
                             HttpResponse* error_response) {
  auto fail = [&](int status, const std::string& message) {
    *error_response = MakeError(status, message);
    return ParseOutcome::kError;
  };

  // The cap holds whether or not the terminator arrived in the same read.
  const size_t header_end = buffer->find("\r\n\r\n");
  if (std::min(header_end, buffer->size()) > options.max_header_bytes) {
    return fail(400, "request headers too large");
  }
  if (header_end == std::string::npos) return ParseOutcome::kNeedMore;

  // --- Request line. ---
  const std::string head = buffer->substr(0, header_end);
  size_t line_end = head.find("\r\n");
  const std::string request_line =
      line_end == std::string::npos ? head : head.substr(0, line_end);
  const size_t sp1 = request_line.find(' ');
  const size_t sp2 =
      sp1 == std::string::npos ? std::string::npos
                               : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    return fail(400, "malformed request line");
  }
  request->method = request_line.substr(0, sp1);
  std::string target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string version = request_line.substr(sp2 + 1);
  if (version != "HTTP/1.1" && version != "HTTP/1.0") {
    return fail(400, "unsupported HTTP version");
  }
  const size_t question = target.find('?');
  if (question != std::string::npos) {
    request->query = target.substr(question + 1);
    target.resize(question);
  } else {
    request->query.clear();
  }
  request->target = std::move(target);

  // --- Headers. ---
  request->headers.clear();
  size_t pos = line_end == std::string::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    size_t eol = head.find("\r\n", pos);
    if (eol == std::string::npos) eol = head.size();
    const std::string line = head.substr(pos, eol - pos);
    pos = eol + 2;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) return fail(400, "malformed header");
    std::string value = line.substr(colon + 1);
    const size_t first = value.find_first_not_of(" \t");
    const size_t last = value.find_last_not_of(" \t");
    value = first == std::string::npos
                ? std::string()
                : value.substr(first, last - first + 1);
    request->headers.emplace_back(line.substr(0, colon), std::move(value));
  }

  // --- Body. ---
  if (request->FindHeader("Transfer-Encoding") != nullptr) {
    return fail(400, "transfer encodings not supported");
  }
  size_t content_length = 0;
  if (const std::string* cl = request->FindHeader("Content-Length")) {
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(cl->c_str(), &end, 10);
    if (end == cl->c_str() || *end != '\0') {
      return fail(400, "malformed Content-Length");
    }
    content_length = static_cast<size_t>(parsed);
  }
  if (content_length > options.max_body_bytes) {
    return fail(400, "request body too large");
  }
  const size_t body_start = header_end + 4;
  if (buffer->size() - body_start < content_length) {
    return ParseOutcome::kNeedMore;
  }
  request->body = buffer->substr(body_start, content_length);
  // Preserve pipelined bytes beyond this request for the next parse.
  buffer->erase(0, body_start + content_length);

  const std::string* connection = request->FindHeader("Connection");
  if (connection != nullptr && EqualsIgnoreCase(*connection, "close")) {
    *keep_alive = false;
  } else if (version == "HTTP/1.0") {
    *keep_alive =
        connection != nullptr && EqualsIgnoreCase(*connection, "keep-alive");
  } else {
    *keep_alive = true;
  }
  return ParseOutcome::kRequest;
}

/// epoll_event.data.u64 tags for the two non-connection fds; connection
/// ids start above them (next_conn_id_).
constexpr uint64_t kWakeTag = 0;
constexpr uint64_t kListenerTag = 1;

}  // namespace

const std::string* HttpRequest::FindHeader(const std::string& name) const {
  for (const auto& header : headers) {
    if (EqualsIgnoreCase(header.first, name)) return &header.second;
  }
  return nullptr;
}

const char* HttpReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Payload Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
  }
  return "Status";
}

/// One connection's state machine; owned by exactly one IoLoop and only
/// ever touched from that loop's thread.
struct HttpServer::Conn {
  int fd = -1;
  std::string in;       ///< Unparsed request bytes.
  std::string out;      ///< Serialized response bytes not yet sent.
  size_t out_off = 0;   ///< Sent prefix of `out`.
  bool want_write = false;       ///< EPOLLOUT armed (partial send pending).
  bool awaiting = false;         ///< A handler owns the pending response.
  bool req_keep_alive = true;    ///< Keep-alive of the request in flight.
  bool close_after_flush = false;
  bool peer_eof = false;
  bool served_any = false;   ///< At least one response delivered (reuse).
  bool processing = false;   ///< ProcessInput re-entry guard.
  std::chrono::steady_clock::time_point last_activity;

  bool write_pending() const { return out_off < out.size(); }
};

/// One event loop: epoll set + wake pipe + the connections it owns. The
/// cross-thread surface (new sockets from the acceptor, finished responses
/// from handlers) is the mutex-guarded queues; everything else is
/// loop-thread-private.
struct HttpServer::IoLoop {
  HttpServer* server = nullptr;
  size_t index = 0;
  int epfd = -1;
  int wake_rd = -1;
  int wake_wr = -1;
  std::thread thread;

  std::mutex mu;
  std::vector<int> incoming;  ///< Accepted sockets awaiting adoption.
  std::vector<std::pair<uint64_t, HttpResponse>> completions;
  bool terminate = false;
  bool wake_pending = false;  ///< A wake byte is in the pipe.
  bool fds_closed = false;    ///< Teardown done; reject cross-thread posts.

  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns;

  Conn* Find(uint64_t id) {
    auto it = conns.find(id);
    return it == conns.end() ? nullptr : it->second.get();
  }
};

namespace {
/// The loop the current thread is running (null elsewhere): lets a sender
/// invoked synchronously from a handler deliver without a queue round-trip.
thread_local HttpServer::IoLoop* tl_current_loop = nullptr;
}  // namespace

struct HttpResponseSender::Core {
  HttpServer* server = nullptr;
  size_t loop = 0;
  uint64_t conn = 0;
  std::atomic<bool> sent{false};

  ~Core() {
    // A dropped sender still answers: the connection would otherwise wait
    // forever and wedge the drain.
    if (!sent.load(std::memory_order_acquire)) {
      server->PostResponse(loop, conn,
                           MakeError(500, "handler dropped the request"));
    }
  }
};

void HttpResponseSender::Send(HttpResponse response) const {
  if (!core_) return;
  if (core_->sent.exchange(true, std::memory_order_acq_rel)) return;
  core_->server->PostResponse(core_->loop, core_->conn, std::move(response));
}

HttpResponseSender HttpServer::MakeSender(size_t loop_index,
                                          uint64_t conn_id) {
  HttpResponseSender sender;
  sender.core_ = std::make_shared<HttpResponseSender::Core>();
  sender.core_->server = this;
  sender.core_->loop = loop_index;
  sender.core_->conn = conn_id;
  return sender;
}

HttpServer::HttpServer(HttpAsyncHandler handler, HttpServerOptions options)
    : handler_(std::move(handler)), options_(std::move(options)) {
  if (options_.poll_interval_ms <= 0) options_.poll_interval_ms = 100;
}

HttpServer::~HttpServer() {
  Stop();
  // Teardown of the loops' fds is deferred to here (not Stop) so a sender
  // still in flight on another thread can never write into a recycled fd.
  for (auto& loop : loops_) {
    std::lock_guard<std::mutex> lock(loop->mu);
    loop->fds_closed = true;
    CloseFd(loop->wake_rd);
    CloseFd(loop->wake_wr);
    CloseFd(loop->epfd);
    for (int fd : loop->incoming) CloseFd(fd);
    loop->incoming.clear();
  }
  loops_.clear();
}

size_t HttpServer::EffectiveIoThreads() const {
  if (options_.io_threads > 0) return options_.io_threads;
  const size_t hw = std::thread::hardware_concurrency();
  const size_t half = hw / 2;
  return half < 1 ? 1 : (half > 4 ? 4 : half);
}

bool HttpServer::Start(std::string* error) {
  auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = message + ": " + std::strerror(errno);
    if (listen_fd_ >= 0) {
      CloseFd(listen_fd_);
      listen_fd_ = -1;
    }
    for (auto& loop : loops_) {
      CloseFd(loop->wake_rd);
      CloseFd(loop->wake_wr);
      CloseFd(loop->epfd);
    }
    loops_.clear();
    return false;
  };
  if (started_) {
    if (error != nullptr) *error = "already started";
    return false;
  }
  loops_.clear();
  stopping_.store(false, std::memory_order_relaxed);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return fail("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    errno = EINVAL;
    return fail("inet_pton(" + options_.bind_address + ")");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return fail("bind");
  }
  if (::listen(listen_fd_, options_.backlog) != 0) return fail("listen");
  if (!SetNonBlocking(listen_fd_)) return fail("fcntl(listener)");

  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    return fail("getsockname");
  }
  port_ = ntohs(bound.sin_port);

  const size_t num_loops = EffectiveIoThreads();
  for (size_t i = 0; i < num_loops; ++i) {
    auto loop = std::make_unique<IoLoop>();
    loop->server = this;
    loop->index = i;
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) return fail("pipe");
    loop->wake_rd = pipe_fds[0];
    loop->wake_wr = pipe_fds[1];
    if (!SetNonBlocking(loop->wake_rd) || !SetNonBlocking(loop->wake_wr)) {
      loops_.push_back(std::move(loop));
      return fail("fcntl(wake pipe)");
    }
    loop->epfd = ::epoll_create1(0);
    if (loop->epfd < 0) {
      loops_.push_back(std::move(loop));
      return fail("epoll_create1");
    }
    // Level-triggered: the wake byte stays readable until drained.
    if (!EpollCtl(loop->epfd, EPOLL_CTL_ADD, loop->wake_rd, EPOLLIN,
                  kWakeTag)) {
      loops_.push_back(std::move(loop));
      return fail("epoll_ctl(wake)");
    }
    if (i == 0 && !EpollCtl(loop->epfd, EPOLL_CTL_ADD, listen_fd_, EPOLLIN,
                            kListenerTag)) {
      loops_.push_back(std::move(loop));
      return fail("epoll_ctl(listener)");
    }
    loops_.push_back(std::move(loop));
  }

  started_ = true;
  next_loop_ = 0;
  connections_accepted_.store(0, std::memory_order_relaxed);
  keepalive_requests_.store(0, std::memory_order_relaxed);
  requests_served_.store(0, std::memory_order_relaxed);
  for (auto& loop : loops_) {
    IoLoop* raw = loop.get();
    loop->thread = std::thread([this, raw]() { LoopMain(raw); });
  }
  return true;
}

void HttpServer::Stop() {
  if (!started_) return;
  stopping_.store(true, std::memory_order_relaxed);
  for (auto& loop : loops_) WakeLoop(loop.get());
  {
    std::unique_lock<std::mutex> lock(conn_mu_);
    conn_idle_.wait(lock, [this]() { return open_connections_ == 0; });
  }
  for (auto& loop : loops_) {
    {
      std::lock_guard<std::mutex> lock(loop->mu);
      loop->terminate = true;
    }
    WakeLoop(loop.get());
  }
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  started_ = false;
  port_ = 0;
}

size_t HttpServer::active_connections() const {
  std::lock_guard<std::mutex> lock(conn_mu_);
  return open_connections_;
}

HttpServerStats HttpServer::stats() const {
  HttpServerStats stats;
  stats.requests_served = requests_served_.load(std::memory_order_relaxed);
  stats.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  stats.keepalive_requests =
      keepalive_requests_.load(std::memory_order_relaxed);
  stats.open_connections = active_connections();
  return stats;
}

void HttpServer::WakeLoop(IoLoop* loop) {
  std::lock_guard<std::mutex> lock(loop->mu);
  if (loop->wake_pending || loop->fds_closed) return;
  loop->wake_pending = true;
  const char byte = 'w';
  // The pipe is nonblocking; a full pipe already guarantees a pending wake.
  (void)!::write(loop->wake_wr, &byte, 1);
}

void HttpServer::PostResponse(size_t loop_index, uint64_t conn_id,
                              HttpResponse response) {
  if (loop_index >= loops_.size()) return;
  IoLoop* loop = loops_[loop_index].get();
  if (tl_current_loop == loop) {
    // Synchronous completion from inside the handler: deliver directly —
    // no queue round-trip, and ProcessInput's re-entry guard keeps the
    // parse loop iterative.
    DeliverResponse(loop, conn_id, std::move(response));
    return;
  }
  std::lock_guard<std::mutex> lock(loop->mu);
  if (loop->fds_closed) return;
  loop->completions.emplace_back(conn_id, std::move(response));
  if (!loop->wake_pending) {
    loop->wake_pending = true;
    const char byte = 'w';
    (void)!::write(loop->wake_wr, &byte, 1);
  }
}

void HttpServer::LoopMain(IoLoop* loop) {
  tl_current_loop = loop;
  std::vector<uint64_t> ready_read;
  std::vector<uint64_t> ready_write;
  std::vector<int> incoming;
  std::vector<std::pair<uint64_t, HttpResponse>> completions;

  for (;;) {
    ready_read.clear();
    ready_write.clear();
    bool listener_ready = false;

    epoll_event events[64];
    const int n =
        ::epoll_wait(loop->epfd, events, 64, options_.poll_interval_ms);
    for (int i = 0; i < n; ++i) {
      const uint64_t tag = events[i].data.u64;
      if (tag == kWakeTag) continue;  // drained below with the queues
      if (tag == kListenerTag) {
        listener_ready = true;
        continue;
      }
      if (events[i].events & EPOLLOUT) ready_write.push_back(tag);
      if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
        ready_read.push_back(tag);
      }
    }

    // Cross-thread intake: drain the wake pipe and swap the queues out.
    bool terminate = false;
    incoming.clear();
    completions.clear();
    {
      std::lock_guard<std::mutex> lock(loop->mu);
      char drain[64];
      while (::read(loop->wake_rd, drain, sizeof(drain)) > 0) {
      }
      loop->wake_pending = false;
      incoming.swap(loop->incoming);
      completions.swap(loop->completions);
      terminate = loop->terminate;
    }

    const bool draining = stopping_.load(std::memory_order_relaxed);
    if (draining && loop->index == 0 && listen_fd_ >= 0) {
      // The loop owns the listener, so only it closes it: no fd-reuse race
      // with a concurrent accept.
      CloseFd(listen_fd_);
      listen_fd_ = -1;
    }

    {
      // Work that handlers defer with LoopPass::Defer runs when this scope
      // closes, after every ready request was parsed.
      LoopPass pass;
      for (int fd : incoming) AdoptConnection(loop, fd);
      for (auto& completion : completions) {
        DeliverResponse(loop, completion.first, std::move(completion.second));
      }
      if (listener_ready && !draining) AcceptReady(loop);
      for (uint64_t id : ready_write) OnWritable(loop, id);
      for (uint64_t id : ready_read) OnReadable(loop, id);
    }

    SweepConnections(loop);

    if (terminate && loop->conns.empty()) break;
  }
  if (loop->index == 0 && listen_fd_ >= 0) {
    CloseFd(listen_fd_);
    listen_fd_ = -1;
  }
  tl_current_loop = nullptr;
}

void HttpServer::AcceptReady(IoLoop* loop) {
  for (;;) {
    if (stopping_.load(std::memory_order_relaxed) || listen_fd_ < 0) return;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // EAGAIN (drained) or listener gone
    }
    if (!SetNonBlocking(fd)) {
      CloseFd(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    // Count before the handoff so Stop() can never observe zero while an
    // accepted socket sits in a wake queue.
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      ++open_connections_;
    }
    IoLoop* target = loops_[next_loop_++ % loops_.size()].get();
    if (target == loop) {
      AdoptConnection(loop, fd);
    } else {
      {
        std::lock_guard<std::mutex> lock(target->mu);
        target->incoming.push_back(fd);
      }
      WakeLoop(target);
    }
  }
}

void HttpServer::AdoptConnection(IoLoop* loop, int fd) {
  const uint64_t id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
  auto conn = std::make_unique<Conn>();
  conn->fd = fd;
  conn->last_activity = std::chrono::steady_clock::now();
  loop->conns.emplace(id, std::move(conn));
  if (!EpollCtl(loop->epfd, EPOLL_CTL_ADD, fd, EPOLLIN | EPOLLET, id)) {
    CloseConn(loop, id);
    return;
  }
  // Edge-triggered registration only reports bytes arriving after it; read
  // whatever raced the handoff now.
  OnReadable(loop, id);
}

void HttpServer::OnReadable(IoLoop* loop, uint64_t id) {
  Conn* c = loop->Find(id);
  if (c == nullptr || c->fd < 0) return;
  bool got_bytes = false;
  for (;;) {
    char chunk[16 * 1024];
    const ssize_t n = ::recv(c->fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      c->in.append(chunk, static_cast<size_t>(n));
      got_bytes = true;
      continue;
    }
    if (n == 0) {
      c->peer_eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    c->peer_eof = true;  // hard error: nothing further deliverable
    break;
  }
  if (got_bytes) c->last_activity = std::chrono::steady_clock::now();
  ProcessInput(loop, id);
  c = loop->Find(id);
  if (c == nullptr) return;
  if (c->peer_eof && !c->awaiting && !c->write_pending()) {
    CloseConn(loop, id);
  }
}

void HttpServer::ProcessInput(IoLoop* loop, uint64_t id) {
  {
    Conn* c = loop->Find(id);
    if (c == nullptr || c->processing) return;
    c->processing = true;
  }
  for (;;) {
    Conn* c = loop->Find(id);
    if (c == nullptr) return;  // closed mid-loop; the guard died with it
    // Strictly one request in flight per connection: the next pipelined
    // request is parsed only once the previous response is fully on the
    // wire — responses can never interleave or reorder.
    if (c->awaiting || c->close_after_flush || c->write_pending() ||
        c->fd < 0) {
      break;
    }
    HttpRequest request;
    HttpResponse error_response;
    bool keep_alive = true;
    const ParseOutcome got = ParseOneRequest(&c->in, options_, &request,
                                             &keep_alive, &error_response);
    if (got == ParseOutcome::kNeedMore) break;
    if (got == ParseOutcome::kError) {
      // Count before writing: once a client has read its response, the
      // counter is guaranteed to include it.
      requests_served_.fetch_add(1, std::memory_order_relaxed);
      c->close_after_flush = true;
      AppendResponse(error_response, /*keep_alive=*/false, &c->out);
      FlushWrites(loop, id);
      break;
    }
    if (c->served_any) {
      keepalive_requests_.fetch_add(1, std::memory_order_relaxed);
    }
    c->awaiting = true;
    c->req_keep_alive = keep_alive;
    HttpResponseSender sender = MakeSender(loop->index, id);
    try {
      handler_(request, sender);
    } catch (...) {
      sender.Send(MakeError(500, "internal error"));
    }
    // A synchronous completion already cleared `awaiting` (the sender
    // detected this loop and delivered directly); the loop then continues
    // with the next pipelined request. An asynchronous handler leaves
    // `awaiting` set and the loop exits below.
  }
  Conn* c = loop->Find(id);
  if (c != nullptr) c->processing = false;
}

void HttpServer::DeliverResponse(IoLoop* loop, uint64_t id,
                                 HttpResponse response) {
  // Counted even if the peer vanished first: the request was parsed and
  // answered; only delivery can fail.
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  Conn* c = loop->Find(id);
  if (c == nullptr || c->fd < 0) return;
  c->awaiting = false;
  c->served_any = true;
  // A response is written even when Stop() raced the handler — draining
  // means answering everything accepted, then closing.
  const bool keep_alive = c->req_keep_alive && !c->peer_eof &&
                          !c->close_after_flush &&
                          !stopping_.load(std::memory_order_relaxed);
  if (!keep_alive) c->close_after_flush = true;
  AppendResponse(response, keep_alive, &c->out);
  c->last_activity = std::chrono::steady_clock::now();
  FlushWrites(loop, id);
  c = loop->Find(id);
  if (c == nullptr) return;
  if (!c->write_pending() && !c->close_after_flush && !c->processing) {
    ProcessInput(loop, id);  // pipelined requests already buffered
  }
}

void HttpServer::FlushWrites(IoLoop* loop, uint64_t id) {
  Conn* c = loop->Find(id);
  if (c == nullptr || c->fd < 0) return;
  while (c->write_pending()) {
    const ssize_t n = ::send(c->fd, c->out.data() + c->out_off,
                             c->out.size() - c->out_off, MSG_NOSIGNAL);
    if (n >= 0) {
      c->out_off += static_cast<size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!c->want_write) {
        c->want_write = true;
        EpollCtl(loop->epfd, EPOLL_CTL_MOD, c->fd, EPOLLIN | EPOLLOUT | EPOLLET,
                 id);
      }
      return;
    }
    CloseConn(loop, id);  // peer gone; nothing further to deliver
    return;
  }
  if (!c->out.empty()) {
    c->out.clear();
    c->out_off = 0;
  }
  if (c->want_write) {
    c->want_write = false;
    EpollCtl(loop->epfd, EPOLL_CTL_MOD, c->fd, EPOLLIN | EPOLLET, id);
  }
  if (c->close_after_flush) CloseConn(loop, id);
}

void HttpServer::OnWritable(IoLoop* loop, uint64_t id) {
  FlushWrites(loop, id);
  Conn* c = loop->Find(id);
  if (c == nullptr) return;
  if (!c->write_pending() && !c->awaiting && !c->close_after_flush) {
    ProcessInput(loop, id);  // resume pipelining stalled on backpressure
  }
}

void HttpServer::CloseConn(IoLoop* loop, uint64_t id) {
  auto it = loop->conns.find(id);
  if (it == loop->conns.end()) return;
  Conn* c = it->second.get();
  if (c->awaiting) {
    // A handler still owns a response for this connection; keep the entry
    // (and the fd, so it cannot be recycled under the pending sender) and
    // finish closing when the response is delivered.
    if (c->fd >= 0) ::shutdown(c->fd, SHUT_RDWR);
    c->peer_eof = true;
    c->close_after_flush = true;
    return;
  }
  CloseFd(c->fd);  // epoll deregisters automatically on close
  c->fd = -1;
  loop->conns.erase(it);
  std::lock_guard<std::mutex> lock(conn_mu_);
  if (--open_connections_ == 0) conn_idle_.notify_all();
}

void HttpServer::SweepConnections(IoLoop* loop) {
  if (loop->index == 0 && options_.on_sweep) options_.on_sweep();
  const auto now = std::chrono::steady_clock::now();
  const bool draining = stopping_.load(std::memory_order_relaxed);
  const auto idle_limit = std::chrono::milliseconds(options_.idle_timeout_ms);
  std::vector<uint64_t> ids;
  ids.reserve(loop->conns.size());
  for (const auto& entry : loop->conns) ids.push_back(entry.first);
  for (uint64_t id : ids) {
    Conn* c = loop->Find(id);
    if (c == nullptr || c->fd < 0 || c->awaiting || c->write_pending()) {
      continue;
    }
    if (draining && c->in.empty()) {
      // Idle keep-alive connections close on drain — but a request whose
      // bytes reached the socket before the drain began is NOT idle. One
      // nonblocking read decides, so anything a client finished sending
      // pre-SIGTERM is still answered.
      OnReadable(loop, id);
      c = loop->Find(id);
      if (c == nullptr) continue;
      if (c->awaiting || c->write_pending()) continue;
      if (c->in.empty()) {
        CloseConn(loop, id);
        continue;
      }
      // else: a request is now mid-parse; grace period below applies.
    }
    if (now - c->last_activity >= idle_limit) {
      // Half-received requests keep their grace period until the idle
      // clock runs out — during drain too.
      CloseConn(loop, id);
    }
  }
}

}  // namespace resest
