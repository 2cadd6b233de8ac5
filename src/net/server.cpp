#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

namespace rafiki::net {
namespace {

double elapsed_us(std::chrono::steady_clock::time_point since,
                  std::chrono::steady_clock::time_point until) {
  return std::chrono::duration<double, std::micro>(until - since).count();
}

WireError wire_error_for(DecodeStatus status, FrameType type) {
  switch (status) {
    case DecodeStatus::kBadVersion:
      return WireError::kUnsupportedVersion;
    case DecodeStatus::kBadLength:
      return WireError::kPayloadTooLarge;
    case DecodeStatus::kBadPayload:
      return WireError::kBadPayload;
    case DecodeStatus::kBadEnum:
      return type == FrameType::kRequest ? WireError::kUnknownEndpoint
                                         : WireError::kBadFrame;
    default:
      return WireError::kBadFrame;
  }
}

}  // namespace

void Server::Mailbox::post(ConnectionPtr conn) {
  {
    MutexLock lock(mutex);
    dirty.push_back(std::move(conn));
  }
  waker.wake();
}

Server::Server(serve::TuningBackend& service, ServerOptions options)
    : service_(service), options_(std::move(options)), stats_(service.stats()) {
  if (options_.io_threads == 0) options_.io_threads = 1;
  if (options_.read_chunk == 0) options_.read_chunk = 4096;
  if (options_.max_output_buffer == 0) options_.max_output_buffer = 1 << 16;
}

Server::~Server() { stop(); }

bool Server::start() {
  MutexLock lock(lifecycle_mutex_);
  if (started_) return !stopped_;
  if (stopped_) return false;

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    last_error_ = "socket() failed";
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (options_.so_sndbuf > 0) {
    // Accepted sockets inherit the (now autotune-pinned) send buffer.
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_SNDBUF, &options_.so_sndbuf,
                 sizeof options_.so_sndbuf);
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    last_error_ = "inet_pton(" + options_.host + ") failed";
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    last_error_ = "bind(" + options_.host + ") failed: " + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::listen(listen_fd_, options_.backlog) != 0) {
    last_error_ = "listen() failed";
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  }

  loops_.clear();
  for (std::size_t i = 0; i < options_.io_threads; ++i) {
    auto loop = std::make_unique<Loop>();
    loop->mailbox = std::make_shared<Mailbox>();
    // Registration happens here (single-threaded) so failures surface as a
    // start() error instead of a silently deaf loop.
    if (!loop->mailbox->waker.valid() ||
        !loop->poller.add(loop->mailbox->waker.read_fd(), true, false, nullptr) ||
        (i == 0 && !loop->poller.add(listen_fd_, true, false, nullptr))) {
      last_error_ = "io loop setup failed";
      ::close(listen_fd_);
      listen_fd_ = -1;
      loops_.clear();
      return false;
    }
    loops_.push_back(std::move(loop));
  }
  for (std::size_t i = 0; i < loops_.size(); ++i) {
    loops_[i]->thread = std::thread([this, i] { loop_main(i); });
  }
  started_ = true;
  return true;
}

void Server::stop() {
  {
    MutexLock lock(lifecycle_mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  draining_.store(true, std::memory_order_release);
  for (auto& loop : loops_) {
    if (loop->mailbox) loop->mailbox->waker.wake();
  }
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  // Loops are gone; close anything still registered (a connection handed to
  // a loop in the instant it exited never got served — close it cleanly).
  for (auto& loop : loops_) {
    {
      // The loop threads are joined; the lock is for the analysis (and any
      // future acceptor that might outlive them), not a live race.
      MutexLock lock(loop->incoming_mutex);
      for (auto& conn : loop->incoming) {
        if (conn->fd >= 0) close_connection(*loop, *conn);
      }
      loop->incoming.clear();
    }
    for (auto& conn : loop->conns) {
      if (conn->fd >= 0) close_connection(*loop, *conn);
    }
    loop->conns.clear();
    loop->read_set.clear();
    loop->flush_set.clear();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void Server::loop_main(std::size_t index) {
  Loop& loop = *loops_[index];
  const bool acceptor = index == 0;
  bool drain_deadline_set = false;
  std::chrono::steady_clock::time_point drain_deadline{};

  for (;;) {
    adopt_incoming(loop);
    const bool draining = draining_.load(std::memory_order_acquire);
    if (draining && !drain_deadline_set) {
      drain_deadline_set = true;
      // det:ok(wall-clock): the drain grace bounds real elapsed time by design
      drain_deadline = std::chrono::steady_clock::now() + options_.drain_grace;
    }
    if (draining && loop.conns.empty()) {
      // The accept queue may still hold connections whose handshake finished
      // before the drain began — possibly with frames already buffered.
      // Closing the listener would RST them mid-request, so adopt them and
      // let the drain path answer (kShuttingDown) before closing.
      if (acceptor) do_accept(loop);
      if (loop.conns.empty()) {
        MutexLock lock(loop.incoming_mutex);
        if (loop.incoming.empty()) return;
      }
      continue;  // late handoff or backlog adoption: serve it next pass
    }

    // A draining loop sleeps exactly until the grace deadline — the next
    // event (completion, FIN, racing bytes) wakes it earlier.
    int timeout_ms = -1;
    if (draining) {
      // det:ok(wall-clock): the drain grace bounds real elapsed time by design
      const auto now = std::chrono::steady_clock::now();
      timeout_ms = now >= drain_deadline
                       ? 0
                       : static_cast<int>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                              drain_deadline - now)
                                              .count()) +
                             1;
    }

    loop.events.clear();
    loop.poller.wait(timeout_ms, loop.events);
    const bool saw_accept = dispatch_events(loop);
    if (acceptor && saw_accept) do_accept(loop);
    grab_mailbox(loop);
    read_pass(loop);
    flush_pass(loop);
    if (draining) drain_sweep(loop, drain_deadline);
  }
}

void Server::adopt_incoming(Loop& loop) {
  loop.grabbed.clear();
  {
    MutexLock lock(loop.incoming_mutex);
    loop.grabbed.swap(loop.incoming);
  }
  for (auto& conn : loop.grabbed) register_conn(loop, std::move(conn));
  loop.grabbed.clear();
}

void Server::register_conn(Loop& loop, ConnectionPtr conn) {
  // Bytes that arrived before registration report on the next wait.
  if (!loop.poller.add(conn->fd, true, false, conn.get())) {
    close_connection(loop, *conn);
    return;
  }
  conn->conn_index = loop.conns.size();
  loop.conns.push_back(std::move(conn));
}

void Server::do_accept(Loop& loop) {
  for (;;) {
    // EINTR retries rather than ending the batch early; a non-empty backlog
    // would re-report anyway, but a signal storm must not cost a loop pass
    // per accepted connection.
    const int fd = retry_eintr(
        [&] { return ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC); });
    if (fd < 0) return;  // EAGAIN (or a transient error): the next wait retries
    // Approximate admission bound: closes on other loops may lag a beat,
    // which only makes the cap momentarily conservative. Relaxed is enough.
    if (open_connections_.load(std::memory_order_relaxed) >= options_.max_connections) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    open_connections_.fetch_add(1, std::memory_order_relaxed);
    stats_.record_connection_open();

    // During a drain, sibling loops may already have exited; keep backlog
    // adoptions on the accepting loop so every registered connection is
    // served until it is answered and closed. The drain grace still bounds
    // how long any of them can linger.
    const bool draining = draining_.load(std::memory_order_acquire);
    Loop& target = draining ? loop : *loops_[next_loop_];
    if (!draining) next_loop_ = (next_loop_ + 1) % loops_.size();
    conn->mailbox = target.mailbox;
    if (&target == &loop) {
      register_conn(loop, std::move(conn));
    } else {
      {
        MutexLock lock(target.incoming_mutex);
        target.incoming.push_back(std::move(conn));
      }
      target.mailbox->waker.wake();
    }
  }
}

bool Server::dispatch_events(Loop& loop) {
  bool saw_accept = false;
  for (const PollerEvent& ev : loop.events) {
    if (ev.data == nullptr) {
      // The two data-less registrations: this loop's waker and (loop 0
      // only) the listener.
      if (ev.fd == loop.mailbox->waker.read_fd()) {
        loop.mailbox->waker.drain();
      } else {
        saw_accept = true;
      }
      continue;
    }
    auto* conn = static_cast<Connection*>(ev.data);
    if (conn->fd < 0) continue;
    if (ev.hangup) {
      // POLLERR/HUP report regardless of interest masks; let the read path
      // surface the error even on a read-throttled connection.
      conn->read_paused = false;
    }
    if ((ev.readable || ev.hangup) && !conn->read_paused) {
      loop.read_set.push_back(conn->shared_from_this());
    }
    if (ev.writable) {
      conn->write_ready = true;
      MutexLock lock(conn->out_mutex);
      if (conn->opos < conn->obuf.size() && !conn->flush_queued) {
        conn->flush_queued = true;
        loop.flush_set.push_back(conn->shared_from_this());
      }
    }
  }
  loop.events.clear();
  return saw_accept;
}

void Server::grab_mailbox(Loop& loop) {
  loop.grabbed.clear();
  {
    MutexLock lock(loop.mailbox->mutex);
    loop.grabbed.swap(loop.mailbox->dirty);
  }
  for (auto& conn : loop.grabbed) {
    if (conn->fd < 0) continue;  // closed while parked in the mailbox
    loop.flush_set.push_back(std::move(conn));
  }
  loop.grabbed.clear();
}

void Server::read_pass(Loop& loop) {
  for (const ConnectionPtr& conn : loop.read_set) {
    if (conn->fd < 0) continue;
    handle_read(loop, *conn);
    process_frames(loop, conn);
    if (should_close(*conn)) {
      close_connection(loop, *conn);
      remove_conn(loop, *conn);
    }
  }
  // The round's connections are queued for flush_pass, which closes the
  // ones that finished once their answers are out.
  answer_round(loop);
  loop.read_set.clear();
}

void Server::flush_pass(Loop& loop) {
  for (std::size_t i = 0; i < loop.flush_set.size(); ++i) {
    ConnectionPtr conn = std::move(loop.flush_set[i]);
    if (conn->fd < 0) continue;
    flush(loop, *conn);
    if (should_close(*conn)) {
      close_connection(loop, *conn);
      remove_conn(loop, *conn);
    }
  }
  loop.flush_set.clear();
}

void Server::drain_sweep(Loop& loop, std::chrono::steady_clock::time_point deadline) {
  for (std::size_t i = 0; i < loop.conns.size();) {
    const ConnectionPtr conn = loop.conns[i];
    bool close = should_close(*conn);
    if (!close && idle(*conn)) {
      // Catch bytes that raced in just before (or during) the drain and
      // answer them (kShuttingDown). An idle connection is then the
      // peer's to release: a client mid-burst may have frames on the wire
      // that a momentary idle observation would lose, so hold the
      // connection until its FIN arrives (read_closed -> should_close) —
      // or the drain grace expires, which bounds stop() against silent
      // peers.
      handle_read(loop, *conn);
      process_frames(loop, conn);
      flush(loop, *conn);
      // det:ok(wall-clock): the drain grace bounds real elapsed time by design
      const bool grace_expired = std::chrono::steady_clock::now() >= deadline;
      close = should_close(*conn) || (idle(*conn) && grace_expired);
    }
    if (close) {
      close_connection(loop, *conn);
      remove_conn(loop, *conn);  // swap-erase: re-examine slot i
    } else {
      ++i;
    }
  }
}

void Server::handle_read(Loop& loop, Connection& conn) {
  if (conn.read_closed || conn.fatal || conn.dead.load(std::memory_order_relaxed)) return;
  // Bound unprocessed buffering: one oversized-frame claim is rejected at
  // decode, so two max frames of slack is plenty.
  const std::size_t cap = 2 * (options_.max_payload + kHeaderSize);
  for (;;) {
    if (conn.obuf_bytes.load(std::memory_order_relaxed) >= options_.max_output_buffer) {
      // Output high-water: the peer is not draining its responses. Stop
      // reading (flush() resumes below half) so its pipeline backs up into
      // its own TCP window instead of server memory.
      conn.read_paused = true;
      set_interest(loop, conn, false, conn.want_write);
      return;
    }
    // Decode backlog bound; the bytes left in the kernel report next wait.
    if (conn.rbuf.size() - conn.rpos >= cap) return;
    const std::size_t old = conn.rbuf.size();
    conn.rbuf.resize(old + options_.read_chunk);
    const ssize_t n = retry_eintr(
        [&] { return ::recv(conn.fd, conn.rbuf.data() + old, options_.read_chunk, 0); });
    if (n > 0) {
      conn.rbuf.resize(old + static_cast<std::size_t>(n));
      stats_.record_wire_read(static_cast<std::size_t>(n));
      continue;
    }
    conn.rbuf.resize(old);
    if (n == 0) {
      conn.read_closed = true;  // peer FIN; finish in-flight work, then close
      set_interest(loop, conn, false, conn.want_write);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    // Loop-thread-only flag (see server.h): relaxed store, no ordering needed.
    conn.dead.store(true, std::memory_order_relaxed);
    return;
  }
}

void Server::process_frames(Loop& loop, const ConnectionPtr& conn) {
  for (;;) {
    Frame frame;
    std::size_t consumed = 0;
    const DecodeStatus status =
        decode_frame(conn->rbuf.data() + conn->rpos, conn->rbuf.size() - conn->rpos,
                     options_.max_payload, frame, consumed);
    if (status == DecodeStatus::kNeedMore) break;
    if (status == DecodeStatus::kOk) {
      stats_.record_frame_in();
      conn->rpos += consumed;
      // Adopt the peer's dialect: every answer from here on is encoded in
      // the version of the last well-formed frame it sent.
      conn->wire_version = frame.version;
      if (frame.type == FrameType::kRequest) {
        handle_request(loop, conn, frame);
      } else {
        // A client must only send requests; answer the misuse, keep the
        // stream (the frame itself was well-formed).
        queue_error(loop, *conn, frame.request_id, WireError::kBadFrame, frame.tenant);
      }
      continue;
    }
    stats_.record_decode_error();
    const WireError error = wire_error_for(status, frame.type);
    if (decode_recoverable(status)) {
      conn->rpos += consumed;
      queue_error(loop, *conn, frame.request_id, error);
      continue;
    }
    // Fatal: the stream offset is untrustworthy. One last error frame (id 0:
    // no header could be believed), then close once it flushes.
    queue_error(loop, *conn, 0, error);
    conn->fatal = true;
    break;
  }
  if (conn->rpos == conn->rbuf.size()) {
    conn->rbuf.clear();
    conn->rpos = 0;
  } else if (conn->rpos > 0) {
    conn->rbuf.erase(conn->rbuf.begin(),
                     conn->rbuf.begin() + static_cast<std::ptrdiff_t>(conn->rpos));
    conn->rpos = 0;
  }
}

void Server::handle_request(Loop& loop, const ConnectionPtr& conn, const Frame& frame) {
  const std::uint64_t id = frame.request_id;
  const serve::Endpoint endpoint = frame.endpoint;
  const serve::TenantId tenant = frame.tenant;

  if (draining_.load(std::memory_order_acquire)) {
    serve::Response response;
    response.status = serve::Status::kShuttingDown;
    queue_response(loop, *conn, id, endpoint, response, tenant);
    return;
  }
  // Loop-thread admission check: we see our own increments; a worker's
  // decrement arriving late only over-rejects for one pass. Relaxed is fine.
  // The pending round counts as in flight, so answer it before refusing:
  // only work parked on workers limits a deep pipeline.
  if (conn->in_flight.load(std::memory_order_relaxed) >= options_.max_pipeline) {
    answer_round(loop);
  }
  if (conn->in_flight.load(std::memory_order_relaxed) >= options_.max_pipeline) {
    // Per-connection backpressure surfaces on the wire instead of stalling
    // TCP: the client sees a typed kOverloaded and can back off.
    serve::Response response;
    response.status = serve::Status::kOverloaded;
    queue_response(loop, *conn, id, endpoint, response, tenant);
    return;
  }
  if (endpoint == serve::Endpoint::kPredict) {
    defer_predict(loop, conn, frame);
    return;
  }

  // det:ok(wall-clock): reporting-only wire-latency timestamp
  const auto t0 = std::chrono::steady_clock::now();
  // The submit handoff (queue mutex) publishes this increment to workers.
  conn->in_flight.fetch_add(1, std::memory_order_relaxed);
  serve::ServiceStats* stats = &stats_;
  const std::shared_ptr<Mailbox> mailbox = conn->mailbox;
  // The callback snapshots the peer's dialect at submit time: wire_version
  // is loop-thread-owned, so a worker thread must not read it later.
  const std::uint8_t version = conn->wire_version;
  const serve::Status admitted = service_.try_submit(
      frame.request,
      [conn, mailbox, stats, id, endpoint, tenant, version, t0](serve::Response response) {
        // Runs on a service worker thread. Touches only ref-counted state
        // (connection buffers, the mailbox) — never the Server itself.
        std::vector<std::uint8_t> bytes;
        encode_response(id, endpoint, response, bytes, tenant, version);
        bool need_post;
        {
          MutexLock lock(conn->out_mutex);
          conn->obuf.insert(conn->obuf.end(), bytes.begin(), bytes.end());
          ++conn->obuf_frames;
          conn->obuf_bytes.store(conn->obuf.size() - conn->opos, std::memory_order_relaxed);
          // First writer into a quiet buffer posts; later completions
          // piggyback on the pending flush — that is the write coalescing.
          need_post = !conn->flush_queued;
          conn->flush_queued = true;
        }
        stats->record_frame_out();
        // det:ok(wall-clock): reporting-only wire-latency measurement
        const auto t1 = std::chrono::steady_clock::now();
        stats->record_wire_latency(endpoint, elapsed_us(t0, t1));
        conn->in_flight.fetch_sub(1, std::memory_order_release);
        // Post after the decrement: the mailbox mutex publishes it, so the
        // loop's close check on this very wakeup already sees it.
        if (need_post) mailbox->post(conn);
      });
  if (admitted != serve::Status::kOk) {
    // Not admitted — the callback will never fire. Answer inline with the
    // admission verdict (Overloaded / ShuttingDown).
    // Same-thread undo of the increment above; nothing to publish.
    conn->in_flight.fetch_sub(1, std::memory_order_relaxed);
    serve::Response response;
    response.status = admitted;
    queue_response(loop, *conn, id, endpoint, response, tenant);
  }
}

void Server::defer_predict(Loop& loop, const ConnectionPtr& conn, const Frame& frame) {
  if (loop.pending.empty()) {
    // det:ok(wall-clock): reporting-only wire-latency timestamp
    loop.round_start = std::chrono::steady_clock::now();
  }
  if (loop.round_conns.empty() || loop.round_conns.back() != conn) {
    loop.round_conns.push_back(conn);
  }
  // Loop-thread increment, paired with answer_round's decrement.
  conn->in_flight.fetch_add(1, std::memory_order_relaxed);
  loop.pending.push_back({conn.get(), frame.request_id, conn->wire_version});
  loop.round_requests.push_back(frame.request);
  if (loop.pending.size() >= kMaxRoundRows) answer_round(loop);
}

void Server::answer_round(Loop& loop) {
  const std::size_t n = loop.pending.size();
  if (n == 0) return;
  loop.round_responses.resize(n);
  service_.answer_predicts(loop.round_requests, loop.round_responses, loop.scratch);
  // det:ok(wall-clock): reporting-only wire-latency measurement
  const double latency = elapsed_us(loop.round_start, std::chrono::steady_clock::now());

  for (std::size_t begin = 0; begin < n;) {
    Connection& conn = *loop.pending[begin].conn;
    std::size_t end = begin + 1;
    while (end < n && loop.pending[end].conn == &conn) ++end;
    {
      MutexLock lock(conn.out_mutex);
      for (std::size_t i = begin; i < end; ++i) {
        encode_response(loop.pending[i].request_id, serve::Endpoint::kPredict,
                        loop.round_responses[i], conn.obuf, loop.round_requests[i].tenant,
                        loop.pending[i].version);
      }
      conn.obuf_frames += end - begin;
      conn.obuf_bytes.store(conn.obuf.size() - conn.opos, std::memory_order_relaxed);
      if (!conn.flush_queued) {
        conn.flush_queued = true;
        loop.flush_set.push_back(conn.shared_from_this());
      }
    }
    // Release pairs with the acquire loads in idle() / should_close(), like
    // a worker callback's decrement.
    conn.in_flight.fetch_sub(end - begin, std::memory_order_release);
    begin = end;
  }
  for (std::size_t i = 0; i < n; ++i) {
    stats_.record_frame_out();
    stats_.record_wire_latency(serve::Endpoint::kPredict, latency);
  }
  loop.pending.clear();
  loop.round_requests.clear();
  loop.round_conns.clear();
}

void Server::queue_response(Loop& loop, Connection& conn, std::uint64_t request_id,
                            serve::Endpoint endpoint, const serve::Response& response,
                            serve::TenantId tenant) {
  std::vector<std::uint8_t> bytes;
  encode_response(request_id, endpoint, response, bytes, tenant, conn.wire_version);
  {
    MutexLock lock(conn.out_mutex);
    conn.obuf.insert(conn.obuf.end(), bytes.begin(), bytes.end());
    ++conn.obuf_frames;
    conn.obuf_bytes.store(conn.obuf.size() - conn.opos, std::memory_order_relaxed);
    if (!conn.flush_queued) {
      conn.flush_queued = true;
      loop.flush_set.push_back(conn.shared_from_this());
    }
  }
  stats_.record_frame_out();
  stats_.record_wire_latency(endpoint, 0.0);  // answered inline, no queueing
}

void Server::queue_error(Loop& loop, Connection& conn, std::uint64_t request_id,
                         WireError error, serve::TenantId tenant) {
  std::vector<std::uint8_t> bytes;
  encode_error(request_id, error, bytes, tenant, conn.wire_version);
  {
    MutexLock lock(conn.out_mutex);
    conn.obuf.insert(conn.obuf.end(), bytes.begin(), bytes.end());
    ++conn.obuf_frames;
    conn.obuf_bytes.store(conn.obuf.size() - conn.opos, std::memory_order_relaxed);
    if (!conn.flush_queued) {
      conn.flush_queued = true;
      loop.flush_set.push_back(conn.shared_from_this());
    }
  }
  stats_.record_frame_out();
  stats_.record_error_frame();
}

void Server::flush(Loop& loop, Connection& conn) {
  MutexLock lock(conn.out_mutex);
  conn.flush_queued = false;
  if (conn.dead.load(std::memory_order_relaxed) || conn.fd < 0) {
    conn.obuf.clear();
    conn.opos = 0;
    conn.obuf_frames = 0;
    conn.obuf_bytes.store(0, std::memory_order_relaxed);
    return;
  }
  // Parked on a previous EAGAIN: POLLOUT interest is on, and its dispatch
  // re-queues the flush. Skipping the speculative send keeps a blocked
  // connection syscall-free until the socket drains.
  if (!conn.write_ready) return;
  std::size_t syscalls = 0;
  bool hit_eagain = false;
  while (conn.opos < conn.obuf.size()) {
    const ssize_t n = retry_eintr([&] {
      return ::send(conn.fd, conn.obuf.data() + conn.opos, conn.obuf.size() - conn.opos,
                    MSG_NOSIGNAL);
    });
    ++syscalls;
    if (n > 0) {
      conn.opos += static_cast<std::size_t>(n);
      stats_.record_wire_write(static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Partial write: park until poll reports POLLOUT, then resume from
      // opos.
      conn.write_ready = false;
      hit_eagain = true;
      set_interest(loop, conn, conn.want_read, true);
      break;
    }
    conn.dead.store(true, std::memory_order_relaxed);  // peer is gone; drop the rest
    conn.obuf.clear();
    conn.opos = 0;
    conn.obuf_frames = 0;
    conn.obuf_bytes.store(0, std::memory_order_relaxed);
    break;
  }
  std::size_t frames_flushed = 0;
  if (!conn.dead.load(std::memory_order_relaxed) && conn.opos >= conn.obuf.size()) {
    // Fully drained: credit every buffered frame to this flush's batch.
    frames_flushed = conn.obuf_frames;
    conn.obuf_frames = 0;
    conn.obuf.clear();
    conn.opos = 0;
    conn.obuf_bytes.store(0, std::memory_order_relaxed);
    if (conn.want_write) set_interest(loop, conn, conn.want_read, false);
  } else if (conn.opos < conn.obuf.size()) {
    conn.obuf_bytes.store(conn.obuf.size() - conn.opos, std::memory_order_relaxed);
  }
  if (syscalls > 0) stats_.record_wire_flush(frames_flushed, syscalls, hit_eagain);
  if (conn.read_paused &&
      conn.obuf_bytes.load(std::memory_order_relaxed) <= options_.max_output_buffer / 2) {
    // The slow reader caught up: resume reads. The bytes left in the kernel
    // report on the next wait.
    conn.read_paused = false;
    if (!conn.read_closed && !conn.fatal) set_interest(loop, conn, true, conn.want_write);
  }
}

void Server::set_interest(Loop& loop, Connection& conn, bool want_read, bool want_write) {
  if (conn.want_read == want_read && conn.want_write == want_write) return;
  conn.want_read = want_read;
  conn.want_write = want_write;
  loop.poller.mod(conn.fd, want_read, want_write);
}

bool Server::idle(Connection& conn) const {
  if (conn.fatal || conn.dead.load(std::memory_order_relaxed) || conn.read_closed) {
    return false;
  }
  // Acquire pairs with the callback's fetch_sub(release): once in_flight
  // reads 0 here, the worker's obuf append is visible too.
  if (conn.in_flight.load(std::memory_order_acquire) != 0) return false;
  if (conn.rpos < conn.rbuf.size()) return false;
  MutexLock lock(conn.out_mutex);
  return conn.opos >= conn.obuf.size();
}

bool Server::should_close(Connection& conn) const {
  if (conn.dead.load(std::memory_order_relaxed)) return true;
  if (!conn.fatal && !conn.read_closed) return false;
  // Acquire pairs with the callback's fetch_sub(release); see idle().
  if (conn.in_flight.load(std::memory_order_acquire) != 0) return false;
  MutexLock lock(conn.out_mutex);
  return conn.opos >= conn.obuf.size();
}

void Server::close_connection(Loop& loop, Connection& conn) {
  if (conn.fd >= 0) {
    loop.poller.del(conn.fd);  // before close(): a poll() set keeps raw fds
    ::close(conn.fd);
    conn.fd = -1;
    stats_.record_connection_close();
    open_connections_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void Server::remove_conn(Loop& loop, Connection& conn) {
  const std::size_t i = conn.conn_index;
  if (i >= loop.conns.size() || loop.conns[i].get() != &conn) return;
  const std::size_t last = loop.conns.size() - 1;
  if (i != last) {
    loop.conns[i] = std::move(loop.conns[last]);
    loop.conns[i]->conn_index = i;
  }
  loop.conns.pop_back();
}

}  // namespace rafiki::net
