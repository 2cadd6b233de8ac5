// net::Server — the RPC front-end over a serve::TuningBackend (the single
// TuningService or the ShardedTuningService router): an event-driven,
// multi-threaded TCP server speaking the length-prefixed binary protocol of
// net/wire.h.
//
//   * IO readiness comes from one level-triggered net::PollPoller per loop:
//     a persistent poll() set where every fd registers once and only its
//     interest mask changes. A loop pass touches only the connections the
//     wait reported ready, never the whole set.
//   * Non-blocking sockets throughout; each connection is owned by exactly
//     one IO loop thread (round-robin assignment at accept), so read-side
//     state needs no locks. Loop 0 doubles as the acceptor.
//   * Pipelining — any number of requests (up to max_pipeline) may be in
//     flight per connection; responses carry the request id they answer and
//     may return out of order.
//   * The poll round is the Predict batch: every Predict a loop decodes in
//     one read pass joins the loop's pending round, and when the pass ends
//     (or the round reaches kMaxRoundRows) the loop answers the whole round
//     with one TuningBackend::answer_predicts call on its own thread — no
//     queue, no worker wake-up — and encodes the answers straight into each
//     connection's output buffer, one out_mutex acquisition per connection
//     per round. Optimize and ObserveWindow go through try_submit's callback
//     path instead, so a GA never runs on an IO thread: a worker encodes the
//     response into the connection's (mutex-guarded) output buffer and posts
//     the connection to the owning loop's mailbox — the loop never blocks
//     on a future.
//   * Write coalescing: every response completed by the time a pass flushes
//     sits in the connection's output buffer already, so one send() carries
//     them all — a round's Predict answers included. Flush batch sizes and
//     syscall counts fold into ServiceStats' wire table.
//   * Backpressure maps to the wire, not to TCP stalls: a full service queue
//     or a full per-connection pipeline answers with a typed kOverloaded
//     response immediately; the socket keeps draining. The reverse direction
//     is bounded too: a peer that stops reading pins its responses in the
//     output buffer, and past max_output_buffer the server stops reading
//     from it (resuming below half) so a slow reader costs bounded memory.
//   * Malformed frames: recoverable ones (bad enum/payload under a valid
//     header) are answered with an error frame and the stream continues;
//     fatal ones (bad magic/version/oversized length) get one final error
//     frame and the connection closes.
//   * stop() drains gracefully: in-flight requests (a pending round's
//     Predicts included: they count in the connection's in_flight) finish
//     and their responses flush, requests decoded during the drain are
//     answered with kShuttingDown — no accepted frame is ever dropped. Connections whose
//     handshake completed before the drain (still sitting in the accept
//     backlog) are adopted and answered too, instead of being RST by the
//     listener close. Idle connections are held until the peer closes (its
//     frames may still be on the wire), bounded by ServerOptions::drain_grace
//     — the draining loop sleeps exactly until that deadline (or the next
//     event), not on a fixed re-poll cadence.
//   * Wire telemetry (connections, frames, bytes, decode errors, flush
//     batching, per-endpoint wire latency) folds into the service's
//     ServiceStats.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/poller.h"
#include "net/wire.h"
#include "serve/backend.h"
#include "util/sync.h"

namespace rafiki::net {

struct ServerOptions {
  /// Bind address. The default serves loopback only — remote exposure is an
  /// explicit decision.
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; Server::port() reports the real one.
  std::uint16_t port = 0;
  /// IO loop threads. Loop 0 also accepts; connections are assigned
  /// round-robin.
  std::size_t io_threads = 1;
  int backlog = 64;
  /// Connections beyond this are accepted and immediately closed.
  std::size_t max_connections = 256;
  /// Frames claiming a larger payload are rejected before buffering.
  std::size_t max_payload = kDefaultMaxPayload;
  /// In-flight (submitted, unanswered) requests per connection; excess
  /// requests answer kOverloaded on the wire.
  std::size_t max_pipeline = 64;
  /// recv() chunk size.
  std::size_t read_chunk = 1 << 16;
  /// Drain grace: how long stop() keeps an *idle* connection open waiting
  /// for the peer's FIN. A momentarily-idle connection can have frames
  /// already on the wire (a client mid-burst); closing it on the first idle
  /// observation loses them. The peer closing its end (or going dead) still
  /// releases the connection immediately — the grace only bounds how long a
  /// silent, healthy peer can hold up stop().
  std::chrono::milliseconds drain_grace{250};
  /// Per-connection output high-water mark: once this many bytes of
  /// responses sit unflushed (the peer is not reading), the server stops
  /// reading from that connection until the backlog drains below half.
  /// Backpressure lands on the slow reader's TCP window, not server memory.
  std::size_t max_output_buffer = 1 << 20;
  /// When > 0, pins SO_SNDBUF on the listener (inherited by every accepted
  /// connection), which also disables kernel send-buffer autotuning. 0 keeps
  /// the kernel default. Mainly a test/diagnostic hook: a small pinned
  /// buffer forces the partial-write (EAGAIN) paths that autotuned loopback
  /// sockets otherwise absorb silently.
  int so_sndbuf = 0;
};

class Server {
 public:
  /// A loop answers its pending Predict round once it holds this many rows,
  /// even mid-read, so the round's buffers stay bounded.
  static constexpr std::size_t kMaxRoundRows = 256;

  /// The backend must outlive the server.
  explicit Server(serve::TuningBackend& service, ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the IO loops. False on socket errors (see
  /// last_error()). Idempotent.
  bool start();
  /// Graceful drain: answer everything already on the wire (including
  /// connections still in the accept backlog), flush, close, join.
  /// Idempotent.
  void stop();

  /// Actual bound port (after start()); 0 before.
  std::uint16_t port() const noexcept { return port_; }
  bool running() const {
    MutexLock lock(lifecycle_mutex_);
    return started_ && !stopped_;
  }
  std::string last_error() const {
    MutexLock lock(lifecycle_mutex_);
    return last_error_;
  }

 private:
  struct Connection;
  using ConnectionPtr = std::shared_ptr<Connection>;

  /// Completion handoff between service workers and an IO loop: `dirty`
  /// names connections with freshly appended output and the waker rouses
  /// the loop. Ref-counted because a worker mid-callback can outlive stop()
  /// by a few instructions and must still find live fds and buffers.
  struct Mailbox {
    Waker waker;
    rafiki::Mutex mutex;
    std::vector<ConnectionPtr> dirty GUARDED_BY(mutex);
    void post(ConnectionPtr conn);
  };

  struct Connection : std::enable_shared_from_this<Connection> {
    int fd = -1;
    /// Owning loop's mailbox; response callbacks post here.
    std::shared_ptr<Mailbox> mailbox;
    // --- owned by the loop thread ---
    std::vector<std::uint8_t> rbuf;
    std::size_t rpos = 0;
    bool read_closed = false;  ///< peer sent FIN (or read side gave up)
    bool fatal = false;        ///< protocol-fatal: close once output flushes
    /// Protocol version of the most recent well-formed frame from this peer
    /// (loop-thread only). Responses and error frames are encoded in the
    /// peer's own dialect, so a v1 client never receives a 24-byte header.
    std::uint8_t wire_version = kProtocolVersion;
    /// False from a send() EAGAIN until poll reports POLLOUT: flushes park
    /// instead of retrying a full socket.
    bool write_ready = true;
    /// Output high-water reached — reads throttled until flush() resumes.
    bool read_paused = false;
    /// Interest mask currently registered with the poller.
    bool want_read = true;
    bool want_write = false;
    std::size_t conn_index = 0;  ///< slot in the owning loop's conns vector
    // --- shared with response callbacks ---
    rafiki::Mutex out_mutex;
    std::vector<std::uint8_t> obuf GUARDED_BY(out_mutex);
    std::size_t opos GUARDED_BY(out_mutex) = 0;
    /// Response/error frames currently buffered in obuf — the flush that
    /// drains the buffer credits them to the batch-size counters.
    std::size_t obuf_frames GUARDED_BY(out_mutex) = 0;
    /// True while the connection sits in the mailbox or a loop flush list;
    /// the first writer to queue output posts, later ones piggyback.
    bool flush_queued GUARDED_BY(out_mutex) = false;
    /// Relaxed mirror of obuf.size() - opos, so the loop's read path can
    /// check the high-water mark without taking out_mutex.
    std::atomic<std::size_t> obuf_bytes{0};
    /// Socket broken: discard output. Written and read on the owning loop
    /// thread only (handle_read / flush); atomic so that invariant is a
    /// tearing-safe implementation detail, not a correctness cliff.
    std::atomic<bool> dead{false};
    /// Incremented on the loop thread at submit or when a Predict joins the
    /// pending round; decremented by the service worker's completion
    /// callback, or by the loop when the round is answered (release) —
    /// idle()/should_close() load with acquire to order against the
    /// callback's buffer writes.
    std::atomic<std::size_t> in_flight{0};
  };

  /// One decoded Predict waiting for its poll round's forward. Its request
  /// sits at the same index of Loop::round_requests.
  struct PendingPredict {
    Connection* conn;  ///< kept alive by Loop::round_conns
    std::uint64_t request_id;
    /// The peer's dialect when the frame arrived (wire_version may change
    /// before the round is answered).
    std::uint8_t version;
  };

  struct Loop {
    std::shared_ptr<Mailbox> mailbox;
    PollPoller poller;  ///< loop-thread after start()
    rafiki::Mutex incoming_mutex;
    /// Handoff from the acceptor.
    std::vector<ConnectionPtr> incoming GUARDED_BY(incoming_mutex);
    // --- loop-thread only ---
    std::vector<ConnectionPtr> conns;
    /// Connections the wait reported readable this pass.
    std::vector<ConnectionPtr> read_set;
    /// Connections with output to flush this pass (mailbox grabs, inline
    /// responses, POLLOUT resumptions); drained every pass.
    std::vector<ConnectionPtr> flush_set;
    std::vector<ConnectionPtr> grabbed;  ///< mailbox swap scratch
    std::vector<PollerEvent> events;     ///< wait() scratch
    // --- the pending Predict round (loop-thread only; empty between passes,
    // its buffers reused and never freed) ---
    std::vector<PendingPredict> pending;
    std::vector<serve::Request> round_requests;
    std::vector<serve::Response> round_responses;
    /// One reference per connection with pending Predicts (a connection's
    /// entries are contiguous: its frames are decoded in one go).
    std::vector<ConnectionPtr> round_conns;
    serve::PredictScratch scratch;
    /// Decode time of the round's first Predict (wire-latency telemetry).
    std::chrono::steady_clock::time_point round_start{};
    std::thread thread;
  };

  void loop_main(std::size_t index);
  void adopt_incoming(Loop& loop);
  /// Registers a freshly accepted/adopted connection with the loop's poller.
  /// Closes it on registration failure.
  void register_conn(Loop& loop, ConnectionPtr conn);
  void do_accept(Loop& loop);
  /// Turns loop.events into this pass's read/flush lists and drains the
  /// waker. True if the listener fired.
  bool dispatch_events(Loop& loop);
  /// Moves mailbox.dirty into loop.flush_set.
  void grab_mailbox(Loop& loop);
  /// Reads + decodes + submits for every connection in read_set, answers
  /// the pass's Predict round, then clears read_set.
  void read_pass(Loop& loop);
  /// Flushes and clears flush_set, closing connections that finished.
  void flush_pass(Loop& loop);
  /// The draining pass's full sweep: answer racing bytes, flush, and close
  /// idle connections once the grace deadline passes (old behavior, now
  /// event-driven between sweeps).
  void drain_sweep(Loop& loop, std::chrono::steady_clock::time_point deadline);
  void handle_read(Loop& loop, Connection& conn);
  void process_frames(Loop& loop, const ConnectionPtr& conn);
  void handle_request(Loop& loop, const ConnectionPtr& conn, const Frame& frame);
  /// Adds a Predict to the loop's pending round; answers the round once it
  /// holds kMaxRoundRows.
  void defer_predict(Loop& loop, const ConnectionPtr& conn, const Frame& frame);
  /// Answers the pending round with one answer_predicts call, encodes each
  /// answer into its connection's output buffer and queues the flushes.
  void answer_round(Loop& loop);
  /// Encodes in the connection's wire_version, echoing the request's tenant.
  void queue_response(Loop& loop, Connection& conn, std::uint64_t request_id,
                      serve::Endpoint endpoint, const serve::Response& response,
                      serve::TenantId tenant);
  void queue_error(Loop& loop, Connection& conn, std::uint64_t request_id,
                   WireError error, serve::TenantId tenant = 0);
  void flush(Loop& loop, Connection& conn);
  /// Updates the poll interest mask if it changed.
  void set_interest(Loop& loop, Connection& conn, bool want_read, bool want_write);
  /// No pending work in either direction and the peer is still healthy —
  /// the draining loop's criterion for letting a connection go.
  bool idle(Connection& conn) const;
  bool should_close(Connection& conn) const;
  void close_connection(Loop& loop, Connection& conn);
  /// Swap-erases a closed connection from loop.conns (conn_index bookkeeping).
  void remove_conn(Loop& loop, Connection& conn);

  serve::TuningBackend& service_;
  ServerOptions options_;
  serve::ServiceStats& stats_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::vector<std::unique_ptr<Loop>> loops_;
  std::size_t next_loop_ = 0;  ///< acceptor-thread only (round robin)
  std::atomic<std::size_t> open_connections_{0};
  std::atomic<bool> draining_{false};
  mutable rafiki::Mutex lifecycle_mutex_;
  bool started_ GUARDED_BY(lifecycle_mutex_) = false;
  bool stopped_ GUARDED_BY(lifecycle_mutex_) = false;
  std::string last_error_ GUARDED_BY(lifecycle_mutex_);
};

}  // namespace rafiki::net
