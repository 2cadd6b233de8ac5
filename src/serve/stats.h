// Thread-safe service telemetry: per-endpoint latency histograms (reusing
// util/histogram bin layout for the p50/p99 quantiles), admission/rejection/
// QPS counters, queue-depth samples, and the micro-batcher's mean batch
// size. Dumpable through the repo's standard ASCII-table/CSV
// renderer. Latencies are wall-clock measurements and reporting-only: no
// request result depends on them.
//
// The record path is lock-free by construction. Writers land on one of a
// small number of *stripes* — slabs of relaxed atomics selected by a
// per-thread slot — so concurrent workers never contend on a mutex (the
// pre-stripe design serialized every record_* call on one lock, which showed
// up as the flat 1→8-client scaling curve in BENCH_serve.json). Readers
// aggregate across stripes on demand (merge-on-read).
//
// Memory-ordering contract:
//   * Every record_* increment is a relaxed atomic RMW; every read-side
//     aggregation is a relaxed load. Individual counters are never torn and
//     never lost.
//   * No ordering is promised BETWEEN counters: a reader racing a writer may
//     observe `completed` ahead of `accepted`, or a histogram total that
//     lags its bins. Monotone per-counter, eventually consistent overall.
//   * Exact totals (e.g. `accepted == completed` after drain) hold once the
//     reader has a real happens-before edge over the writers — joining the
//     worker pool (TuningService::stop) or any acquire/release handoff.
//     Tests and benches read after stop()/join and therefore see exact
//     values; live dashboards see a crossing-lag of at most a few ops.
//   * Every atomic op in this file names its ordering explicitly (the
//     kRelaxed alias) — enforced tree-wide for src/serve/ and src/net/ by
//     the `memory-order` rule in tools/check_determinism.py, so a future
//     edit cannot silently fall back to seq_cst or, worse, look ordered
//     without being chosen. There are no locks below the stripes; this
//     file is the leaf of the lock hierarchy (DESIGN.md §5e).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "serve/types.h"
#include "util/histogram.h"
#include "util/table.h"

namespace rafiki::serve {

struct Telemetry;

class ServiceStats {
 public:
  ServiceStats();

  ServiceStats(const ServiceStats&) = delete;
  ServiceStats& operator=(const ServiceStats&) = delete;

  struct Counters {
    std::uint64_t accepted = 0;
    std::uint64_t completed = 0;
    std::uint64_t ok = 0;
    /// Turned away at admission: the bounded queue was full. Only
    /// record_reject touches this — never accepted work.
    std::uint64_t rejected_overload = 0;
    std::uint64_t rejected_deadline = 0;
    std::uint64_t not_ready = 0;
    /// Turned away at admission: the service was already stopping.
    std::uint64_t rejected_shutdown = 0;
    /// Accepted, then finished with kShuttingDown (e.g. drained by stop()
    /// with no worker). Distinct from rejected_shutdown so admission-reject
    /// columns stay truthful and `accepted == completed` after drain.
    std::uint64_t failed_shutdown = 0;
    /// Accepted, then finished with kOverloaded (not currently produced by
    /// any path; kept so the failed-after-accept split is total).
    std::uint64_t failed_overload = 0;
    /// Responses served with Response::stale set (kObserveWindow only): the
    /// cache-missed window answered with the previous config while a
    /// background optimization was pending.
    std::uint64_t stale = 0;

    void merge(const Counters& other) noexcept;
  };

  /// Background-retrain telemetry (the RetrainWorker's counters).
  struct RetrainCounters {
    std::uint64_t runs = 0;       ///< tasks executed by the worker thread
    std::uint64_t rejected = 0;   ///< enqueues dropped on a full retrain queue
    std::uint64_t cancelled = 0;  ///< queued tasks cancelled at shutdown
  };

  /// Fleet-admission telemetry (the tenant::TenantFleet's fairness counters):
  /// how many requests each admission stage turned away before the backend
  /// ever saw them. `admitted + quota_rejected + inflight_rejected +
  /// unknown_tenant` equals the number of try_submit calls that reached the
  /// fleet (exact after a happens-before edge, like every counter here).
  struct FleetCounters {
    std::uint64_t admitted = 0;           ///< passed tenant admission control
    std::uint64_t quota_rejected = 0;     ///< token-bucket rate limit (Overloaded)
    std::uint64_t inflight_rejected = 0;  ///< per-tenant in-flight cap (Overloaded)
    std::uint64_t unknown_tenant = 0;     ///< tenant id outside the fleet (NotReady)
  };

  /// Wire-level telemetry from the RPC front-end (net::Server). Folded into
  /// the same sink as the request counters so one stats object describes the
  /// whole serving process.
  struct WireCounters {
    std::uint64_t connections_accepted = 0;
    std::uint64_t connections_closed = 0;
    std::uint64_t frames_in = 0;   ///< well-formed frames decoded off sockets
    std::uint64_t frames_out = 0;  ///< response + error frames queued for write
    /// Malformed frames (bad magic/version/length/enum/payload). Recoverable
    /// ones are answered with an error frame; fatal ones close the connection.
    std::uint64_t decode_errors = 0;
    std::uint64_t error_frames_sent = 0;
    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
    /// Write-coalescing telemetry: one "flush" is one per-connection drain
    /// attempt that issued at least one send(); `flushed_frames` counts the
    /// response/error frames those drains completed, so flushed_frames /
    /// flushes is the mean wire batch size and flush_syscalls / frames_out
    /// is the syscall cost per frame.
    std::uint64_t flushes = 0;
    std::uint64_t flush_syscalls = 0;
    std::uint64_t flushed_frames = 0;
    /// Flushes that hit EAGAIN (partial write parked for writability).
    std::uint64_t flush_eagain = 0;
    /// Connections still open: accepted - closed.
    std::uint64_t active() const noexcept { return connections_accepted - connections_closed; }
    double frames_per_flush() const noexcept {
      return flushes != 0 ? static_cast<double>(flushed_frames) / static_cast<double>(flushes)
                          : 0.0;
    }
    double flush_syscalls_per_frame() const noexcept {
      return frames_out != 0
                 ? static_cast<double>(flush_syscalls) / static_cast<double>(frames_out)
                 : 0.0;
    }
  };

  /// Merge-on-read view of one endpoint: every stripe of this stats object
  /// folded together. fold_into merges these across stats objects (the
  /// router's and every shard's) into one Telemetry value.
  struct EndpointAggregate {
    EndpointAggregate();
    Counters counters;
    Histogram latency;
    Histogram wire_latency;
    std::uint64_t latency_count = 0;
    double latency_sum = 0.0;
    std::uint64_t wire_count = 0;
    double wire_sum = 0.0;

    double mean_latency_us() const noexcept;
    /// Folds another shard's aggregate in (every histogram has the same
    /// fixed layout).
    void merge(const EndpointAggregate& other) noexcept;
  };

  /// A request passed admission control; `queue_depth` is sampled just after.
  void record_accept(Endpoint endpoint, std::size_t queue_depth);
  /// A request was turned away at admission (Overloaded / ShuttingDown).
  void record_reject(Endpoint endpoint, Status reason);
  /// A request ran (or was triaged) by a worker; latency is queue + service
  /// time in microseconds.
  void record_done(Endpoint endpoint, Status status, double latency_us);
  /// `count` requests answered on the caller's thread, never queued
  /// (TuningBackend::answer_predicts): each counts as accepted and completed
  /// with `status`, all with the round's latency. No queue-depth sample.
  void record_answered(Endpoint endpoint, Status status, std::size_t count,
                       double latency_us);
  /// One batched Predict forward ran over this many rows (a worker
  /// micro-batch, or one tenant group of an answer_predicts round).
  void record_batch(std::size_t batch_size);
  /// A stale-marked response was served on this endpoint.
  void record_stale(Endpoint endpoint);

  // --- wire-level recording (called by net::Server) ---
  void record_connection_open();
  void record_connection_close();
  /// Bytes moved on sockets, counted per read()/write() chunk.
  void record_wire_read(std::size_t bytes);
  void record_wire_write(std::size_t bytes);
  void record_frame_in();
  void record_frame_out();
  void record_decode_error();
  void record_error_frame();
  /// Wire-side latency (decode -> response queued for write) per endpoint.
  void record_wire_latency(Endpoint endpoint, double latency_us);
  /// One per-connection flush: `frames` completed in `syscalls` send()s
  /// (frames is 0 when the drain parked on EAGAIN — the completing flush
  /// credits them); `hit_eagain` marks a partial write.
  void record_wire_flush(std::size_t frames, std::size_t syscalls, bool hit_eagain);

  // --- fleet-admission recording (called by tenant::TenantFleet) ---
  void record_tenant_admit();
  void record_quota_reject();
  void record_inflight_reject();
  void record_unknown_tenant();

  /// One background retrain task finished; latency is the task's run time.
  void record_retrain(double latency_us);
  void record_retrain_rejected();
  void record_retrain_cancelled();

  Counters counters(Endpoint endpoint) const;
  Counters totals() const;
  EndpointAggregate endpoint_aggregate(Endpoint endpoint) const;
  RetrainCounters retrain_counters() const;
  FleetCounters fleet_counters() const;
  WireCounters wire_counters() const;
  double wire_latency_quantile(Endpoint endpoint, double q) const;
  double latency_quantile(Endpoint endpoint, double q) const;
  double mean_batch_size() const;
  double mean_queue_depth() const;
  double max_queue_depth() const;
  std::uint64_t batches() const;

  /// Adds everything this object recorded into `out`: per-endpoint
  /// aggregates, retrain counters and latency sums, batch rows and counts,
  /// fleet and wire counters. The one fold every backend's telemetry() is
  /// built from; load rows, spills and rebalances are the backend's own.
  void fold_into(Telemetry& out) const;

  /// Per-endpoint summary table ("endpoint | accepted | ok | overloaded |
  /// deadline | p50 | p99 | mean"); render() / to_csv() for output.
  Table table() const;
  /// Wire-level summary ("metric | value" rows: connections, frames, bytes,
  /// decode errors, per-endpoint wire p50/p99).
  Table wire_table() const;

 private:
  /// Relaxed-atomic count/sum/max accumulator (the striped stand-in for the
  /// old Welford OnlineStats; only mean/max/count were ever consumed).
  struct AtomicAccum {
    std::atomic<std::uint64_t> n{0};
    std::atomic<double> sum{0.0};
    std::atomic<double> max{0.0};
    /// `count` samples of value x.
    void add(double x, std::uint64_t count = 1) noexcept {
      n.fetch_add(count, std::memory_order_relaxed);
      sum.fetch_add(x * static_cast<double>(count), std::memory_order_relaxed);
      double seen = max.load(std::memory_order_relaxed);
      while (x > seen &&
             !max.compare_exchange_weak(seen, x, std::memory_order_relaxed)) {
      }
    }
  };

  /// Relaxed-atomic fixed-bin histogram with the same bin layout as
  /// util/Histogram (uniform [lo, hi), clamped edges).
  struct AtomicHist {
    AtomicHist(double lo, double hi, std::size_t bins);
    void add(double x, std::uint64_t count = 1) noexcept;
    /// Folds this stripe's bins into a plain histogram (relaxed loads).
    void merge_into(Histogram& out) const noexcept;
    double lo;
    double hi;
    double width;
    std::vector<std::atomic<std::uint64_t>> bins;
  };

  enum CtrIdx : std::size_t {
    kIdxAccepted = 0,
    kIdxCompleted,
    kIdxOk,
    kIdxRejOverload,
    kIdxRejDeadline,
    kIdxNotReady,
    kIdxRejShutdown,
    kIdxFailedShutdown,
    kIdxFailedOverload,
    kIdxStale,
    kCtrCount,
  };

  enum WireIdx : std::size_t {
    kIdxConnOpen = 0,
    kIdxConnClosed,
    kIdxFramesIn,
    kIdxFramesOut,
    kIdxDecodeErr,
    kIdxErrFrames,
    kIdxBytesIn,
    kIdxBytesOut,
    kIdxFlushes,
    kIdxFlushSyscalls,
    kIdxFlushedFrames,
    kIdxFlushEagain,
    kWireCount,
  };

  struct EndpointStripe {
    EndpointStripe();
    std::array<std::atomic<std::uint64_t>, kCtrCount> counters{};
    AtomicHist latency;
    AtomicAccum latency_stats;
    AtomicHist wire_latency;
    AtomicAccum wire_stats;
  };

  /// One writer slab. alignas keeps separate stripes off each other's cache
  /// lines; within a stripe, (mostly) one thread writes. Endpoint slabs sit
  /// behind unique_ptr because atomics make them non-movable.
  struct alignas(64) Stripe {
    Stripe();
    std::vector<std::unique_ptr<EndpointStripe>> per_endpoint;  // kEndpointCount
    /// One add per batched Predict forward: n counts batches, sum their rows.
    AtomicAccum batch_stats;
    AtomicAccum depth_stats;
    std::array<std::atomic<std::uint64_t>, kWireCount> wire{};
  };

  /// Counts `count` completions with `status` and latency into one stripe.
  static void add_completions(EndpointStripe& per, Status status, std::uint64_t count,
                              double latency_us) noexcept;
  Stripe& stripe() noexcept;
  EndpointStripe& endpoint_stripe(Endpoint endpoint) noexcept {
    return *stripe().per_endpoint[static_cast<std::size_t>(endpoint)];
  }
  std::uint64_t sum_counter(Endpoint endpoint, std::size_t idx) const noexcept;
  void add_wire_counters(WireCounters& out) const noexcept;
  void fill_counters(Endpoint endpoint, Counters& out) const noexcept;

  std::vector<std::unique_ptr<Stripe>> stripes_;

  // Retrain telemetry is written by one background thread plus low-rate
  // enqueuers: plain (unstriped) relaxed atomics are contention-free enough.
  std::array<std::atomic<std::uint64_t>, 3> retrain_counters_{};
  // Fleet admission telemetry: written on the front-end's submit path, but
  // behind a per-tenant quota check that already does an atomic RMW — one
  // more unstriped relaxed counter does not change the contention picture.
  std::array<std::atomic<std::uint64_t>, 4> fleet_counters_{};
  AtomicAccum retrain_stats_;
};

/// Load accounting for one shard (the single service is a one-row list).
struct ShardLoad {
  std::uint64_t predict_completed = 0;
  std::size_t workers = 0;  ///< planned pool size, after any router budgeting
  /// CPU time of exited workers; exact only after stop() joins the pool.
  std::uint64_t worker_cpu_us = 0;
  double mean_queue_depth = 0.0;  ///< sampled at each queued admission
  double max_queue_depth = 0.0;
  std::size_t retrain_depth = 0;  ///< retrain tasks queued at read time
};

/// A backend's telemetry as one plain value: every ServiceStats it owns
/// folded by ServiceStats::fold_into (a single service's own; the router's
/// wire-level object, then each shard's), one load row per shard, and the
/// router's spill and rebalance counts. Built on each telemetry() call, so
/// the ServiceStats memory-ordering contract applies: exact after stop().
struct Telemetry {
  Telemetry();

  /// One aggregate per Endpoint, in enum order. Admission verdicts are
  /// summed as recorded, so a spilled request counts one Overloaded reject
  /// at its home shard and one accept at the sibling.
  std::vector<ServiceStats::EndpointAggregate> endpoints;
  ServiceStats::RetrainCounters retrain;
  double retrain_latency_sum_us = 0.0;  ///< over retrain.runs tasks
  std::uint64_t batch_rows = 0;  ///< Predict rows run through batched forwards
  std::uint64_t batches = 0;
  ServiceStats::FleetCounters fleet;
  ServiceStats::WireCounters wire;
  std::vector<ShardLoad> shards;
  std::uint64_t spills = 0;  ///< requests a sibling shard absorbed
  std::uint64_t rebalances = 0;

  const ServiceStats::Counters& counters(Endpoint endpoint) const noexcept {
    return endpoints[static_cast<std::size_t>(endpoint)].counters;
  }
  double latency_quantile(Endpoint endpoint, double q) const;
  /// Rows per batched forward over every shard (total rows / total batches).
  double mean_batch_size() const noexcept;
  double mean_retrain_latency_us() const noexcept;
  /// The per-endpoint table, same layout for every backend.
  Table table() const;
};

}  // namespace rafiki::serve
