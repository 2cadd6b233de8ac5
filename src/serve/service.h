// The concurrent tuning service (the "middleware" in the paper's title, as a
// long-running process): N worker threads answer Predict / Optimize /
// ObserveWindow requests from a bounded MPMC queue against the currently
// published model snapshot, and a caller with a whole round of Predicts in
// hand (the net::Server's poll round) gets them answered on its own thread.
//
//   * Admission control — a full queue rejects with Overloaded immediately;
//     producers never block past capacity. Each request carries a deadline
//     in injected-clock ticks, checked before execution.
//   * One Predict kernel, two callers — forward_rows triages deadlines,
//     groups the rows by tenant, and runs one batched ensemble evaluation
//     (SurrogateEnsemble::predict_batch_with_uncertainty) per group.
//     answer_predicts runs it on the caller's thread with no queue hand-off;
//     the worker micro-batcher runs it for in-process try_submit callers: a
//     worker that pops a Predict drains the Predicts queued behind it (up to
//     ServiceOptions::max_batch, stopping as soon as the queue is empty)
//     into one call.
//   * Versioned snapshots — publish() atomically swaps the model behind an
//     atomic shared_ptr; in-flight requests keep the version they started
//     with. A background retrain republishes with zero downtime.
//   * Async retraining — ObserveWindow is stale-while-revalidate: a cache
//     miss answers immediately with the current config (Response::stale set)
//     and the tuner's memo hands the bucket to a dedicated RetrainWorker
//     thread; the GA never runs on a request-path worker (serve/retrain.h).
//   * Telemetry — per-endpoint latency histograms, QPS / rejection /
//     queue-depth counters, mean batch size, retrain queue depth and mean
//     latency (serve/stats.h).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "opt/ga.h"
#include "serve/backend.h"
#include "serve/queue.h"
#include "serve/retrain.h"
#include "serve/snapshot.h"
#include "serve/stats.h"
#include "serve/types.h"
#include "util/sync.h"

namespace rafiki::core {
class OnlineTuner;
}

namespace rafiki::serve {

struct ServiceOptions {
  /// Tenant namespaces served by this instance (dense ids [0, tenants)).
  /// Every tenant gets its own snapshot slot, version counter, pending-tuned
  /// table and tuner pointer. 1 (the default) is exactly the original
  /// single-tenant service: tenant 0 is the default namespace pre-tenant
  /// callers land in. 0 is normalized to 1.
  std::size_t tenants = 1;
  /// Worker threads spawned by start(). 0 is valid (and useful in tests):
  /// requests queue deterministically until start() is called with workers.
  /// Inside a ShardedTuningService this is overwritten per shard from the
  /// fleet-level worker budget (ShardOptions::worker_budget) — a shard never
  /// sizes its own pool.
  std::size_t workers = 2;
  /// CPUs to pin worker threads to: worker i lands on
  /// cpu_affinity[i % cpu_affinity.size()]. Empty (the default) = no
  /// pinning. The sharded router fills this per shard when
  /// ShardOptions::pin_shards is set; ignored off Linux.
  std::vector<int> cpu_affinity;
  /// Bounded request queue capacity; the admission-control limit.
  std::size_t queue_capacity = 256;
  /// Worker micro-batcher: a queued Predict batch runs at this many
  /// coalesced requests, or as soon as the queue momentarily empties. Under
  /// load the queue is never empty and batches fill to max_batch; a lone
  /// client gets queue-depth-1 latency, never a wait for co-arrivals.
  /// answer_predicts rounds are sized by their caller instead.
  std::size_t max_batch = 32;
  /// Virtual clock for request deadlines. Deterministic by construction: the
  /// default never advances, so deadlines never expire unless a clock is
  /// injected (tests drive an atomic counter; a deployment would plug in a
  /// coarse ticker).
  std::function<Tick()> clock_fn;
  /// GA budget for the Optimize endpoint.
  opt::GaOptions ga{};
};

class TuningService : public TuningBackend {
 public:
  explicit TuningService(ServiceOptions options = {});
  ~TuningService() override;

  TuningService(const TuningService&) = delete;
  TuningService& operator=(const TuningService&) = delete;

  /// See TuningBackend::publish. Fans the snapshot out to every tenant slot
  /// (each slot stamps its own version); returns tenant 0's new version.
  std::uint64_t publish(ModelSnapshot snapshot) override;

  /// Per-tenant views (null / 0 for an out-of-range tenant).
  std::shared_ptr<const ModelSnapshot> tenant_snapshot(TenantId tenant) const override {
    return tenant < registries_.size() ? registries_[tenant].get() : nullptr;
  }
  std::uint64_t tenant_model_version(TenantId tenant) const override;

  /// Enables the ObserveWindow endpoint. The tuner (which must outlive this
  /// service) becomes stale-while-revalidate: its memo hands cache misses
  /// and prefetches to this service's background RetrainWorker, and
  /// its publish hook is pointed at the snapshot registry, so every freshly
  /// optimized config is republished as a new snapshot version. Call before
  /// start().
  void attach_tuner(core::OnlineTuner& tuner) override;

  /// Makes a tuner visible to one tenant's ObserveWindow path WITHOUT
  /// claiming the tuner's single-slot publish / async-optimize hooks: the
  /// sharded router installs fan-out hooks once and then binds the tuner to
  /// every shard through this. Pointer only.
  void bind_tenant_tuner(TenantId tenant, core::OnlineTuner& tuner);

  /// This service's background worker (the router's async-optimize
  /// target for the buckets this shard owns).
  RetrainWorker& retrain_worker() noexcept { return retrain_; }

  /// Publishes one tuned (bucket -> config) entry into `tenant`'s slot by
  /// copy-on-write republication of its current snapshot; every other
  /// tenant's served snapshot (pointer, version, configs) is untouched. The
  /// single-service publish hook and the sharded router's fan-out land here.
  void publish_tuned(TenantId tenant, int bucket, const engine::Config& config,
                     double predicted);

  /// See TuningBackend::try_submit.
  Status try_submit(Request request, ResponseCallback done) override;

  /// Spill-friendly admission: moves `done` into the queue ONLY on kOk. On
  /// Overloaded / ShuttingDown the callback is handed back in `done`
  /// exactly as passed, so the sharded router retries sibling shards with
  /// the same callback — zero copies, zero allocations per attempt (the
  /// pre-fix router copied the std::function once per attempt, including
  /// the common no-spill case).
  Status offer(const Request& request, ResponseCallback& done);

  /// See TuningBackend::answer_predicts: answer_rows over every request.
  void answer_predicts(std::span<const Request> requests, std::span<Response> responses,
                       PredictScratch& scratch) override;
  /// Answers the requests named by `rows` (indices into `requests` and
  /// `responses`; reordered in place, never narrowed) on the calling thread
  /// and credits them to this service's stats — the router's per-shard
  /// entry. After stop() every row answers ShuttingDown.
  void answer_rows(std::span<const Request> requests, std::span<Response> responses,
                   std::span<std::uint32_t> rows, PredictScratch& scratch);

  /// Spawns the worker pool (idempotent). Requests submitted before start()
  /// wait in the queue.
  void start() override;
  /// Closes admission, drains the backlog, joins workers, then stops the
  /// retrain worker (a running search completes, queued ones are
  /// cancelled). Queued requests are still answered (drained by the
  /// workers, or failed with ShuttingDown if no worker ever ran).
  /// Idempotent.
  void stop() override;

  const ServiceStats& stats() const noexcept override { return stats_; }
  /// Mutable stats handle for front-ends (the net::Server) that fold their
  /// wire-level telemetry into the same sink. ServiceStats is internally
  /// synchronized (lock-free striped atomics).
  ServiceStats& stats() noexcept override { return stats_; }
  /// This service's stats folded into a one-row shard list.
  Telemetry telemetry() const override;
  /// Adds this service's stats and its load row to `out` — the fold the
  /// router repeats for each of its shards.
  void fold_into(Telemetry& out) const;
  /// Planned worker-pool size (ServiceOptions::workers after any router
  /// budgeting) — the number start() spawns.
  std::size_t worker_count() const noexcept { return options_.workers; }
  /// The tuner bound to a tenant's ObserveWindow path (null when unbound or
  /// out of range).
  core::OnlineTuner* tenant_tuner(TenantId tenant) const noexcept {
    return tenant < tuners_.size() ? tuners_[tenant].load(std::memory_order_acquire)
                                   : nullptr;
  }
  /// Blocks until the background retrain worker is idle — the barrier tests
  /// and benches use to observe the post-republish state.
  void wait_retrain_idle() override { retrain_.wait_idle(); }
  const ServiceOptions& options() const noexcept { return options_; }

 private:
  struct Job {
    Request request;
    /// The single completion channel, armed for every job. submit() adapts
    /// its future through a shared promise inside a callback; jobs no
    /// longer carry an eagerly-allocated std::promise shared state (a heap
    /// allocation per request, paid even on the callback path).
    ResponseCallback done;
    std::chrono::steady_clock::time_point enqueued;
  };

  /// Per-worker buffers, reused across micro-batches: the popped jobs,
  /// their requests laid out for the kernel, and its answers.
  struct WorkerScratch {
    PredictScratch predict;
    std::vector<Job> batch;
    std::vector<Request> requests;
    std::vector<Response> responses;
  };

  void worker_loop(std::size_t worker_index);
  /// Optimize / ObserveWindow (every Predict goes through the batcher).
  void run_single(Job job);
  /// Runs scratch.batch through forward_rows and completes every job.
  void run_predict_batch(WorkerScratch& scratch);
  /// The Predict kernel: answers every request named by `rows` (reordered
  /// in place) — deadline triage, then one batched forward per tenant
  /// group against that tenant's snapshot. Records the forward's batch size
  /// only; completion stats are the caller's.
  void forward_rows(std::span<const Request> requests, std::span<Response> responses,
                    std::span<std::uint32_t> rows, PredictScratch& scratch);
  Response optimize(const Request& request) const;
  Response observe_window(const Request& request);
  void finish(Job& job, Response response);
  Tick now_tick() const { return options_.clock_fn ? options_.clock_fn() : 0; }
  bool expired(const Request& request, Tick now) const {
    return request.deadline != kNoDeadline && now > request.deadline;
  }
  std::uint64_t publish_locked(TenantId tenant, ModelSnapshot snapshot)
      REQUIRES(publish_mutex_);

  ServiceOptions options_;
  /// Per-tenant snapshot slots, indexed by TenantId (deque: a
  /// SnapshotRegistry is immovable, and the slot set is fixed at
  /// construction). All slots share publish_mutex_; readers are lock-free.
  std::deque<SnapshotRegistry> registries_;
  Mutex publish_mutex_;
  /// Per-tenant version counters; each tenant's versions are monotonic in
  /// its own slot (publishes to tenant A never advance tenant B).
  std::vector<std::uint64_t> version_counters_ GUARDED_BY(publish_mutex_);
  /// Tuned entries published before any real snapshot exists are parked here
  /// (per tenant) instead of minting a version around a default-constructed,
  /// untrained ModelSnapshot; the tenant's first real publish folds them in.
  std::vector<std::map<int, TunedEntry>> pending_tuned_ GUARDED_BY(publish_mutex_);
  BoundedQueue<Job> queue_;
  ServiceStats stats_;
  RetrainWorker retrain_;
  /// Spawned under lifecycle_mutex_ in start(); joined lock-free in stop()
  /// after the stopped_ handshake (the workers drain the closed queue, so a
  /// join under the lock could wait on threads that are still serving).
  std::vector<std::thread> workers_;
  Mutex lifecycle_mutex_;
  bool started_ GUARDED_BY(lifecycle_mutex_) = false;
  bool stopped_ GUARDED_BY(lifecycle_mutex_) = false;
  /// Summed CPU time of exited workers (relaxed; exact after join).
  std::atomic<std::uint64_t> worker_cpu_us_{0};
  /// Per-tenant tuner pointers, indexed by TenantId; null until bound.
  std::deque<std::atomic<core::OnlineTuner*>> tuners_;
};

}  // namespace rafiki::serve
