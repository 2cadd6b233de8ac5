// Background retrain worker: the serve layer's guarantee that no GA (or,
// later, collect+train) ever runs on a request-path thread. ObserveWindow's
// stale-while-revalidate misses, and OnlineTuner::prefetch, enqueue
// (bucket, read_ratio) tasks here; a single dedicated thread runs them and
// the results flow back through the tuner's publish hook into the versioned
// SnapshotRegistry — so a regime change costs the request path one queue
// push, never an optimizer spike.
//
//   * Bounded task queue — a full retrain backlog drops the newest request
//     (retrying is free: the next stale window re-enqueues) instead of
//     growing unboundedly.
//   * Coalescing — requests for a bucket that already has a task pending
//     (queued or mid-run) share that task's completion future; N same-bucket
//     stale windows cost one GA run.
//   * Graceful shutdown — stop(drain=true) runs everything still queued,
//     stop(drain=false) cancels it; either way every future ever handed out
//     resolves (kCompleted or kCancelled), and an in-flight task always runs
//     to completion.
//   * Telemetry — queue depth (depth()), summed task latency, and
//     runs/coalesced/rejected/cancelled counters in ServiceStats.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <thread>

#include "serve/stats.h"
#include "serve/types.h"
#include "util/sync.h"

namespace rafiki::serve {

/// Composes the retrain coalescing key from a tenant namespace and a
/// read-ratio bucket. The tenant names whose tuner runs the task: tenants
/// whose tuners share one memo (a TenantFleet) all enqueue under the
/// memo's owning tenant, so their same-bucket requests coalesce; tuners
/// with private memos keep disjoint key-spaces.
constexpr std::uint64_t retrain_key(TenantId tenant, int bucket) noexcept {
  return (static_cast<std::uint64_t>(tenant) << 32) |
         static_cast<std::uint32_t>(bucket);
}
constexpr TenantId retrain_key_tenant(std::uint64_t key) noexcept {
  return static_cast<TenantId>(key >> 32);
}
constexpr int retrain_key_bucket(std::uint64_t key) noexcept {
  return static_cast<int>(static_cast<std::uint32_t>(key));
}

struct RetrainOptions {
  /// Bounded retrain backlog; enqueues beyond this are rejected (the caller
  /// simply stays stale until a later window re-requests the bucket).
  std::size_t queue_capacity = 64;
};

/// How an enqueue was disposed of, decided atomically under the worker lock.
enum class RetrainEnqueue : std::uint8_t {
  /// A new task was queued for this bucket.
  kEnqueued = 0,
  /// A task for this bucket was already pending (queued or running); the
  /// returned future is that task's.
  kCoalesced,
  /// The retrain queue was full; nothing was queued.
  kRejected,
  /// The worker was stopping or stopped; nothing was queued.
  kStopped,
};

/// How a task's future resolved.
enum class RetrainOutcome : std::uint8_t { kCompleted = 0, kCancelled };

class RetrainWorker {
 public:
  /// Runs one background optimization. Invoked on the worker thread only,
  /// with no worker lock held. `key` is the coalescing key — plain bucket
  /// numbers for a single-tenant service, retrain_key(tenant, bucket) for a
  /// fleet. (The serve layer points this at OnlineTuner::run_optimize, which
  /// itself coalesces already-cached buckets into a no-op.)
  using RunFn = std::function<void(std::uint64_t key, double read_ratio)>;

  /// `stats` may be null (no telemetry); when set it must outlive the worker.
  explicit RetrainWorker(RunFn run, RetrainOptions options = {},
                         ServiceStats* stats = nullptr);
  ~RetrainWorker();

  RetrainWorker(const RetrainWorker&) = delete;
  RetrainWorker& operator=(const RetrainWorker&) = delete;

  struct Ticket {
    RetrainEnqueue result = RetrainEnqueue::kStopped;
    /// Always valid. Already satisfied (kCancelled) for kRejected/kStopped
    /// tickets, so callers can wait unconditionally.
    std::shared_future<RetrainOutcome> done;
    bool accepted() const noexcept {
      return result == RetrainEnqueue::kEnqueued || result == RetrainEnqueue::kCoalesced;
    }
  };

  /// Requests a background optimization for this coalescing key. Never
  /// blocks and never runs the optimizer on the calling thread.
  Ticket enqueue(std::uint64_t key, double read_ratio);

  /// Spawns the worker thread (idempotent; no-op after stop()).
  void start();

  /// Stops the worker. drain=true finishes the queued backlog first;
  /// drain=false cancels it (their futures resolve kCancelled). A task
  /// already mid-run always completes either way. Idempotent; safe before
  /// start(), in which case the backlog is cancelled.
  void stop(bool drain = true);

  /// Queued tasks not yet picked up by the worker.
  std::size_t depth() const;
  /// True once stop() has been requested (it may still be joining/draining).
  bool stopping() const;
  /// Blocks until no task is queued or running (or the worker stopped) —
  /// the "background tuning has settled" barrier tests and benches need.
  void wait_idle();

 private:
  struct Task {
    std::uint64_t key = 0;
    double read_ratio = 0.0;
    std::promise<RetrainOutcome> promise;
    std::shared_future<RetrainOutcome> future;
  };

  static Ticket finished_ticket(RetrainEnqueue result);
  void loop();

  RunFn run_;
  RetrainOptions options_;
  ServiceStats* stats_;

  mutable Mutex mutex_;
  CondVar ready_;
  CondVar idle_;
  std::deque<Task> tasks_ GUARDED_BY(mutex_);
  /// key -> pending task's future; covers queued AND currently-running
  /// tasks, so same-key requests coalesce for the task's whole lifetime.
  std::map<std::uint64_t, std::shared_future<RetrainOutcome>> pending_ GUARDED_BY(mutex_);
  /// Spawned under mutex_ in start(); joined lock-free in stop() after the
  /// stopping_ handshake (joining under the lock would deadlock the loop).
  /// start()/stop() are lifecycle calls — concurrent start+stop is a caller
  /// contract violation, exactly as with the raw std::thread before.
  std::thread thread_;
  bool started_ GUARDED_BY(mutex_) = false;
  bool stopping_ GUARDED_BY(mutex_) = false;
  bool stopped_ GUARDED_BY(mutex_) = false;
  bool drain_on_stop_ GUARDED_BY(mutex_) = true;
  bool running_ GUARDED_BY(mutex_) = false;  // the worker is executing a task right now
};

}  // namespace rafiki::serve
