// Background retrain worker: the serve layer's guarantee that no GA (or,
// later, collect+train) ever runs on a request-path thread. ObserveWindow's
// stale-while-revalidate misses, and OnlineTuner::prefetch, hand
// (tuner, read_ratio) tasks here through the tuner's async-optimize hook; a
// single dedicated thread pops them from a BoundedQueue and runs them, and
// the results flow back through the tuner's publish hook into the versioned
// SnapshotRegistry — so a regime change costs the request path one queue
// push, never an optimizer spike.
//
//   * No coalescing here — the tuner's TuneMemo hands a bucket off only when
//     it is neither handed off nor in flight, so N same-bucket stale windows
//     (from any tenant sharing the memo) already arrive as one task.
//   * Bounded backlog — a full queue refuses the task (enqueue returns
//     false) instead of growing; the memo leaves the bucket unmarked, so the
//     next stale window hands it off again.
//   * Shutdown cancels — stop() cancels whatever is still queued (each
//     cancelled search is handed back to its memo, unmarked); a task already
//     running always completes.
//   * Telemetry — queue depth (depth()), summed task latency, and
//     runs/rejected/cancelled counters in ServiceStats.
//
// Locking: enqueue() touches only the queue's own mutex, because the memo
// calls it with its lock held (DESIGN.md §5e). The worker's mutex_ guards
// only the lifecycle flags and the idle barrier.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>

#include "serve/queue.h"
#include "serve/stats.h"
#include "util/sync.h"

namespace rafiki::core {
class OnlineTuner;
}

namespace rafiki::serve {

/// Retrain backlog bound. Refusal is cheap — the caller stays stale until a
/// later window hands the bucket off again — so it only caps memory.
inline constexpr std::size_t kRetrainQueueCapacity = 64;

class RetrainWorker {
 public:
  /// One background job: the search of `tuner`'s bucket for `read_ratio`
  /// (OnlineTuner::run_optimize), or `run` when it is set.
  struct Task {
    core::OnlineTuner* tuner = nullptr;
    double read_ratio = 0.0;
    std::function<void()> run;
  };

  /// `stats` may be null (no telemetry); when set it must outlive the worker.
  explicit RetrainWorker(ServiceStats* stats = nullptr);
  ~RetrainWorker();

  RetrainWorker(const RetrainWorker&) = delete;
  RetrainWorker& operator=(const RetrainWorker&) = delete;

  /// Queues a task; never blocks and never runs it on the calling thread.
  /// Returns false when the backlog is full (counted as rejected) or the
  /// worker is stopping.
  bool enqueue(Task task);

  /// Spawns the worker thread (idempotent; no-op after stop()).
  void start();

  /// Stops the worker: a task already running completes, every queued one
  /// is cancelled. Idempotent; safe before start(), which cancels the
  /// whole backlog.
  void stop();

  /// Queued tasks not yet picked up by the worker.
  std::size_t depth() const { return queue_.size(); }
  /// True once stop() has been requested (it may still be joining).
  bool stopping() const noexcept { return stopping_.load(std::memory_order_relaxed); }
  /// Blocks until every accepted task has run or been cancelled (or the
  /// worker stopped) — the "background tuning has settled" barrier tests
  /// and benches need.
  void wait_idle();

 private:
  void loop();
  void run(Task& task);
  void cancel(Task& task);
  /// Counts one task as run or cancelled and wakes wait_idle().
  void settle();

  ServiceStats* stats_;
  BoundedQueue<Task> queue_{kRetrainQueueCapacity};
  /// Tasks ever accepted; written after a successful push, without mutex_.
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<bool> stopping_{false};

  Mutex mutex_;
  CondVar idle_;
  /// Tasks run or cancelled; wait_idle() waits for it to reach accepted_.
  std::uint64_t settled_ GUARDED_BY(mutex_) = 0;
  /// Spawned under mutex_ in start(); joined lock-free in stop() after the
  /// stopping_ handshake. start()/stop() are lifecycle calls — concurrent
  /// start+stop is a caller contract violation.
  std::thread thread_;
  bool started_ GUARDED_BY(mutex_) = false;
  bool stopped_ GUARDED_BY(mutex_) = false;
};

}  // namespace rafiki::serve
