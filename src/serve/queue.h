// Bounded multi-producer/multi-consumer queue with admission control: the
// serve layer's backpressure primitive. A full queue rejects immediately
// (try_push returns kFull -> the service answers Overloaded) instead of
// queuing unboundedly or blocking the producer. Consumers block on a
// condition variable; after close() they drain whatever is still queued and
// then observe std::nullopt. Nothing a request *returns* depends on these
// waits, so the determinism contract is untouched. The request queue and
// the RetrainWorker's backlog are both this class.
//
// Hot-path discipline (the shard de-scaling fix, DESIGN.md §5d):
//   * try_push takes an rvalue and moves from it ONLY on kOk — a rejected
//     item is handed back intact, so the sharded spill loop can retry the
//     same callback on a sibling shard without ever copying it.
//   * Producers notify AFTER releasing the mutex, and only when a consumer
//     is actually blocked (waiters_ > 0): a hot queue whose consumers are
//     spinning or mid-drain costs zero futex syscalls per push.
//   * Consumers spin briefly on a relaxed size hint before taking the lock
//     (pop), so under sustained load they never sleep-wake per request. The spin is disabled on single-hardware-thread machines,
//     where it could only steal cycles from the producer.
//
// The locking discipline is a compile-time contract (util/sync.h): every
// mutable field is GUARDED_BY(mutex_) and take_locked() REQUIRES it, so an
// unlocked access is a build error under the `tsa` preset. The atomic
// hints (size_hint_, closed_hint_, waiters_) are deliberately outside that
// contract: they are advisory, every decision is re-checked under mutex_,
// and the mutex provides the happens-before edge the relaxed loads ride on.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <thread>
#include <utility>

#include "util/sync.h"

namespace rafiki::serve {

/// Why a try_push was (not) admitted, decided atomically under the queue
/// lock. A separate closed() probe after a failed push would race with a
/// concurrent close() and misreport a full queue as shutting down.
enum class PushResult : std::uint8_t {
  kOk = 0,
  /// At capacity (and not closed) at the instant of the push.
  kFull,
  /// close() had already happened; no new work is admitted.
  kClosed,
};

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity ? capacity : 1) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Admission control: enqueues and returns kOk, or reports — without
  /// blocking — why the item was turned away. The reason is decided under
  /// the same lock that rejected the push, so it cannot be contradicted by
  /// a concurrent close(). `item` is moved from ONLY on kOk; on kFull /
  /// kClosed it is left exactly as passed, so callers can retry elsewhere
  /// (the sharded spill path) without copying.
  PushResult try_push(T&& item) {
    {
      MutexLock lock(mutex_);
      if (closed_) return PushResult::kClosed;
      if (items_.size() >= capacity_) return PushResult::kFull;
      items_.push_back(std::move(item));
      size_hint_.store(items_.size(), std::memory_order_relaxed);
    }
    // Wake outside the lock, and only when someone is actually blocked: the
    // woken consumer acquires an uncontended mutex, and a spinning/draining
    // consumer costs the producer nothing at all. A consumer only blocks
    // after re-checking emptiness under the lock and bumping waiters_ while
    // holding it, so a push that lands afterwards is guaranteed to observe
    // the incremented count (mutex release/acquire orders the relaxed load).
    if (waiters_.load(std::memory_order_relaxed) > 0) ready_.notify_one();
    return PushResult::kOk;
  }

  /// Blocks until an item is available or the queue is closed and drained.
  std::optional<T> pop() {
    spin_for_hint();
    MutexLock lock(mutex_);
    if (!closed_ && items_.empty()) {
      waiters_.fetch_add(1, std::memory_order_relaxed);
      while (!closed_ && items_.empty()) ready_.wait(mutex_);
      waiters_.fetch_sub(1, std::memory_order_relaxed);
    }
    return take_locked();
  }

  /// Non-blocking pop.
  std::optional<T> try_pop() {
    MutexLock lock(mutex_);
    return take_locked();
  }

  /// Stops admitting; waiting consumers wake, drain the backlog, then see
  /// std::nullopt.
  void close() {
    {
      MutexLock lock(mutex_);
      closed_ = true;
    }
    closed_hint_.store(true, std::memory_order_relaxed);
    // Unconditional: close is rare and must reach every blocked consumer.
    ready_.notify_all();
  }

  bool closed() const {
    MutexLock lock(mutex_);
    return closed_;
  }
  /// Lock-free advisory closed() (relaxed): for callers that answer without
  /// pushing and only need to honour a close that already happened.
  bool closed_hint() const noexcept { return closed_hint_.load(std::memory_order_relaxed); }

  std::size_t size() const {
    MutexLock lock(mutex_);
    return items_.size();
  }

  /// Lock-free approximate depth (relaxed; may lag concurrent pushes/pops
  /// by a few items). Telemetry sampling only — admission decisions always
  /// go through try_push's locked check.
  std::size_t approx_size() const noexcept {
    return size_hint_.load(std::memory_order_relaxed);
  }

  std::size_t capacity() const noexcept { return capacity_; }

 private:
  std::optional<T> take_locked() REQUIRES(mutex_) {
    if (items_.empty()) return std::nullopt;
    std::optional<T> item(std::move(items_.front()));
    items_.pop_front();
    size_hint_.store(items_.size(), std::memory_order_relaxed);
    return item;
  }

  /// Hybrid spin-then-wait: burn a few dozen PAUSE iterations on the size
  /// hint before paying a mutex + condvar sleep. Under sustained load the
  /// next item lands within the spin window and the consumer never blocks;
  /// on an idle queue the spin bounds the wasted work to ~a microsecond.
  void spin_for_hint() const noexcept {
    for (std::uint32_t i = spin_iterations(); i > 0; --i) {
      if (size_hint_.load(std::memory_order_relaxed) > 0 ||
          closed_hint_.load(std::memory_order_relaxed)) {
        return;
      }
      cpu_relax();
    }
  }

  static void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }

  static std::uint32_t spin_iterations() noexcept {
    // On a single hardware thread the producer cannot make progress while a
    // consumer spins — go straight to the blocking wait there.
    static const std::uint32_t iterations =
        std::thread::hardware_concurrency() > 1 ? 128 : 0;
    return iterations;
  }

  const std::size_t capacity_;
  mutable Mutex mutex_;
  CondVar ready_;
  std::deque<T> items_ GUARDED_BY(mutex_);
  bool closed_ GUARDED_BY(mutex_) = false;
  /// Advisory mirrors of the guarded state for the lock-free fast paths;
  /// updated under mutex_, read relaxed (see header comment).
  std::atomic<std::size_t> size_hint_{0};
  std::atomic<bool> closed_hint_{false};
  /// Consumers currently blocked in a condvar wait. Incremented under
  /// mutex_ before the wait releases it, so producers that push later are
  /// ordered after the increment and cannot skip a needed notify.
  std::atomic<std::uint32_t> waiters_{0};
};

}  // namespace rafiki::serve
