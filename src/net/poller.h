// net::PollPoller — the IO-readiness engine behind net::Server: a persistent,
// level-triggered ::poll() set. The pollfd array is maintained incrementally
// (add/mod/del), never rebuilt per pass; the kernel scans every registered fd
// on each wait, and every wait re-reports readiness that is still pending, so
// the consumer keeps no readiness memory of its own beyond "parked on EAGAIN".
//
// Waker lifecycle: the Waker below is the cross-thread doorbell (eventfd on
// Linux, a pipe elsewhere). Producers may hold it past the consumer's exit —
// the server ref-counts it — so it owns its fds and wake() stays safe after
// the loop stops reading. A relaxed-free pending flag coalesces wake
// syscalls: any number of producer wakes between two consumer drains cost
// one write().
#pragma once

#include <poll.h>

#include <atomic>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace rafiki::net {

/// One ready fd out of PollPoller::wait(). `data` is whatever the caller
/// registered; `fd` disambiguates registrations that share a data pointer
/// (the server's waker/listener sentinels).
struct PollerEvent {
  int fd = -1;
  void* data = nullptr;
  bool readable = false;
  bool writable = false;
  /// POLLERR/POLLHUP/POLLNVAL. The consumer should attempt a read: it
  /// surfaces the error/EOF through the normal recv() path.
  bool hangup = false;
};

/// Readiness multiplexer. fd -> slot lookups go through a dense vector (fds
/// are small integers), so add/mod/del are O(1). Not thread-safe: one loop
/// thread owns an instance (registration, waits, and teardown all happen
/// there).
class PollPoller {
 public:
  /// Registers fd with the want_* interest mask (adjust later via mod()).
  /// False if fd is negative or already registered.
  bool add(int fd, bool want_read, bool want_write, void* data);
  /// Updates the interest mask. False if fd is unknown.
  bool mod(int fd, bool want_read, bool want_write);
  /// Deregisters fd. Call before close(): a closed fd would poison the set.
  /// False if fd is unknown.
  bool del(int fd);
  /// Blocks up to timeout_ms (-1 = forever, 0 = non-blocking) and appends
  /// ready fds to `out` (which is not cleared). Returns the number appended.
  /// EINTR reports as 0 events so the caller re-evaluates deadlines instead
  /// of silently restarting the full timeout.
  std::size_t wait(int timeout_ms, std::vector<PollerEvent>& out);

 private:
  int slot_of(int fd) const noexcept;

  std::vector<pollfd> pfds_;
  std::vector<void*> data_;  ///< parallel to pfds_
  std::vector<int> slots_;   ///< fd -> index into pfds_, -1 = unregistered
};

/// Cross-thread doorbell for an IO loop: eventfd on Linux, a pipe elsewhere.
/// wake() is safe from any thread and after the consuming loop has exited;
/// drain() belongs to the single consumer thread.
class Waker {
 public:
  Waker();
  ~Waker();
  Waker(const Waker&) = delete;
  Waker& operator=(const Waker&) = delete;

  bool valid() const noexcept { return read_fd_ >= 0; }
  /// The fd the consumer registers for read readiness.
  int read_fd() const noexcept { return read_fd_; }

  /// Rouses the consumer. Coalesced: while a previous wake is still
  /// undrained, this is a single atomic exchange and no syscall.
  void wake() noexcept;
  /// Consumer side: swallow pending wake bytes and re-open the coalescing
  /// window. Must be called every time the read fd reports readable.
  void drain() noexcept;

 private:
  int read_fd_ = -1;
  /// Equals read_fd_ when backed by an eventfd; the pipe's write end
  /// otherwise.
  int write_fd_ = -1;
  /// True from a producer's wake() until the consumer's next drain().
  /// Exchanges on both sides (acq_rel) keep the RMW chain on this flag
  /// totally ordered, which is what makes skipping the syscall safe: a
  /// producer that reads `true` knows the corresponding wake byte has not
  /// been consumed by a completed drain yet.
  std::atomic<bool> pending_{false};
};

/// Retries fn() while it fails with EINTR. Every raw byte-moving syscall in
/// src/net/ (send/recv/accept4/read/write) goes through this; poll instead
/// surfaces EINTR as "0 events" so callers re-evaluate drain deadlines
/// rather than restarting the full timeout.
template <typename Fn>
auto retry_eintr(Fn&& fn) -> decltype(fn()) {
  for (;;) {
    const auto r = fn();
    if (r >= 0 || errno != EINTR) return r;
  }
}

}  // namespace rafiki::net
