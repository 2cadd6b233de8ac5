#include "net/poller.h"

#include <fcntl.h>
#include <unistd.h>

#ifdef __linux__
#include <sys/eventfd.h>
#endif

namespace rafiki::net {
namespace {

short interest_mask(bool want_read, bool want_write) noexcept {
  short events = 0;
  if (want_read) events = static_cast<short>(events | POLLIN);
  if (want_write) events = static_cast<short>(events | POLLOUT);
  return events;
}

}  // namespace

bool PollPoller::add(int fd, bool want_read, bool want_write, void* data) {
  if (fd < 0 || slot_of(fd) >= 0) return false;
  if (static_cast<std::size_t>(fd) >= slots_.size()) {
    slots_.resize(static_cast<std::size_t>(fd) + 1, -1);
  }
  slots_[static_cast<std::size_t>(fd)] = static_cast<int>(pfds_.size());
  pfds_.push_back({fd, interest_mask(want_read, want_write), 0});
  data_.push_back(data);
  return true;
}

bool PollPoller::mod(int fd, bool want_read, bool want_write) {
  const int slot = slot_of(fd);
  if (slot < 0) return false;
  pfds_[static_cast<std::size_t>(slot)].events = interest_mask(want_read, want_write);
  return true;
}

bool PollPoller::del(int fd) {
  const int slot = slot_of(fd);
  if (slot < 0) return false;
  const std::size_t s = static_cast<std::size_t>(slot);
  const std::size_t last = pfds_.size() - 1;
  if (s != last) {
    pfds_[s] = pfds_[last];
    data_[s] = data_[last];
    slots_[static_cast<std::size_t>(pfds_[s].fd)] = slot;
  }
  pfds_.pop_back();
  data_.pop_back();
  slots_[static_cast<std::size_t>(fd)] = -1;
  return true;
}

std::size_t PollPoller::wait(int timeout_ms, std::vector<PollerEvent>& out) {
  const int n = ::poll(pfds_.data(), pfds_.size(), timeout_ms);
  if (n <= 0) return 0;  // timeout, or EINTR reported as no events
  std::size_t appended = 0;
  for (std::size_t i = 0; i < pfds_.size() && appended < static_cast<std::size_t>(n); ++i) {
    const short revents = pfds_[i].revents;
    if (revents == 0) continue;
    PollerEvent ev;
    ev.fd = pfds_[i].fd;
    ev.data = data_[i];
    ev.readable = (revents & POLLIN) != 0;
    ev.writable = (revents & POLLOUT) != 0;
    ev.hangup = (revents & (POLLERR | POLLHUP | POLLNVAL)) != 0;
    out.push_back(ev);
    ++appended;
  }
  return appended;
}

int PollPoller::slot_of(int fd) const noexcept {
  if (fd < 0 || static_cast<std::size_t>(fd) >= slots_.size()) return -1;
  return slots_[static_cast<std::size_t>(fd)];
}

Waker::Waker() {
#ifdef __linux__
  const int efd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (efd >= 0) {
    read_fd_ = efd;
    write_fd_ = efd;
    return;
  }
#endif
  int fds[2];
  if (::pipe2(fds, O_NONBLOCK | O_CLOEXEC) == 0) {
    read_fd_ = fds[0];
    write_fd_ = fds[1];
  }
}

Waker::~Waker() {
  if (read_fd_ >= 0) ::close(read_fd_);
  if (write_fd_ >= 0 && write_fd_ != read_fd_) ::close(write_fd_);
}

void Waker::wake() noexcept {
  // The RMW chain on pending_ is totally ordered: reading `false` means the
  // doorbell is quiet and exactly one producer (us) rings it; reading `true`
  // means an un-drained ring is already pending, so the consumer is
  // guaranteed a wakeup without another syscall.
  if (pending_.exchange(true, std::memory_order_acq_rel)) return;
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = retry_eintr(
      [&] { return ::write(write_fd_, &one, write_fd_ == read_fd_ ? sizeof one : 1); });
  // A full pipe already guarantees a pending wakeup; the result is moot.
}

void Waker::drain() noexcept {
  // Swallow the ring(s) first, then re-open the coalescing window: a
  // producer observing pending_ == true afterwards raced this drain and its
  // work is consumed by the pass that called us; one observing false rings
  // fresh. Clearing before reading would let a ring land between the clear
  // and the read and be swallowed with no pending flag left — a lost wakeup.
  std::uint64_t sink[32];
  while (retry_eintr([&] { return ::read(read_fd_, sink, sizeof sink); }) > 0) {
  }
  pending_.exchange(false, std::memory_order_acq_rel);
}

}  // namespace rafiki::net
