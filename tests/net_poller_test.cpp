// PollPoller unit tests: level-triggered readiness per interest mask, the
// incremental registration bookkeeping (slot reuse after del), hangup
// reporting, and the Waker's wake-coalescing contract. These are the
// invariants net::Server leans on; the e2e suite exercises them only
// indirectly.
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "net/poller.h"

namespace rafiki::net {
namespace {

/// Nonblocking AF_UNIX stream pair; both ends closed by the destructor.
struct SocketPair {
  int a = -1;
  int b = -1;
  SocketPair() {
    int fds[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0,
                     fds) == 0) {
      a = fds[0];
      b = fds[1];
    }
  }
  ~SocketPair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
  void close_b() {
    ::close(b);
    b = -1;
  }
};

void write_byte(int fd) {
  const std::uint8_t byte = 0x5a;
  ASSERT_EQ(::send(fd, &byte, 1, MSG_NOSIGNAL), 1);
}

/// The event for `fd` out of one wait() pass, or nullptr.
const PollerEvent* find_event(const std::vector<PollerEvent>& events, int fd) {
  for (const auto& event : events) {
    if (event.fd == fd) return &event;
  }
  return nullptr;
}

TEST(PollPoller, ReportsReadinessPerInterestMaskAndHonorsMod) {
  PollPoller poller;

  SocketPair pair;
  ASSERT_GE(pair.a, 0);
  int tag_a = 0;
  ASSERT_TRUE(poller.add(pair.a, true, false, &tag_a));

  std::vector<PollerEvent> events;
  EXPECT_EQ(poller.wait(0, events), 0u);  // nothing pending yet

  write_byte(pair.b);
  events.clear();
  ASSERT_EQ(poller.wait(1000, events), 1u);
  EXPECT_EQ(events[0].fd, pair.a);
  EXPECT_EQ(events[0].data, &tag_a);
  EXPECT_TRUE(events[0].readable);

  // Level-triggered: unconsumed data re-reports on every wait.
  events.clear();
  ASSERT_EQ(poller.wait(0, events), 1u);
  EXPECT_TRUE(events[0].readable);

  // Interest mask off: pending data goes silent without being consumed.
  ASSERT_TRUE(poller.mod(pair.a, false, false));
  events.clear();
  EXPECT_EQ(poller.wait(0, events), 0u);

  // Write interest on a stream socket with buffer space: writable.
  ASSERT_TRUE(poller.mod(pair.a, false, true));
  events.clear();
  ASSERT_EQ(poller.wait(0, events), 1u);
  EXPECT_TRUE(events[0].writable);
  EXPECT_FALSE(events[0].readable);

  ASSERT_TRUE(poller.del(pair.a));
  EXPECT_FALSE(poller.del(pair.a));  // unknown now
  EXPECT_FALSE(poller.mod(pair.a, true, false));
  events.clear();
  EXPECT_EQ(poller.wait(0, events), 0u);
}

TEST(PollPoller, SlotReuseAfterSwapRemoveKeepsDataPointersStraight) {
  PollPoller poller;

  // Three registrations, delete the middle one (swap-remove moves the last
  // registration into its slot), then register a fourth: every event must
  // still carry the data pointer its fd was registered with.
  SocketPair p1;
  SocketPair p2;
  SocketPair p3;
  SocketPair p4;
  int tag1 = 1;
  int tag2 = 2;
  int tag3 = 3;
  int tag4 = 4;
  ASSERT_TRUE(poller.add(p1.a, true, false, &tag1));
  ASSERT_TRUE(poller.add(p2.a, true, false, &tag2));
  ASSERT_TRUE(poller.add(p3.a, true, false, &tag3));
  ASSERT_TRUE(poller.del(p2.a));
  ASSERT_TRUE(poller.add(p4.a, true, false, &tag4));

  write_byte(p1.b);
  write_byte(p2.b);  // deregistered: must not surface
  write_byte(p3.b);
  write_byte(p4.b);

  std::vector<PollerEvent> events;
  ASSERT_EQ(poller.wait(1000, events), 3u);
  EXPECT_EQ(find_event(events, p2.a), nullptr);
  const auto* e1 = find_event(events, p1.a);
  const auto* e3 = find_event(events, p3.a);
  const auto* e4 = find_event(events, p4.a);
  ASSERT_NE(e1, nullptr);
  ASSERT_NE(e3, nullptr);
  ASSERT_NE(e4, nullptr);
  EXPECT_EQ(e1->data, &tag1);
  EXPECT_EQ(e3->data, &tag3);
  EXPECT_EQ(e4->data, &tag4);
}

TEST(PollPoller, ReportsHangupWhenPeerCloses) {
  PollPoller poller;

  SocketPair pair;
  int tag = 0;
  ASSERT_TRUE(poller.add(pair.a, true, false, &tag));
  pair.close_b();

  std::vector<PollerEvent> events;
  ASSERT_GE(poller.wait(1000, events), 1u);
  const auto* event = find_event(events, pair.a);
  ASSERT_NE(event, nullptr);
  // POLLHUP (hangup) and/or POLLIN-for-EOF; either way the consumer's next
  // recv() sees the FIN. All that matters is that *something* is reported.
  EXPECT_TRUE(event->hangup || event->readable);
}

TEST(WakerTest, CoalescesWakesUntilDrainedThenReRings) {
  Waker waker;
  ASSERT_TRUE(waker.valid());

  const auto readable = [&]() -> bool {
    pollfd pfd{waker.read_fd(), POLLIN, 0};
    return ::poll(&pfd, 1, 0) == 1 && (pfd.revents & POLLIN) != 0;
  };

  EXPECT_FALSE(readable());  // newborn: no pending ring

  // Any number of wakes between two drains ring the fd exactly once; the
  // extra calls are the coalesced no-syscall path.
  waker.wake();
  waker.wake();
  waker.wake();
  EXPECT_TRUE(readable());

  waker.drain();
  EXPECT_FALSE(readable());  // fully swallowed in one drain

  // The coalescing window re-opens after a drain: the next wake rings again.
  waker.wake();
  EXPECT_TRUE(readable());
  waker.drain();
  EXPECT_FALSE(readable());
}

TEST(RetryEintr, LoopsOnEintrAndPassesOtherResultsThrough) {
  int attempts = 0;
  const auto flaky = [&]() -> long {
    if (++attempts < 3) {
      errno = EINTR;
      return -1;
    }
    return 42;
  };
  EXPECT_EQ(retry_eintr(flaky), 42);
  EXPECT_EQ(attempts, 3);

  attempts = 0;
  const auto failing = [&]() -> long {
    ++attempts;
    errno = ECONNRESET;
    return -1;
  };
  EXPECT_EQ(retry_eintr(failing), -1);
  EXPECT_EQ(errno, ECONNRESET);
  EXPECT_EQ(attempts, 1);  // only EINTR retries
}

}  // namespace
}  // namespace rafiki::net
