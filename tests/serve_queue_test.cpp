// BoundedQueue: the serve layer's admission-control primitive. The contract
// under test — a full queue rejects immediately (never blocks the producer),
// FIFO ordering, close() wakes blocked consumers and drains the backlog —
// is what the service's Overloaded / ShuttingDown semantics are built on.
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "serve/queue.h"

namespace rafiki::serve {
namespace {

TEST(BoundedQueue, RejectsWhenFullWithoutBlocking) {
  BoundedQueue<int> queue(3);
  EXPECT_EQ(PushResult::kOk, queue.try_push(1));
  EXPECT_EQ(PushResult::kOk, queue.try_push(2));
  EXPECT_EQ(PushResult::kOk, queue.try_push(3));
  EXPECT_EQ(queue.size(), 3u);

  // Admission control: the fourth push returns immediately with false.
  EXPECT_EQ(queue.try_push(4), PushResult::kFull);
  EXPECT_EQ(queue.size(), 3u);

  // Draining one slot re-opens admission.
  EXPECT_EQ(queue.try_pop().value(), 1);
  EXPECT_EQ(PushResult::kOk, queue.try_push(4));
  EXPECT_EQ(queue.try_push(5), PushResult::kFull);
}

TEST(BoundedQueue, FifoOrder) {
  BoundedQueue<int> queue(8);
  for (int i = 0; i < 8; ++i) {
    int item = i;
    ASSERT_EQ(PushResult::kOk, queue.try_push(std::move(item)));
  }
  for (int i = 0; i < 8; ++i) EXPECT_EQ(queue.try_pop().value(), i);
  EXPECT_FALSE(queue.try_pop().has_value());
}

TEST(BoundedQueue, ZeroCapacityClampsToOne) {
  BoundedQueue<int> queue(0);
  EXPECT_EQ(queue.capacity(), 1u);
  EXPECT_EQ(PushResult::kOk, queue.try_push(1));
  EXPECT_EQ(queue.try_push(2), PushResult::kFull);
}

TEST(BoundedQueue, CloseRejectsNewWorkButDrainsBacklog) {
  BoundedQueue<int> queue(4);
  ASSERT_EQ(PushResult::kOk, queue.try_push(10));
  ASSERT_EQ(PushResult::kOk, queue.try_push(11));
  queue.close();
  EXPECT_TRUE(queue.closed());
  EXPECT_EQ(queue.try_push(12), PushResult::kClosed);

  // Consumers still see everything queued before the close, then nullopt.
  EXPECT_EQ(queue.pop().value(), 10);
  EXPECT_EQ(queue.pop().value(), 11);
  EXPECT_FALSE(queue.pop().has_value());
}

TEST(BoundedQueue, PushReportsClosedOverFullAtomically) {
  // Regression for the submit-path TOCTOU: the rejection reason must come
  // from the failed push itself, not a separate closed() probe. A queue that
  // is both full and closed reports kClosed; full-but-open reports kFull.
  BoundedQueue<int> queue(1);
  ASSERT_EQ(PushResult::kOk, queue.try_push(1));
  EXPECT_EQ(queue.try_push(2), PushResult::kFull);
  queue.close();
  EXPECT_EQ(queue.try_push(3), PushResult::kClosed);
  // Draining does not reopen admission once closed.
  EXPECT_EQ(queue.try_pop().value(), 1);
  EXPECT_EQ(queue.try_push(4), PushResult::kClosed);
}

TEST(BoundedQueue, CloseWakesBlockedConsumers) {
  BoundedQueue<int> queue(2);
  std::vector<std::thread> consumers;
  std::vector<std::optional<int>> results(3);
  for (std::size_t i = 0; i < results.size(); ++i) {
    consumers.emplace_back([&queue, &results, i] { results[i] = queue.pop(); });
  }
  ASSERT_EQ(PushResult::kOk, queue.try_push(7));
  queue.close();
  for (auto& consumer : consumers) consumer.join();

  int delivered = 0;
  for (const auto& result : results) {
    if (result.has_value()) {
      EXPECT_EQ(*result, 7);
      ++delivered;
    }
  }
  EXPECT_EQ(delivered, 1);
}

TEST(BoundedQueue, RejectedPushLeavesItemIntact) {
  // The sharded spill contract: try_push moves from its argument ONLY on
  // kOk, so a rejected item (move-only payload included) can be retried on a
  // sibling queue without ever being copied — and without arriving there
  // moved-from.
  BoundedQueue<std::unique_ptr<int>> full(1);
  ASSERT_EQ(PushResult::kOk, full.try_push(std::make_unique<int>(1)));

  auto payload = std::make_unique<int>(42);
  EXPECT_EQ(full.try_push(std::move(payload)), PushResult::kFull);
  ASSERT_NE(payload, nullptr) << "kFull must not consume the item";
  EXPECT_EQ(*payload, 42);

  BoundedQueue<std::unique_ptr<int>> closed(1);
  closed.close();
  EXPECT_EQ(closed.try_push(std::move(payload)), PushResult::kClosed);
  ASSERT_NE(payload, nullptr) << "kClosed must not consume the item";
  EXPECT_EQ(*payload, 42);

  // The spill destination gets the original, intact.
  BoundedQueue<std::unique_ptr<int>> sibling(1);
  EXPECT_EQ(PushResult::kOk, sibling.try_push(std::move(payload)));
  EXPECT_EQ(payload, nullptr);
  EXPECT_EQ(**sibling.try_pop(), 42);
}

TEST(BoundedQueue, ApproxSizeTracksLockedSize) {
  BoundedQueue<int> queue(8);
  EXPECT_EQ(queue.approx_size(), 0u);
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(PushResult::kOk, queue.try_push(std::move(i)));
    EXPECT_EQ(queue.approx_size(), queue.size());
  }
  (void)queue.try_pop();
  EXPECT_EQ(queue.approx_size(), 4u);
}

TEST(BoundedQueue, ConcurrentProducersConsumersDeliverEverythingOnce) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 200;
  BoundedQueue<int> queue(16);

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        int item = p * kPerProducer + i;
        // try_push moves only on kOk, so retrying the same lvalue is sound.
        while (queue.try_push(std::move(item)) != PushResult::kOk) {
          std::this_thread::yield();
        }
      }
    });
  }

  std::vector<std::thread> consumers;
  std::vector<std::vector<int>> received(3);
  for (std::size_t c = 0; c < received.size(); ++c) {
    consumers.emplace_back([&queue, &received, c] {
      while (auto item = queue.pop()) received[c].push_back(*item);
    });
  }

  for (auto& producer : producers) producer.join();
  queue.close();
  for (auto& consumer : consumers) consumer.join();

  std::vector<int> seen(kProducers * kPerProducer, 0);
  for (const auto& per_consumer : received) {
    for (int item : per_consumer) ++seen[static_cast<std::size_t>(item)];
  }
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], 1) << "item " << i;
  }
}

}  // namespace
}  // namespace rafiki::serve
