// RetrainWorker and the stale-while-revalidate ObserveWindow path: lifecycle
// edges (stop-before-start, stop with a retrain in flight, drain vs cancel),
// per-bucket coalescing of duplicate requests into one GA run, the
// stale-then-fresh window sequence under an injected clock, tuned entries
// buffered until the first real snapshot publish, and the tuner's internal
// synchronization under concurrent on_window/prefetch callers (a tsan probe).
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <future>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/online.h"
#include "core/rafiki.h"
#include "engine/params.h"
#include "serve/retrain.h"
#include "serve/service.h"
#include "serve/snapshot.h"

namespace rafiki::serve {
namespace {

// ---------------------------------------------------------------------------
// RetrainWorker alone, driven by an instrumented RunFn.

class WorkerHarness {
 public:
  RetrainWorker::RunFn fn() {
    return [this](int bucket, double /*read_ratio*/) {
      gate_.wait();
      std::lock_guard<std::mutex> lock(mutex_);
      ++runs_[bucket];
    };
  }

  /// Blocks every run until release() — keeps tasks deterministically
  /// queued/in-flight while the test enqueues more.
  void hold() { gate_.close(); }
  void release() { gate_.open(); }

  int runs(int bucket) {
    std::lock_guard<std::mutex> lock(mutex_);
    return runs_[bucket];
  }
  int total_runs() {
    std::lock_guard<std::mutex> lock(mutex_);
    int total = 0;
    for (const auto& [bucket, count] : runs_) total += count;
    return total;
  }

 private:
  class Gate {
   public:
    void close() {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = false;
    }
    void open() {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        open_ = true;
      }
      cv_.notify_all();
    }
    void wait() {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] { return open_; });
    }

   private:
    std::mutex mutex_;
    std::condition_variable cv_;
    bool open_ = true;
  };

  Gate gate_;
  std::mutex mutex_;
  std::map<int, int> runs_;
};

TEST(RetrainWorker, StopBeforeStartCancelsBacklogWithoutLosingFutures) {
  WorkerHarness harness;
  ServiceStats stats;
  RetrainWorker worker(harness.fn(), {}, &stats);

  const auto a = worker.enqueue(1, 0.1);
  const auto b = worker.enqueue(2, 0.2);
  ASSERT_EQ(a.result, RetrainEnqueue::kEnqueued);
  ASSERT_EQ(b.result, RetrainEnqueue::kEnqueued);
  EXPECT_EQ(worker.depth(), 2u);

  worker.stop(/*drain=*/false);  // never started: nothing may hang
  EXPECT_EQ(a.done.get(), RetrainOutcome::kCancelled);
  EXPECT_EQ(b.done.get(), RetrainOutcome::kCancelled);
  EXPECT_EQ(harness.total_runs(), 0);
  EXPECT_EQ(stats.retrain_counters().cancelled, 2u);
  EXPECT_EQ(stats.retrain_counters().runs, 0u);

  // After stop, enqueues report kStopped with an already-resolved future.
  const auto late = worker.enqueue(3, 0.3);
  EXPECT_EQ(late.result, RetrainEnqueue::kStopped);
  EXPECT_EQ(late.done.get(), RetrainOutcome::kCancelled);
  worker.wait_idle();  // returns immediately on a stopped worker
}

TEST(RetrainWorker, DrainStopRunsTheQueuedBacklog) {
  WorkerHarness harness;
  ServiceStats stats;
  RetrainWorker worker(harness.fn(), {}, &stats);
  std::vector<RetrainWorker::Ticket> tickets;
  for (int bucket = 1; bucket <= 3; ++bucket) {
    tickets.push_back(worker.enqueue(bucket, 0.1 * bucket));
  }
  worker.start();
  worker.stop(/*drain=*/true);
  for (auto& ticket : tickets) EXPECT_EQ(ticket.done.get(), RetrainOutcome::kCompleted);
  EXPECT_EQ(harness.total_runs(), 3);
  EXPECT_EQ(stats.retrain_counters().runs, 3u);
  EXPECT_EQ(stats.retrain_counters().cancelled, 0u);
}

TEST(RetrainWorker, CancelStopFinishesInFlightTaskButDropsQueued) {
  WorkerHarness harness;
  harness.hold();
  ServiceStats stats;
  RetrainWorker worker(harness.fn(), {}, &stats);
  worker.start();

  const auto in_flight = worker.enqueue(1, 0.1);
  // Wait until the worker picked task 1 up (depth drops to 0; the run is
  // blocked on the gate), then queue a second bucket behind it.
  while (worker.depth() != 0) std::this_thread::yield();
  const auto queued = worker.enqueue(2, 0.2);
  ASSERT_EQ(queued.result, RetrainEnqueue::kEnqueued);

  std::thread stopper([&] { worker.stop(/*drain=*/false); });
  // Only open the gate once the stop request is registered — otherwise the
  // worker could finish task 1 and legitimately pick task 2 up before the
  // cancel lands.
  while (!worker.stopping()) std::this_thread::yield();
  harness.release();
  stopper.join();

  // The in-flight run always completes; the queued one is cancelled.
  EXPECT_EQ(in_flight.done.get(), RetrainOutcome::kCompleted);
  EXPECT_EQ(queued.done.get(), RetrainOutcome::kCancelled);
  EXPECT_EQ(harness.runs(1), 1);
  EXPECT_EQ(harness.runs(2), 0);
  EXPECT_EQ(stats.retrain_counters().cancelled, 1u);
}

TEST(RetrainWorker, SameBucketRequestsCoalesceIntoOneRun) {
  WorkerHarness harness;
  harness.hold();  // nothing completes until every enqueue landed
  ServiceStats stats;
  RetrainWorker worker(harness.fn(), {}, &stats);
  worker.start();

  const auto first = worker.enqueue(7, 0.7);
  const auto dup1 = worker.enqueue(7, 0.7);
  const auto dup2 = worker.enqueue(7, 0.7);
  const auto other = worker.enqueue(8, 0.8);
  const auto dup3 = worker.enqueue(8, 0.8);
  ASSERT_EQ(first.result, RetrainEnqueue::kEnqueued);
  EXPECT_EQ(dup1.result, RetrainEnqueue::kCoalesced);
  EXPECT_EQ(dup2.result, RetrainEnqueue::kCoalesced);
  ASSERT_EQ(other.result, RetrainEnqueue::kEnqueued);
  EXPECT_EQ(dup3.result, RetrainEnqueue::kCoalesced);

  harness.release();
  worker.wait_idle();
  // N same-bucket requests -> one run per bucket; duplicates shared the
  // pending task's future.
  EXPECT_EQ(harness.runs(7), 1);
  EXPECT_EQ(harness.runs(8), 1);
  EXPECT_EQ(dup1.done.get(), RetrainOutcome::kCompleted);
  EXPECT_EQ(dup3.done.get(), RetrainOutcome::kCompleted);
  EXPECT_EQ(stats.retrain_counters().runs, 2u);
  EXPECT_EQ(stats.retrain_counters().coalesced, 3u);
  worker.stop();
}

TEST(RetrainWorker, FullQueueRejectsButCoalescingStillWins) {
  WorkerHarness harness;
  ServiceStats stats;
  RetrainOptions options;
  options.queue_capacity = 1;
  RetrainWorker worker(harness.fn(), options, &stats);  // never started

  ASSERT_EQ(worker.enqueue(1, 0.1).result, RetrainEnqueue::kEnqueued);
  // Queue full: a *new* bucket is rejected (future pre-resolved kCancelled)…
  const auto rejected = worker.enqueue(2, 0.2);
  EXPECT_EQ(rejected.result, RetrainEnqueue::kRejected);
  EXPECT_EQ(rejected.done.get(), RetrainOutcome::kCancelled);
  // …but a duplicate of the pending bucket still coalesces — it needs no slot.
  EXPECT_EQ(worker.enqueue(1, 0.1).result, RetrainEnqueue::kCoalesced);
  EXPECT_EQ(stats.retrain_counters().rejected, 1u);
  worker.stop(/*drain=*/false);
}

// ---------------------------------------------------------------------------
// Service-level: stale-while-revalidate against a real trained pipeline.

class ServeRetrain : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    core::RafikiOptions options;
    options.workload_grid = {0.2, 0.8};
    options.n_configs = 5;
    options.collect.measure.ops = 3000;
    options.collect.measure.warmup_ops = 300;
    options.ensemble.n_nets = 3;
    options.ensemble.train.max_epochs = 30;
    options.ga.generations = 6;
    options.ga.population = 10;
    rafiki_ = new core::Rafiki(options);
    rafiki_->set_key_params(engine::key_params());
    rafiki_->train(rafiki_->collect());
    ASSERT_TRUE(rafiki_->trained());
  }

  static void TearDownTestSuite() {
    delete rafiki_;
    rafiki_ = nullptr;
  }

  static Request window_request(double read_ratio) {
    Request request;
    request.endpoint = Endpoint::kObserveWindow;
    request.read_ratio = read_ratio;
    return request;
  }

  static core::Rafiki* rafiki_;
};

core::Rafiki* ServeRetrain::rafiki_ = nullptr;

TEST_F(ServeRetrain, StaleThenFreshSequenceUnderInjectedClock) {
  auto clock = std::make_shared<std::atomic<Tick>>(0);
  ServiceOptions options;
  options.workers = 1;
  options.clock_fn = [clock] { return clock->load(); };
  core::OnlineTuner tuner(*rafiki_);
  TuningService service(options);
  service.publish(make_snapshot(*rafiki_));
  service.attach_tuner(tuner);
  service.start();

  // t=0: cache miss — served stale, instantly, within its deadline.
  auto request = window_request(0.8);
  request.deadline = 5;
  const auto stale = service.call(request);
  ASSERT_TRUE(stale.ok());
  EXPECT_TRUE(stale.stale);
  EXPECT_FALSE(stale.reconfigured);
  EXPECT_EQ(stale.config, engine::Config::defaults());

  // The same request past its virtual deadline is expired before any tuner
  // work — deadline triage still runs ahead of the observe path.
  clock->store(6);
  EXPECT_EQ(service.call(request).status, Status::kDeadlineExceeded);

  // Background optimization lands; the next window is fresh and adopts the
  // tuned config in the republished snapshot version.
  service.wait_retrain_idle();
  const auto fresh = service.call(window_request(0.8));
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh.stale);
  EXPECT_TRUE(fresh.reconfigured);
  EXPECT_EQ(fresh.model_version, 2u);
  const auto snapshot = service.snapshot();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(fresh.config, snapshot->tuned.at(tuner.bucket_for(0.8)).config);
  EXPECT_EQ(tuner.optimizer_runs(), 1u);
  service.stop();
}

TEST_F(ServeRetrain, SameBucketWindowsCoalesceIntoOneGaRun) {
  ServiceOptions options;
  options.workers = 2;
  core::OnlineTuner tuner(*rafiki_);
  TuningService service(options);
  service.publish(make_snapshot(*rafiki_));
  service.attach_tuner(tuner);

  // Queue a burst of same-bucket windows before any worker runs, then start:
  // however the request workers interleave, the bucket is optimized exactly
  // once (pending-task coalescing, or the memo cache once it landed).
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 8; ++i) futures.push_back(service.submit(window_request(0.8)));
  service.start();
  for (auto& future : futures) EXPECT_TRUE(future.get().ok());

  service.wait_retrain_idle();
  EXPECT_EQ(tuner.optimizer_runs(), 1u);
  EXPECT_EQ(service.stats().retrain_counters().runs, 1u);
  const auto final_window = service.call(window_request(0.8));
  EXPECT_FALSE(final_window.stale);
  service.stop();
}

TEST_F(ServeRetrain, TunedEntriesBufferUntilFirstRealPublish) {
  ServiceOptions options;
  options.workers = 1;
  core::OnlineTuner tuner(*rafiki_);
  TuningService service(options);
  service.attach_tuner(tuner);  // note: nothing published yet
  service.start();

  // ObserveWindow works off the tuner's own pipeline, so it serves (stale)
  // even with no snapshot; the background optimization completes…
  const auto stale = service.call(window_request(0.2));
  ASSERT_TRUE(stale.ok());
  EXPECT_TRUE(stale.stale);
  service.wait_retrain_idle();
  EXPECT_EQ(tuner.optimizer_runs(), 1u);

  // …but no version was minted around an untrained default snapshot.
  EXPECT_EQ(service.model_version(), 0u);
  EXPECT_EQ(service.snapshot(), nullptr);

  // The first real publish folds the buffered tuned entry in.
  EXPECT_EQ(service.publish(make_snapshot(*rafiki_)), 1u);
  const auto snapshot = service.snapshot();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->tuned.count(tuner.bucket_for(0.2)), 1u);
  service.stop();
}

TEST_F(ServeRetrain, PrefetchRoutesThroughTheRetrainWorker) {
  ServiceOptions options;
  options.workers = 1;
  core::OnlineTuner tuner(*rafiki_);
  TuningService service(options);
  service.publish(make_snapshot(*rafiki_));
  service.attach_tuner(tuner);
  service.start();

  // prefetch() with the async hook set enqueues instead of optimizing on the
  // calling thread; the result republishes exactly like an observe miss.
  tuner.prefetch(0.8);
  service.wait_retrain_idle();
  EXPECT_TRUE(tuner.cached(0.8));
  EXPECT_EQ(tuner.optimizer_runs(), 1u);
  EXPECT_EQ(service.model_version(), 2u);
  const auto snapshot = service.snapshot();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->tuned.count(tuner.bucket_for(0.8)), 1u);

  // The prefetched regime's first window is already fresh.
  const auto window = service.call(window_request(0.8));
  ASSERT_TRUE(window.ok());
  EXPECT_FALSE(window.stale);
  EXPECT_TRUE(window.reconfigured);

  // A re-prefetch of a cached bucket is a no-op, not a new retrain.
  tuner.prefetch(0.8);
  service.wait_retrain_idle();
  EXPECT_EQ(tuner.optimizer_runs(), 1u);
  service.stop();
}

TEST_F(ServeRetrain, OutOfRangeReadRatiosClampIntoTheBoundedMemo) {
  ServiceOptions options;
  options.workers = 1;
  core::OnlineTuner tuner(*rafiki_);
  TuningService service(options);
  service.publish(make_snapshot(*rafiki_));
  service.attach_tuner(tuner);
  service.start();

  // The wire accepts any finite read ratio. Each entry point clamps it into
  // [0, 1] first, so hostile values land on the edge buckets instead of
  // minting a GA run and a memo entry per distinct value.
  const std::vector<double> ratios = {-5.0, 1.7, 42.0, 1e300, -1e300};
  for (double rr : ratios) {
    EXPECT_TRUE(service.call(window_request(rr)).ok()) << rr;
    tuner.prefetch(rr);
    service.wait_retrain_idle();
  }
  const auto buckets = tuner.memo()->buckets();
  EXPECT_LE(buckets.size(), 11u);
  EXPECT_LE(tuner.optimizer_runs(), 11u);
  for (int bucket : buckets) {
    EXPECT_GE(bucket, 0);
    EXPECT_LE(bucket, 10);
  }
  EXPECT_EQ(buckets, (std::vector<int>{0, 10}));
  EXPECT_EQ(tuner.optimizer_runs(), 2u);
  EXPECT_EQ(tuner.bucket_for(-1e300), 0);
  EXPECT_EQ(tuner.bucket_for(1e300), 10);
  service.stop();
}

TEST_F(ServeRetrain, ConcurrentOnWindowAndPrefetchAreRaceFree) {
  // Satellite regression (tsan probe): standalone tuner — no service, no
  // async hook, so misses optimize inline — hammered by concurrent
  // on_window and prefetch callers. Before the tuner was internally
  // synchronized this raced on cache_/optimizer_runs_.
  core::OnlineTuner tuner(*rafiki_);
  const std::vector<double> ratios = {0.15, 0.45, 0.85};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 9; ++i) tuner.on_window(ratios[static_cast<std::size_t>(i) % 3]);
    });
    threads.emplace_back([&] {
      for (int i = 0; i < 9; ++i) tuner.prefetch(ratios[static_cast<std::size_t>(i) % 3]);
    });
  }
  for (auto& thread : threads) thread.join();

  // Every regime ended up cached, and coalescing kept the GA to at most one
  // run per bucket.
  for (double rr : ratios) EXPECT_TRUE(tuner.cached(rr));
  EXPECT_LE(tuner.optimizer_runs(), ratios.size());
  EXPECT_GE(tuner.optimizer_runs(), 1u);
}

}  // namespace
}  // namespace rafiki::serve
