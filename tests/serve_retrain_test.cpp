// RetrainWorker and the stale-while-revalidate ObserveWindow path: lifecycle
// edges (stop-before-start, stop with a retrain in flight), the memo's
// one-hand-off-per-bucket coalescing, refused and cancelled hand-offs
// leaving their bucket free to hand off again, the stale-then-fresh window
// sequence under an injected clock, tuned entries buffered until the first
// real snapshot publish, and the tuner's internal synchronization under
// concurrent on_window/prefetch callers (a tsan probe).
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <future>
#include <map>
#include <memory>
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

/// The trained smoke pipeline every test here shares (built once).
core::Rafiki& pipeline() {
  static core::Rafiki* rafiki = [] {
    core::RafikiOptions options;
    options.workload_grid = {0.2, 0.8};
    options.n_configs = 5;
    options.collect.measure.ops = 3000;
    options.collect.measure.warmup_ops = 300;
    options.ensemble.n_nets = 3;
    options.ensemble.train.max_epochs = 30;
    options.ga.generations = 6;
    options.ga.population = 10;
    auto* built = new core::Rafiki(options);
    built->set_key_params(engine::key_params());
    built->train(built->collect());
    return built;
  }();
  return *rafiki;
}

// ---------------------------------------------------------------------------
// RetrainWorker, driven by instrumented closure tasks and by tuners whose
// async-optimize hook counts its calls.

class WorkerHarness {
 public:
  /// A closure task that records one run of `bucket`.
  RetrainWorker::Task task(int bucket) {
    RetrainWorker::Task task;
    task.run = [this, bucket] {
      gate_.wait();
      std::lock_guard<std::mutex> lock(mutex_);
      ++runs_[bucket];
    };
    return task;
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

/// Points a tuner's async-optimize hook at `worker`, counting every call
/// (accepted or refused) in `calls`.
void hand_off_to(core::OnlineTuner& tuner, RetrainWorker& worker, std::atomic<int>& calls) {
  tuner.set_async_optimize_hook([&tuner, &worker, &calls](int, double read_ratio) {
    calls.fetch_add(1, std::memory_order_relaxed);
    return worker.enqueue({&tuner, read_ratio, {}});
  });
}

TEST(RetrainWorker, StopBeforeStartCancelsTheBacklogAndUnmarksItsBuckets) {
  WorkerHarness harness;
  ServiceStats stats;
  RetrainWorker worker(&stats);
  core::OnlineTuner tuner(pipeline());
  std::atomic<int> calls{0};
  hand_off_to(tuner, worker, calls);

  tuner.prefetch(0.1);
  tuner.prefetch(0.1);  // pending: the memo does not hand it off again
  ASSERT_TRUE(worker.enqueue(harness.task(2)));
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(worker.depth(), 2u);

  worker.stop();  // never started: nothing may hang, nothing may run
  EXPECT_EQ(harness.total_runs(), 0);
  EXPECT_EQ(tuner.optimizer_runs(), 0u);
  EXPECT_EQ(stats.retrain_counters().cancelled, 2u);
  EXPECT_EQ(stats.retrain_counters().runs, 0u);
  EXPECT_TRUE(worker.stopping());

  // The cancelled search left its bucket unmarked, so the next miss hands
  // it off again; a stopped worker refuses it without counting a rejection,
  // and the refusal leaves the bucket unmarked too.
  tuner.prefetch(0.1);
  tuner.prefetch(0.1);
  EXPECT_EQ(calls.load(), 3);
  EXPECT_FALSE(worker.enqueue(harness.task(3)));
  EXPECT_EQ(stats.retrain_counters().rejected, 0u);
  worker.wait_idle();  // returns immediately on a stopped worker
}

TEST(RetrainWorker, CancelStopFinishesInFlightTaskButDropsQueued) {
  WorkerHarness harness;
  harness.hold();
  ServiceStats stats;
  RetrainWorker worker(&stats);
  worker.start();

  ASSERT_TRUE(worker.enqueue(harness.task(1)));
  // Wait until the worker picked task 1 up (depth drops to 0; the run is
  // blocked on the gate), then queue a second bucket behind it.
  while (worker.depth() != 0) std::this_thread::yield();
  ASSERT_TRUE(worker.enqueue(harness.task(2)));

  std::thread stopper([&] { worker.stop(); });
  // Only open the gate once the stop request is registered — otherwise the
  // worker could finish task 1 and legitimately pick task 2 up before the
  // cancel lands.
  while (!worker.stopping()) std::this_thread::yield();
  harness.release();
  stopper.join();

  // The in-flight run always completes; the queued one is cancelled.
  EXPECT_EQ(harness.runs(1), 1);
  EXPECT_EQ(harness.runs(2), 0);
  EXPECT_EQ(stats.retrain_counters().runs, 1u);
  EXPECT_EQ(stats.retrain_counters().cancelled, 1u);
}

TEST(RetrainWorker, SameBucketRequestsCoalesceIntoOneRun) {
  // A burst of 8 stale windows in one bucket, from two tenants' tuners over
  // one memo: the memo hands the bucket off once, and the worker runs one
  // search.
  ServiceStats stats;
  RetrainWorker worker(&stats);
  const auto memo = std::make_shared<core::TuneMemo>(pipeline());
  core::OnlineTuner first(memo);
  core::OnlineTuner second(memo);
  std::atomic<int> calls{0};
  hand_off_to(first, worker, calls);
  hand_off_to(second, worker, calls);

  for (int i = 0; i < 8; ++i) {
    core::OnlineTuner& tuner = i % 2 == 0 ? first : second;
    EXPECT_TRUE(tuner.on_window(0.7).stale) << i;
  }
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(worker.depth(), 1u);

  worker.start();
  worker.wait_idle();
  EXPECT_EQ(stats.retrain_counters().runs, 1u);
  EXPECT_EQ(stats.retrain_counters().rejected, 0u);
  EXPECT_EQ(first.optimizer_runs() + second.optimizer_runs(), 1u);
  EXPECT_FALSE(second.on_window(0.7).stale);
  EXPECT_EQ(calls.load(), 1);
  worker.stop();
}

TEST(RetrainWorker, FullQueueRejectsButCoalescingStillWins) {
  WorkerHarness harness;
  ServiceStats stats;
  RetrainWorker worker(&stats);  // never started
  core::OnlineTuner tuner(pipeline());
  std::atomic<int> calls{0};
  hand_off_to(tuner, worker, calls);

  for (int i = 1; i < static_cast<int>(kRetrainQueueCapacity); ++i) {
    ASSERT_TRUE(worker.enqueue(harness.task(i)));
  }
  tuner.prefetch(0.3);  // takes the last slot
  EXPECT_EQ(worker.depth(), kRetrainQueueCapacity);
  // Queue full: a *new* bucket is refused and counted…
  tuner.prefetch(0.6);
  EXPECT_EQ(calls.load(), 2);
  EXPECT_EQ(stats.retrain_counters().rejected, 1u);
  // …and left unmarked, so its next miss hands it off again, while a miss
  // in the pending bucket still coalesces in the memo — it needs no slot.
  tuner.prefetch(0.6);
  tuner.prefetch(0.3);
  EXPECT_EQ(calls.load(), 3);
  EXPECT_EQ(stats.retrain_counters().rejected, 2u);

  worker.stop();
  EXPECT_EQ(stats.retrain_counters().cancelled, kRetrainQueueCapacity);
  EXPECT_EQ(harness.total_runs(), 0);
}

// ---------------------------------------------------------------------------
// Service-level: stale-while-revalidate against a real trained pipeline.

class ServeRetrain : public ::testing::Test {
 protected:
  static Request window_request(double read_ratio) {
    Request request;
    request.endpoint = Endpoint::kObserveWindow;
    request.read_ratio = read_ratio;
    return request;
  }

  core::Rafiki* rafiki_ = &pipeline();
};

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
