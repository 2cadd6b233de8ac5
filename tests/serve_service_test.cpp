// TuningService end-to-end: admission control (Overloaded on a full queue),
// virtual-clock deadline expiry, micro-batcher size and empty-queue triggers,
// lock-free snapshot swaps under concurrent load, and the ObserveWindow ->
// publish-hook -> new-snapshot-version loop. The concurrency tests double as
// tsan probes (see CMakePresets).
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/online.h"
#include "core/rafiki.h"
#include "engine/params.h"
#include "serve/service.h"
#include "serve/snapshot.h"

namespace rafiki::serve {
namespace {

// One tiny trained pipeline shared by every test in the suite; training is
// the expensive part and all tests only read from it.
class ServeService : public ::testing::Test {
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

  static Request predict_request(double read_ratio = 0.3,
                                 engine::Config config = engine::Config::defaults()) {
    Request request;
    request.endpoint = Endpoint::kPredict;
    request.read_ratio = read_ratio;
    request.config = config;
    return request;
  }

  static core::Rafiki* rafiki_;
};

core::Rafiki* ServeService::rafiki_ = nullptr;

TEST_F(ServeService, NotReadyBeforeFirstPublish) {
  ServiceOptions options;
  options.workers = 1;
  TuningService service(options);
  service.start();
  const auto response = service.call(predict_request());
  EXPECT_EQ(response.status, Status::kNotReady);
  EXPECT_EQ(service.model_version(), 0u);
  service.stop();
}

TEST_F(ServeService, PredictMatchesDirectEnsembleBitForBit) {
  ServiceOptions options;
  options.workers = 1;
  TuningService service(options);
  EXPECT_EQ(service.publish(make_snapshot(*rafiki_)), 1u);
  service.start();

  const auto config = engine::Config::defaults().with(engine::key_params()[0], 1.0);
  const auto response = service.call(predict_request(0.35, config));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.model_version, 1u);
  EXPECT_GE(response.batch_size, 1u);
  // The service route is the same batched kernel predict() reduces to:
  // exact bits, not approximately equal.
  EXPECT_EQ(response.mean, rafiki_->predict(0.35, config));
  EXPECT_GE(response.stddev, 0.0);
  service.stop();
}

TEST_F(ServeService, FullQueueRejectsOverloadedImmediately) {
  ServiceOptions options;
  options.workers = 0;  // nobody drains: the queue stays as we fill it
  options.queue_capacity = 2;
  TuningService service(options);
  service.publish(make_snapshot(*rafiki_));
  service.start();

  auto first = service.submit(predict_request());
  auto second = service.submit(predict_request());
  auto third = service.submit(predict_request());

  // The overflow future resolves instantly — admission control never blocks.
  ASSERT_EQ(third.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(third.get().status, Status::kOverloaded);
  EXPECT_EQ(service.stats().counters(Endpoint::kPredict).rejected_overload, 1u);
  EXPECT_EQ(service.stats().counters(Endpoint::kPredict).accepted, 2u);

  // stop() with no workers fails the backlog rather than dropping it.
  service.stop();
  EXPECT_EQ(first.get().status, Status::kShuttingDown);
  EXPECT_EQ(second.get().status, Status::kShuttingDown);

  // After stop, admission answers ShuttingDown immediately.
  EXPECT_EQ(service.submit(predict_request()).get().status, Status::kShuttingDown);

  // Accounting regression: the two drained jobs were *accepted* and then
  // failed — they count as failed_shutdown, never as admission rejects. The
  // admission columns hold exactly the overflow push and the post-stop push,
  // and accepted == completed after the drain.
  const auto counters = service.stats().counters(Endpoint::kPredict);
  EXPECT_EQ(counters.accepted, 2u);
  EXPECT_EQ(counters.completed, 2u);
  EXPECT_EQ(counters.failed_shutdown, 2u);
  EXPECT_EQ(counters.failed_overload, 0u);
  EXPECT_EQ(counters.rejected_overload, 1u);
  EXPECT_EQ(counters.rejected_shutdown, 1u);
}

TEST_F(ServeService, DeadlineExpiryUsesInjectedVirtualClock) {
  auto clock = std::make_shared<std::atomic<Tick>>(0);
  ServiceOptions options;
  options.workers = 1;
  options.clock_fn = [clock] { return clock->load(); };
  TuningService service(options);
  service.publish(make_snapshot(*rafiki_));
  service.start();

  // Deadline in the future: served.
  auto request = predict_request();
  request.deadline = 10;
  EXPECT_EQ(service.call(request).status, Status::kOk);

  // Advance virtual time past the deadline: expired before execution.
  clock->store(11);
  EXPECT_EQ(service.call(request).status, Status::kDeadlineExceeded);
  EXPECT_EQ(service.stats().counters(Endpoint::kPredict).rejected_deadline, 1u);

  // kNoDeadline never expires, whatever the clock says.
  EXPECT_EQ(service.call(predict_request()).status, Status::kOk);
  service.stop();
}

TEST_F(ServeService, BatcherFlushesOnSizeTrigger) {
  ServiceOptions options;
  options.workers = 1;
  options.max_batch = 4;
  TuningService service(options);
  service.publish(make_snapshot(*rafiki_));

  // Queue 8 predicts before any worker exists, then start: the worker must
  // coalesce them into exactly two full batches of max_batch.
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 8; ++i) futures.push_back(service.submit(predict_request(0.1 * i)));
  service.start();
  for (auto& future : futures) {
    const auto response = future.get();
    EXPECT_EQ(response.status, Status::kOk);
    EXPECT_EQ(response.batch_size, 4u);
  }
  service.stop();
  EXPECT_EQ(service.stats().batches(), 2u);
  EXPECT_DOUBLE_EQ(service.stats().mean_batch_size(), 4.0);
}

TEST_F(ServeService, AdaptiveBatcherFlushesWhenQueueEmpties) {
  // Regression for the lone-client stall: a batcher that waits for
  // co-arrivals makes a single request under a large max_batch sleep out
  // its wait. The batcher runs the batch the moment the queue momentarily
  // empties, so a lone request must not be delayed.
  ServiceOptions options;
  options.workers = 1;
  options.max_batch = 32;
  TuningService service(options);
  service.publish(make_snapshot(*rafiki_));
  service.start();

  auto future = service.submit(predict_request());
  ASSERT_EQ(future.wait_for(std::chrono::seconds(5)), std::future_status::ready)
      << "single request stalled waiting for co-arrivals";
  const auto response = future.get();
  EXPECT_EQ(response.status, Status::kOk);
  EXPECT_EQ(response.batch_size, 1u);
  service.stop();
}

TEST_F(ServeService, SnapshotSwapUnderConcurrentLoadLosesNothing) {
  constexpr int kReaders = 4;
  constexpr int kCallsPerReader = 40;
  constexpr int kRepublishes = 25;

  ServiceOptions options;
  options.workers = 2;
  options.queue_capacity = 1024;  // large enough that nothing is rejected
  TuningService service(options);
  service.publish(make_snapshot(*rafiki_));
  service.start();

  std::vector<std::thread> readers;
  std::vector<int> failures(kReaders, 0);
  std::vector<int> version_regressions(kReaders, 0);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::uint64_t last_version = 0;
      for (int i = 0; i < kCallsPerReader; ++i) {
        const auto response = service.call(predict_request(0.25 + 0.01 * (i % 10)));
        if (!response.ok()) ++failures[static_cast<std::size_t>(r)];
        // Versions a single reader observes never go backwards: publishes
        // are monotone and each call happens-after the previous one.
        if (response.model_version < last_version) {
          ++version_regressions[static_cast<std::size_t>(r)];
        }
        last_version = response.model_version;
      }
    });
  }

  // Republish fresh snapshot versions while the readers hammer Predict.
  for (int i = 0; i < kRepublishes; ++i) service.publish(make_snapshot(*rafiki_));

  for (auto& reader : readers) reader.join();
  service.stop();

  for (int r = 0; r < kReaders; ++r) {
    EXPECT_EQ(failures[static_cast<std::size_t>(r)], 0) << "reader " << r;
    EXPECT_EQ(version_regressions[static_cast<std::size_t>(r)], 0) << "reader " << r;
  }
  EXPECT_EQ(service.model_version(), static_cast<std::uint64_t>(kRepublishes) + 1u);
  const auto totals = service.stats().totals();
  EXPECT_EQ(totals.accepted, static_cast<std::uint64_t>(kReaders * kCallsPerReader));
  EXPECT_EQ(totals.ok, totals.accepted);
}

TEST_F(ServeService, OptimizeEndpointSearchesTheSnapshotSpace) {
  ServiceOptions options;
  options.workers = 1;
  options.ga.population = 10;
  options.ga.generations = 5;
  TuningService service(options);
  service.publish(make_snapshot(*rafiki_));
  service.start();

  Request request;
  request.endpoint = Endpoint::kOptimize;
  request.read_ratio = 0.4;
  const auto response = service.call(request);
  ASSERT_TRUE(response.ok());
  EXPECT_GT(response.surrogate_evaluations, 0u);
  EXPECT_GT(response.predicted_throughput, 0.0);
  // The optimized config must score exactly its reported fitness.
  EXPECT_EQ(rafiki_->predict(0.4, response.config), response.predicted_throughput);
  service.stop();
}

TEST_F(ServeService, ObserveWindowIsStaleWhileRevalidate) {
  ServiceOptions options;
  options.workers = 1;
  core::OnlineTuner tuner(*rafiki_);
  TuningService service(options);
  service.publish(make_snapshot(*rafiki_));
  service.attach_tuner(tuner);
  service.start();

  // A cache-miss window answers immediately with the (default) current
  // config, stale-marked — no GA runs on the request path, no new version
  // is published yet.
  Request request;
  request.endpoint = Endpoint::kObserveWindow;
  request.read_ratio = 0.2;
  const auto first = service.call(request);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first.stale);
  EXPECT_FALSE(first.reconfigured);
  // The version is read after the miss was enqueued, so a fast background
  // GA may already have republished (1 = pre-retrain, 2 = raced ahead).
  EXPECT_GE(first.model_version, 1u);
  EXPECT_LE(first.model_version, 2u);
  EXPECT_EQ(service.stats().counters(Endpoint::kObserveWindow).stale, 1u);

  // Once the background worker finishes, the optimized config has been
  // republished as a new snapshot version carrying the tuned entry.
  service.wait_retrain_idle();
  EXPECT_EQ(service.model_version(), 2u);
  const auto snapshot = service.snapshot();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->tuned.count(tuner.bucket_for(0.2)), 1u);
  EXPECT_EQ(service.stats().retrain_counters().runs, 1u);

  // The next window in the bucket adopts the tuned config (fresh, not
  // stale); a repeat after that is a pure cache hit.
  const auto second = service.call(request);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second.stale);
  EXPECT_TRUE(second.reconfigured);
  EXPECT_EQ(second.model_version, 2u);
  EXPECT_EQ(second.config, snapshot->tuned.at(tuner.bucket_for(0.2)).config);

  const auto third = service.call(request);
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third.stale);
  EXPECT_FALSE(third.reconfigured);
  EXPECT_EQ(third.model_version, 2u);
  EXPECT_EQ(tuner.optimizer_runs(), 1u);
  service.stop();
}

TEST_F(ServeService, ObserveWindowWithoutTunerIsNotReady) {
  ServiceOptions options;
  options.workers = 1;
  TuningService service(options);
  service.publish(make_snapshot(*rafiki_));
  service.start();
  Request request;
  request.endpoint = Endpoint::kObserveWindow;
  EXPECT_EQ(service.call(request).status, Status::kNotReady);
  service.stop();
}

TEST_F(ServeService, StatsTableListsEveryEndpoint) {
  ServiceOptions options;
  options.workers = 1;
  TuningService service(options);
  service.publish(make_snapshot(*rafiki_));
  service.start();
  service.call(predict_request());
  service.stop();

  const auto text = service.stats().table().render();
  EXPECT_NE(text.find("Predict"), std::string::npos);
  EXPECT_NE(text.find("Optimize"), std::string::npos);
  EXPECT_NE(text.find("ObserveWindow"), std::string::npos);
  const auto csv = service.stats().table().to_csv();
  EXPECT_NE(csv.find("endpoint"), std::string::npos);
}

}  // namespace
}  // namespace rafiki::serve
