// ShardedTuningService: stable band->shard routing across restarts, per-shard
// admission isolation, spill-to-sibling on overload, hot-band rebalance,
// lockstep publish fan-out, sharded-vs-unsharded parity (answers bit for bit,
// telemetry counter for counter), and the striped
// ServiceStats merge-on-read contract under concurrent writers (the latter is
// the suite's tsan probe).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/rafiki.h"
#include "engine/params.h"
#include "serve/service.h"
#include "serve/shard.h"
#include "serve/snapshot.h"
#include "serve/stats.h"

namespace rafiki::serve {
namespace {

// One tiny trained pipeline shared by every test in the suite; training is
// the expensive part and all tests only read from it.
class ServeShard : public ::testing::Test {
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

  static Request predict_request(double read_ratio,
                                 engine::Config config = engine::Config::defaults()) {
    Request request;
    request.endpoint = Endpoint::kPredict;
    request.read_ratio = read_ratio;
    request.config = config;
    return request;
  }

  /// First band routed to `shard` (every shard owns at least one of the 101
  /// bands for shard counts up to 101 only probabilistically — the tests
  /// assert the lookup succeeded).
  static std::size_t band_on_shard(const ShardedTuningService& service,
                                   std::size_t shard) {
    for (std::size_t band = 0; band < ShardedTuningService::kBands; ++band) {
      if (service.shard_of_band(band) == shard) return band;
    }
    return ShardedTuningService::kBands;  // not found
  }

  static core::Rafiki* rafiki_;
};

core::Rafiki* ServeShard::rafiki_ = nullptr;

/// A stats table's CSV lines cut after the "failed" column: the header and
/// counter cells, without the latency columns that differ run to run.
std::vector<std::string> counter_columns(const Table& table) {
  constexpr int kCounterColumns = 8;  // endpoint .. failed
  std::vector<std::string> lines;
  std::istringstream csv(table.to_csv());
  for (std::string line; std::getline(csv, line);) {
    std::size_t cut = 0;
    for (int commas = 0; commas < kCounterColumns && cut != std::string::npos; ++commas) {
      cut = line.find(',', cut == 0 ? 0 : cut + 1);
    }
    lines.push_back(line.substr(0, cut));
  }
  return lines;
}

TEST_F(ServeShard, BandOfQuantizesToPercentAndClamps) {
  EXPECT_EQ(ShardedTuningService::band_of(0.0), 0u);
  EXPECT_EQ(ShardedTuningService::band_of(1.0), 100u);
  EXPECT_EQ(ShardedTuningService::band_of(0.254), 25u);
  EXPECT_EQ(ShardedTuningService::band_of(0.255), 26u);  // round, not floor
  EXPECT_EQ(ShardedTuningService::band_of(-3.0), 0u);
  EXPECT_EQ(ShardedTuningService::band_of(7.0), 100u);
}

TEST_F(ServeShard, RoutingIsStableAcrossRestarts) {
  // The fingerprint is a pure function of the band index, so two
  // independently constructed routers (a "restart") agree on every band.
  for (std::size_t band = 0; band < ShardedTuningService::kBands; ++band) {
    EXPECT_EQ(ShardedTuningService::band_fingerprint(band),
              ShardedTuningService::band_fingerprint(band));
  }
  for (std::size_t shards : {2u, 4u, 7u}) {
    ShardOptions options;
    options.shards = shards;
    options.service.workers = 0;
    ShardedTuningService first(options);
    ShardedTuningService second(options);
    for (std::size_t band = 0; band < ShardedTuningService::kBands; ++band) {
      EXPECT_EQ(first.shard_of_band(band), second.shard_of_band(band))
          << "band " << band << " with " << shards << " shards";
      EXPECT_LT(first.shard_of_band(band), shards);
    }
  }
}

TEST_F(ServeShard, RouteTableOverridePinsABand) {
  ShardOptions options;
  options.shards = 4;
  options.service.workers = 0;
  ShardedTuningService service(options);
  service.route_band(50, 2);
  EXPECT_EQ(service.shard_of_band(50), 2u);
  EXPECT_EQ(service.shard_of(0.50), 2u);
  // Out-of-range pins are ignored, not clamped into a wrong shard.
  const auto before = service.shard_of_band(10);
  service.route_band(10, 99);
  EXPECT_EQ(service.shard_of_band(10), before);
}

TEST_F(ServeShard, OverloadIsIsolatedPerShard) {
  ShardOptions options;
  options.shards = 2;
  options.spill_limit = 0;  // no spill: overload must stay on its shard
  options.service.workers = 0;  // nobody drains: queues stay as we fill them
  options.service.queue_capacity = 1;
  ShardedTuningService service(options);
  service.publish(make_snapshot(*rafiki_));
  service.start();

  const std::size_t band_a = band_on_shard(service, 0);
  const std::size_t band_b = band_on_shard(service, 1);
  ASSERT_LT(band_a, ShardedTuningService::kBands);
  ASSERT_LT(band_b, ShardedTuningService::kBands);
  const double rr_a = static_cast<double>(band_a) / 100.0;
  const double rr_b = static_cast<double>(band_b) / 100.0;

  auto first = service.submit(predict_request(rr_a));
  auto overflow = service.submit(predict_request(rr_a));
  ASSERT_EQ(overflow.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(overflow.get().status, Status::kOverloaded);

  // Shard 0 being full says nothing about shard 1: its band still admits.
  auto other = service.submit(predict_request(rr_b));
  EXPECT_NE(other.wait_for(std::chrono::seconds(0)), std::future_status::ready);

  EXPECT_EQ(service.spills(), 0u);
  service.stop();
  EXPECT_EQ(first.get().status, Status::kShuttingDown);
  EXPECT_EQ(other.get().status, Status::kShuttingDown);
}

TEST_F(ServeShard, SpillAbsorbsOverloadOnASibling) {
  ShardOptions options;
  options.shards = 2;
  options.spill_limit = 1;
  options.service.workers = 0;
  options.service.queue_capacity = 1;
  ShardedTuningService service(options);
  service.publish(make_snapshot(*rafiki_));
  service.start();

  const std::size_t band = band_on_shard(service, 0);
  ASSERT_LT(band, ShardedTuningService::kBands);
  const double rr = static_cast<double>(band) / 100.0;

  auto home = service.submit(predict_request(rr));     // fills shard 0
  auto spilled = service.submit(predict_request(rr));  // absorbed by shard 1
  EXPECT_NE(spilled.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(service.spills(), 1u);

  // Both queues full now: the verdict is a real Overloaded.
  auto rejected = service.submit(predict_request(rr));
  ASSERT_EQ(rejected.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(rejected.get().status, Status::kOverloaded);
  EXPECT_EQ(service.spills(), 1u);

  service.stop();
  EXPECT_EQ(home.get().status, Status::kShuttingDown);
  EXPECT_EQ(spilled.get().status, Status::kShuttingDown);
}

TEST_F(ServeShard, RebalanceMigratesTheHottestBand) {
  ShardOptions options;
  options.shards = 4;
  options.service.workers = 1;
  ShardedTuningService service(options);
  service.publish(make_snapshot(*rafiki_));
  service.start();

  // Pin two hot bands onto shard 0 so its load dominates, then hammer them.
  service.route_band(20, 0);
  service.route_band(80, 0);
  for (int i = 0; i < 12; ++i) EXPECT_TRUE(service.call(predict_request(0.20)).ok());
  for (int i = 0; i < 6; ++i) EXPECT_TRUE(service.call(predict_request(0.80)).ok());

  EXPECT_TRUE(service.rebalance_hottest());
  EXPECT_EQ(service.rebalances(), 1u);
  // The hottest band (20, 12 hits) moved off the overloaded shard...
  EXPECT_NE(service.shard_of_band(20), 0u);
  // ...and requests keep flowing through the new route.
  EXPECT_TRUE(service.call(predict_request(0.20)).ok());
  service.stop();
}

TEST_F(ServeShard, RebalanceDeclinesWhenNothingImproves) {
  ShardOptions options;
  options.shards = 2;
  options.service.workers = 0;
  ShardedTuningService service(options);
  // No traffic at all: nothing to move.
  EXPECT_FALSE(service.rebalance_hottest());
  EXPECT_EQ(service.rebalances(), 0u);
}

TEST_F(ServeShard, PublishFansOutInLockstep) {
  ShardOptions options;
  options.shards = 3;
  options.service.workers = 0;
  ShardedTuningService service(options);
  EXPECT_EQ(service.publish(make_snapshot(*rafiki_)), 1u);
  for (std::size_t i = 0; i < service.shard_count(); ++i) {
    EXPECT_EQ(service.shard(i).model_version(), 1u);
  }
  EXPECT_EQ(service.publish(make_snapshot(*rafiki_)), 2u);
  EXPECT_EQ(service.model_version(), 2u);
  for (std::size_t i = 0; i < service.shard_count(); ++i) {
    EXPECT_EQ(service.shard(i).model_version(), 2u);
  }
}

TEST_F(ServeShard, ShardedPredictMatchesUnshardedBitForBit) {
  ShardOptions sharded_options;
  sharded_options.shards = 3;
  sharded_options.service.workers = 1;
  ShardedTuningService sharded(sharded_options);
  sharded.publish(make_snapshot(*rafiki_));
  sharded.start();

  // Routing must be a pure dispatch optimization: whatever shard answers,
  // the bits match the direct ensemble evaluation.
  const auto config = engine::Config::defaults().with(engine::key_params()[0], 2.0);
  for (const double rr : {0.05, 0.35, 0.50, 0.81, 0.99}) {
    const auto response = sharded.call(predict_request(rr, config));
    ASSERT_TRUE(response.ok()) << "rr " << rr;
    EXPECT_EQ(response.mean, rafiki_->predict(rr, config)) << "rr " << rr;
  }
  sharded.stop();

  // Telemetry parity: a 1-shard router folds the same telemetry as a lone
  // TuningService over the same traffic — equal counters, the same table
  // layout, one load row each.
  ShardOptions one_options;
  one_options.shards = 1;
  one_options.service.workers = 1;
  ShardedTuningService one_shard(one_options);
  ServiceOptions plain_options;
  plain_options.workers = 1;
  TuningService plain(plain_options);
  for (TuningBackend* backend : {static_cast<TuningBackend*>(&one_shard),
                                 static_cast<TuningBackend*>(&plain)}) {
    backend->publish(make_snapshot(*rafiki_));
    backend->start();
    for (const double rr : {0.05, 0.35, 0.50, 0.81, 0.99}) {
      ASSERT_TRUE(backend->call(predict_request(rr, config)).ok()) << "rr " << rr;
    }
    Request window = predict_request(0.4);
    window.endpoint = Endpoint::kObserveWindow;  // no tuner attached: NotReady
    EXPECT_EQ(backend->call(window).status, Status::kNotReady);
    backend->stop();
  }
  const Telemetry routed = one_shard.telemetry();
  const Telemetry single = plain.telemetry();
  for (std::size_t i = 0; i < kEndpointCount; ++i) {
    const auto endpoint = static_cast<Endpoint>(i);
    EXPECT_EQ(routed.counters(endpoint).accepted, single.counters(endpoint).accepted) << i;
    EXPECT_EQ(routed.counters(endpoint).completed, single.counters(endpoint).completed) << i;
    EXPECT_EQ(routed.counters(endpoint).ok, single.counters(endpoint).ok) << i;
    EXPECT_EQ(routed.counters(endpoint).not_ready, single.counters(endpoint).not_ready) << i;
  }
  EXPECT_EQ(routed.counters(Endpoint::kPredict).ok, 5u);
  EXPECT_EQ(routed.batch_rows, single.batch_rows);
  EXPECT_EQ(routed.shards.size(), 1u);
  EXPECT_EQ(single.shards.size(), 1u);
  EXPECT_EQ(routed.shards[0].predict_completed, single.shards[0].predict_completed);
  EXPECT_EQ(counter_columns(routed.table()), counter_columns(single.table()));
}

// An answer_predicts round runs each request on its home shard with no
// worker: answers match the scalar forward bit for bit, each shard's stats
// and load row count exactly the rows routed to it, and the route-slot hits
// feed rebalance_hottest as try_submit traffic does. After stop() the round
// answers ShuttingDown.
TEST_F(ServeShard, PredictRoundAnswersOnTheHomeShards) {
  ShardOptions options;
  options.shards = 2;
  options.service.workers = 0;
  ShardedTuningService service(options);
  service.publish(make_snapshot(*rafiki_));
  service.route_band(30, 0);
  service.route_band(70, 1);

  const auto config = engine::Config::defaults().with(engine::key_params()[1], 1.0);
  const std::vector<Request> round = {predict_request(0.30, config), predict_request(0.70),
                                      predict_request(0.30), predict_request(0.30, config),
                                      predict_request(0.70, config)};
  std::vector<Response> answers(round.size());
  PredictScratch scratch;
  service.answer_predicts(round, answers, scratch);
  for (std::size_t i = 0; i < round.size(); ++i) {
    ASSERT_EQ(answers[i].status, Status::kOk) << i;
    EXPECT_EQ(answers[i].mean, rafiki_->predict(round[i].read_ratio, round[i].config)) << i;
    EXPECT_EQ(answers[i].model_version, 1u);
  }
  EXPECT_EQ(answers[0].batch_size, 3u);  // the three rr 0.30 rows, one forward
  EXPECT_EQ(answers[1].batch_size, 2u);
  EXPECT_EQ(service.shard(0).stats().counters(Endpoint::kPredict).ok, 3u);
  EXPECT_EQ(service.shard(1).stats().counters(Endpoint::kPredict).ok, 2u);
  const Telemetry telemetry = service.telemetry();
  EXPECT_EQ(telemetry.shards[0].predict_completed, 3u);
  EXPECT_EQ(telemetry.shards[1].predict_completed, 2u);
  EXPECT_EQ(telemetry.counters(Endpoint::kPredict).accepted, 5u);
  EXPECT_EQ(telemetry.batches, 2u);
  // The rows counted as route-slot hits: with both bands on shard 0, its
  // hottest one (band 30, 3 hits of 5) migrates to the idle shard.
  service.route_band(70, 0);
  EXPECT_TRUE(service.rebalance_hottest());
  EXPECT_EQ(service.shard_of_band(30), 1u);

  service.stop();
  service.answer_predicts(round, answers, scratch);
  for (const Response& answer : answers) EXPECT_EQ(answer.status, Status::kShuttingDown);
  EXPECT_EQ(service.telemetry().counters(Endpoint::kPredict).rejected_shutdown, 5u);
}

TEST(ShardWorkerBudget, ExplicitBudgetDividesDeterministically) {
  // budget/N each, +1 for the first budget%N shards: budget 6 over 4 shards
  // is {2, 2, 1, 1}, and the total is exactly the budget.
  ShardOptions options;
  options.shards = 4;
  options.worker_budget = 6;
  ShardedTuningService service(options);
  EXPECT_EQ(service.shard(0).worker_count(), 2u);
  EXPECT_EQ(service.shard(1).worker_count(), 2u);
  EXPECT_EQ(service.shard(2).worker_count(), 1u);
  EXPECT_EQ(service.shard(3).worker_count(), 1u);
  EXPECT_EQ(service.resolved_worker_budget(), 6u);
}

TEST(ShardWorkerBudget, ExplicitBudgetFloorsAtOneWorkerPerShard) {
  // A budget below the shard count would starve some queues forever; it is
  // clamped so every shard keeps exactly one worker.
  ShardOptions options;
  options.shards = 4;
  options.worker_budget = 2;
  ShardedTuningService service(options);
  for (std::size_t i = 0; i < service.shard_count(); ++i) {
    EXPECT_EQ(service.shard(i).worker_count(), 1u) << "shard " << i;
  }
  EXPECT_EQ(service.resolved_worker_budget(), 4u);
}

TEST(ShardWorkerBudget, DerivedBudgetNeverOversubscribesTheMachine) {
  // The de-scaling regression: 8 shards x workers used to spawn the full
  // product regardless of the host. The derived budget caps at the hardware
  // threads (floored at one worker per shard), for every shard count.
  const std::size_t hw = std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    ShardOptions options;
    options.shards = shards;
    options.service.workers = 4;
    ShardedTuningService service(options);
    const std::size_t total = service.resolved_worker_budget();
    EXPECT_LE(total, std::max(hw, shards)) << shards << " shards";
    EXPECT_GE(total, shards) << shards << " shards";
    EXPECT_LE(total, shards * options.service.workers) << shards << " shards";
    // Deterministic for a fixed config on a fixed machine.
    ShardedTuningService again(options);
    EXPECT_EQ(again.resolved_worker_budget(), total) << shards << " shards";
  }
}

TEST(ShardWorkerBudget, ZeroWorkersStaysZeroEverywhere) {
  // Test mode (workers == 0: requests queue until drained by stop) must
  // survive budgeting — no floor kicks in when no pool was asked for.
  ShardOptions options;
  options.shards = 4;
  options.service.workers = 0;
  ShardedTuningService service(options);
  for (std::size_t i = 0; i < service.shard_count(); ++i) {
    EXPECT_EQ(service.shard(i).worker_count(), 0u) << "shard " << i;
  }
  EXPECT_EQ(service.resolved_worker_budget(), 0u);
}

TEST_F(ServeShard, ParityHoldsUnderBudgetAndPinning) {
  // The budget division and CPU pinning are pure scheduling changes: with an
  // uneven worker split and pinned shards, every predict still matches the
  // direct ensemble evaluation bit for bit.
  ShardOptions sharded_options;
  sharded_options.shards = 3;
  sharded_options.worker_budget = 4;  // splits {2, 1, 1}
  sharded_options.pin_shards = true;
  ShardedTuningService sharded(sharded_options);
  sharded.publish(make_snapshot(*rafiki_));
  sharded.start();

  const auto config = engine::Config::defaults().with(engine::key_params()[0], 2.0);
  for (const double rr : {0.05, 0.35, 0.50, 0.81, 0.99}) {
    const auto response = sharded.call(predict_request(rr, config));
    ASSERT_TRUE(response.ok()) << "rr " << rr;
    EXPECT_EQ(response.mean, rafiki_->predict(rr, config)) << "rr " << rr;
  }
  sharded.stop();
}

TEST_F(ServeShard, MergedCountersSpanAllShards) {
  ShardOptions options;
  options.shards = 4;
  options.service.workers = 1;
  ShardedTuningService service(options);
  service.publish(make_snapshot(*rafiki_));
  service.start();

  constexpr int kCalls = 40;
  for (int i = 0; i < kCalls; ++i) {
    EXPECT_TRUE(service.call(predict_request(0.01 * (i % 101))).ok());
  }
  service.stop();

  const Telemetry telemetry = service.telemetry();
  const auto& merged = telemetry.counters(Endpoint::kPredict);
  EXPECT_EQ(merged.ok, static_cast<std::uint64_t>(kCalls));
  EXPECT_EQ(merged.completed, static_cast<std::uint64_t>(kCalls));
  // The per-shard counters actually split the traffic (the routing spread
  // 101 bands over 4 shards), and their sum is exactly the merged view.
  std::uint64_t summed = 0;
  std::size_t shards_with_traffic = 0;
  std::uint64_t batches = 0;
  double weighted_batch = 0.0;
  ASSERT_EQ(telemetry.shards.size(), service.shard_count());
  for (std::size_t i = 0; i < service.shard_count(); ++i) {
    const ServiceStats& stats = service.shard(i).stats();
    const auto per = stats.counters(Endpoint::kPredict);
    summed += per.ok;
    if (per.ok > 0) ++shards_with_traffic;
    batches += stats.batches();
    weighted_batch += stats.mean_batch_size() * static_cast<double>(stats.batches());
    // One load row per shard, in shard order, read from that shard.
    const ShardLoad& row = telemetry.shards[i];
    EXPECT_EQ(row.predict_completed, per.completed) << "shard " << i;
    EXPECT_EQ(row.workers, service.shard(i).worker_count()) << "shard " << i;
    EXPECT_EQ(row.mean_queue_depth, stats.mean_queue_depth()) << "shard " << i;
    EXPECT_EQ(row.max_queue_depth, stats.max_queue_depth()) << "shard " << i;
    EXPECT_EQ(row.retrain_depth, 0u) << "shard " << i;
  }
  EXPECT_EQ(summed, merged.ok);
  EXPECT_GT(shards_with_traffic, 1u);
  // Every endpoint's merged counters are the per-shard sums.
  for (std::size_t e = 0; e < kEndpointCount; ++e) {
    const auto endpoint = static_cast<Endpoint>(e);
    ServiceStats::Counters sum;
    for (std::size_t i = 0; i < service.shard_count(); ++i) {
      sum.merge(service.shard(i).stats().counters(endpoint));
    }
    EXPECT_EQ(telemetry.counters(endpoint).accepted, sum.accepted) << e;
    EXPECT_EQ(telemetry.counters(endpoint).completed, sum.completed) << e;
    EXPECT_EQ(telemetry.counters(endpoint).ok, sum.ok) << e;
    EXPECT_EQ(telemetry.counters(endpoint).rejected_overload, sum.rejected_overload) << e;
  }
  // The batch mean is the batch-weighted mean of the shards' means.
  EXPECT_EQ(telemetry.batches, batches);
  ASSERT_GT(batches, 0u);
  EXPECT_DOUBLE_EQ(telemetry.mean_batch_size(),
                   weighted_batch / static_cast<double>(batches));
}

// tsan probe: hot-path recording is relaxed striped atomics with no mutex;
// merge-on-read must be data-race-free against concurrent writers, and the
// merged totals must be exact once the writers are joined (the documented
// happens-before contract).
TEST_F(ServeShard, StripedStatsMergeOnReadUnderConcurrentWriters) {
  ServiceStats stats;
  constexpr std::size_t kWriters = 4;
  constexpr std::uint64_t kPerWriter = 2000;

  std::atomic<bool> run{true};
  std::thread reader([&] {
    // Concurrent merge-on-read: values are momentarily torn across stripes
    // by design; the assertion here is tsan-cleanliness, not exactness.
    while (run.load(std::memory_order_relaxed)) {
      const auto snapshot = stats.counters(Endpoint::kPredict);
      EXPECT_LE(snapshot.ok, kWriters * kPerWriter);
      (void)stats.table();
      (void)stats.latency_quantile(Endpoint::kPredict, 0.99);
      (void)stats.mean_batch_size();
    }
  });

  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&stats, w] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        stats.record_accept(Endpoint::kPredict, /*queue_depth=*/w);
        stats.record_done(Endpoint::kPredict, Status::kOk,
                          static_cast<double>(i % 500));
        stats.record_batch(1 + i % 8);
      }
    });
  }
  for (auto& writer : writers) writer.join();
  run.store(false, std::memory_order_relaxed);
  reader.join();

  // Writers joined: the merge now observes every stripe's final value.
  const auto counters = stats.counters(Endpoint::kPredict);
  EXPECT_EQ(counters.accepted, kWriters * kPerWriter);
  EXPECT_EQ(counters.completed, kWriters * kPerWriter);
  EXPECT_EQ(counters.ok, kWriters * kPerWriter);
  EXPECT_EQ(stats.batches(), kWriters * kPerWriter);
  const auto aggregate = stats.endpoint_aggregate(Endpoint::kPredict);
  EXPECT_EQ(aggregate.latency_count, kWriters * kPerWriter);
  EXPECT_GT(stats.mean_batch_size(), 1.0);
  EXPECT_GT(stats.latency_quantile(Endpoint::kPredict, 0.5), 0.0);
}

}  // namespace
}  // namespace rafiki::serve
