// Tenant fleet: token-bucket and in-flight quota semantics under an injected
// clock, fleet admission verdicts and fairness counters, per-tenant publish
// isolation (bit-exact snapshot pointers), one retrain per bucket across
// tenants over the shared tuning memo, fleet-of-one parity with the
// single-tenant service, and the rebalance-vs-publish race (the suite's tsan
// probe: the policy thread migrates route slots while publishes fan out and
// requests route).
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <future>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/rafiki.h"
#include "engine/params.h"
#include "serve/service.h"
#include "serve/shard.h"
#include "serve/snapshot.h"
#include "tenant/fleet.h"
#include "tenant/quota.h"
#include "tenant/registry.h"

namespace rafiki::tenant {
namespace {

// --- quota unit tests (no trained model needed) -----------------------------

TEST(TenantQuota, UnlimitedByDefault) {
  TenantQuota quota;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(quota.try_acquire_token());
    EXPECT_TRUE(quota.begin_request());
  }
  EXPECT_EQ(quota.in_flight(), 0u);  // cap disabled: nothing is counted
}

TEST(TenantQuota, TokenBucketRefillsOnTheInjectedClock) {
  std::atomic<std::uint64_t> clock_us{0};
  QuotaOptions options;
  options.rate_per_s = 2.0;
  options.burst = 4.0;
  options.clock_us = [&clock_us] { return clock_us.load(); };
  TenantQuota quota(options);

  // The bucket starts full: exactly `burst` tokens are available.
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(quota.try_acquire_token()) << i;
  EXPECT_FALSE(quota.try_acquire_token());

  // 500 ms at 2 tokens/s refills exactly one token.
  clock_us.store(500'000);
  EXPECT_TRUE(quota.try_acquire_token());
  EXPECT_FALSE(quota.try_acquire_token());

  // A repeated (or rewound) injected tick must not mint tokens.
  clock_us.store(500'000);
  EXPECT_FALSE(quota.try_acquire_token());

  // A long idle period caps at burst, not elapsed * rate.
  clock_us.store(60'000'000);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(quota.try_acquire_token()) << i;
  EXPECT_FALSE(quota.try_acquire_token());
}

TEST(TenantQuota, InFlightCapAdmitsExactlyMax) {
  QuotaOptions options;
  options.max_in_flight = 2;
  TenantQuota quota(options);
  EXPECT_TRUE(quota.begin_request());
  EXPECT_TRUE(quota.begin_request());
  EXPECT_FALSE(quota.begin_request());  // at cap
  EXPECT_EQ(quota.in_flight(), 2u);     // the failed claim was undone
  quota.end_request();
  EXPECT_TRUE(quota.begin_request());
  quota.end_request();
  quota.end_request();
  EXPECT_EQ(quota.in_flight(), 0u);
}

TEST(TenantRegistry, DenseIdsAndUnknownTenantLookup) {
  TenantRegistry registry(3, nullptr);
  ASSERT_EQ(registry.size(), 3u);
  for (serve::TenantId t = 0; t < 3; ++t) {
    ASSERT_NE(registry.find(t), nullptr);
    EXPECT_EQ(registry.find(t)->id, t);
  }
  EXPECT_EQ(registry.find(3), nullptr);
  EXPECT_EQ(registry.find(0xFFFFFFFFu), nullptr);
}

// --- fleet admission (workers=0 so admitted requests park in the queue) -----

serve::Request request_for(serve::TenantId tenant, serve::Endpoint endpoint,
                           double read_ratio) {
  serve::Request request;
  request.tenant = tenant;
  request.endpoint = endpoint;
  request.read_ratio = read_ratio;
  return request;
}

TEST(TenantFleetAdmission, UnknownTenantIsNotReadyAndCounted) {
  FleetOptions options;
  options.tenants = 2;
  options.shard.shards = 1;
  options.shard.service.workers = 0;
  TenantFleet fleet(options);
  const auto verdict = fleet.try_submit(
      request_for(7, serve::Endpoint::kPredict, 0.5), [](serve::Response) {});
  EXPECT_EQ(verdict, serve::Status::kNotReady);
  const auto counters = fleet.fleet_counters();
  EXPECT_EQ(counters.unknown_tenant, 1u);
  EXPECT_EQ(counters.admitted, 0u);
  fleet.stop();
}

TEST(TenantFleetAdmission, InFlightCapRejectsOnlyTheCappedTenant) {
  FleetOptions options;
  options.tenants = 2;
  options.shard.shards = 1;
  options.shard.service.workers = 0;  // admitted requests park in the queue
  options.quota_for = [](serve::TenantId tenant) {
    QuotaOptions quota;
    if (tenant == 1) quota.max_in_flight = 1;
    return quota;
  };
  TenantFleet fleet(options);

  // Tenant 1's first request holds its only in-flight slot (no worker will
  // complete it); the second bounces with the typed kOverloaded.
  EXPECT_EQ(fleet.try_submit(request_for(1, serve::Endpoint::kPredict, 0.5),
                             [](serve::Response) {}),
            serve::Status::kOk);
  EXPECT_EQ(fleet.try_submit(request_for(1, serve::Endpoint::kPredict, 0.6),
                             [](serve::Response) {}),
            serve::Status::kOverloaded);
  // The victim tenant (0, uncapped) is untouched by the noisy neighbour.
  EXPECT_EQ(fleet.try_submit(request_for(0, serve::Endpoint::kPredict, 0.5),
                             [](serve::Response) {}),
            serve::Status::kOk);

  auto counters = fleet.fleet_counters();
  EXPECT_EQ(counters.admitted, 2u);
  EXPECT_EQ(counters.inflight_rejected, 1u);
  EXPECT_EQ(counters.quota_rejected, 0u);
  EXPECT_EQ(fleet.registry().find(1)->quota.in_flight(), 1u);

  // stop() drains the parked requests (kShuttingDown) through the wrapped
  // callbacks, which must release every in-flight slot exactly once.
  fleet.stop();
  EXPECT_EQ(fleet.registry().find(1)->quota.in_flight(), 0u);
}

TEST(TenantFleetAdmission, DestructorDrainReleasesSlotsBeforeRegistryDies) {
  // The registry is a member of the derived fleet, so it is destroyed before
  // the router base. Parked requests' wrapped callbacks hold TenantState
  // pointers; ~TenantFleet must drain them while the registry is alive (a
  // drain from the base destructor would touch freed states — an ASan
  // heap-use-after-free).
  FleetOptions options;
  options.tenants = 2;
  options.shard.shards = 2;
  options.shard.service.workers = 0;  // admitted requests park in the queues
  options.quota_for = [](serve::TenantId tenant) {
    QuotaOptions quota;
    if (tenant == 1) quota.max_in_flight = 2;
    return quota;
  };
  std::vector<serve::Status> answers;
  {
    TenantFleet fleet(options);
    for (const double rr : {0.2, 0.7}) {
      ASSERT_EQ(fleet.try_submit(request_for(1, serve::Endpoint::kPredict, rr),
                                 [&answers](serve::Response response) {
                                   answers.push_back(response.status);
                                 }),
                serve::Status::kOk);
    }
    ASSERT_EQ(fleet.registry().find(1)->quota.in_flight(), 2u);
  }  // destroyed without an explicit stop()
  ASSERT_EQ(answers.size(), 2u);
  for (const auto status : answers) EXPECT_EQ(status, serve::Status::kShuttingDown);
}

TEST(TenantFleetAdmission, TokenBucketRejectsWithOverloaded) {
  auto clock_us = std::make_shared<std::atomic<std::uint64_t>>(0);
  FleetOptions options;
  options.tenants = 1;
  options.shard.shards = 1;
  options.shard.service.workers = 0;
  options.quota_for = [clock_us](serve::TenantId) {
    QuotaOptions quota;
    quota.rate_per_s = 1.0;
    quota.burst = 1.0;
    quota.clock_us = [clock_us] { return clock_us->load(); };
    return quota;
  };
  TenantFleet fleet(options);

  EXPECT_EQ(fleet.try_submit(request_for(0, serve::Endpoint::kPredict, 0.5),
                             [](serve::Response) {}),
            serve::Status::kOk);
  EXPECT_EQ(fleet.try_submit(request_for(0, serve::Endpoint::kPredict, 0.5),
                             [](serve::Response) {}),
            serve::Status::kOverloaded);
  clock_us->store(1'000'000);  // 1 s refills the single token
  EXPECT_EQ(fleet.try_submit(request_for(0, serve::Endpoint::kPredict, 0.5),
                             [](serve::Response) {}),
            serve::Status::kOk);

  const auto counters = fleet.fleet_counters();
  EXPECT_EQ(counters.admitted, 2u);
  EXPECT_EQ(counters.quota_rejected, 1u);
  fleet.stop();
}

// --- trained-pipeline tests -------------------------------------------------

class TenantFleetServing : public ::testing::Test {
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

  static core::Rafiki* rafiki_;
};

core::Rafiki* TenantFleetServing::rafiki_ = nullptr;

TEST_F(TenantFleetServing, PublishToOneTenantLeavesSiblingsBitExact) {
  serve::ServiceOptions options;
  options.tenants = 3;
  options.workers = 0;
  serve::TuningService service(options);
  service.publish(serve::make_snapshot(*rafiki_));

  // All slots share the publish but stamp their own (equal) first version.
  for (serve::TenantId t = 0; t < 3; ++t) {
    ASSERT_NE(service.tenant_snapshot(t), nullptr) << t;
    EXPECT_EQ(service.tenant_model_version(t), 1u) << t;
  }
  const auto snap0 = service.tenant_snapshot(0);
  const auto snap2 = service.tenant_snapshot(2);

  // A tuned republish into tenant 1's slot must not touch tenant 0 or 2:
  // same shared_ptr (bit-exact, not just equal) and same version.
  const auto result = rafiki_->optimize(0.42);
  service.publish_tuned(1, 42, result.config, result.predicted_throughput);
  EXPECT_EQ(service.tenant_model_version(1), 2u);
  EXPECT_EQ(service.tenant_snapshot(1)->tuned.count(42), 1u);
  EXPECT_EQ(service.tenant_snapshot(0).get(), snap0.get());
  EXPECT_EQ(service.tenant_snapshot(2).get(), snap2.get());
  EXPECT_EQ(service.tenant_model_version(0), 1u);
  EXPECT_EQ(service.tenant_model_version(2), 1u);
  EXPECT_EQ(service.tenant_snapshot(0)->tuned.count(42), 0u);
  service.stop();
}

TEST_F(TenantFleetServing, FleetOfOneMatchesSingleTenantServiceBitExactly) {
  serve::Request request;
  request.endpoint = serve::Endpoint::kPredict;
  request.read_ratio = 0.37;
  request.config = engine::Config::defaults();

  serve::TuningService plain{serve::ServiceOptions{}};
  plain.publish(serve::make_snapshot(*rafiki_));
  plain.start();
  const auto expected = plain.call(request);
  plain.stop();

  FleetOptions options;
  options.tenants = 1;
  options.shard.shards = 1;
  TenantFleet fleet(options);
  fleet.publish(serve::make_snapshot(*rafiki_));
  fleet.start();
  const auto actual = fleet.call(request);
  fleet.stop();

  ASSERT_EQ(actual.status, serve::Status::kOk);
  EXPECT_EQ(actual.mean, expected.mean);
  EXPECT_EQ(actual.stddev, expected.stddev);
  EXPECT_EQ(actual.config, expected.config);
}

TEST_F(TenantFleetServing, TenantsShareTheModelButAnswerIndependently) {
  FleetOptions options;
  options.tenants = 3;
  options.shard.shards = 2;
  TenantFleet fleet(options);
  fleet.publish(serve::make_snapshot(*rafiki_));
  fleet.start();

  // The same question from different tenants reads per-tenant slots holding
  // the same published model: answers are bit-identical.
  serve::Response first;
  for (serve::TenantId t = 0; t < 3; ++t) {
    const auto response = fleet.call(request_for(t, serve::Endpoint::kPredict, 0.61));
    ASSERT_EQ(response.status, serve::Status::kOk) << "tenant " << t;
    if (t == 0) {
      first = response;
    } else {
      EXPECT_EQ(response.mean, first.mean) << "tenant " << t;
      EXPECT_EQ(response.stddev, first.stddev) << "tenant " << t;
    }
  }
  fleet.stop();
  const auto counters = fleet.fleet_counters();
  EXPECT_EQ(counters.admitted, 3u);
  EXPECT_EQ(counters.unknown_tenant + counters.quota_rejected +
                counters.inflight_rejected,
            0u);
}

TEST_F(TenantFleetServing, SameBucketRetrainCoalescesAcrossTenants) {
  FleetOptions options;
  options.tenants = 2;
  options.shard.shards = 2;
  TenantFleet fleet(options);
  fleet.attach_rafiki(*rafiki_);
  fleet.publish(serve::make_snapshot(*rafiki_));
  fleet.start();

  // The same unseen read ratio from both tenants: both tuners read one memo
  // and key their retrain by bucket, so tenant 1's miss coalesces into
  // tenant 0's pending task (or, once that search has landed, hits).
  const double rr = 0.55;
  const auto r0 = fleet.call(request_for(0, serve::Endpoint::kObserveWindow, rr));
  const auto r1 = fleet.call(request_for(1, serve::Endpoint::kObserveWindow, rr));
  ASSERT_EQ(r0.status, serve::Status::kOk);
  ASSERT_EQ(r1.status, serve::Status::kOk);
  EXPECT_TRUE(r0.stale);
  fleet.wait_retrain_idle();

  EXPECT_EQ(fleet.telemetry().retrain.runs, 1u);
  EXPECT_EQ(fleet.tuner(0)->optimizer_runs() + fleet.tuner(1)->optimizer_runs(), 1u);
  EXPECT_TRUE(fleet.tuner(0)->cached(rr));
  EXPECT_TRUE(fleet.tuner(1)->cached(rr));
  // The one search republished into both tenants' slots: bit-identical
  // entries, and both versions advanced past the initial publish.
  const int bucket = fleet.tuner(0)->bucket_for(rr);
  const auto s0 = fleet.tenant_snapshot(0);
  const auto s1 = fleet.tenant_snapshot(1);
  ASSERT_EQ(s0->tuned.count(bucket), 1u);
  ASSERT_EQ(s1->tuned.count(bucket), 1u);
  EXPECT_EQ(s0->tuned.at(bucket).config, s1->tuned.at(bucket).config);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(s0->tuned.at(bucket).predicted_throughput),
            std::bit_cast<std::uint64_t>(s1->tuned.at(bucket).predicted_throughput));
  EXPECT_GT(fleet.tenant_model_version(0), 1u);
  EXPECT_GT(fleet.tenant_model_version(1), 1u);
  fleet.stop();
}

// The tsan probe: the rebalance policy thread rewrites the route table while
// publishes fan out to every shard and concurrent clients submit across
// tenants. No assertion beyond "finishes and stays coherent" — the value is
// the interleaving under -fsanitize=thread.
TEST_F(TenantFleetServing, RebalanceRacesPublishAndTrafficCleanly) {
  FleetOptions options;
  options.tenants = 4;
  options.shard.shards = 4;
  options.shard.service.workers = 2;
  options.shard.rebalance_interval = std::chrono::milliseconds(1);
  TenantFleet fleet(options);
  fleet.publish(serve::make_snapshot(*rafiki_));
  fleet.start();

  std::atomic<bool> stop{false};
  const auto tuned = rafiki_->optimize(0.3);
  std::thread publisher([&] {
    int bucket = 0;
    while (!stop.load(std::memory_order_acquire)) {
      fleet.publish_tuned(static_cast<serve::TenantId>(bucket % 4), bucket % 101,
                          tuned.config, tuned.predicted_throughput);
      ++bucket;
    }
  });
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&fleet, &stop, c] {
      std::uint32_t i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const auto tenant = static_cast<serve::TenantId>((i + c) % 4);
        const double rr = static_cast<double>(i % 101) / 100.0;
        fleet.submit(request_for(tenant, serve::Endpoint::kPredict, rr)).get();
        ++i;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop.store(true, std::memory_order_release);
  publisher.join();
  for (auto& t : clients) t.join();
  fleet.stop();

  // Coherence after the storm: every tenant still serves a snapshot and the
  // route table still maps every key to a live shard.
  for (serve::TenantId t = 0; t < 4; ++t) {
    EXPECT_NE(fleet.tenant_snapshot(t), nullptr);
    for (std::size_t band = 0; band < serve::ShardedTuningService::kBands; ++band) {
      EXPECT_LT(fleet.shard_of_key(t, band), fleet.shard_count());
    }
  }
}

}  // namespace
}  // namespace rafiki::tenant
