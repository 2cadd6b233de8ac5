// Sharded serving: a router that partitions the tuning service by workload
// fingerprint, after the per-workload-signature tuning of Tuneful and the
// paper's per-RR-bucket model cache.
//
//   client ──try_submit──▶ router ──band(rr)──▶ route table ──▶ shard k
//                            │                     ▲                │
//                            │  kOverloaded spill  │ rebalance      ├─ queue
//                            └──▶ shard k+1 ...    │ (hot band      ├─ workers
//                                                  │  migration)    ├─ batcher
//                                                  └────────────────┴─ retrain
//
// Each shard is a full TuningService — its own bounded queue, worker pool,
// micro-batcher, snapshot registry slots, and retrain worker — so the
// hot path shares NOTHING across shards: no common queue mutex, no common
// stats lock (ServiceStats is itself striped), no common registry. Requests
// are routed by a stable fingerprint of their (tenant, read-ratio band) key
// (band = percent bucket of the read ratio, the same quantization the
// tuner's model cache uses), hashed into a fixed table of route slots — so
// one tenant-workload's traffic always lands on one shard and its
// tuned-config republishes never contend with another's, while different
// tenants at the same read ratio can land on different shards.
//
// Policies:
//   * Spill — if the home shard's queue is full (kOverloaded), the router
//     retries up to `spill_limit` sibling shards before giving up. Safe for
//     every endpoint: Predict/Optimize are pure functions of the tenant's
//     snapshot (identical on all shards; see publish), ObserveWindow goes
//     through the tenant's single shared, internally-synchronized tuner.
//   * Rebalance — per-route-slot hit counters feed rebalance_hottest(),
//     which migrates the hottest slot of the most-loaded shard to the
//     least-loaded one with a single atomic route-table store. With
//     ShardOptions::rebalance_interval set, a background policy thread runs
//     this migration automatically off the striped telemetry — no explicit
//     rebalance_hottest() calls needed. In-flight requests finish on the
//     shard that admitted them; nothing is dropped.
//   * Publish fan-out — publish() and the tuner's tuned-config hook write
//     the same snapshot/entry to every shard under one router mutex, so
//     shard versions advance in lockstep and a spilled request reads the
//     same model it would have read at home.
//   * Stats merge-on-read — request-path telemetry stays in the shards'
//     striped ServiceStats; telemetry() runs the one ServiceStats fold over
//     the router's wire-level stats object and then every shard, so the
//     merged value (and its table) has the exact layout of the unsharded
//     service's, plus one load row per shard.
//
//   * Inline Predict rounds — answer_predicts routes each request of a
//     caller's round to its home shard (counting the same slot hits) and
//     lets that shard answer its share on the caller's thread, one forward
//     per (shard, tenant). Nothing queues, so nothing spills.
//
// tenant::TenantFleet derives from this router and overrides only the two
// entry points, try_submit and answer_predicts (tenant admission in front
// of routing); everything else here serves a fleet unchanged.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "serve/backend.h"
#include "serve/service.h"
#include "util/sync.h"

namespace rafiki::serve {

struct ShardOptions {
  /// Shard count; clamped to [1, 128]. Every shard gets a full copy of
  /// `service` (queue, worker pool, batcher, retrain worker).
  std::size_t shards = 4;
  ServiceOptions service{};
  /// Fleet-level worker budget, divided across shards (shard i gets
  /// budget/N workers, +1 for the first budget%N shards). 0 (the default)
  /// derives the budget from `service.workers` capped by the machine:
  /// min(hardware_concurrency, shards * service.workers), floored at one
  /// worker per shard. This is the de-scaling fix — the pre-budget router
  /// gave every shard its own full `service.workers` pool, so 8 shards x
  /// (2 workers + a retrain thread) oversubscribed any host with fewer
  /// than ~24 hardware threads and the shard curve went flat or negative.
  /// An explicit budget is clamped to at least one worker per shard.
  /// service.workers == 0 keeps every shard at zero workers (test mode).
  std::size_t worker_budget = 0;
  /// Pin each shard's workers to a contiguous CPU range (shard i gets CPUs
  /// [i*H/N, (i+1)*H/N) of H = hardware_concurrency). Off (the default):
  /// the scheduler places threads freely. Linux-only; elsewhere a no-op.
  bool pin_shards = false;
  /// On a home-shard Overloaded verdict, try up to this many sibling shards
  /// (in route order) before reporting Overloaded to the caller. 0 disables
  /// spilling.
  std::size_t spill_limit = 1;
  /// Automatic rebalance: start() spawns a background policy thread that
  /// wakes at this interval and migrates the hottest (tenant, band) route
  /// slot off the most-loaded shard (exactly rebalance_hottest(), driven by
  /// the same striped hit telemetry). Zero (the default) disables the
  /// thread; explicit rebalance_hottest() calls work either way.
  std::chrono::milliseconds rebalance_interval{0};
};

class ShardedTuningService : public TuningBackend {
 public:
  /// Read-ratio bands: percent buckets of rr in [0, 1] — the same
  /// quantization as the tuner's per-bucket model cache, so one tuned
  /// workload maps to exactly one band.
  static constexpr std::size_t kBands = 101;
  /// Route-table size: (tenant, band) keys hash into this many slots, each
  /// atomically mapped to a shard. A slot is the unit of migration; distinct
  /// keys sharing a slot move together (ordinary hash-sharding collisions).
  static constexpr std::size_t kRouteSlots = 1024;

  /// Percent band of a read ratio (clamped into [0, kBands)).
  static std::size_t band_of(double read_ratio) noexcept;
  /// Stable fingerprint of a band in the default tenant namespace (tenant
  /// 0): a pure integer mix (splitmix64 finalizer) of the band index — no
  /// pointers, no process state — so band->shard assignment is identical
  /// across restarts and machines for a given shard count.
  static std::uint64_t band_fingerprint(std::size_t band) noexcept;
  /// Stable fingerprint of a (tenant, band) routing key; tenant 0 reduces to
  /// band_fingerprint, so pre-tenant routing is unchanged.
  static std::uint64_t route_fingerprint(TenantId tenant, std::size_t band) noexcept;
  /// Route-table slot of a (tenant, band) key.
  static std::size_t route_slot(TenantId tenant, std::size_t band) noexcept {
    return static_cast<std::size_t>(route_fingerprint(tenant, band) % kRouteSlots);
  }

  explicit ShardedTuningService(ShardOptions options = {});
  ~ShardedTuningService() override;

  ShardedTuningService(const ShardedTuningService&) = delete;
  ShardedTuningService& operator=(const ShardedTuningService&) = delete;

  /// Fans the snapshot out to every shard under one mutex; shard versions
  /// advance in lockstep. Returns the (common) new version.
  std::uint64_t publish(ModelSnapshot snapshot) override;
  std::shared_ptr<const ModelSnapshot> tenant_snapshot(TenantId tenant) const override;
  std::uint64_t tenant_model_version(TenantId tenant) const override;

  /// Claims the shared tuner's single-slot hooks for the router: tuned
  /// configs fan out to every shard's snapshot, async optimizations route to
  /// the owning shard's RetrainWorker; every shard gets the tuner bound
  /// (bind_tenant_tuner) for its ObserveWindow path. Equivalent to
  /// attach_tenant_tuner(0, tuner).
  void attach_tuner(core::OnlineTuner& tuner) override;

  /// Tenant-fleet variant of attach_tuner: claims `tuner`'s hooks for one
  /// tenant namespace — republishes fan out into every shard's slot for
  /// `tenant` only, and the tuner is bound to every shard's ObserveWindow
  /// path for this tenant. Background optimizations run on the shard owning
  /// the bucket's centre band (shard_of_band); the tuner's memo hands each
  /// bucket off once, so tuners sharing a TuneMemo cost one task per bucket
  /// fleet-wide.
  void attach_tenant_tuner(TenantId tenant, core::OnlineTuner& tuner);

  /// Tenant-qualified tuned-entry fan-out (all shards, one tenant slot,
  /// lockstep under the router publish mutex).
  void publish_tuned(TenantId tenant, int bucket, const engine::Config& config,
                     double predicted);

  Status try_submit(Request request, ResponseCallback done) override;
  /// Every request goes to its home shard's answer_rows (see file comment).
  void answer_predicts(std::span<const Request> requests, std::span<Response> responses,
                       PredictScratch& scratch) override;

  void start() override;
  void stop() override;

  /// Router-level stats: wire telemetry (net::Server records here) and fleet
  /// admission counters, nothing on the request path — request counters
  /// live in the shards.
  ServiceStats& stats() noexcept override { return router_stats_; }
  const ServiceStats& stats() const noexcept override { return router_stats_; }
  /// The router's stats folded first, then every shard's (one load row
  /// each), plus spills and rebalances.
  Telemetry telemetry() const override;

  void wait_retrain_idle() override;

  std::size_t shard_count() const noexcept { return shards_.size(); }
  /// Total worker threads across all shards after budget resolution — the
  /// sum of every shard's worker_count(). Never exceeds
  /// max(worker_budget, shards) for an explicit budget, nor
  /// max(min(hardware_concurrency, shards * service.workers), shards) for
  /// the derived one (0 when service.workers == 0).
  std::size_t resolved_worker_budget() const noexcept;
  TuningService& shard(std::size_t index) { return *shards_[index]; }
  const TuningService& shard(std::size_t index) const { return *shards_[index]; }
  /// Current route of a tenant-0 read ratio / band (lock-free relaxed load).
  std::size_t shard_of(double read_ratio) const noexcept;
  std::size_t shard_of_band(std::size_t band) const noexcept;
  /// Current route of a (tenant, band) key.
  std::size_t shard_of_key(TenantId tenant, std::size_t band) const noexcept;
  /// Pins a tenant-0 band to a shard (tests, manual rebalance).
  void route_band(std::size_t band, std::size_t shard_index) noexcept;
  /// Pins a (tenant, band) key's route slot to a shard.
  void route_key(TenantId tenant, std::size_t band, std::size_t shard_index) noexcept;

  /// Migrates the hottest route slot of the most-loaded shard (by routed
  /// request count) to the least-loaded shard. Returns false when there is
  /// nothing to move (uniform load, single shard, or no traffic). The
  /// rebalance policy thread (ShardOptions::rebalance_interval) calls this
  /// on a timer; it is also safe to call manually at any time.
  bool rebalance_hottest();

  /// Requests absorbed by a sibling shard after a home-shard Overloaded.
  std::uint64_t spills() const noexcept { return spills_.load(std::memory_order_relaxed); }
  /// Successful rebalance_hottest() migrations.
  std::uint64_t rebalances() const noexcept {
    return rebalances_.load(std::memory_order_relaxed);
  }

  const ShardOptions& options() const noexcept { return options_; }

 protected:
  /// answer_predicts over the requests named by `rows` (reordered in place,
  /// never narrowed) — the fleet's entry after its admission pass.
  void answer_routed(std::span<const Request> requests, std::span<Response> responses,
                     std::span<std::uint32_t> rows, PredictScratch& scratch);

 private:
  void rebalance_loop();

  ShardOptions options_;
  std::vector<std::unique_ptr<TuningService>> shards_;
  /// route slot -> shard index. uint8 caps shards at 128 (clamped in the
  /// ctor); reads are relaxed atomic loads on the submit path, writes only
  /// from route_key / rebalance_hottest.
  std::array<std::atomic<std::uint8_t>, kRouteSlots> route_{};
  /// Per-route-slot routed-request counters (relaxed); rebalance input —
  /// the striped telemetry the policy thread migrates on.
  std::array<std::atomic<std::uint64_t>, kRouteSlots> slot_hits_{};
  ServiceStats router_stats_;
  std::atomic<std::uint64_t> spills_{0};
  std::atomic<std::uint64_t> rebalances_{0};
  /// Rebalance policy thread (only when rebalance_interval > 0). Spawned in
  /// start(), stopped via the stop_ handshake + join in stop().
  std::thread rebalance_thread_;
  Mutex rebalance_lifecycle_mutex_;
  CondVar rebalance_stop_cv_;
  bool rebalance_started_ GUARDED_BY(rebalance_lifecycle_mutex_) = false;
  bool rebalance_stop_ GUARDED_BY(rebalance_lifecycle_mutex_) = false;
  /// Serializes fan-out publishes so all shards see the same snapshot
  /// sequence (and therefore mint identical version numbers). Lock
  /// hierarchy: acquired BEFORE any shard's publish_mutex_ (the fan-out
  /// calls into shard->publish/publish_tuned while held) — see "Concurrency
  /// contracts" in DESIGN.md; never acquired from shard code.
  Mutex publish_mutex_;
  /// Serializes route-table rewrites (reads stay lock-free relaxed atomic
  /// loads on the submit path; the route_ slots themselves are atomics, so
  /// they carry no GUARDED_BY — the mutex only orders writers).
  Mutex rebalance_mutex_;
};

}  // namespace rafiki::serve
