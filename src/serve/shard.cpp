#include "serve/shard.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/online.h"

namespace rafiki::serve {
namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

std::size_t hw_threads() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

/// Fleet worker budget for N shards. An explicit budget is taken as given
/// (floored at one worker per shard so no shard deadlocks its queue); the
/// derived budget caps the legacy shards*workers sizing at the machine's
/// hardware threads — the oversubscription that made 8 shards slower than 1.
std::size_t resolve_budget(const ShardOptions& options, std::size_t shards) noexcept {
  if (options.worker_budget > 0) return std::max(options.worker_budget, shards);
  if (options.service.workers == 0) return 0;  // test mode: no workers anywhere
  const std::size_t requested = shards * options.service.workers;
  return std::max(shards, std::min(hw_threads(), requested));
}

/// Contiguous CPU slice for shard i of n: [i*H/n, (i+1)*H/n). With more
/// shards than CPUs the slice is empty — fall back to a single shared CPU
/// (i % H) so pinning still separates shards as far as the machine allows.
std::vector<int> shard_cpu_slice(std::size_t shard, std::size_t shards) {
  const std::size_t hw = hw_threads();
  const std::size_t lo = shard * hw / shards;
  const std::size_t hi = (shard + 1) * hw / shards;
  std::vector<int> cpus;
  for (std::size_t cpu = lo; cpu < hi; ++cpu) cpus.push_back(static_cast<int>(cpu));
  if (cpus.empty()) cpus.push_back(static_cast<int>(shard % hw));
  return cpus;
}

}  // namespace

std::size_t ShardedTuningService::band_of(double read_ratio) noexcept {
  const long scaled = std::lround(read_ratio * 100.0);
  return static_cast<std::size_t>(
      std::clamp<long>(scaled, 0, static_cast<long>(kBands - 1)));
}

std::uint64_t ShardedTuningService::band_fingerprint(std::size_t band) noexcept {
  return route_fingerprint(0, band);
}

std::uint64_t ShardedTuningService::route_fingerprint(TenantId tenant,
                                                      std::size_t band) noexcept {
  // splitmix64 finalizer over the packed (tenant, band) key: a pure integer
  // mix — no pointers, no process state — so key->slot->shard assignment is
  // reproducible across restarts for a fixed shard count. Bands fit in 7
  // bits (kBands = 101), so the packing is collision-free, and tenant 0
  // reduces to the original per-band fingerprint.
  std::uint64_t z = ((static_cast<std::uint64_t>(tenant) << 7) |
                     static_cast<std::uint64_t>(band)) +
                    0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

ShardedTuningService::ShardedTuningService(ShardOptions options)
    : options_(std::move(options)) {
  options_.shards = std::clamp<std::size_t>(options_.shards, 1, 128);
  shards_.reserve(options_.shards);
  // Divide the fleet budget across shards instead of handing every shard its
  // own full pool: budget/N each, +1 for the first budget%N shards, so the
  // division is deterministic for a given (budget, shards) and the total
  // never exceeds the budget.
  const std::size_t budget = resolve_budget(options_, options_.shards);
  for (std::size_t i = 0; i < options_.shards; ++i) {
    ServiceOptions per_shard = options_.service;
    per_shard.workers = budget / options_.shards + (i < budget % options_.shards ? 1 : 0);
    if (options_.pin_shards) per_shard.cpu_affinity = shard_cpu_slice(i, options_.shards);
    shards_.push_back(std::make_unique<TuningService>(std::move(per_shard)));
  }
  for (std::size_t slot = 0; slot < kRouteSlots; ++slot) {
    // Initial slot->shard spread reuses the same pure mix (of the slot
    // index), keeping the table identical across restarts.
    route_[slot].store(
        static_cast<std::uint8_t>(band_fingerprint(slot) % options_.shards), kRelaxed);
  }
}

ShardedTuningService::~ShardedTuningService() { stop(); }

std::uint64_t ShardedTuningService::publish(ModelSnapshot snapshot) {
  MutexLock lock(publish_mutex_);
  std::uint64_t version = 0;
  for (auto& shard : shards_) version = shard->publish(snapshot);
  return version;
}

std::shared_ptr<const ModelSnapshot> ShardedTuningService::tenant_snapshot(
    TenantId tenant) const {
  return shards_.front()->tenant_snapshot(tenant);
}

std::uint64_t ShardedTuningService::tenant_model_version(TenantId tenant) const {
  return shards_.front()->tenant_model_version(tenant);
}

void ShardedTuningService::attach_tuner(core::OnlineTuner& tuner) {
  attach_tenant_tuner(0, tuner);
}

void ShardedTuningService::attach_tenant_tuner(TenantId tenant, core::OnlineTuner& tuner) {
  // The tuner's hooks are single-slot, so the router — not any one shard —
  // must own them and fan out. Publishes land in this tenant's slot only.
  tuner.set_publish_hook(
      [this, tenant](int bucket, const core::Rafiki::OptimizeResult& result) {
        publish_tuned(tenant, bucket, result.config, result.predicted_throughput);
      });
  // The memo hands a bucket off once however many tenants miss it; the
  // task always runs on the shard owning the bucket's centre band, so no
  // second shard's retrain thread parks waiting on the first's GA.
  const double rr_bucket = tuner.memo()->rr_bucket();
  tuner.set_async_optimize_hook([this, &tuner, rr_bucket](int bucket, double read_ratio) {
    const std::size_t band = band_of(bucket * rr_bucket);
    return shards_[shard_of_band(band)]->retrain_worker().enqueue({&tuner, read_ratio, {}});
  });
  for (auto& shard : shards_) shard->bind_tenant_tuner(tenant, tuner);
}

void ShardedTuningService::publish_tuned(TenantId tenant, int bucket,
                                         const engine::Config& config, double predicted) {
  MutexLock lock(publish_mutex_);
  for (auto& shard : shards_) shard->publish_tuned(tenant, bucket, config, predicted);
}

std::size_t ShardedTuningService::shard_of_key(TenantId tenant,
                                               std::size_t band) const noexcept {
  return route_[route_slot(tenant, std::min(band, kBands - 1))].load(kRelaxed) %
         shards_.size();
}

std::size_t ShardedTuningService::shard_of_band(std::size_t band) const noexcept {
  return shard_of_key(0, band);
}

std::size_t ShardedTuningService::shard_of(double read_ratio) const noexcept {
  return shard_of_key(0, band_of(read_ratio));
}

void ShardedTuningService::route_band(std::size_t band, std::size_t shard_index) noexcept {
  route_key(0, band, shard_index);
}

void ShardedTuningService::route_key(TenantId tenant, std::size_t band,
                                     std::size_t shard_index) noexcept {
  if (band >= kBands || shard_index >= shards_.size()) return;
  route_[route_slot(tenant, band)].store(static_cast<std::uint8_t>(shard_index), kRelaxed);
}

Status ShardedTuningService::try_submit(Request request, ResponseCallback done) {
  const std::size_t slot = route_slot(request.tenant, band_of(request.read_ratio));
  slot_hits_[slot].fetch_add(1, kRelaxed);
  const std::size_t home = route_[slot].load(kRelaxed) % shards_.size();

  // offer() moves `done` into the queue only on kOk and hands it back intact
  // on rejection, so home admission and every spill retry reuse the one
  // callback — the pre-fix router copied the std::function per attempt,
  // including on the no-spill fast path.
  Status verdict = shards_[home]->offer(request, done);
  if (verdict != Status::kOverloaded) return verdict;

  const std::size_t tries = std::min(options_.spill_limit, shards_.size() - 1);
  for (std::size_t i = 1; i <= tries; ++i) {
    const std::size_t sibling = (home + i) % shards_.size();
    verdict = shards_[sibling]->offer(request, done);
    if (verdict == Status::kOk) {
      spills_.fetch_add(1, kRelaxed);
      return verdict;
    }
    if (verdict == Status::kShuttingDown) return verdict;
  }
  return verdict;
}

void ShardedTuningService::answer_predicts(std::span<const Request> requests,
                                           std::span<Response> responses,
                                           PredictScratch& scratch) {
  answer_routed(requests, responses, scratch.every_row(requests.size()), scratch);
}

void ShardedTuningService::answer_routed(std::span<const Request> requests,
                                         std::span<Response> responses,
                                         std::span<std::uint32_t> rows,
                                         PredictScratch& scratch) {
  // Each row counts toward its route slot (the rebalance input) exactly as
  // a try_submit would, and its home shard answers and records it, so the
  // per-shard load rows keep their meaning. The route is read once per row.
  auto& home = scratch.keys;
  home.resize(requests.size());
  for (const std::uint32_t r : rows) {
    const std::size_t slot = route_slot(requests[r].tenant, band_of(requests[r].read_ratio));
    slot_hits_[slot].fetch_add(1, kRelaxed);
    home[r] = static_cast<std::uint32_t>(route_[slot].load(kRelaxed) % shards_.size());
  }
  std::sort(rows.begin(), rows.end(), [&](std::uint32_t a, std::uint32_t b) {
    return home[a] != home[b] ? home[a] < home[b] : a < b;
  });
  for (std::size_t begin = 0; begin < rows.size();) {
    const std::uint32_t shard = home[rows[begin]];
    std::size_t end = begin + 1;
    while (end < rows.size() && home[rows[end]] == shard) ++end;
    shards_[shard]->answer_rows(requests, responses, rows.subspan(begin, end - begin), scratch);
    begin = end;
  }
}

void ShardedTuningService::start() {
  for (auto& shard : shards_) shard->start();
  if (options_.rebalance_interval.count() > 0) {
    MutexLock lock(rebalance_lifecycle_mutex_);
    if (!rebalance_started_ && !rebalance_stop_) {
      rebalance_started_ = true;
      rebalance_thread_ = std::thread([this] { rebalance_loop(); });
    }
  }
}

void ShardedTuningService::stop() {
  {
    MutexLock lock(rebalance_lifecycle_mutex_);
    rebalance_stop_ = true;
  }
  rebalance_stop_cv_.notify_all();
  if (rebalance_thread_.joinable()) rebalance_thread_.join();
  for (auto& shard : shards_) shard->stop();
}

void ShardedTuningService::rebalance_loop() {
  for (;;) {
    {
      MutexLock lock(rebalance_lifecycle_mutex_);
      // The pacing deadline is real time by design: it decides only *when*
      // the policy thread looks at the telemetry, never what any request
      // returns (a migration just changes which shard serves a key).
      // det:ok(wall-clock): policy-thread pacing only, results unaffected
      const auto deadline = std::chrono::steady_clock::now() + options_.rebalance_interval;
      while (!rebalance_stop_) {
        if (rebalance_stop_cv_.wait_until(rebalance_lifecycle_mutex_, deadline) ==
            std::cv_status::timeout) {
          break;
        }
      }
      if (rebalance_stop_) return;
    }
    rebalance_hottest();
  }
}

void ShardedTuningService::wait_retrain_idle() {
  for (auto& shard : shards_) shard->wait_retrain_idle();
}

bool ShardedTuningService::rebalance_hottest() {
  MutexLock lock(rebalance_mutex_);
  const std::size_t n = shards_.size();
  if (n < 2) return false;

  // Shard load = routed hits of the slots it currently owns; also track each
  // shard's hottest slot so the migration victim falls out of the same scan.
  std::vector<std::uint64_t> load(n, 0);
  std::vector<std::size_t> hottest_slot(n, kRouteSlots);
  std::vector<std::uint64_t> hottest_hits(n, 0);
  for (std::size_t slot = 0; slot < kRouteSlots; ++slot) {
    const std::size_t owner = route_[slot].load(kRelaxed) % n;
    const std::uint64_t hits = slot_hits_[slot].load(kRelaxed);
    load[owner] += hits;
    if (hits > hottest_hits[owner]) {
      hottest_hits[owner] = hits;
      hottest_slot[owner] = slot;
    }
  }

  std::size_t most = 0;
  std::size_t least = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (load[i] > load[most]) most = i;
    if (load[i] < load[least]) least = i;
  }
  if (most == least || hottest_slot[most] == kRouteSlots) return false;
  // Greedy improvement check: migrate only if the receiver stays below the
  // donor's current load, otherwise the move just swaps the hot spot.
  const std::uint64_t moved = hottest_hits[most];
  if (moved == 0 || load[least] + moved >= load[most]) return false;

  route_[hottest_slot[most]].store(static_cast<std::uint8_t>(least), kRelaxed);
  rebalances_.fetch_add(1, kRelaxed);
  return true;
}

std::size_t ShardedTuningService::resolved_worker_budget() const noexcept {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->worker_count();
  return total;
}

Telemetry ShardedTuningService::telemetry() const {
  Telemetry out;
  router_stats_.fold_into(out);
  for (const auto& shard : shards_) shard->fold_into(out);
  out.spills = spills();
  out.rebalances = rebalances();
  return out;
}

}  // namespace rafiki::serve
