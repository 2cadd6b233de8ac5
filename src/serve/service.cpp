#include "serve/service.h"

#include <algorithm>
#include <array>
#include <functional>
#include <utility>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#include <time.h>
#endif

#include "core/fitness.h"
#include "core/online.h"

namespace rafiki::serve {
namespace {

double elapsed_us(std::chrono::steady_clock::time_point since,
                  std::chrono::steady_clock::time_point until) {
  return std::chrono::duration<double, std::micro>(until - since).count();
}

ServiceOptions sanitize(ServiceOptions options) {
  if (options.tenants == 0) options.tenants = 1;
  return options;
}

/// Pins the calling thread to one CPU (no-op off Linux or on failure —
/// affinity is a performance hint, never a correctness requirement).
void pin_current_thread(int cpu) {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(cpu), &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)cpu;
#endif
}

/// CPU time this thread has burned so far, in microseconds (telemetry only).
std::uint64_t thread_cpu_us() {
#if defined(__linux__)
  timespec ts{};
  // det:ok(wall-clock): per-thread CPU-time telemetry; no result depends on it
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1000ull;
#else
  return 0;
#endif
}

}  // namespace

TuningService::TuningService(ServiceOptions options)
    : options_(sanitize(std::move(options))),
      registries_(options_.tenants),
      version_counters_(options_.tenants, 0),
      pending_tuned_(options_.tenants),
      queue_(options_.queue_capacity),
      retrain_(&stats_),
      tuners_(options_.tenants) {}

TuningService::~TuningService() { stop(); }

std::uint64_t TuningService::publish(ModelSnapshot snapshot) {
  MutexLock lock(publish_mutex_);
  // Every tenant slot gets the new model; each stamps its own version (so a
  // tenant's version history stays monotonic and tenant-local). Tenant 0's
  // version is returned for single-tenant callers.
  std::uint64_t first = 0;
  for (TenantId tenant = 1; tenant < registries_.size(); ++tenant) {
    publish_locked(tenant, snapshot);  // copies; tenant 0 below takes the original
  }
  first = publish_locked(0, std::move(snapshot));
  return first;
}

std::uint64_t TuningService::publish_locked(TenantId tenant, ModelSnapshot snapshot) {
  // Fold in tuned entries that arrived before this tenant's first real
  // publish; entries already in the snapshot win.
  auto& pending = pending_tuned_[tenant];
  for (const auto& [bucket, entry] : pending) snapshot.tuned.emplace(bucket, entry);
  pending.clear();
  snapshot.version = ++version_counters_[tenant];
  const std::uint64_t version = snapshot.version;
  registries_[tenant].set(std::make_shared<const ModelSnapshot>(std::move(snapshot)));
  return version;
}

std::uint64_t TuningService::tenant_model_version(TenantId tenant) const {
  const auto snapshot = tenant_snapshot(tenant);
  return snapshot ? snapshot->version : 0;
}

void TuningService::attach_tuner(core::OnlineTuner& tuner) {
  tuner.set_publish_hook([this](int bucket, const core::Rafiki::OptimizeResult& result) {
    publish_tuned(0, bucket, result.config, result.predicted_throughput);
  });
  // Route the tuner's cache misses (ObserveWindow staleness, prefetch) to
  // the background worker: no GA ever runs on a request-path thread. The
  // task runs this tuner's search, whose publish hook is set above.
  tuner.set_async_optimize_hook([this, &tuner](int /*bucket*/, double read_ratio) {
    return retrain_.enqueue({&tuner, read_ratio, {}});
  });
  tuners_[0].store(&tuner, std::memory_order_release);
}

void TuningService::bind_tenant_tuner(TenantId tenant, core::OnlineTuner& tuner) {
  // Pointer only — the tuner's single-slot hooks stay untouched so a router
  // or fleet that shares / owns the tuner can install them itself
  // (attach_tuner here would make last-attached-shard win and drop everyone
  // else's republish).
  if (tenant >= tuners_.size()) return;
  tuners_[tenant].store(&tuner, std::memory_order_release);
}

void TuningService::publish_tuned(TenantId tenant, int bucket,
                                  const engine::Config& config, double predicted) {
  // Copy-on-write republication: the tuned-config table rides inside the
  // immutable snapshot, so readers see it with the same lock-free load.
  // Only this tenant's slot is touched; sibling tenants keep the exact
  // shared_ptr (and version) they were already serving.
  if (tenant >= registries_.size()) return;
  MutexLock lock(publish_mutex_);
  const auto current = registries_[tenant].get();
  if (!current) {
    // Nothing real is published yet: don't burn a version on a snapshot
    // with an untrained ensemble and null space — park the entry until the
    // tenant's first publish() folds it in.
    pending_tuned_[tenant][bucket] = TunedEntry{config, predicted};
    return;
  }
  ModelSnapshot next = *current;
  next.tuned[bucket] = TunedEntry{config, predicted};
  publish_locked(tenant, std::move(next));
}

Status TuningService::offer(const Request& request, ResponseCallback& done) {
  Job job;
  job.request = request;
  job.done = std::move(done);
  // det:ok(wall-clock): reporting-only latency timestamp; results never depend on it
  job.enqueued = std::chrono::steady_clock::now();

  const Endpoint endpoint = request.endpoint;
  const PushResult pushed = queue_.try_push(std::move(job));
  if (pushed != PushResult::kOk) {
    // The push itself reports why it failed — atomically, under the queue
    // lock — so a concurrent close() can never turn a full-queue rejection
    // into a spurious kShuttingDown. The rejected job is intact (try_push
    // moves only on kOk): hand the callback back for a spill retry.
    done = std::move(job.done);
    const Status reason =
        pushed == PushResult::kClosed ? Status::kShuttingDown : Status::kOverloaded;
    stats_.record_reject(endpoint, reason);
    return reason;
  }
  // Depth is sampled from the lock-free hint: the exact size() re-took the
  // queue mutex once per accepted request just for telemetry.
  stats_.record_accept(endpoint, queue_.approx_size());
  return Status::kOk;
}

Status TuningService::try_submit(Request request, ResponseCallback done) {
  return offer(request, done);
}

void TuningService::start() {
  MutexLock lock(lifecycle_mutex_);
  if (started_ || stopped_) return;
  started_ = true;
  retrain_.start();
  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

void TuningService::stop() {
  {
    MutexLock lock(lifecycle_mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  queue_.close();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  // Request workers are gone, so nothing can enqueue retrains anymore; the
  // background worker cancels its backlog (an in-flight GA always completes
  // and still republishes through the registry).
  retrain_.stop();
  // No worker ever consumed these (workers == 0, or stop before start):
  // fail them instead of leaving their futures hanging.
  while (auto job = queue_.try_pop()) {
    Response response;
    response.status = Status::kShuttingDown;
    finish(*job, response);
  }
}

Telemetry TuningService::telemetry() const {
  Telemetry out;
  fold_into(out);
  return out;
}

void TuningService::fold_into(Telemetry& out) const {
  stats_.fold_into(out);
  ShardLoad load;
  load.predict_completed = stats_.counters(Endpoint::kPredict).completed;
  load.workers = options_.workers;
  load.worker_cpu_us = worker_cpu_us_.load(std::memory_order_relaxed);
  load.mean_queue_depth = stats_.mean_queue_depth();
  load.max_queue_depth = stats_.max_queue_depth();
  load.retrain_depth = retrain_.depth();
  out.shards.push_back(load);
}

void TuningService::answer_predicts(std::span<const Request> requests,
                                    std::span<Response> responses, PredictScratch& scratch) {
  answer_rows(requests, responses, scratch.every_row(requests.size()), scratch);
}

void TuningService::answer_rows(std::span<const Request> requests,
                                std::span<Response> responses, std::span<std::uint32_t> rows,
                                PredictScratch& scratch) {
  if (queue_.closed_hint()) {
    // Stopped: the same verdict try_submit gives a closed queue.
    for (const std::uint32_t r : rows) {
      responses[r] = Response{};
      responses[r].status = Status::kShuttingDown;
      stats_.record_reject(Endpoint::kPredict, Status::kShuttingDown);
    }
    return;
  }
  // det:ok(wall-clock): reporting-only latency measurement
  const auto start = std::chrono::steady_clock::now();
  forward_rows(requests, responses, rows, scratch);
  // det:ok(wall-clock): reporting-only latency measurement
  const double latency = elapsed_us(start, std::chrono::steady_clock::now());
  std::array<std::size_t, kStatusCount> by_status{};
  for (const std::uint32_t r : rows) ++by_status[static_cast<std::size_t>(responses[r].status)];
  for (std::size_t status = 0; status < kStatusCount; ++status) {
    if (by_status[status] == 0) continue;
    stats_.record_answered(Endpoint::kPredict, static_cast<Status>(status), by_status[status],
                           latency);
  }
}

void TuningService::worker_loop(std::size_t worker_index) {
  if (!options_.cpu_affinity.empty()) {
    pin_current_thread(
        options_.cpu_affinity[worker_index % options_.cpu_affinity.size()]);
  }
  WorkerScratch scratch;
  while (auto job = queue_.pop()) {
    if (job->request.endpoint != Endpoint::kPredict) {
      run_single(std::move(*job));
      continue;
    }

    // Micro-batcher: coalesce the Predict requests queued behind this one,
    // up to max_batch. An empty queue means no co-arriving requests, so the
    // batch runs now rather than waiting for more. A non-Predict request
    // popped while draining terminates the batch and runs right after it.
    scratch.batch.push_back(std::move(*job));
    std::optional<Job> carry;
    while (scratch.batch.size() < options_.max_batch) {
      auto next = queue_.try_pop();
      if (!next) break;
      if (next->request.endpoint == Endpoint::kPredict) {
        scratch.batch.push_back(std::move(*next));
      } else {
        carry = std::move(*next);
        break;
      }
    }
    run_predict_batch(scratch);
    if (carry) run_single(std::move(*carry));
  }
  worker_cpu_us_.fetch_add(thread_cpu_us(), std::memory_order_relaxed);
}

void TuningService::finish(Job& job, Response response) {
  // det:ok(wall-clock): reporting-only latency measurement
  const auto now = std::chrono::steady_clock::now();
  stats_.record_done(job.request.endpoint, response.status, elapsed_us(job.enqueued, now));
  job.done(std::move(response));
}

void TuningService::run_predict_batch(WorkerScratch& scratch) {
  scratch.requests.clear();
  for (const Job& job : scratch.batch) scratch.requests.push_back(job.request);
  scratch.responses.resize(scratch.batch.size());
  forward_rows(scratch.requests, scratch.responses,
               scratch.predict.every_row(scratch.batch.size()), scratch.predict);
  for (std::size_t i = 0; i < scratch.batch.size(); ++i) {
    finish(scratch.batch[i], std::move(scratch.responses[i]));
  }
  scratch.batch.clear();
}

void TuningService::forward_rows(std::span<const Request> requests,
                                 std::span<Response> responses, std::span<std::uint32_t> rows,
                                 PredictScratch& scratch) {
  // Deadline triage: expired rows are answered and moved behind the live ones.
  const Tick now = now_tick();
  const auto live_end = std::partition(
      rows.begin(), rows.end(), [&](std::uint32_t r) { return !expired(requests[r], now); });
  const auto live = rows.first(static_cast<std::size_t>(live_end - rows.begin()));
  for (const std::uint32_t r : rows.subspan(live.size())) {
    responses[r] = Response{};
    responses[r].status = Status::kDeadlineExceeded;
  }

  // Group by tenant: a round may interleave tenants, and each group must
  // evaluate against its own tenant's snapshot. Sorting on (tenant, index)
  // keeps groups in ascending TenantId and arrival order within a group,
  // with no allocation.
  std::sort(live.begin(), live.end(), [&](std::uint32_t a, std::uint32_t b) {
    return requests[a].tenant != requests[b].tenant ? requests[a].tenant < requests[b].tenant
                                                    : a < b;
  });

  for (std::size_t begin = 0; begin < live.size();) {
    const TenantId tenant = requests[live[begin]].tenant;
    std::size_t end = begin + 1;
    while (end < live.size() && requests[live[end]].tenant == tenant) ++end;
    const auto group = live.subspan(begin, end - begin);
    begin = end;

    const auto snapshot = tenant_snapshot(tenant);
    if (!snapshot || !snapshot->ensemble.trained()) {
      // Unknown tenant, or the tenant's slot has no trained model yet.
      for (const std::uint32_t r : group) {
        responses[r] = Response{};
        responses[r].status = Status::kNotReady;
      }
      continue;
    }

    scratch.rows.resize(group.size(), snapshot->key_params.size() + 1);
    for (std::size_t i = 0; i < group.size(); ++i) {
      const Request& request = requests[group[i]];
      snapshot->write_feature_row(request.read_ratio, request.config, scratch.rows.row(i));
    }
    auto& predictions = scratch.predictions;
    predictions.resize(group.size());
    snapshot->ensemble.predict_batch_with_uncertainty(scratch.rows, predictions,
                                                      scratch.workspace);
    stats_.record_batch(group.size());

    for (std::size_t i = 0; i < group.size(); ++i) {
      Response& response = responses[group[i]];
      response = Response{};
      response.status = Status::kOk;
      response.model_version = snapshot->version;
      response.mean = predictions[i].mean;
      response.stddev = predictions[i].stddev;
      response.batch_size = group.size();
    }
  }
}

void TuningService::run_single(Job job) {
  Response response;
  if (expired(job.request, now_tick())) {
    response.status = Status::kDeadlineExceeded;
  } else if (job.request.endpoint == Endpoint::kOptimize) {
    response = optimize(job.request);
  } else {
    response = observe_window(job.request);
  }
  finish(job, std::move(response));
}

Response TuningService::optimize(const Request& request) const {
  Response response;
  const auto snapshot = tenant_snapshot(request.tenant);
  if (!snapshot || !snapshot->ensemble.trained() || !snapshot->space) {
    response.status = Status::kNotReady;
    return response;
  }
  core::SurrogateFitness fitness(snapshot->ensemble, request.read_ratio);
  const auto ga = opt::ga_optimize_cohort(*snapshot->space, std::ref(fitness), options_.ga);
  response.status = Status::kOk;
  response.model_version = snapshot->version;
  response.config = engine::Config::from_vector(snapshot->key_params, ga.best_point);
  response.predicted_throughput = ga.best_fitness;
  response.surrogate_evaluations = ga.evaluations;
  return response;
}

Response TuningService::observe_window(const Request& request) {
  Response response;
  auto* tuner = tenant_tuner(request.tenant);
  if (tuner == nullptr) {
    response.status = Status::kNotReady;
    return response;
  }
  // The tuner is internally synchronized. With the async-optimize hook
  // attached (attach_tuner), a cache miss returns immediately with a
  // stale-marked decision and the bucket lands on the RetrainWorker; the
  // publish hook republishes the tuned config as a new snapshot version
  // once the background GA completes.
  const auto decision = tuner->on_window(request.read_ratio);
  response.status = Status::kOk;
  response.model_version = tenant_model_version(request.tenant);
  response.config = decision.config;
  response.reconfigured = decision.reconfigured;
  response.stale = decision.stale;
  response.predicted_throughput = decision.predicted_throughput;
  if (decision.stale) stats_.record_stale(Endpoint::kObserveWindow);
  return response;
}

}  // namespace rafiki::serve
