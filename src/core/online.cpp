#include "core/online.h"

#include <cmath>
#include <utility>

namespace rafiki::core {

OnlineTuner::OnlineTuner(const Rafiki& rafiki, OnlineTunerOptions options)
    : rafiki_(&rafiki), options_(options) {}

int OnlineTuner::bucket_for(double read_ratio) const noexcept {
  return static_cast<int>(std::round(read_ratio / options_.rr_bucket));
}

void OnlineTuner::set_publish_hook(PublishHook hook) {
  MutexLock lock(mutex_);
  publish_ = std::move(hook);
}

void OnlineTuner::set_async_optimize_hook(AsyncOptimizeHook hook) {
  MutexLock lock(mutex_);
  async_optimize_ = std::move(hook);
}

bool OnlineTuner::cached(double read_ratio) const {
  MutexLock lock(mutex_);
  return cache_.count(bucket_for(read_ratio)) != 0;
}

std::size_t OnlineTuner::reconfigurations() const {
  MutexLock lock(mutex_);
  return reconfigurations_;
}

std::size_t OnlineTuner::optimizer_runs() const {
  MutexLock lock(mutex_);
  return optimizer_runs_;
}

OnlineTuner::Decision OnlineTuner::decide_locked(double read_ratio) {
  Decision decision;
  const bool moved = !have_config_ ||
                     std::abs(read_ratio - current_rr_) >= options_.rr_change_threshold;
  if (moved) {
    const auto it = cache_.find(bucket_for(read_ratio));
    if (it != cache_.end()) {
      // The regime moved and an optimized config is ready: adopt it.
      if (!have_config_ || !(it->second.config == current_)) {
        current_ = it->second.config;
        ++reconfigurations_;
        decision.reconfigured = true;
      }
      current_rr_ = read_ratio;
      have_config_ = true;
      decision.config = current_;
      decision.predicted_throughput = it->second.predicted_throughput;
      return decision;
    }
    // Miss: keep serving the current config (stale-while-revalidate). The
    // regime anchor is deliberately not advanced, so later windows in this
    // bucket keep asking until the optimized entry lands in the cache.
    decision.stale = true;
  }
  decision.config = current_;
  decision.predicted_throughput = rafiki_->predict(read_ratio, current_);
  return decision;
}

OnlineTuner::Decision OnlineTuner::decide(double read_ratio) {
  MutexLock lock(mutex_);
  return decide_locked(read_ratio);
}

void OnlineTuner::observe_sample(double read_ratio, const engine::Config& config,
                                 double throughput) {
  rafiki_->observe_sample(read_ratio, config, throughput);
}

bool OnlineTuner::run_optimize(double read_ratio) {
  // Dynamic knob mode: re-screen before searching, so the GA always runs in
  // the freshest active subspace. This rides the background optimize path
  // (the serve layer's RetrainWorker), never a request thread. When the
  // active set changed, the memoized configs were cut for the old subspace —
  // drop them so every bucket re-optimizes in the new one.
  if (rafiki_->rescreen()) {
    MutexLock lock(mutex_);
    cache_.clear();
  }

  const int bucket = bucket_for(read_ratio);
  {
    MutexLock lock(mutex_);
    if (cache_.count(bucket) != 0) return false;  // coalesced: already optimized
    if (in_flight_.count(bucket) != 0) {
      // Another thread is mid-GA for this bucket; wait for its result so
      // callers relying on inline semantics observe a warm cache on return.
      while (in_flight_.count(bucket) != 0) optimize_done_.wait(mutex_);
      return false;
    }
    in_flight_.insert(bucket);
  }

  // The expensive part runs with no lock held: decisions and other buckets'
  // optimizations proceed concurrently.
  const Rafiki::OptimizeResult result = rafiki_->optimize(read_ratio);

  PublishHook publish;
  {
    MutexLock lock(mutex_);
    in_flight_.erase(bucket);
    cache_.emplace(bucket, result);
    ++optimizer_runs_;
    publish = publish_;
  }
  optimize_done_.notify_all();
  if (publish) publish(bucket, result);
  return true;
}

void OnlineTuner::prefetch(double read_ratio) {
  {
    MutexLock lock(mutex_);
    if (cache_.count(bucket_for(read_ratio)) != 0) return;
    if (async_optimize_) {
      // Under the lock, like on_window's hand-off: see there.
      async_optimize_(bucket_for(read_ratio), read_ratio);
      return;
    }
  }
  run_optimize(read_ratio);
}

OnlineTuner::Decision OnlineTuner::on_window(double read_ratio) {
  Decision decision;
  {
    MutexLock lock(mutex_);
    decision = decide_locked(read_ratio);
    if (!decision.stale) return decision;
    if (async_optimize_) {
      // Stale-while-revalidate: hand the miss to the background worker and
      // answer with the current config immediately. The hand-off happens
      // under the tuner lock, so it cannot fall between the worker's memo
      // write (taken under this lock) and the worker retiring the bucket's
      // pending task (after run_optimize returns): a miss seen here always
      // coalesces into the task that is about to fill the cache, instead of
      // queueing a second, no-op retrain. The hook only enqueues; it never
      // calls back into the tuner.
      async_optimize_(bucket_for(read_ratio), read_ratio);
      return decision;
    }
  }
  // Standalone (no worker attached): optimize inline, then re-decide against
  // the now-warm cache — the original blocking behaviour.
  run_optimize(read_ratio);
  return decide(read_ratio);
}

}  // namespace rafiki::core
