#include "core/online.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace rafiki::core {

// --- TuneMemo ---------------------------------------------------------------

TuneMemo::TuneMemo(const Rafiki& rafiki, double rr_bucket)
    : rafiki_(&rafiki), rr_bucket_(rr_bucket) {
  // The lower bound keeps round(1 / rr_bucket) far inside int.
  if (!(rr_bucket >= 1e-6 && rr_bucket <= 1.0)) {
    throw std::invalid_argument("TuneMemo: rr_bucket must be in [1e-6, 1]");
  }
}

double TuneMemo::clamp_read_ratio(double read_ratio) noexcept {
  if (!(read_ratio >= 0.0)) return 0.0;  // negative or NaN
  return std::min(read_ratio, 1.0);
}

int TuneMemo::bucket_for(double read_ratio) const noexcept {
  return static_cast<int>(std::round(clamp_read_ratio(read_ratio) / rr_bucket_));
}

bool TuneMemo::contains(int bucket) {
  MutexLock lock(mutex_);
  sync_generation_locked();
  return entries_.count(bucket) != 0;
}

std::vector<int> TuneMemo::buckets() {
  MutexLock lock(mutex_);
  sync_generation_locked();
  std::vector<int> out;
  out.reserve(entries_.size());
  for (const auto& entry : entries_) out.push_back(entry.first);
  return out;
}

std::optional<TuneMemo::Entry> TuneMemo::find(int bucket, double read_ratio,
                                              const MissHook* on_miss) {
  MutexLock lock(mutex_);
  sync_generation_locked();
  const auto it = entries_.find(bucket);
  if (it != entries_.end()) return it->second;
  // The push and the mark happen under one lock, so the worker's optimize()
  // (which needs this lock) always finds the mark it is to clear.
  if (on_miss != nullptr && handed_off_.count(bucket) == 0 &&
      in_flight_.count(bucket) == 0 && (*on_miss)(bucket, read_ratio)) {
    handed_off_.insert(bucket);
  }
  return std::nullopt;
}

void TuneMemo::cancel(int bucket) {
  MutexLock lock(mutex_);
  handed_off_.erase(bucket);
}

void TuneMemo::sync_generation_locked() {
  const std::size_t generation = rafiki_->tune_stats().changes;
  if (generation == generation_) return;
  // The entries were cut for an active knob set that no longer holds: every
  // bucket re-optimizes in the new subspace.
  entries_.clear();
  generation_ = generation;
}

bool TuneMemo::optimize(int bucket, double read_ratio) {
  // Dynamic knob mode: re-screen before searching, so the GA always runs in
  // the freshest active subspace. This rides the background optimize path
  // (the serve layer's RetrainWorker), never a request thread.
  rafiki_->rescreen();

  std::size_t stamp = 0;
  {
    MutexLock lock(mutex_);
    // Whatever happens next, the hand-off (if any) has been taken up: a
    // later miss sees the bucket cached, in flight, or free to hand off.
    handed_off_.erase(bucket);
    for (;;) {
      sync_generation_locked();
      if (entries_.count(bucket) != 0) return false;  // coalesced: already optimized
      if (in_flight_.count(bucket) == 0) break;
      // Another caller is mid-GA for this bucket; wait for its result so
      // callers relying on inline semantics observe a warm memo on return.
      // Loop: a search discarded for a stale active set leaves the bucket
      // empty, and this caller then searches it itself.
      optimize_done_.wait(mutex_);
    }
    in_flight_.insert(bucket);
    stamp = generation_;
  }

  // The expensive part runs with no lock held: decisions and other buckets'
  // optimizations proceed concurrently.
  const Rafiki::OptimizeResult result = rafiki_->optimize(read_ratio);

  bool installed = false;
  {
    MutexLock lock(mutex_);
    in_flight_.erase(bucket);
    // A search cut for an active set that changed while it ran is dropped:
    // installing it would serve a config from the old subspace.
    sync_generation_locked();
    if (generation_ == stamp) {
      entries_.emplace(bucket, Entry{result.config, result.predicted_throughput});
      installed = true;
    }
  }
  optimize_done_.notify_all();
  if (installed) {
    MutexLock lock(members_mutex_);
    for (OnlineTuner* member : members_) member->publish(bucket, result);
  }
  return true;
}

void TuneMemo::join(OnlineTuner* member) {
  MutexLock lock(members_mutex_);
  members_.push_back(member);
}

void TuneMemo::leave(OnlineTuner* member) {
  MutexLock lock(members_mutex_);
  members_.erase(std::remove(members_.begin(), members_.end(), member), members_.end());
}

// --- OnlineTuner ------------------------------------------------------------

OnlineTuner::OnlineTuner(const Rafiki& rafiki, OnlineTunerOptions options)
    : OnlineTuner(std::make_shared<TuneMemo>(rafiki, options.rr_bucket), options) {}

OnlineTuner::OnlineTuner(std::shared_ptr<TuneMemo> memo, OnlineTunerOptions options)
    : rafiki_(memo->rafiki_), options_(options), memo_(std::move(memo)) {
  if (options_.rr_bucket != memo_->rr_bucket()) {
    throw std::invalid_argument("OnlineTuner: rr_bucket differs from the shared memo's");
  }
  memo_->join(this);
}

OnlineTuner::~OnlineTuner() { memo_->leave(this); }

void OnlineTuner::set_publish_hook(PublishHook hook) {
  MutexLock lock(mutex_);
  publish_ = std::move(hook);
}

void OnlineTuner::set_async_optimize_hook(AsyncOptimizeHook hook) {
  MutexLock lock(mutex_);
  async_optimize_ = std::move(hook);
}

void OnlineTuner::publish(int bucket, const Rafiki::OptimizeResult& result) {
  PublishHook hook;
  {
    MutexLock lock(mutex_);
    hook = publish_;
  }
  if (hook) hook(bucket, result);
}

bool OnlineTuner::cached(double read_ratio) const {
  return memo_->contains(bucket_for(read_ratio));
}

std::size_t OnlineTuner::reconfigurations() const {
  MutexLock lock(mutex_);
  return reconfigurations_;
}

std::size_t OnlineTuner::optimizer_runs() const {
  MutexLock lock(mutex_);
  return optimizer_runs_;
}

OnlineTuner::Decision OnlineTuner::decide_locked(double read_ratio, bool hand_off) {
  Decision decision;
  const bool moved = !have_config_ ||
                     std::abs(read_ratio - current_rr_) >= options_.rr_change_threshold;
  if (moved) {
    const AsyncOptimizeHook* on_miss =
        hand_off && async_optimize_ ? &async_optimize_ : nullptr;
    const auto hit = memo_->find(bucket_for(read_ratio), read_ratio, on_miss);
    if (hit) {
      // The regime moved and an optimized config is ready: adopt it.
      if (!have_config_ || !(hit->config == current_)) {
        current_ = hit->config;
        ++reconfigurations_;
        decision.reconfigured = true;
      }
      current_rr_ = read_ratio;
      have_config_ = true;
      decision.config = current_;
      decision.predicted_throughput = hit->predicted_throughput;
      return decision;
    }
    // Miss: keep serving the current config (stale-while-revalidate). The
    // regime anchor is deliberately not advanced, so later windows in this
    // bucket keep asking until the optimized entry lands in the memo.
    decision.stale = true;
  }
  decision.config = current_;
  decision.predicted_throughput = rafiki_->predict(read_ratio, current_);
  return decision;
}

OnlineTuner::Decision OnlineTuner::decide(double read_ratio) {
  read_ratio = TuneMemo::clamp_read_ratio(read_ratio);
  MutexLock lock(mutex_);
  return decide_locked(read_ratio, /*hand_off=*/false);
}

void OnlineTuner::observe_sample(double read_ratio, const engine::Config& config,
                                 double throughput) {
  rafiki_->observe_sample(read_ratio, config, throughput);
}

bool OnlineTuner::run_optimize(double read_ratio) {
  read_ratio = TuneMemo::clamp_read_ratio(read_ratio);
  if (!memo_->optimize(bucket_for(read_ratio), read_ratio)) return false;
  MutexLock lock(mutex_);
  ++optimizer_runs_;
  return true;
}

void OnlineTuner::cancel_optimize(double read_ratio) {
  memo_->cancel(bucket_for(read_ratio));
}

void OnlineTuner::prefetch(double read_ratio) {
  read_ratio = TuneMemo::clamp_read_ratio(read_ratio);
  {
    MutexLock lock(mutex_);
    // A miss is handed off by the memo, like on_window's (see
    // TuneMemo::find); without a hook it optimizes inline below.
    const AsyncOptimizeHook* on_miss = async_optimize_ ? &async_optimize_ : nullptr;
    if (memo_->find(bucket_for(read_ratio), read_ratio, on_miss) || on_miss) return;
  }
  run_optimize(read_ratio);
}

OnlineTuner::Decision OnlineTuner::on_window(double read_ratio) {
  read_ratio = TuneMemo::clamp_read_ratio(read_ratio);
  {
    MutexLock lock(mutex_);
    // With the async hook set, a miss is pending on the background worker
    // (or was refused, and a later window retries it): stale-while-
    // revalidate answers with the current config immediately.
    const Decision decision = decide_locked(read_ratio, /*hand_off=*/true);
    if (!decision.stale || async_optimize_) return decision;
  }
  // Standalone (no worker attached): optimize inline, then re-decide against
  // the now-warm memo — the original blocking behaviour.
  run_optimize(read_ratio);
  return decide(read_ratio);
}

}  // namespace rafiki::core
