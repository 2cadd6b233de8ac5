#include "serve/retrain.h"

#include <chrono>
#include <utility>

#include "core/online.h"

namespace rafiki::serve {

namespace {
constexpr auto kRelaxed = std::memory_order_relaxed;
}  // namespace

RetrainWorker::RetrainWorker(ServiceStats* stats) : stats_(stats) {}

RetrainWorker::~RetrainWorker() { stop(); }

bool RetrainWorker::enqueue(Task task) {
  const PushResult pushed = queue_.try_push(std::move(task));
  if (pushed == PushResult::kOk) {
    accepted_.fetch_add(1, kRelaxed);
    return true;
  }
  if (pushed == PushResult::kFull && stats_) stats_->record_retrain_rejected();
  return false;
}

void RetrainWorker::start() {
  MutexLock lock(mutex_);
  if (started_ || stopping_.load(kRelaxed)) return;
  started_ = true;
  thread_ = std::thread([this] { loop(); });
}

void RetrainWorker::loop() {
  // After stop() closes the queue, pop() still hands back what is queued:
  // the stopping flag turns those into cancellations.
  while (auto task = queue_.pop()) {
    if (stopping_.load(kRelaxed)) {
      cancel(*task);
    } else {
      run(*task);
    }
  }
}

void RetrainWorker::run(Task& task) {
  // det:ok(wall-clock): reporting-only retrain latency measurement
  const auto t0 = std::chrono::steady_clock::now();
  if (task.run) {
    task.run();
  } else {
    task.tuner->run_optimize(task.read_ratio);
  }
  // det:ok(wall-clock): reporting-only retrain latency measurement
  const auto t1 = std::chrono::steady_clock::now();
  if (stats_) stats_->record_retrain(std::chrono::duration<double, std::micro>(t1 - t0).count());
  settle();
}

void RetrainWorker::cancel(Task& task) {
  if (task.tuner != nullptr) task.tuner->cancel_optimize(task.read_ratio);
  if (stats_) stats_->record_retrain_cancelled();
  settle();
}

void RetrainWorker::settle() {
  {
    MutexLock lock(mutex_);
    ++settled_;
  }
  idle_.notify_all();
}

void RetrainWorker::stop() {
  {
    MutexLock lock(mutex_);
    if (stopped_) return;
    stopping_.store(true, kRelaxed);
  }
  queue_.close();
  if (thread_.joinable()) thread_.join();
  // Stop before start: no thread drained the backlog, so cancel it here.
  while (auto task = queue_.try_pop()) cancel(*task);
  {
    MutexLock lock(mutex_);
    stopped_ = true;
  }
  idle_.notify_all();
}

void RetrainWorker::wait_idle() {
  MutexLock lock(mutex_);
  while (!stopped_ && settled_ < accepted_.load(kRelaxed)) idle_.wait(mutex_);
}

}  // namespace rafiki::serve
