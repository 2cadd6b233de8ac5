#include "serve/retrain.h"

#include <chrono>
#include <utility>

namespace rafiki::serve {

RetrainWorker::RetrainWorker(RunFn run, RetrainOptions options, ServiceStats* stats)
    : run_(std::move(run)), options_(options), stats_(stats) {}

RetrainWorker::~RetrainWorker() { stop(/*drain=*/false); }

RetrainWorker::Ticket RetrainWorker::finished_ticket(RetrainEnqueue result) {
  Ticket ticket;
  ticket.result = result;
  std::promise<RetrainOutcome> promise;
  ticket.done = promise.get_future().share();
  promise.set_value(RetrainOutcome::kCancelled);
  return ticket;
}

RetrainWorker::Ticket RetrainWorker::enqueue(std::uint64_t key, double read_ratio) {
  Ticket ticket;
  {
    MutexLock lock(mutex_);
    if (stopping_ || stopped_) return finished_ticket(RetrainEnqueue::kStopped);
    const auto pending = pending_.find(key);
    if (pending != pending_.end()) {
      ticket.result = RetrainEnqueue::kCoalesced;
      ticket.done = pending->second;
    } else if (tasks_.size() >= options_.queue_capacity) {
      ticket = finished_ticket(RetrainEnqueue::kRejected);
    } else {
      Task task;
      task.key = key;
      task.read_ratio = read_ratio;
      task.future = task.promise.get_future().share();
      pending_.emplace(key, task.future);
      ticket.result = RetrainEnqueue::kEnqueued;
      ticket.done = task.future;
      tasks_.push_back(std::move(task));
    }
  }
  if (ticket.result == RetrainEnqueue::kEnqueued) {
    ready_.notify_one();
  } else if (ticket.result == RetrainEnqueue::kCoalesced) {
    if (stats_) stats_->record_retrain_coalesced();
  } else if (ticket.result == RetrainEnqueue::kRejected) {
    if (stats_) stats_->record_retrain_rejected();
  }
  return ticket;
}

void RetrainWorker::start() {
  MutexLock lock(mutex_);
  if (started_ || stopping_ || stopped_) return;
  started_ = true;
  thread_ = std::thread([this] { loop(); });
}

void RetrainWorker::loop() {
  for (;;) {
    Task task;
    {
      MutexLock lock(mutex_);
      while (!stopping_ && tasks_.empty()) ready_.wait(mutex_);
      if (tasks_.empty()) break;                 // stopping with nothing queued
      if (stopping_ && !drain_on_stop_) break;   // cancel mode: stop() fails the backlog
      task = std::move(tasks_.front());
      tasks_.pop_front();
      running_ = true;
    }

    // det:ok(wall-clock): reporting-only retrain latency measurement
    const auto t0 = std::chrono::steady_clock::now();
    run_(task.key, task.read_ratio);
    // det:ok(wall-clock): reporting-only retrain latency measurement
    const auto t1 = std::chrono::steady_clock::now();
    if (stats_) {
      stats_->record_retrain(
          std::chrono::duration<double, std::micro>(t1 - t0).count());
    }

    {
      MutexLock lock(mutex_);
      pending_.erase(task.key);
      running_ = false;
    }
    task.promise.set_value(RetrainOutcome::kCompleted);
    idle_.notify_all();
  }
}

void RetrainWorker::stop(bool drain) {
  {
    MutexLock lock(mutex_);
    if (stopped_) return;
    stopping_ = true;
    drain_on_stop_ = drain;
  }
  ready_.notify_all();
  if (thread_.joinable()) thread_.join();

  // Whatever the loop left behind (cancel mode, or stop before start):
  // resolve every promise instead of abandoning its futures.
  std::deque<Task> leftover;
  {
    MutexLock lock(mutex_);
    stopped_ = true;
    leftover.swap(tasks_);
    pending_.clear();
  }
  for (auto& task : leftover) task.promise.set_value(RetrainOutcome::kCancelled);
  if (stats_ && !leftover.empty()) {
    stats_->record_retrain_cancelled(static_cast<std::uint64_t>(leftover.size()));
  }
  idle_.notify_all();
}

std::size_t RetrainWorker::depth() const {
  MutexLock lock(mutex_);
  return tasks_.size();
}

bool RetrainWorker::stopping() const {
  MutexLock lock(mutex_);
  return stopping_;
}

void RetrainWorker::wait_idle() {
  MutexLock lock(mutex_);
  while (!stopped_ && !(tasks_.empty() && !running_)) idle_.wait(mutex_);
}

}  // namespace rafiki::serve
