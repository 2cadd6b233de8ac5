// Deterministic fan-out for the offline loops (sample collection, ANOVA
// ranking, ensemble training): the caller plans every task serially — seeds,
// fault draws, RNG splits — into pre-sized slots, and parallel_for only
// decides which thread fills which slot. Results then depend on the plan and
// never on the schedule, so they are bit-identical at any thread count.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <system_error>
#include <thread>
#include <vector>

#include "util/sync.h"

namespace rafiki {

/// Runs fn(i) for every i in [0, count) on min(threads, count) threads, the
/// calling thread included; threads == 0 means hardware_concurrency. Indices
/// are handed out through one atomic counter. fn must write only state owned
/// by index i. If a task throws, no further indices are started, and the first
/// exception caught is re-thrown on the caller after every thread has joined.
template <typename Fn>
void parallel_for(std::size_t count, std::size_t threads, Fn&& fn) {
  if (threads == 0) threads = std::thread::hardware_concurrency();
  threads = std::min(std::max<std::size_t>(threads, 1), count);
  if (threads <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  // Local mutex: GUARDED_BY cannot annotate captured locals, so the contract
  // is this scope — first_error is written under error_mutex inside the
  // workers and read only after every join.
  Mutex error_mutex;
  std::exception_ptr first_error;
  const auto worker = [&] {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < count;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        fn(i);
      } catch (...) {
        next.store(count, std::memory_order_relaxed);  // start nothing new
        MutexLock lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (std::size_t t = 0; t + 1 < threads; ++t) {
    try {
      pool.emplace_back(worker);
    } catch (const std::system_error&) {
      break;  // no thread to spare: the threads already started share the rest
    }
  }
  worker();
  for (auto& thread : pool) thread.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace rafiki
