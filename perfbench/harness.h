// Shared pieces of the benchmark driver: clocks and CPU accounting, host
// steal, raw-sample quantiles, in-memory spans, the trained model every
// workload serves, and the reference answers correctness is checked against.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/rafiki.h"
#include "engine/config.h"
#include "opt/ga.h"
#include "serve/snapshot.h"
#include "serve/types.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start);

/// CPU seconds of the whole process (getrusage(RUSAGE_SELF), user + sys).
double process_cpu_s();
/// CPU seconds of the calling thread (CLOCK_THREAD_CPUTIME_ID).
double thread_cpu_s();

/// CPU the server side of the process burned since construction: process CPU
/// minus the CPU of the thread that constructed it (the load generator).
class ServerCpu {
 public:
  ServerCpu() : proc_(process_cpu_s()), self_(thread_cpu_s()) {}
  double seconds() const { return (process_cpu_s() - proc_) - (thread_cpu_s() - self_); }

 private:
  double proc_;
  double self_;
};

/// Host CPU steal share over an interval, from the aggregate line of
/// /proc/stat. Reads 0 where the file is unavailable.
class StealMeter {
 public:
  StealMeter();
  double fraction() const;

 private:
  std::uint64_t steal_ = 0;
  std::uint64_t total_ = 0;
};

/// A reported value and its unit, by metric name.
struct Metric {
  double value = 0.0;
  const char* unit = "";
};
using Metrics = std::map<std::string, Metric>;

double peak_rss_mb();

/// Quantile of raw samples (nearest rank on a sorted copy); 0 when empty.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
/// Highest of p99.9/p99/p90/p50 that has at least ten samples above it, so
/// the reported tail is backed by data; returns the chosen q in *q_out.
double supported_tail(const std::vector<double>& values, double* q_out);

/// Raw samples in bounded memory: once full it keeps every other sample and
/// doubles its stride, so it always holds an evenly spaced subset of all
/// samples offered and the benchmark's own footprint stays fixed.
class Samples {
 public:
  explicit Samples(std::size_t capacity = 1 << 15) : capacity_(capacity) {
    values_.reserve(capacity_);
  }
  void add(double value) {
    const std::uint64_t index = offered_++;
    if (index % stride_ != 0) return;
    if (values_.size() == capacity_) {
      for (std::size_t i = 0; 2 * i < values_.size(); ++i) values_[i] = values_[2 * i];
      values_.resize((values_.size() + 1) / 2);
      stride_ *= 2;
      if (index % stride_ != 0) return;
    }
    values_.push_back(value);
  }
  const std::vector<double>& values() const noexcept { return values_; }

 private:
  std::size_t capacity_;
  std::uint64_t offered_ = 0;
  std::uint64_t stride_ = 1;
  std::vector<double> values_;
};

/// One closed interval of work attributed to a layer. Spans of one request
/// share `request`; `parent` names the enclosing layer ("" at the top).
struct Span {
  std::uint64_t request = 0;
  const char* name = "";
  const char* parent = "";
  double start_us = 0.0;  ///< since the recorder's epoch
  double end_us = 0.0;
};

/// Spans kept in memory during the run and written out once at the end.
/// Disabled recorders drop everything, so untraced runs pay one branch.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {
    if (enabled_) spans_.reserve(1 << 16);
  }
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  }
  void add(std::uint64_t request, const char* name, const char* parent, double start_us,
           double end_us) {
    if (enabled_ && spans_.size() < kCap) {
      spans_.push_back({request, name, parent, start_us, end_us});
    }
  }
  const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Writes one tab-separated line per span; false on I/O failure.
  bool write(const std::string& path) const;

 private:
  static constexpr std::size_t kCap = 1 << 20;
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Bit-for-bit equality of doubles (distinguishes -0.0 and NaN payloads).
bool same_bits(double a, double b);

/// Read ratios the tuning script walks. Five well-separated regimes: every
/// regime change moves the read ratio past the online tuner's 0.15
/// threshold, so each (tenant, regime) misses exactly once per fresh tuner
/// whatever the timing, and the GA work per round is fixed.
inline const std::vector<double>& regimes() {
  static const std::vector<double> kRegimes = {0.1, 0.3, 0.5, 0.7, 0.9};
  return kRegimes;
}

/// The trained pipeline behind every stack, built exactly as rafiki_serverd
/// builds its default (smoke) profile.
struct Model {
  std::unique_ptr<rafiki::core::Rafiki> rafiki;
  rafiki::serve::ModelSnapshot snapshot;  ///< unpublished copy (version 0)
  double collect_s = 0.0;
  double train_s = 0.0;
  std::size_t engine_ops = 0;  ///< simulated engine operations in collect
};
Model build_model();

/// A Predict input and the answer the published snapshot must give for it.
struct PredictCase {
  double read_ratio = 0.5;
  rafiki::engine::Config config;
  double mean = 0.0;
  double stddev = 0.0;
};

/// `count` seeded (read ratio, config) draws with their expected answers
/// from the scalar SurrogateEnsemble::predict_with_uncertainty path.
std::vector<PredictCase> make_predict_cases(const rafiki::serve::ModelSnapshot& snapshot,
                                            std::uint64_t seed, std::size_t count);
/// Same configs, scored at each tuning regime (index regime * configs + i).
std::vector<PredictCase> make_regime_cases(const rafiki::serve::ModelSnapshot& snapshot,
                                           std::uint64_t seed, std::size_t configs);

rafiki::serve::Request predict_request(const PredictCase& c, rafiki::serve::TenantId tenant = 0);
bool predict_matches(const PredictCase& expected, const rafiki::serve::Response& response);

/// The search the Optimize endpoint runs, called directly:
/// opt::ga_optimize_batched over the snapshot with the service's GaOptions.
rafiki::opt::GaResult optimize_like_service(const rafiki::serve::ModelSnapshot& snapshot,
                                            double read_ratio);

/// Reference answers for the tuning endpoints, computed directly (no
/// serving plane) after the measured phases.
struct TuneReference {
  /// Optimize: optimize_like_service.
  std::map<double, rafiki::serve::Response> optimize;
  /// ObserveWindow: the per-regime config OnlineTuner installs
  /// (core::Rafiki::optimize).
  std::map<double, rafiki::engine::Config> tuned;
};
TuneReference make_tune_reference(const Model& model);

/// Ground-truth engine throughput of `config` at `read_ratio`, from
/// collect::measure_throughput with fixed options and no harness noise.
double ground_truth(const rafiki::engine::Config& config, double read_ratio);

}  // namespace perfbench
