// The measured phases: serving stacks as rafiki_serverd builds them, the two
// closed-loop Predict generators, and the scripted tuning rounds.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/online.h"
#include "harness.h"
#include "net/server.h"
#include "serve/backend.h"

namespace perfbench {

/// A serving backend behind a started net::Server. Members are destroyed in
/// reverse order: server, then backend, then the tuner the backend points at.
struct Stack {
  std::unique_ptr<rafiki::core::OnlineTuner> tuner;
  std::unique_ptr<rafiki::serve::TuningBackend> backend;
  std::unique_ptr<rafiki::net::Server> server;
  std::size_t tenants = 1;
};

enum class StackKind {
  /// One TuningService (2 workers) with tenant 0's OnlineTuner attached.
  kService,
  /// A TenantFleet of 4 tenants over 2 shards (2 workers each).
  kFleet,
};

/// Builds, publishes and starts a stack over `model`; throws on failure.
std::unique_ptr<Stack> start_stack(const Model& model, StackKind kind);
void stop_stack(Stack& stack);

/// Requests sent and answers that passed the correctness check.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  void add(const Tally& other) {
    attempted += other.attempted;
    ok += other.ok;
  }
};

struct PredictResult {
  Tally tally;
  /// Server CPU per verified Predict, one value per measured slice.
  std::vector<double> cpu_us_slices;
  /// Client-observed round trips.
  Samples rtt_us;
  double qps_wall = 0.0;
  double steal = 0.0;
  double seconds = 0.0;
};

struct PredictOptions {
  double seconds = 1.0;
  /// Connections x in-flight per connection. depth 1 on one connection goes
  /// through net::Client::predict; anything else through the raw pipelined
  /// generator that refills each connection with one send().
  std::size_t connections = 1;
  std::size_t depth = 1;
  /// Flip one bit of the first answer before it is checked (smoke check of
  /// the checker itself).
  bool corrupt = false;
};

PredictResult run_predict(Stack& stack, const std::vector<PredictCase>& cases,
                          const PredictOptions& options, SpanRecorder& spans);

/// One tenant's scripted tuning window.
struct Window {
  double read_ratio = 0.5;
  /// Read ratio of the Optimize issued after this window; < 0 for none.
  double optimize_rr = -1.0;
};
using Script = std::vector<std::vector<Window>>;  ///< per tenant

/// Seeded script: each tenant walks every regime twice in two seeded orders
/// (no regime repeated back to back), with one Optimize every
/// `optimize_every` windows cycling through the regimes.
Script make_script(std::uint64_t seed, std::size_t tenants, std::size_t optimize_every);

/// One distinct tuning answer and how many times it came back. Answers
/// repeat (a few configs per regime), so storing them this way keeps memory
/// fixed however long the run.
struct ObservedAnswer {
  double read_ratio = 0.0;
  rafiki::serve::Response response;
  std::uint64_t count = 0;
};
void add_answer(std::vector<ObservedAnswer>& answers, double read_ratio,
                const rafiki::serve::Response& response);

struct TuneResult {
  Tally tally;  ///< Predicts are checked inline; tuning answers after the run
  /// Server CPU per scripted window, one value per round.
  std::vector<double> cpu_ms_per_window;
  Samples optimize_ms;  ///< wall latencies
  /// Server CPU per Optimize, one value per round.
  std::vector<double> optimize_cpu_ms;
  std::vector<ObservedAnswer> observed;
  std::vector<ObservedAnswer> optimized;
  std::size_t rounds = 0;
  std::uint64_t versions = 0;  ///< snapshot republishes summed over rounds
  double steal = 0.0;
  double seconds = 0.0;
};

/// Runs rounds until `seconds` elapse (at least one). Each round starts a
/// fresh stack, so every round misses the tuner memo the same way and does
/// the same GA work; the CPU window spans the script plus the background
/// retrains it triggers.
TuneResult run_tune(const Model& model, StackKind kind, const Script& script,
                    const std::vector<PredictCase>& regime_cases, double seconds,
                    SpanRecorder& spans);

/// Checks the deferred tuning answers; returns how many passed.
std::uint64_t check_tune_answers(const TuneResult& result, const TuneReference& ref);

}  // namespace perfbench
