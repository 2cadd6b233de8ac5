// rafiki_perfbench — the repository's benchmark: one command that runs a
// workload against the serving stack rafiki_serverd builds by default, checks
// every answer, and prints every metric by name with its unit. The last line
// of standard output is the result as one JSON object.
//
//   rafiki_perfbench --workload predict_saturate|predict_lone|tune_mix
//                    --seed N --seconds S --trace 0|1
//                    [--spans PATH] [--corrupt]
//
// --trace 0 reports the gated end-to-end metrics; --trace 1 runs the same
// workload untraced and traced (the difference is the tracing overhead) and
// then the layer ladder, and reports the per-layer metrics. --spans writes
// the traced run's spans as TSV. --corrupt flips one bit of the first
// Predict answer before it is checked, to show the checker catches it.
// README.md next to this file explains the workloads and metrics.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "ladder.h"
#include "net/client.h"
#include "phases.h"

using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool corrupt = false;
  std::string spans_path;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      args.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      args.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--spans" && has_value) {
      args.spans_path = argv[++i];
    } else if (arg == "--corrupt") {
      args.corrupt = true;
    } else {
      return false;
    }
  }
  return (args.workload == "predict_saturate" || args.workload == "predict_lone" ||
          args.workload == "tune_mix") &&
         args.seconds > 0.0 && args.seconds <= 120.0;
}

void print_json(bool correct, const Tally& tally, const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.attempted - tally.ok));
  const char* sep = "";
  for (const auto& [name, m] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit);
    sep = ", ";
  }
  std::printf("}}\n");
}

constexpr int kSetups = 9;

struct Setup {
  Model model;
  std::unique_ptr<Stack> stack;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

// Start to first measured request: collect, train, publish, server start,
// and a client connect.
Setup set_up(StackKind kind) {
  Setup s;
  const auto t0 = Clock::now();
  const double cpu0 = process_cpu_s();
  s.model = build_model();
  s.stack = start_stack(s.model, kind);
  rafiki::net::Client client;
  if (client.connect("127.0.0.1", s.stack->server->port()) != rafiki::net::NetStatus::kOk) {
    throw std::runtime_error("connect failed");
  }
  s.wall_s = seconds_since(t0);
  s.cpu_s = process_cpu_s() - cpu0;
  return s;
}

void print_predict(const char* label, const PredictResult& r) {
  double tail_q = 0.5;
  const auto& rtt = r.rtt_us.values();
  const double tail = supported_tail(rtt, &tail_q);
  std::printf("phase %s: attempted %llu ok %llu | %.2f s, steal_frac %.4f | cpu_us/req median %.3f "
              "over %zu slices | qps_wall %.0f | rtt p50 %.1f us, p%g %.1f us (n=%zu)\n",
              label, static_cast<unsigned long long>(r.tally.attempted),
              static_cast<unsigned long long>(r.tally.ok), r.seconds, r.steal,
              median(r.cpu_us_slices), r.cpu_us_slices.size(), r.qps_wall, median(rtt),
              tail_q * 100.0, tail, rtt.size());
}

void print_tune(const char* label, const TuneResult& r) {
  double tail_q = 0.5;
  const auto& ms = r.optimize_ms.values();
  const double tail = supported_tail(ms, &tail_q);
  std::printf("phase %s: attempted %llu | %zu rounds in %.2f s, steal_frac %.4f | cpu_ms/window "
              "median %.4f | optimize cpu %.3f ms, wall p50 %.3f ms, p%g %.3f ms (n=%zu) | %llu "
              "republishes\n",
              label, static_cast<unsigned long long>(r.tally.attempted), r.rounds, r.seconds,
              r.steal, median(r.cpu_ms_per_window), median(r.optimize_cpu_ms), median(ms),
              tail_q * 100.0, tail, ms.size(), static_cast<unsigned long long>(r.versions));
}

// Geometric mean over the regimes of ground truth(returned config) /
// ground truth(defaults). 0 when some regime got no verified answer.
double tuned_gain(const TuneResult& tune, const TuneReference& ref) {
  double log_sum = 0.0;
  for (double rr : regimes()) {
    const ObservedAnswer* answer = nullptr;
    for (const auto& a : tune.optimized) {
      if (a.read_ratio == rr && a.response.config == ref.optimize.at(rr).config) {
        answer = &a;
        break;
      }
    }
    if (answer == nullptr) return 0.0;
    log_sum += std::log(ground_truth(answer->response.config, rr) /
                        ground_truth(rafiki::engine::Config::defaults(), rr));
  }
  return std::exp(log_sum / static_cast<double>(regimes().size()));
}

int run(const Args& args) {
  const auto run_start = Clock::now();
  const StealMeter run_steal;
  const bool fleet = args.workload == "tune_mix";
  const StackKind kind = fleet ? StackKind::kFleet : StackKind::kService;

  // Set-up is timed kSetups times, a third each at the start, between the
  // two phases and at the end, so its medians sample the host at three
  // points of the run rather than one. The first stack serves the Predict
  // phase; the others are torn down at once.
  std::vector<double> setup_wall, setup_cpu;
  auto record = [&](const Setup& s) {
    setup_wall.push_back(s.wall_s);
    setup_cpu.push_back(s.cpu_s);
  };
  auto time_setups = [&](int count) {
    for (int k = 0; k < count; ++k) {
      Setup s = set_up(kind);
      stop_stack(*s.stack);
      record(s);
    }
  };
  Setup setup = set_up(kind);
  record(setup);
  time_setups(kSetups / 3 - 1);
  const Model& model = setup.model;
  const auto cases = make_predict_cases(model.snapshot, args.seed, 512);
  const auto regime_cases = make_regime_cases(model.snapshot, args.seed, 64);
  const Script script =
      fleet ? make_script(args.seed, 4, 5) : make_script(args.seed, 1, 2);

  PredictOptions predict_options;
  predict_options.connections = args.workload == "predict_lone" ? 1 : 4;
  predict_options.depth = args.workload == "predict_lone" ? 1 : 32;
  predict_options.corrupt = args.corrupt;

  // The workload's own phase takes most of the time; the other phase keeps
  // every gated metric defined on every workload (see README.md).
  const double primary_share = args.trace ? 0.2 : 0.7;
  const double secondary_share = args.trace ? 0.1 : 0.3;
  SpanRecorder off(false);
  SpanRecorder spans(args.trace);
  Tally tally;

  PredictResult predict;
  TuneResult tune;
  PredictResult predict_traced;
  TuneResult tune_traced;
  if (fleet) {
    tune = run_tune(model, kind, script, regime_cases, args.seconds * primary_share, off);
    if (args.trace) {
      tune_traced =
          run_tune(model, kind, script, regime_cases, args.seconds * primary_share, spans);
    }
    time_setups(kSetups / 3);
    predict_options.seconds = args.seconds * secondary_share;
    predict = run_predict(*setup.stack, cases, predict_options, off);
  } else {
    predict_options.seconds = args.seconds * primary_share;
    predict = run_predict(*setup.stack, cases, predict_options, off);
    if (args.trace) {
      predict_options.corrupt = false;
      predict_traced = run_predict(*setup.stack, cases, predict_options, spans);
    }
    time_setups(kSetups / 3);
    tune = run_tune(model, kind, script, regime_cases, args.seconds * secondary_share, off);
  }
  stop_stack(*setup.stack);
  time_setups(kSetups - static_cast<int>(setup_wall.size()));
  const double measured_s = seconds_since(run_start);
  const double steal = run_steal.fraction();

  // Correctness of the tuning answers, checked against direct runs.
  const TuneReference ref = make_tune_reference(model);
  tally.add(predict.tally);
  tally.add(tune.tally);
  tally.ok += check_tune_answers(tune, ref);
  const double gain = tuned_gain(tune, ref);
  if (args.trace) {
    tally.add(predict_traced.tally);
    tally.add(tune_traced.tally);
    tally.ok += check_tune_answers(tune_traced, ref);
  }

  print_predict(fleet ? "predict(fleet)" : "predict", predict);
  print_tune(fleet ? "tune(fleet)" : "tune", tune);
  std::printf("setup x%d: wall median %.4f s [%.4f, %.4f], cpu median %.4f s (served model: "
              "collect %.4f s, train %.4f s)\n",
              kSetups, median(setup_wall), quantile(setup_wall, 0.0), quantile(setup_wall, 1.0),
              median(setup_cpu), model.collect_s, model.train_s);

  Metrics metrics;
  if (!args.trace) {
    metrics["setup_s"] = {median(setup_wall), "s"};
    metrics["setup_cpu_s"] = {median(setup_cpu), "s"};
    metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    metrics["predict_cpu_us"] = {median(predict.cpu_us_slices), "us"};
    metrics["optimize_cpu_ms"] = {median(tune.optimize_cpu_ms), "ms"};
    metrics["tune_cpu_ms"] = {median(tune.cpu_ms_per_window), "ms"};
    metrics["tuned_gain"] = {gain, "ratio"};
    metrics["ok_frac"] = {static_cast<double>(tally.ok) / static_cast<double>(tally.attempted),
                          "ratio"};
  } else {
    const auto ladder = run_ladder(model, cases, args.seconds * 0.5, spans);
    tally.add(ladder.tally);
    metrics.insert(ladder.metrics.begin(), ladder.metrics.end());
    // Readings of the workload's Predict phase, untraced, next to its steal.
    metrics["net.qps_wall"] = {predict.qps_wall, "1/s"};
    const auto& rtt = predict.rtt_us.values();
    metrics["net.p50_us"] = {median(rtt), "us"};
    metrics["net.p99_us"] = {quantile(rtt, 0.99), "us"};
    metrics["net.rtt_samples"] = {static_cast<double>(rtt.size()), "count"};
    metrics["optimize.p50_ms"] = {median(tune.optimize_ms.values()), "ms"};
    metrics["optimize.samples"] = {static_cast<double>(tune.optimize_ms.values().size()),
                                   "count"};
    metrics["host.steal_frac"] = {steal, "ratio"};
    // Tracing overhead on the workload's own gated CPU metric.
    const double untraced =
        fleet ? median(tune.cpu_ms_per_window) : median(predict.cpu_us_slices);
    const double traced =
        fleet ? median(tune_traced.cpu_ms_per_window) : median(predict_traced.cpu_us_slices);
    metrics["trace.overhead_frac"] = {traced / untraced - 1.0, "ratio"};
    metrics["trace.spans"] = {static_cast<double>(spans.spans().size()), "count"};
    std::printf("trace: untraced %.4f, traced %.4f (%s), %zu spans\n", untraced, traced,
                fleet ? "tune cpu_ms/window" : "predict cpu_us/req", spans.spans().size());
    if (!args.spans_path.empty() && !spans.write(args.spans_path)) {
      std::fprintf(stderr, "cannot write spans to %s\n", args.spans_path.c_str());
      return 1;
    }
  }

  const bool correct = tally.attempted > 0 && tally.ok == tally.attempted && gain > 0.0;
  std::printf("host: hw_threads %ld, run %.2f s (set-up and phases %.2f s), steal_frac %.4f, "
              "peak_rss %.1f MB\n",
              sysconf(_SC_NPROCESSORS_ONLN), seconds_since(run_start), measured_s, steal,
              peak_rss_mb());
  print_json(correct, tally, metrics);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload predict_saturate|predict_lone|tune_mix --seed N "
                 "--seconds S --trace 0|1 [--spans PATH] [--corrupt]\n",
                 argv[0]);
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
