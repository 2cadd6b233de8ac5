#include "harness.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <fstream>
#include <iomanip>

#include "collect/runner.h"
#include "engine/params.h"
#include "serve/service.h"
#include "util/rng.h"
#include "workload/spec.h"

namespace perfbench {

using namespace rafiki;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {

// Aggregate "cpu" line of /proc/stat: user nice system idle iowait irq
// softirq steal. Returns false where the file is unavailable.
bool read_cpu_line(std::uint64_t& steal, std::uint64_t& total) {
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return false;
  std::uint64_t field[8] = {};
  for (auto& f : field) {
    if (!(in >> f)) return false;
  }
  steal = field[7];
  total = 0;
  for (auto f : field) total += f;
  return true;
}

}  // namespace

StealMeter::StealMeter() { read_cpu_line(steal_, total_); }

double StealMeter::fraction() const {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
  if (!read_cpu_line(steal, total) || total <= total_) return 0.0;
  return static_cast<double>(steal - steal_) / static_cast<double>(total - total_);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double supported_tail(const std::vector<double>& values, double* q_out) {
  for (double q : {0.999, 0.99, 0.9}) {
    if (static_cast<double>(values.size()) * (1.0 - q) >= 10.0) {
      *q_out = q;
      return quantile(values, q);
    }
  }
  *q_out = 0.5;
  return quantile(values, 0.5);
}

bool SpanRecorder::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << std::fixed << std::setprecision(3);
  out << "request\tname\tparent\tstart_us\tend_us\n";
  for (const auto& s : spans_) {
    out << s.request << '\t' << s.name << '\t' << s.parent << '\t' << s.start_us << '\t'
        << s.end_us << '\n';
  }
  return static_cast<bool>(out);
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

Model build_model() {
  // rafiki_serverd's default training profile.
  core::RafikiOptions options;
  options.workload_grid = {0.2, 0.8};
  options.n_configs = 5;
  options.collect.measure.ops = 3000;
  options.collect.measure.warmup_ops = 300;
  options.ensemble.n_nets = 3;
  options.ensemble.train.max_epochs = 30;

  Model model;
  model.rafiki = std::make_unique<core::Rafiki>(options);
  model.rafiki->set_key_params(engine::key_params());
  const auto t0 = Clock::now();
  const auto dataset = model.rafiki->collect();
  model.collect_s = seconds_since(t0);
  model.engine_ops = dataset.size() * (options.collect.measure.ops +
                                       options.collect.measure.warmup_ops);
  const auto t1 = Clock::now();
  model.rafiki->train(dataset);
  model.train_s = seconds_since(t1);
  model.snapshot = serve::make_snapshot(*model.rafiki);
  return model;
}

namespace {

engine::Config draw_config(const serve::ModelSnapshot& snapshot, Rng& rng) {
  return engine::Config::from_vector(snapshot.key_params,
                                     snapshot.space->snap(snapshot.space->random_point(rng)));
}

PredictCase score(const serve::ModelSnapshot& snapshot, double read_ratio,
                  const engine::Config& config) {
  PredictCase c;
  c.read_ratio = read_ratio;
  c.config = config;
  const auto row = snapshot.feature_row(read_ratio, config);
  const auto p = snapshot.ensemble.predict_with_uncertainty(row);
  c.mean = p.mean;
  c.stddev = p.stddev;
  return c;
}

}  // namespace

std::vector<PredictCase> make_predict_cases(const serve::ModelSnapshot& snapshot,
                                            std::uint64_t seed, std::size_t count) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
  std::vector<PredictCase> cases;
  cases.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double rr = rng.uniform();
    cases.push_back(score(snapshot, rr, draw_config(snapshot, rng)));
  }
  return cases;
}

std::vector<PredictCase> make_regime_cases(const serve::ModelSnapshot& snapshot,
                                           std::uint64_t seed, std::size_t configs) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 2);
  std::vector<engine::Config> drawn;
  for (std::size_t i = 0; i < configs; ++i) drawn.push_back(draw_config(snapshot, rng));
  std::vector<PredictCase> cases;
  for (double rr : regimes()) {
    for (const auto& config : drawn) cases.push_back(score(snapshot, rr, config));
  }
  return cases;
}

serve::Request predict_request(const PredictCase& c, serve::TenantId tenant) {
  serve::Request r;
  r.endpoint = serve::Endpoint::kPredict;
  r.tenant = tenant;
  r.read_ratio = c.read_ratio;
  r.config = c.config;
  return r;
}

bool predict_matches(const PredictCase& expected, const serve::Response& response) {
  return response.status == serve::Status::kOk && response.model_version != 0 &&
         same_bits(response.mean, expected.mean) && same_bits(response.stddev, expected.stddev);
}

opt::GaResult optimize_like_service(const serve::ModelSnapshot& snapshot, double read_ratio) {
  const auto objective = [&](const std::vector<std::vector<double>>& points) {
    std::vector<std::vector<double>> rows;
    rows.reserve(points.size());
    for (const auto& point : points) {
      std::vector<double> row{read_ratio};
      row.insert(row.end(), point.begin(), point.end());
      rows.push_back(std::move(row));
    }
    return snapshot.ensemble.predict_batch(rows);
  };
  return opt::ga_optimize_batched(*snapshot.space, objective, serve::ServiceOptions{}.ga);
}

TuneReference make_tune_reference(const Model& model) {
  TuneReference ref;
  for (double rr : regimes()) {
    const auto ga = optimize_like_service(model.snapshot, rr);
    serve::Response r;
    r.config = engine::Config::from_vector(model.snapshot.key_params, ga.best_point);
    r.predicted_throughput = ga.best_fitness;
    r.surrogate_evaluations = ga.evaluations;
    ref.optimize[rr] = r;
    ref.tuned[rr] = model.rafiki->optimize(rr).config;
  }
  return ref;
}

double ground_truth(const engine::Config& config, double read_ratio) {
  collect::MeasureOptions options;
  options.ops = 20000;
  options.warmup_ops = 2000;
  options.noise_sd = 0.0;
  return collect::measure_throughput(config, workload::WorkloadSpec::with_read_ratio(read_ratio),
                                     options);
}

}  // namespace perfbench
