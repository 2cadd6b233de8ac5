#include "collect/dataset.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <numeric>
#include <stdexcept>

#include "util/parallel.h"
#include "util/rng.h"

namespace rafiki::collect {

std::vector<double> Dataset::features(const Sample& sample,
                                      const std::vector<engine::ParamId>& params) {
  std::vector<double> row;
  row.reserve(params.size() + 1);
  row.push_back(sample.workload.read_ratio);
  for (auto id : params) row.push_back(sample.config.get(id));
  return row;
}

std::vector<std::vector<double>> Dataset::feature_matrix(
    const std::vector<engine::ParamId>& params) const {
  std::vector<std::vector<double>> rows;
  rows.reserve(samples_.size());
  for (const auto& sample : samples_) rows.push_back(features(sample, params));
  return rows;
}

std::vector<double> Dataset::targets() const {
  std::vector<double> y;
  y.reserve(samples_.size());
  for (const auto& sample : samples_) y.push_back(sample.throughput);
  return y;
}

namespace {

/// Groups sample indices by a key extractor, then withholds whole groups.
template <typename KeyFn>
Dataset::Split split_by_group(std::size_t n, double test_fraction, std::uint64_t seed,
                              KeyFn key_of) {
  std::map<std::string, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < n; ++i) groups[key_of(i)].push_back(i);

  std::vector<const std::vector<std::size_t>*> order;
  order.reserve(groups.size());
  for (const auto& [key, members] : groups) order.push_back(&members);
  rafiki::Rng rng(seed);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.bounded(i)]);
  }

  const auto n_test_groups = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::round(test_fraction * static_cast<double>(order.size()))));
  Dataset::Split split;
  for (std::size_t g = 0; g < order.size(); ++g) {
    auto& bucket = g < n_test_groups ? split.test : split.train;
    bucket.insert(bucket.end(), order[g]->begin(), order[g]->end());
  }
  std::sort(split.train.begin(), split.train.end());
  std::sort(split.test.begin(), split.test.end());
  return split;
}

}  // namespace

Dataset::Split Dataset::split_by_config(double test_fraction, std::uint64_t seed) const {
  return split_by_group(samples_.size(), test_fraction, seed, [&](std::size_t i) {
    return samples_[i].config.to_string();
  });
}

Dataset::Split Dataset::split_by_workload(double test_fraction, std::uint64_t seed) const {
  return split_by_group(samples_.size(), test_fraction, seed, [&](std::size_t i) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6f", samples_[i].workload.read_ratio);
    return std::string(buf);
  });
}

Dataset Dataset::subset(const std::vector<std::size_t>& indices) const {
  Dataset out;
  for (auto i : indices) out.add(samples_.at(i));
  return out;
}

std::string Dataset::to_csv(const std::vector<engine::ParamId>& params) const {
  std::string out = "read_ratio";
  for (auto id : params) {
    out += ',';
    out += std::string(engine::param_name(id));
  }
  out += ",throughput\n";
  char buf[64];
  for (const auto& sample : samples_) {
    const auto row = features(sample, params);
    for (std::size_t c = 0; c < row.size(); ++c) {
      std::snprintf(buf, sizeof buf, c ? ",%.6g" : "%.6g", row[c]);
      out += buf;
    }
    std::snprintf(buf, sizeof buf, ",%.3f\n", sample.throughput);
    out += buf;
  }
  return out;
}

Dataset Dataset::from_csv(const std::string& csv,
                          const workload::WorkloadSpec& base_workload) {
  Dataset dataset;
  std::size_t pos = 0;
  auto next_line = [&](std::string& line) {
    if (pos >= csv.size()) return false;
    const auto end = csv.find('\n', pos);
    line = csv.substr(pos, end == std::string::npos ? std::string::npos : end - pos);
    pos = end == std::string::npos ? csv.size() : end + 1;
    return true;
  };
  auto split_fields = [](const std::string& line) {
    std::vector<std::string> fields;
    std::size_t start = 0;
    for (;;) {
      const auto comma = line.find(',', start);
      fields.push_back(line.substr(start, comma == std::string::npos ? std::string::npos
                                                                     : comma - start));
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    return fields;
  };

  std::string line;
  if (!next_line(line)) throw std::invalid_argument("Dataset::from_csv: empty input");
  const auto header = split_fields(line);
  if (header.size() < 2 || header.front() != "read_ratio" ||
      header.back() != "throughput") {
    throw std::invalid_argument("Dataset::from_csv: unexpected header");
  }
  std::vector<engine::ParamId> params;
  for (std::size_t c = 1; c + 1 < header.size(); ++c) {
    const auto id = engine::find_param(header[c]);
    if (id == engine::ParamId::kCount) {
      throw std::invalid_argument("Dataset::from_csv: unknown parameter " + header[c]);
    }
    params.push_back(id);
  }

  while (next_line(line)) {
    if (line.empty()) continue;
    const auto fields = split_fields(line);
    if (fields.size() != header.size()) {
      throw std::invalid_argument("Dataset::from_csv: malformed row: " + line);
    }
    Sample sample;
    sample.workload = base_workload;
    try {
      sample.workload.read_ratio = std::stod(fields.front());
      for (std::size_t c = 0; c < params.size(); ++c) {
        sample.config.set(params[c], std::stod(fields[c + 1]));
      }
      sample.throughput = std::stod(fields.back());
    } catch (const std::exception&) {
      throw std::invalid_argument("Dataset::from_csv: non-numeric field in: " + line);
    }
    dataset.add(std::move(sample));
  }
  return dataset;
}

std::vector<engine::Config> sample_configs(const std::vector<engine::ParamId>& params,
                                           std::size_t count, std::uint64_t seed) {
  return sample_configs_focused(params, params, count, seed);
}

std::vector<engine::Config> sample_configs_focused(
    const std::vector<engine::ParamId>& params,
    const std::vector<engine::ParamId>& active, std::size_t count,
    std::uint64_t seed) {
  std::vector<engine::Config> configs;
  configs.push_back(engine::Config::defaults());
  // Coverage rule (Section 3.5): every parameter's minimum and maximum occur
  // at least once. One config per extreme with the rest at defaults, so each
  // parameter's boundary behaviour is observed in isolation.
  auto add_unique = [&](const engine::Config& config) {
    if (configs.size() < count &&
        std::find(configs.begin(), configs.end(), config) == configs.end()) {
      configs.push_back(config);
    }
  };
  for (auto id : params) {
    add_unique(engine::Config::defaults().with(id, engine::param_spec(id).lo));
    add_unique(engine::Config::defaults().with(id, engine::param_spec(id).hi));
  }

  // Random fill varies only `active` jointly; everything else stays at its
  // default. A surrogate whose search will pin inactive knobs to defaults is
  // only ever evaluated on that slice, so that is where joint (interaction)
  // support matters — axis-aligned extremes alone leave a 22-D model assuming
  // additivity exactly where the GA pushes hardest.
  rafiki::Rng rng(seed);
  while (configs.size() < count) {
    engine::Config config;
    for (auto id : active) {
      const auto& spec = engine::param_spec(id);
      config.set(id, rng.uniform(spec.lo, spec.hi));  // set() snaps integrals
    }
    if (std::find(configs.begin(), configs.end(), config) == configs.end()) {
      configs.push_back(config);
    }
  }
  return configs;
}

Dataset collect_dataset(const std::vector<engine::Config>& configs,
                        const std::vector<double>& read_ratios,
                        const workload::WorkloadSpec& base_workload,
                        const CollectOptions& options) {
  // Plan serially, in the historical order: the fault draw and measurement
  // seed of every (config, read ratio) point. Only survivors are measured.
  rafiki::Rng rng(options.seed);
  std::vector<Sample> planned;
  std::vector<std::uint64_t> seeds;
  std::uint64_t measurement = 0;
  for (const auto& config : configs) {
    for (double rr : read_ratios) {
      ++measurement;
      if (options.fault_rate > 0.0 && rng.bernoulli(options.fault_rate)) {
        continue;  // sample lost to a harness fault, per the paper's protocol
      }
      Sample sample;
      sample.workload = base_workload;
      sample.workload.read_ratio = rr;
      sample.config = config;
      planned.push_back(std::move(sample));
      seeds.push_back(options.measure.seed + measurement);
    }
  }

  // Each point runs on its own fresh server and fills only its own slot, so
  // the dataset is bit-identical at any thread count.
  rafiki::parallel_for(planned.size(), 0, [&](std::size_t i) {
    MeasureOptions measure_opts = options.measure;
    measure_opts.seed = seeds[i];
    planned[i].throughput = measure_throughput(planned[i].config, planned[i].workload,
                                               measure_opts);
  });

  Dataset dataset;
  for (auto& sample : planned) dataset.add(std::move(sample));
  return dataset;
}

}  // namespace rafiki::collect
