// Determinism regression test (tools/lint_rules.md): the full pipeline —
// collect, surrogate training, GA search — run twice from the same seed must
// produce bit-identical surrogate weights and the same selected config, and
// every offline loop that fans out over threads (collection, ANOVA ranking,
// ensemble training) must match its serial form bit for bit.
// Every result table in bench/ silently depends on this property.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "collect/dataset.h"
#include "collect/runner.h"
#include "core/rafiki.h"
#include "engine/params.h"
#include "ml/anova.h"
#include "ml/mlp.h"
#include "opt/space.h"
#include "util/rng.h"

namespace rafiki {
namespace {

core::RafikiOptions tiny_options() {
  core::RafikiOptions options;
  options.workload_grid = {0.2, 0.5, 0.8};
  options.n_configs = 6;
  options.collect.measure.ops = 4000;
  options.collect.measure.warmup_ops = 500;
  options.ensemble.n_nets = 4;
  options.ensemble.train.max_epochs = 40;
  options.ga.generations = 12;
  options.ga.population = 16;
  return options;
}

struct PipelineRun {
  std::vector<std::vector<double>> member_params;
  engine::Config best_config;
  double predicted = 0.0;
};

PipelineRun run_pipeline(const core::RafikiOptions& options) {
  core::Rafiki rafiki(options);
  rafiki.set_key_params(engine::key_params());
  const auto dataset = rafiki.collect();
  rafiki.train(dataset);
  const auto result = rafiki.optimize(/*read_ratio=*/0.8);

  PipelineRun run;
  for (const auto& net : rafiki.surrogate().nets()) {
    run.member_params.emplace_back(net.params().begin(), net.params().end());
  }
  run.best_config = result.config;
  run.predicted = result.predicted_throughput;
  return run;
}

TEST(Determinism, PipelineIsBitIdenticalAcrossRuns) {
  const auto options = tiny_options();
  const auto first = run_pipeline(options);
  const auto second = run_pipeline(options);

  ASSERT_FALSE(first.member_params.empty());
  ASSERT_EQ(first.member_params.size(), second.member_params.size());
  for (std::size_t n = 0; n < first.member_params.size(); ++n) {
    const auto& a = first.member_params[n];
    const auto& b = second.member_params[n];
    ASSERT_EQ(a.size(), b.size()) << "net " << n;
    // memcmp, not ==: NaN != NaN would mask a corrupted-but-unequal weight,
    // and bit-identity is the actual contract.
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(double)))
        << "net " << n << " weights differ between identically-seeded runs";
  }

  EXPECT_EQ(first.best_config, second.best_config)
      << "GA selected different configs: " << first.best_config.to_string()
      << " vs " << second.best_config.to_string();
  EXPECT_EQ(0, std::memcmp(&first.predicted, &second.predicted, sizeof(double)));
}

TEST(Determinism, ParallelEnsembleTrainingIsBitIdenticalToSerial) {
  // SurrogateEnsemble::fit trains members on a thread pool; per-member RNGs
  // are pre-split serially from the ensemble seed, so the schedule cannot
  // leak into the weights. Thread counts are forced explicitly (1 vs 4)
  // because hardware_concurrency on the CI box may itself be 1.
  auto options = tiny_options();
  options.ensemble.train_threads = 1;  // strictly serial reference
  const auto serial = run_pipeline(options);
  options.ensemble.train_threads = 4;
  const auto parallel = run_pipeline(options);

  ASSERT_FALSE(serial.member_params.empty());
  ASSERT_EQ(serial.member_params.size(), parallel.member_params.size());
  for (std::size_t n = 0; n < serial.member_params.size(); ++n) {
    const auto& a = serial.member_params[n];
    const auto& b = parallel.member_params[n];
    ASSERT_EQ(a.size(), b.size()) << "net " << n;
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(double)))
        << "net " << n << " weights differ between serial and parallel training";
  }
  EXPECT_EQ(serial.best_config, parallel.best_config);
  EXPECT_EQ(0, std::memcmp(&serial.predicted, &parallel.predicted, sizeof(double)));
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(Determinism, ParallelCollectionIsBitIdenticalToSerial) {
  // collect_dataset fans its measurements out over hardware_concurrency
  // threads. The reference is the serial protocol written out: fault draw,
  // then seed measure.seed + point number, in (config, read ratio) order.
  const auto configs = collect::sample_configs(engine::key_params(), 5, 3);
  const std::vector<double> read_ratios = {0.1, 0.5, 0.9};
  workload::WorkloadSpec base;
  base.initial_keys = 8000;
  for (const double fault_rate : {0.0, 0.5}) {
    collect::CollectOptions options;
    options.measure.ops = 2000;
    options.measure.warmup_ops = 200;
    options.fault_rate = fault_rate;
    options.seed = 17;
    const auto dataset = collect::collect_dataset(configs, read_ratios, base, options);

    Rng rng(options.seed);
    std::size_t next = 0;
    std::uint64_t point = 0;
    for (const auto& config : configs) {
      for (const double rr : read_ratios) {
        ++point;
        if (fault_rate > 0.0 && rng.bernoulli(fault_rate)) continue;
        ASSERT_LT(next, dataset.size()) << "fault rate " << fault_rate;
        const auto& sample = dataset[next++];
        workload::WorkloadSpec workload = base;
        workload.read_ratio = rr;
        collect::MeasureOptions measure = options.measure;
        measure.seed = options.measure.seed + point;
        const double serial = collect::measure_throughput(config, workload, measure);
        EXPECT_EQ(sample.config, config);
        EXPECT_EQ(bits(sample.workload.read_ratio), bits(rr));
        EXPECT_EQ(bits(sample.throughput), bits(serial))
            << "point " << point << " at fault rate " << fault_rate;
      }
    }
    EXPECT_EQ(next, dataset.size()) << "fault rate " << fault_rate;
    if (fault_rate > 0.0) {
      EXPECT_LT(dataset.size(), configs.size() * read_ratios.size());
    }
  }
}

TEST(Determinism, ParallelRankingIsBitIdenticalToSerial) {
  // rank_parameters plans its one-at-a-time sweep serially and measures it
  // in parallel; the reference is the historical serial loop.
  core::RafikiOptions options;
  options.collect.measure.ops = 600;
  options.collect.measure.warmup_ops = 60;
  options.base_workload.initial_keys = 4000;
  core::Rafiki rafiki(options);
  const auto& ranking = rafiki.rank_parameters();

  workload::WorkloadSpec workload = options.base_workload;
  workload.read_ratio = options.anova_read_ratio;
  std::uint64_t seed_counter = options.collect.seed;
  std::vector<core::ParamRanking> serial;
  for (const auto& spec : engine::param_registry()) {
    opt::SearchSpace one_dim({{std::string(spec.name),
                               spec.type != engine::ParamType::kReal, spec.lo, spec.hi}});
    std::vector<std::vector<double>> groups;
    for (const double level :
         one_dim.level_values(0, static_cast<std::size_t>(spec.anova_levels))) {
      const auto config = engine::Config::defaults().with(spec.id, level);
      std::vector<double> group;
      for (std::size_t r = 0; r < options.anova_repeats; ++r) {
        collect::MeasureOptions measure = options.collect.measure;
        measure.seed = ++seed_counter * 7919 + r;
        group.push_back(collect::measure_throughput(config, workload, measure));
      }
      groups.push_back(std::move(group));
    }
    const auto anova = ml::one_way_anova(groups);
    serial.push_back({spec.id, ml::level_mean_stddev(groups), anova.f_statistic,
                      anova.p_value});
  }
  std::sort(serial.begin(), serial.end(),
            [](const core::ParamRanking& a, const core::ParamRanking& b) {
              return a.score > b.score;
            });

  ASSERT_EQ(ranking.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(ranking[i].id, serial[i].id) << "rank " << i;
    EXPECT_EQ(bits(ranking[i].score), bits(serial[i].score)) << "rank " << i;
    EXPECT_EQ(bits(ranking[i].f_statistic), bits(serial[i].f_statistic)) << "rank " << i;
    EXPECT_EQ(bits(ranking[i].p_value), bits(serial[i].p_value)) << "rank " << i;
  }
}

TEST(Determinism, DifferentSeedsActuallyChangeTheRun) {
  // Guards the test above against vacuity: if seeds were ignored somewhere,
  // both tests would pass while the pipeline ignored its inputs.
  auto options = tiny_options();
  const auto first = run_pipeline(options);
  options.ensemble.seed ^= 0xdecafbadull;
  options.collect.measure.seed ^= 0x1234ull;
  const auto second = run_pipeline(options);

  ASSERT_EQ(first.member_params.size(), second.member_params.size());
  bool any_diff = false;
  for (std::size_t n = 0; n < first.member_params.size() && !any_diff; ++n) {
    any_diff = first.member_params[n] != second.member_params[n];
  }
  EXPECT_TRUE(any_diff) << "reseeding the ensemble left every weight unchanged";
}

}  // namespace
}  // namespace rafiki
