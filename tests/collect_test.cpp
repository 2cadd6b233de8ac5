#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>
#include <set>

#include "collect/dataset.h"
#include "collect/runner.h"

namespace rafiki::collect {
namespace {

MeasureOptions quick_measure() {
  MeasureOptions options;
  options.ops = 8000;
  options.warmup_ops = 2000;
  options.noise_sd = 0.0;
  return options;
}

TEST(Runner, MeasurementIsDeterministicGivenSeed) {
  workload::WorkloadSpec spec = workload::WorkloadSpec::with_read_ratio(0.5);
  spec.initial_keys = 10000;
  const auto a = measure_throughput(engine::Config::defaults(), spec, quick_measure());
  const auto b = measure_throughput(engine::Config::defaults(), spec, quick_measure());
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(Runner, GoldenThroughputIsBitExact) {
  // Throughputs of a reference build. Any change to the engine's preload,
  // Bloom filters, compaction or RNG draws moves these, and with them every
  // collected dataset and trained surrogate. Points cover both compaction
  // methods and both ends of bloom_filter_fp_chance.
  struct Point {
    int compaction_method;
    double bloom_fp;
    double read_ratio;
    std::uint64_t seed;
    double throughput;
  };
  const Point points[] = {
      {0, 0.01, 0.5, 1, 0x1.11b191b1fdbeap+16},   // 70065.569122180023
      {1, 0.01, 0.2, 7, 0x1.7fe8b4208af72p+16},   // 98280.703621564229
      {0, 0.001, 0.8, 11, 0x1.d42e6b145722p+15},  // 59927.209139559651
      {1, 0.2, 0.9, 3, 0x1.04a75a71444d5p+16},    // 66727.353290814281
      {0, 0.2, 0.1, 5, 0x1.7b6de2700866ep+16},    // 97133.884521985165
      {1, 0.001, 0.5, 9, 0x1.469c195dd0255p+16},  // 83612.099087723836
  };
  // The full serving budget: long enough that flushes and compactions run,
  // so merged (unsorted) key runs reach the SSTable constructor too.
  MeasureOptions options;
  options.ops = 20000;
  options.warmup_ops = 2000;
  for (const auto& point : points) {
    const auto config = engine::Config::defaults()
                            .with(engine::ParamId::kCompactionMethod, point.compaction_method)
                            .with(engine::ParamId::kBloomFilterFpChance, point.bloom_fp);
    workload::WorkloadSpec spec;
    spec.read_ratio = point.read_ratio;
    options.seed = point.seed;
    const double measured = measure_throughput(config, spec, options);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(measured),
              std::bit_cast<std::uint64_t>(point.throughput))
        << "compaction " << point.compaction_method << " fp " << point.bloom_fp << " rr "
        << point.read_ratio << ": measured " << std::hexfloat << measured;
  }
}

TEST(Runner, ScyllaPathUsesScyllaEngine) {
  workload::WorkloadSpec spec = workload::WorkloadSpec::with_read_ratio(0.0);
  spec.initial_keys = 10000;
  auto options = quick_measure();
  const double cassandra = measure_throughput(engine::Config::defaults(), spec, options);
  options.scylla = true;
  const double scylla = measure_throughput(engine::Config::defaults(), spec, options);
  EXPECT_GT(scylla, cassandra);  // faster C++ engine on write-heavy
}

TEST(Runner, WarmupChangesStoreState) {
  workload::WorkloadSpec spec = workload::WorkloadSpec::with_read_ratio(0.9);
  spec.initial_keys = 10000;
  auto with_warm = quick_measure();
  with_warm.warmup_ops = 10000;  // enough mixed traffic to flush memtables
  auto no_warm = quick_measure();
  no_warm.warmup_ops = 0;
  const auto warm_stats = measure(engine::Config::defaults(), spec, with_warm);
  const auto cold_stats = measure(engine::Config::defaults(), spec, no_warm);
  // Warmup writes flushed additional SSTables into the store.
  EXPECT_GT(warm_stats.final_sstable_count, cold_stats.final_sstable_count);
}

TEST(SampleConfigs, CoversDefaultsAndExtremes) {
  const auto& params = engine::key_params();
  const auto configs = sample_configs(params, 20, 1);
  EXPECT_EQ(configs.size(), 20u);
  EXPECT_EQ(configs.front(), engine::Config::defaults());

  // Every parameter's min and max appears at least once (Section 3.5).
  for (auto id : params) {
    const auto& spec = engine::param_spec(id);
    bool saw_min = false, saw_max = false;
    for (const auto& config : configs) {
      saw_min |= config.get(id) == spec.lo;
      saw_max |= config.get(id) == spec.hi;
    }
    EXPECT_TRUE(saw_min) << engine::param_name(id);
    EXPECT_TRUE(saw_max) << engine::param_name(id);
  }

  // No duplicates.
  std::set<std::string> rendered;
  for (const auto& config : configs) rendered.insert(config.to_string());
  EXPECT_EQ(rendered.size(), configs.size());
}

TEST(SampleConfigs, RandomFillStaysInDomain) {
  const auto& params = engine::key_params();
  for (const auto& config : sample_configs(params, 30, 9)) {
    for (auto id : params) {
      EXPECT_TRUE(engine::param_spec(id).feasible(config.get(id)))
          << engine::param_name(id);
    }
  }
}

TEST(SampleConfigsFocused, FullActiveSetIsBitIdenticalToSampleConfigs) {
  const auto& params = engine::key_params();
  EXPECT_EQ(sample_configs_focused(params, params, 30, 9),
            sample_configs(params, 30, 9));
}

TEST(SampleConfigsFocused, FillVariesOnlyActiveKnobs) {
  std::vector<engine::ParamId> params;
  for (const auto& spec : engine::param_registry()) params.push_back(spec.id);
  const std::vector<engine::ParamId> active = {
      engine::ParamId::kCompactionMethod, engine::ParamId::kConcurrentWrites,
      engine::ParamId::kFileCacheSizeMb};
  // Past the coverage block (default + 2 per param), every fill config must
  // sit on the pinned slice: inactive knobs at defaults, active knobs varied.
  const std::size_t coverage = 1 + 2 * params.size();
  const std::size_t count = coverage + 12;
  const auto configs = sample_configs_focused(params, active, count, 7);
  ASSERT_EQ(configs.size(), count);
  const auto defaults = engine::Config::defaults();
  bool some_active_moved = false;
  for (std::size_t i = coverage; i < configs.size(); ++i) {
    for (auto id : params) {
      const bool is_active =
          std::find(active.begin(), active.end(), id) != active.end();
      if (!is_active) {
        EXPECT_EQ(configs[i].get(id), defaults.get(id)) << engine::param_name(id);
      } else if (configs[i].get(id) != defaults.get(id)) {
        some_active_moved = true;
      }
    }
  }
  EXPECT_TRUE(some_active_moved);

  // The coverage rule still spans the FULL registry, not just the active set.
  for (auto id : params) {
    const auto& spec = engine::param_spec(id);
    bool saw_min = false, saw_max = false;
    for (const auto& config : configs) {
      saw_min |= config.get(id) == spec.lo;
      saw_max |= config.get(id) == spec.hi;
    }
    EXPECT_TRUE(saw_min) << engine::param_name(id);
    EXPECT_TRUE(saw_max) << engine::param_name(id);
  }
}

class DatasetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CollectOptions options;
    options.measure = quick_measure();
    const auto configs = sample_configs(engine::key_params(), 6, 3);
    workload::WorkloadSpec base;
    base.initial_keys = 10000;
    dataset_ = new Dataset(
        collect_dataset(configs, {0.0, 0.5, 1.0}, base, options));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }
  static Dataset* dataset_;
};

Dataset* DatasetTest::dataset_ = nullptr;

TEST_F(DatasetTest, LatticeIsComplete) {
  EXPECT_EQ(dataset_->size(), 6u * 3u);
  for (const auto& sample : dataset_->samples()) EXPECT_GT(sample.throughput, 0.0);
}

TEST_F(DatasetTest, FeatureMatrixLayout) {
  const auto& params = engine::key_params();
  const auto X = dataset_->feature_matrix(params);
  ASSERT_EQ(X.size(), dataset_->size());
  ASSERT_EQ(X.front().size(), params.size() + 1);
  EXPECT_DOUBLE_EQ(X.front()[0], (*dataset_)[0].workload.read_ratio);
  const auto y = dataset_->targets();
  EXPECT_DOUBLE_EQ(y[0], (*dataset_)[0].throughput);
}

TEST_F(DatasetTest, ConfigSplitSeparatesConfigsCompletely) {
  const auto split = dataset_->split_by_config(0.33, 5);
  EXPECT_EQ(split.train.size() + split.test.size(), dataset_->size());
  std::set<std::string> train_configs, test_configs;
  for (auto i : split.train) train_configs.insert((*dataset_)[i].config.to_string());
  for (auto i : split.test) test_configs.insert((*dataset_)[i].config.to_string());
  for (const auto& config : test_configs) {
    EXPECT_FALSE(train_configs.contains(config));
  }
}

TEST_F(DatasetTest, WorkloadSplitSeparatesReadRatios) {
  const auto split = dataset_->split_by_workload(0.34, 5);
  std::set<double> train_rr, test_rr;
  for (auto i : split.train) train_rr.insert((*dataset_)[i].workload.read_ratio);
  for (auto i : split.test) test_rr.insert((*dataset_)[i].workload.read_ratio);
  for (double rr : test_rr) EXPECT_FALSE(train_rr.contains(rr));
  EXPECT_EQ(test_rr.size(), 1u);
}

TEST_F(DatasetTest, SubsetPreservesOrder) {
  const auto subset = dataset_->subset({0, 2, 4});
  ASSERT_EQ(subset.size(), 3u);
  EXPECT_DOUBLE_EQ(subset[1].throughput, (*dataset_)[2].throughput);
}

TEST_F(DatasetTest, CsvHasHeaderAndAllRows) {
  const auto csv = dataset_->to_csv(engine::key_params());
  EXPECT_NE(csv.find("read_ratio,compaction_method"), std::string::npos);
  EXPECT_EQ(static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n')),
            dataset_->size() + 1);
}

TEST_F(DatasetTest, CsvRoundTrips) {
  const auto csv = dataset_->to_csv(engine::key_params());
  const auto parsed = Dataset::from_csv(csv);
  ASSERT_EQ(parsed.size(), dataset_->size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_NEAR(parsed[i].workload.read_ratio, (*dataset_)[i].workload.read_ratio, 1e-6);
    EXPECT_NEAR(parsed[i].throughput, (*dataset_)[i].throughput, 0.01);
    for (auto id : engine::key_params()) {
      EXPECT_NEAR(parsed[i].config.get(id), (*dataset_)[i].config.get(id), 1e-4)
          << engine::param_name(id);
    }
  }
}

TEST(DatasetCsv, RejectsMalformedInput) {
  EXPECT_THROW(Dataset::from_csv(""), std::invalid_argument);
  EXPECT_THROW(Dataset::from_csv("bogus,header\n"), std::invalid_argument);
  EXPECT_THROW(Dataset::from_csv("read_ratio,no_such_param,throughput\n0.5,1,100\n"),
               std::invalid_argument);
  EXPECT_THROW(
      Dataset::from_csv("read_ratio,compaction_method,throughput\n0.5,xyz,100\n"),
      std::invalid_argument);
  EXPECT_THROW(Dataset::from_csv("read_ratio,compaction_method,throughput\n0.5,1\n"),
               std::invalid_argument);
}

TEST(CollectDataset, FaultRateDropsSamples) {
  CollectOptions options;
  options.measure = quick_measure();
  options.measure.ops = 3000;
  options.measure.warmup_ops = 0;
  options.fault_rate = 0.5;
  options.seed = 11;
  const auto configs = sample_configs(engine::key_params(), 4, 3);
  workload::WorkloadSpec base;
  base.initial_keys = 5000;
  const auto dataset = collect_dataset(configs, {0.0, 0.5, 1.0}, base, options);
  EXPECT_LT(dataset.size(), 12u);
  EXPECT_GT(dataset.size(), 0u);
}

TEST(CollectDataset, MeasurementExceptionReachesCaller) {
  // A key space larger than a vector can hold makes every measurement's
  // preload throw before it allocates; the fan-out must hand that error to
  // the caller rather than terminate or drop the sample.
  CollectOptions options;
  options.measure = quick_measure();
  workload::WorkloadSpec base;
  base.initial_keys = std::numeric_limits<std::size_t>::max();
  const auto configs = sample_configs(engine::key_params(), 3, 3);
  EXPECT_THROW(collect_dataset(configs, {0.2, 0.8}, base, options), std::length_error);
}

}  // namespace
}  // namespace rafiki::collect
