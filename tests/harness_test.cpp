// Integration tests: full pipeline from workload construction through
// planning, execution, featurization, selector training and evaluation.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>

#include "harness/experiment.h"
#include "harness/runner.h"
#include "serving/snapshot.h"
#include "tests/test_util.h"

namespace rpe {
namespace {

WorkloadConfig SmallTpch(uint64_t seed = 77) {
  WorkloadConfig config;
  config.kind = WorkloadKind::kTpch;
  config.name = "tpch-small";
  config.scale = 2.0;
  config.zipf = 1.0;
  config.tuning = TuningLevel::kPartiallyTuned;
  config.num_queries = 60;
  config.seed = seed;
  return config;
}

class HarnessTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto workload = BuildWorkload(SmallTpch());
    ASSERT_TRUE(workload.ok()) << workload.status().ToString();
    workload_ = new Workload(std::move(workload).ValueOrDie());
    auto records = RunWorkload(*workload_);
    ASSERT_TRUE(records.ok()) << records.status().ToString();
    records_ = new std::vector<PipelineRecord>(std::move(records).ValueOrDie());
  }
  static void TearDownTestSuite() {
    delete records_;
    delete workload_;
    records_ = nullptr;
    workload_ = nullptr;
  }

  static Workload* workload_;
  static std::vector<PipelineRecord>* records_;
};

Workload* HarnessTest::workload_ = nullptr;
std::vector<PipelineRecord>* HarnessTest::records_ = nullptr;

TEST_F(HarnessTest, WorkloadBuilds) {
  EXPECT_EQ(workload_->queries.size(), 60u);
  EXPECT_TRUE(workload_->catalog->HasTable("lineitem"));
  EXPECT_TRUE(workload_->catalog->HasTable("orders"));
  EXPECT_GT(workload_->catalog->num_indexes(), 6u);
}

TEST_F(HarnessTest, ProducesRecords) {
  ASSERT_GT(records_->size(), 40u);
  const size_t nf = FeatureSchema::Get().num_features();
  for (const auto& r : *records_) {
    EXPECT_EQ(r.features.size(), nf);
    EXPECT_EQ(r.l1.size(), static_cast<size_t>(kNumEstimatorKinds));
    for (double e : r.l1) {
      EXPECT_GE(e, 0.0);
      EXPECT_LE(e, 1.0);
    }
  }
}

TEST_F(HarnessTest, ErrorsAreNotDegenerate) {
  // At least some pipelines must have nontrivial errors, and different
  // estimators must win on different pipelines.
  size_t nontrivial = 0;
  std::set<size_t> winners;
  for (const auto& r : *records_) {
    if (r.BestL1() > 0.01) ++nontrivial;
    winners.insert(r.BestEstimator());
  }
  EXPECT_GT(nontrivial, records_->size() / 20);
  EXPECT_GE(winners.size(), 3u) << "a single estimator dominates everywhere";
}

TEST_F(HarnessTest, RunQuerySingle) {
  auto run = RunQuery(*workload_, workload_->queries[0]);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_GT(run->result.observations.size(), 0u);
  EXPECT_GT(run->result.total_time, 0.0);
}

TEST_F(HarnessTest, SelectorTrainsAndBeatsWorstEstimator) {
  // Split odd/even to get disjoint train/test.
  std::vector<PipelineRecord> train, test;
  for (size_t i = 0; i < records_->size(); ++i) {
    ((i % 2 == 0) ? train : test).push_back((*records_)[i]);
  }
  MartParams fast;
  fast.num_trees = 60;
  fast.tree.max_leaves = 16;
  auto eval = TrainAndEvaluate(train, test, PoolOriginalThree(),
                               /*use_dynamic=*/false, fast);
  ASSERT_GT(eval.metrics.count, 0u);

  // Selection should not be worse than the worst single estimator, and
  // should typically approach the best.
  double worst = 0.0, best = 1.0;
  for (size_t est : PoolOriginalThree()) {
    const auto m = EvaluateChoices(test, FixedChoice(test, est));
    worst = std::max(worst, m.avg_l1);
    best = std::min(best, m.avg_l1);
  }
  EXPECT_LE(eval.metrics.avg_l1, worst + 1e-9);
}

TEST_F(HarnessTest, OracleIsLowerBound) {
  const auto oracle = EvaluateChoices(*records_, OracleChoice(*records_));
  for (size_t est = 0; est < static_cast<size_t>(kNumSelectableEstimators);
       ++est) {
    const auto m = EvaluateChoices(*records_, FixedChoice(*records_, est));
    EXPECT_GE(m.avg_l1, oracle.avg_l1 - 1e-12);
  }
  EXPECT_DOUBLE_EQ(oracle.pct_optimal, 1.0);
}

TEST_F(HarnessTest, SelectivityBucketsPartition) {
  const auto buckets = SelectivityBuckets(*records_, 6);
  ASSERT_EQ(buckets.size(), records_->size());
  size_t assigned = 0;
  for (int b : buckets) {
    EXPECT_GE(b, -1);
    EXPECT_LE(b, 2);
    if (b >= 0) ++assigned;
  }
  EXPECT_GT(assigned, 0u);
}

// The record cache hands back exactly what a cold run computed (it is a
// bit-exact .rpsn record batch), and a cache file that fails to decode is
// recomputed and rewritten, never returned.
TEST_F(HarnessTest, CachedRecordsHitIsBitExactAndBadFileIsRecomputed) {
  const std::string dir = ::rpe::testing::TempPath("record_cache");
  std::filesystem::remove_all(dir);
  ASSERT_EQ(setenv("RPE_CACHE_DIR", dir.c_str(), 1), 0);
  WorkloadConfig config = SmallTpch(123);
  config.num_queries = 10;
  // Counts the records a call computes: a cache hit computes none.
  size_t computed = 0;
  RunOptions options;
  options.on_record = [&computed](const PipelineRecord&) { ++computed; };

  auto cold = CachedRecords("tiny", config, options);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_FALSE(cold->empty());
  EXPECT_EQ(computed, cold->size());
  const std::string cold_bytes = EncodeRecordBatch(*cold);

  auto hit = CachedRecords("tiny", config, options);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_EQ(computed, cold->size()) << "the second call recomputed";
  EXPECT_TRUE(EncodeRecordBatch(*hit) == cold_bytes)
      << "the cache hit differs from the cold run";

  const std::string path = dir + "/tiny.rpsn";
  ASSERT_TRUE(std::filesystem::exists(path));
  const auto full_size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full_size / 2);
  auto recomputed = CachedRecords("tiny", config, options);
  ASSERT_TRUE(recomputed.ok()) << recomputed.status().ToString();
  EXPECT_EQ(computed, 2 * cold->size())
      << "the truncated file was not recomputed";
  EXPECT_TRUE(EncodeRecordBatch(*recomputed) == cold_bytes);
  EXPECT_EQ(std::filesystem::file_size(path), full_size);
  auto reread = LoadRecordBatch(path);
  ASSERT_TRUE(reread.ok()) << reread.status().ToString();
  EXPECT_TRUE(EncodeRecordBatch(*reread) == cold_bytes);

  unsetenv("RPE_CACHE_DIR");
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace rpe
