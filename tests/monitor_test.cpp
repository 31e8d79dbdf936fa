// ProgressMonitor tests: the online select-then-revise protocol over
// recorded runs.
#include <gtest/gtest.h>

#include "common/simd.h"
#include "harness/runner.h"
#include "selection/monitor.h"

namespace rpe {
namespace {

class MonitorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WorkloadConfig config;
    config.kind = WorkloadKind::kTpch;
    config.name = "monitor-test";
    config.scale = 2.0;
    config.zipf = 1.0;
    config.tuning = TuningLevel::kFullyTuned;
    config.num_queries = 50;
    config.seed = 55;
    auto workload = BuildWorkload(config);
    ASSERT_TRUE(workload.ok());
    workload_ = new Workload(std::move(workload).ValueOrDie());
    auto records = RunWorkload(*workload_);
    ASSERT_TRUE(records.ok());

    MartParams params;
    params.num_trees = 50;
    params.tree.max_leaves = 16;
    static_selector_ = new EstimatorSelector(EstimatorSelector::Train(
        *records, PoolSix(), /*use_dynamic=*/false, params));
    dynamic_selector_ = new EstimatorSelector(EstimatorSelector::Train(
        *records, PoolSix(), /*use_dynamic=*/true, params));
  }
  static void TearDownTestSuite() {
    delete static_selector_;
    delete dynamic_selector_;
    delete workload_;
    static_selector_ = nullptr;
    dynamic_selector_ = nullptr;
    workload_ = nullptr;
  }

  OwnedRun RunOne(size_t query_idx) {
    auto run = RunQuery(*workload_, workload_->queries[query_idx]);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    return std::move(run).ValueOrDie();
  }

  static Workload* workload_;
  static EstimatorSelector* static_selector_;
  static EstimatorSelector* dynamic_selector_;
};

Workload* MonitorTest::workload_ = nullptr;
EstimatorSelector* MonitorTest::static_selector_ = nullptr;
EstimatorSelector* MonitorTest::dynamic_selector_ = nullptr;

TEST_F(MonitorTest, RejectsMismatchedSelectors) {
  EXPECT_DEATH(ProgressMonitor(dynamic_selector_, dynamic_selector_),
               "uses_dynamic_features");
}

TEST_F(MonitorTest, DecisionsCoverAllPipelines) {
  ProgressMonitor monitor(static_selector_, dynamic_selector_);
  auto run = RunOne(0);
  const auto decisions = monitor.DecideForRun(run.result);
  EXPECT_EQ(decisions.size(), run.result.pipelines.size());
  for (const auto& d : decisions) {
    EXPECT_LT(d.initial_choice,
              static_cast<size_t>(kNumSelectableEstimators));
    if (d.revised_choice.has_value()) {
      EXPECT_GE(d.revision_obs, 0);
      EXPECT_LT(*d.revised_choice,
                static_cast<size_t>(kNumSelectableEstimators));
    }
  }
}

TEST_F(MonitorTest, BatchedDecisionsMatchPerRunDecisions) {
  // DecideForRuns is the SIMD-batched decision entry; its choices must
  // equal per-run DecideForRun exactly, field for field, at every active
  // tier.
  ProgressMonitor monitor(static_selector_, dynamic_selector_);
  std::vector<OwnedRun> owned;
  owned.reserve(6);
  for (size_t q = 0; q < 6; ++q) owned.push_back(RunOne(q));
  std::vector<const QueryRunResult*> runs;
  for (const OwnedRun& run : owned) runs.push_back(&run.result);
  for (simd::Tier tier : {simd::Tier::kScalar, simd::Tier::kAvx2}) {
    const simd::Tier prev = simd::ActiveTier();
    simd::ForceTier(tier);
    const auto batched = monitor.DecideForRuns(runs);
    simd::ForceTier(prev);
    ASSERT_EQ(batched.size(), runs.size());
    for (size_t r = 0; r < runs.size(); ++r) {
      const auto single = monitor.DecideForRun(*runs[r]);
      ASSERT_EQ(batched[r].size(), single.size());
      for (size_t p = 0; p < single.size(); ++p) {
        EXPECT_EQ(batched[r][p].pipeline_id, single[p].pipeline_id);
        EXPECT_EQ(batched[r][p].initial_choice, single[p].initial_choice);
        EXPECT_EQ(batched[r][p].revised_choice, single[p].revised_choice);
        EXPECT_EQ(batched[r][p].revision_obs, single[p].revision_obs);
      }
    }
  }
}

TEST_F(MonitorTest, ReplaySeriesIsValidProgress) {
  ProgressMonitor monitor(static_selector_, dynamic_selector_);
  for (size_t q = 0; q < 5; ++q) {
    auto run = RunOne(q);
    const auto series = monitor.ReplayQueryProgress(run.result);
    ASSERT_EQ(series.size(), run.result.observations.size());
    for (double p : series) {
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
    }
    // The final report must be (close to) complete.
    EXPECT_GT(series.back(), 0.95);
  }
}

TEST_F(MonitorTest, ReplayErrorIsReasonable) {
  ProgressMonitor monitor(static_selector_, dynamic_selector_);
  double total = 0.0;
  size_t n = 0;
  for (size_t q = 0; q < 10; ++q) {
    auto run = RunOne(q);
    total += monitor.ReplayL1Error(run.result);
    ++n;
  }
  // Average query-level replay error must be far better than a constant
  // 50% reporter (L1 0.25).
  EXPECT_LT(total / static_cast<double>(n), 0.2);
}

TEST_F(MonitorTest, RevisionUsesDynamicChoiceAfterMarker) {
  ProgressMonitor monitor(static_selector_, dynamic_selector_);
  auto run = RunOne(1);
  const auto decisions = monitor.DecideForRun(run.result);
  for (const auto& d : decisions) {
    if (!d.revised_choice.has_value()) continue;
    const Pipeline& p =
        run.result.pipelines[static_cast<size_t>(d.pipeline_id)];
    if (p.first_obs < 0) continue;
    // Progress at an observation after the revision must equal the revised
    // estimator's value.
    const size_t oi = static_cast<size_t>(p.last_obs);
    PipelineView view{&run.result, &p};
    const double expected =
        GetEstimator(static_cast<EstimatorKind>(*d.revised_choice))
            .Estimate(view, oi);
    EXPECT_DOUBLE_EQ(monitor.PipelineProgress(run.result, d, oi), expected);
  }
}

}  // namespace
}  // namespace rpe
