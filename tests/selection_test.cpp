// Estimator-selection tests: feature schema/extraction, record handling,
// selector training and the candidate pools.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/thread_pool.h"
#include "exec/executor.h"
#include "selection/selector.h"
#include "tests/test_util.h"

namespace rpe {
namespace {

using ::rpe::testing::MakeSmallCatalog;

class SelectionTest : public ::testing::Test {
 protected:
  void SetUp() override { catalog_ = MakeSmallCatalog(); }

  static void AnnotateEstimates(PlanNode* node, double est) {
    node->est_rows = est;
    for (auto& c : node->children) AnnotateEstimates(c.get(), est * 0.8);
  }

  QueryRunResult Run(std::unique_ptr<PlanNode> root) {
    // Hand-built plans lack planner cardinality annotations; the static
    // features are defined over them, so fill plausible estimates.
    AnnotateEstimates(root.get(), 1000.0);
    auto plan = FinalizePlan(std::move(root), *catalog_);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    plans_.push_back(std::move(plan).ValueOrDie());
    auto result = ExecutePlan(*plans_.back(), *catalog_);
    EXPECT_TRUE(result.ok());
    return std::move(result).ValueOrDie();
  }

  std::unique_ptr<Catalog> catalog_;
  std::vector<std::unique_ptr<PhysicalPlan>> plans_;
};

TEST_F(SelectionTest, SchemaLayoutIsStable) {
  const FeatureSchema& schema = FeatureSchema::Get();
  // 12 ops x 5 encodings + 8 extras static; 3 pairs x 5 markers + 6
  // estimators x 4 steps x 5 markers dynamic.
  EXPECT_EQ(schema.num_static_features(), 12u * 5 + 8);
  EXPECT_EQ(schema.num_features(),
            schema.num_static_features() + 3 * 5 + 6 * 4 * 5);
  EXPECT_EQ(schema.name(0), "Count_TableScan");
  EXPECT_EQ(schema.name(schema.num_static_features()), "DNEvsTGN_1");
}

TEST_F(SelectionTest, StaticFeaturesEncodePlanShape) {
  auto run = Run(MakeNestedLoopJoin(MakeTableScan("t_fact"),
                                    MakeIndexSeek("t_dim", "d_id"), 1));
  PipelineView view{&run, &run.pipelines[0]};
  const auto features = ExtractStaticFeatures(view);
  const FeatureSchema& schema = FeatureSchema::Get();

  auto feature_by_name = [&](const std::string& name) {
    for (size_t i = 0; i < schema.num_features(); ++i) {
      if (schema.name(i) == name) return features[i];
    }
    ADD_FAILURE() << "no feature " << name;
    return 0.0;
  };
  EXPECT_DOUBLE_EQ(feature_by_name("Count_NestedLoopJoin"), 1.0);
  EXPECT_DOUBLE_EQ(feature_by_name("Count_IndexSeek"), 1.0);
  EXPECT_DOUBLE_EQ(feature_by_name("Count_TableScan"), 1.0);
  EXPECT_DOUBLE_EQ(feature_by_name("Count_HashJoin"), 0.0);
  EXPECT_DOUBLE_EQ(feature_by_name("HasNljInner"), 1.0);
  EXPECT_DOUBLE_EQ(feature_by_name("NumDrivers"), 1.0);
  // SelAtDN: scan E over total E, strictly between 0 and 1.
  const double sel_at_dn = feature_by_name("SelAtDN");
  EXPECT_GT(sel_at_dn, 0.0);
  EXPECT_LT(sel_at_dn, 1.0);
}

TEST_F(SelectionTest, SelAboveBelowRelations) {
  auto run = Run(MakeFilter(MakeTableScan("t_fact"), Predicate::Le(2, 25)));
  PipelineView view{&run, &run.pipelines[0]};
  const auto features = ExtractStaticFeatures(view);
  const FeatureSchema& schema = FeatureSchema::Get();
  auto idx = [&](const std::string& name) {
    for (size_t i = 0; i < schema.num_features(); ++i) {
      if (schema.name(i) == name) return i;
    }
    return static_cast<size_t>(-1);
  };
  // The filter node has a TableScan descendant -> SelAbove_TableScan
  // includes the filter's E; the scan is below a Filter ->
  // SelBelow_Filter includes the scan's E.
  EXPECT_GT(features[idx("SelAbove_TableScan")], 0.0);
  EXPECT_GT(features[idx("SelBelow_Filter")], 0.0);
  // The scan has no descendants -> nothing is "above" a Filter w.r.t. it.
  EXPECT_DOUBLE_EQ(features[idx("SelAbove_Filter")], 0.0);
}

TEST_F(SelectionTest, MarkerObservationsAreOrdered) {
  auto run = Run(MakeTableScan("t_fact"));
  PipelineView view{&run, &run.pipelines[0]};
  int prev = -1;
  for (double pct : {1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0}) {
    const int obs = MarkerObservation(view, pct);
    ASSERT_GE(obs, 0) << pct;
    EXPECT_GE(obs, prev);
    prev = obs;
  }
}

TEST_F(SelectionTest, FullFeatureVectorHasSchemaArity) {
  auto run = Run(MakeHashJoin(MakeTableScan("t_dim"), MakeTableScan("t_fact"),
                              0, 1));
  for (const auto& pipeline : run.pipelines) {
    if (pipeline.first_obs < 0) continue;
    PipelineView view{&run, &pipeline};
    const auto features = ExtractAllFeatures(view);
    EXPECT_EQ(features.size(), FeatureSchema::Get().num_features());
    for (double f : features) {
      EXPECT_TRUE(std::isfinite(f));
    }
  }
}

TEST_F(SelectionTest, RecordCapturesErrorsAndFeatures) {
  auto run = Run(MakeFilter(MakeTableScan("t_fact"), Predicate::Ge(2, 10)));
  PipelineView view{&run, &run.pipelines[0]};
  PipelineRecord record;
  ASSERT_TRUE(MakeRecord(view, "wl", "q1", "tag", &record));
  EXPECT_EQ(record.workload, "wl");
  EXPECT_EQ(record.l1.size(), static_cast<size_t>(kNumEstimatorKinds));
  EXPECT_GT(record.total_n, 0.0);
  EXPECT_LT(record.BestEstimator(),
            static_cast<size_t>(kNumSelectableEstimators));
}

TEST_F(SelectionTest, RecordSkipsShortPipelines) {
  auto run = Run(MakeTableScan("t_dim"));  // tiny: few observations
  PipelineView view{&run, &run.pipelines[0]};
  PipelineRecord record;
  EXPECT_FALSE(MakeRecord(view, "wl", "q", "", &record,
                          /*min_observations=*/100000));
}

TEST_F(SelectionTest, CsvRejectsMismatchedArityWithLineNumber) {
  auto run = Run(MakeFilter(MakeTableScan("t_fact"), Predicate::Ge(2, 10)));
  PipelineView view{&run, &run.pipelines[0]};
  PipelineRecord record;
  ASSERT_TRUE(MakeRecord(view, "wl", "q1", "tag", &record));
  const std::string csv = RecordsToCsv({record, record, record});
  ASSERT_TRUE(RecordsFromCsv(csv).ok());

  // Drop the last l2 column of the second data row: its l1/l2 arity no
  // longer matches SelectableEstimators and the row must be rejected with
  // its line number (header = line 1, so row 2 is line 3).
  std::vector<std::string> lines;
  std::istringstream in(csv);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 4u);
  std::string truncated = lines[2].substr(0, lines[2].rfind(','));
  const std::string bad_arity =
      lines[0] + "\n" + lines[1] + "\n" + truncated + "\n" + lines[3] + "\n";
  auto result = RecordsFromCsv(bad_arity);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("line 3"), std::string::npos)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("columns"), std::string::npos);

  // Extra columns are equally a mismatch, not silently ignored.
  const std::string extra =
      lines[0] + "\n" + lines[1] + ",0.5\n" + lines[2] + "\n" + lines[3] +
      "\n";
  result = RecordsFromCsv(extra);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("line 2"), std::string::npos);

  // Non-numeric cells name the offending line too.
  std::string garbled = csv;
  const size_t pos = garbled.rfind(",");
  garbled.replace(pos + 1, garbled.size() - pos - 2, "not-a-number");
  result = RecordsFromCsv(garbled);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("line 4"), std::string::npos)
      << result.status().ToString();

  // A fractional pipeline id is not silently truncated.
  std::string frac = csv;
  ASSERT_NE(frac.find("wl,q1,0,"), std::string::npos);
  frac.replace(frac.find("wl,q1,0,"), 8, "wl,q1,0.5,");
  result = RecordsFromCsv(frac);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("bad integer"), std::string::npos);

  // CRLF input still loads (the strict parser strips the trailing \r).
  std::string crlf;
  for (char c : csv) {
    if (c == '\n') crlf += "\r\n";
    else crlf += c;
  }
  auto crlf_result = RecordsFromCsv(crlf);
  EXPECT_TRUE(crlf_result.ok()) << crlf_result.status().ToString();
  EXPECT_EQ(crlf_result->size(), 3u);
}

TEST_F(SelectionTest, PoolsAreConsistent) {
  EXPECT_EQ(PoolOriginalThree().size(), 3u);
  EXPECT_EQ(PoolSix().size(), 6u);
  EXPECT_EQ(PoolAll().size(), static_cast<size_t>(kNumSelectableEstimators));
  for (size_t est : PoolSix()) {
    EXPECT_LT(est, static_cast<size_t>(kNumSelectableEstimators));
    EXPECT_NE(est, static_cast<size_t>(EstimatorKind::kSafe));
    EXPECT_NE(est, static_cast<size_t>(EstimatorKind::kPmax));
  }
}

namespace {

/// Synthetic records where the best estimator is a deterministic function
/// of one feature — a selector must learn this mapping.
std::vector<PipelineRecord> SyntheticRecords(size_t n, uint64_t seed) {
  const FeatureSchema& schema = FeatureSchema::Get();
  Rng rng(seed);
  std::vector<PipelineRecord> records;
  for (size_t i = 0; i < n; ++i) {
    PipelineRecord r;
    r.workload = "syn";
    r.query = "q" + std::to_string(i);
    r.features.assign(schema.num_features(), 0.0);
    const double signal = rng.NextDouble();
    r.features[0] = signal;                      // Count_TableScan as signal
    r.features[5] = rng.NextDouble();            // noise
    r.l1.assign(kNumEstimatorKinds, 0.5);
    r.l2.assign(kNumEstimatorKinds, 0.5);
    // DNE wins when signal < 0.5, TGN when >= 0.5.
    if (signal < 0.5) {
      r.l1[0] = 0.05;
      r.l1[1] = 0.4;
    } else {
      r.l1[0] = 0.4;
      r.l1[1] = 0.05;
    }
    r.l1[2] = 0.3;  // LUO mediocre everywhere
    records.push_back(std::move(r));
  }
  return records;
}

}  // namespace

TEST_F(SelectionTest, SelectorLearnsDeterministicRule) {
  const auto train = SyntheticRecords(600, 1);
  const auto test = SyntheticRecords(200, 2);
  MartParams params;
  params.num_trees = 40;
  params.tree.max_leaves = 8;
  EstimatorSelector selector = EstimatorSelector::Train(
      train, PoolOriginalThree(), /*use_dynamic=*/false, params);
  size_t correct = 0;
  for (const auto& r : test) {
    if (selector.SelectForRecord(r) == r.BestEstimator()) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / test.size(), 0.95);
}

TEST_F(SelectionTest, PredictErrorsAlignsWithPool) {
  const auto train = SyntheticRecords(300, 3);
  MartParams params;
  params.num_trees = 20;
  EstimatorSelector selector = EstimatorSelector::Train(
      train, PoolSix(), /*use_dynamic=*/true, params);
  const auto predicted = selector.PredictErrors(train[0].features);
  EXPECT_EQ(predicted.size(), 6u);
  EXPECT_TRUE(selector.uses_dynamic_features());
}

TEST_F(SelectionTest, FeatureImportanceConcentratesOnSignal) {
  const auto train = SyntheticRecords(800, 4);
  MartParams params;
  params.num_trees = 40;
  params.tree.max_leaves = 8;
  EstimatorSelector selector = EstimatorSelector::Train(
      train, PoolOriginalThree(), /*use_dynamic=*/false, params);
  const auto gains = selector.FeatureImportance();
  // Feature 0 carries all signal; feature 5 is pure noise.
  EXPECT_GT(gains[0], 10.0 * (gains[5] + 1e-12));
}

TEST_F(SelectionTest, ParallelTrainingIsByteIdenticalToSequential) {
  const auto train = SyntheticRecords(300, 5);
  MartParams params;
  params.num_trees = 15;
  params.tree.max_leaves = 8;
  ThreadPool sequential(1);
  ThreadPool parallel(4);

  params.pool = &sequential;
  const EstimatorSelector a = EstimatorSelector::Train(
      train, PoolOriginalThree(), /*use_dynamic=*/false, params);
  params.pool = &parallel;
  const EstimatorSelector b = EstimatorSelector::Train(
      train, PoolOriginalThree(), /*use_dynamic=*/false, params);

  ASSERT_EQ(a.models().size(), b.models().size());
  for (size_t i = 0; i < a.models().size(); ++i) {
    EXPECT_EQ(a.models()[i].Serialize(), b.models()[i].Serialize());
  }
  // And the compiled scoring path agrees decision-for-decision.
  for (const auto& r : train) {
    EXPECT_EQ(a.SelectForRecord(r), b.SelectForRecord(r));
    EXPECT_EQ(a.PredictErrors(r.features), b.PredictErrors(r.features));
  }
}

TEST(SelectionDeathTest, TrainRejectsTreesWiderThanTheCompiledLayout) {
  // Scoring compiles every tree into one uint64 leaf bitvector, so a
  // selector cannot be trained with trees beyond that bound.
  const auto records = ::rpe::testing::RandomRecords(20, 1);
  MartParams params;
  params.num_trees = 1;
  params.tree.max_leaves = FlatEnsembleSet::kMaxLeaves + 1;
  EXPECT_DEATH(EstimatorSelector::Train(records, PoolOriginalThree(),
                                        /*use_dynamic_features=*/false,
                                        params),
               "max_leaves");
}

}  // namespace
}  // namespace rpe
