// MART learner tests: binning (column-major layout), one-pass leaf
// histograms and the subtraction trick, tree fitting, boosting
// convergence, the .rpsn model encoding, feature importance and the
// linear baseline.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numeric>

#include "common/logging.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "mart/linear.h"
#include "mart/mart.h"
#include "serving/snapshot.h"
#include "tests/test_util.h"

namespace rpe {
namespace {

Dataset MakeDataset(size_t n, uint64_t seed,
                    double (*f)(const std::vector<double>&)) {
  Dataset data(4);
  Rng rng(seed);
  std::vector<double> x(4);
  for (size_t i = 0; i < n; ++i) {
    for (auto& v : x) v = rng.NextDouble();
    RPE_CHECK_OK(data.AddExample(x, f(x)));
  }
  return data;
}

double StepTarget(const std::vector<double>& x) {
  return (x[0] > 0.5 ? 1.0 : 0.0) + (x[1] > 0.3 ? 0.5 : 0.0);
}

double LinearTarget(const std::vector<double>& x) {
  return 2.0 * x[0] - 1.0 * x[1] + 0.25;
}

double NonlinearTarget(const std::vector<double>& x) {
  return x[0] * x[1] + (x[2] > 0.7 ? 0.8 : 0.1);
}

// --- Dataset / binning ---------------------------------------------------

TEST(DatasetTest, AddAndAccess) {
  Dataset data(2);
  ASSERT_TRUE(data.AddExample({1.0, 2.0}, 3.0).ok());
  ASSERT_TRUE(data.AddExample({4.0, 5.0}, 6.0).ok());
  EXPECT_EQ(data.num_examples(), 2u);
  EXPECT_DOUBLE_EQ(data.feature(1, 0), 4.0);
  EXPECT_DOUBLE_EQ(data.target(1), 6.0);
  EXPECT_EQ(data.ExampleFeatures(0), (std::vector<double>{1.0, 2.0}));
  EXPECT_FALSE(data.AddExample({1.0}, 0.0).ok());  // arity mismatch
}

TEST(BinnedDatasetTest, FewDistinctValuesGetOwnBins) {
  Dataset data(1);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(data.AddExample({static_cast<double>(i % 3)}, 0.0).ok());
  }
  BinnedDataset binned(data, 255);
  EXPECT_EQ(binned.num_bins(0), 3u);
  // Values 0,1,2 -> bins 0,1,2.
  EXPECT_EQ(binned.bin(0, 0), 0);
  EXPECT_EQ(binned.bin(1, 0), 1);
  EXPECT_EQ(binned.bin(2, 0), 2);
}

TEST(BinnedDatasetTest, BinOrderRespectsValues) {
  Dataset data(1);
  Rng rng(11);
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(data.AddExample({rng.NextDouble()}, 0.0).ok());
  }
  BinnedDataset binned(data, 64);
  EXPECT_LE(binned.num_bins(0), 64u);
  for (size_t i = 0; i + 1 < 500; ++i) {
    const double a = data.feature(i, 0), b = data.feature(i + 1, 0);
    if (a < b) {
      EXPECT_LE(binned.bin(i, 0), binned.bin(i + 1, 0));
    }
  }
}

TEST(BinnedDatasetTest, ColumnMajorMatchesRowMajorReference) {
  Dataset data = MakeDataset(800, 41, NonlinearTarget);
  BinnedDataset binned(data, 32);
  const size_t nf = data.num_features();
  const std::vector<uint8_t> rows = binned.RowMajorBins();
  ASSERT_EQ(rows.size(), data.num_examples() * nf);
  for (size_t f = 0; f < nf; ++f) {
    const auto col = binned.feature_bins(f);
    ASSERT_EQ(col.size(), data.num_examples());
    for (size_t i = 0; i < data.num_examples(); ++i) {
      ASSERT_EQ(binned.bin(i, f), rows[i * nf + f]);
      ASSERT_EQ(col[i], rows[i * nf + f]);
    }
  }
  // Histogram slab geometry is the exact prefix sum of per-feature bins.
  size_t expected_off = 0;
  for (size_t f = 0; f < nf; ++f) {
    EXPECT_EQ(binned.hist_offset(f), expected_off);
    expected_off += binned.num_bins(f);
  }
  EXPECT_EQ(binned.total_bins(), expected_off);
}

TEST(BinnedDatasetTest, RejectsMoreThan255Bins) {
  Dataset data(1);
  ASSERT_TRUE(data.AddExample({1.0}, 0.0).ok());
  ASSERT_TRUE(data.AddExample({2.0}, 0.0).ok());
  EXPECT_DEATH(BinnedDataset(data, 256), "max_bins");
}

// --- Leaf histograms -------------------------------------------------------

TEST(HistogramSetTest, OnePassMatchesPerFeatureReference) {
  Dataset data = MakeDataset(1200, 43, NonlinearTarget);
  BinnedDataset binned(data, 64);
  std::vector<double> residuals(data.num_examples());
  Rng rng(44);
  for (auto& r : residuals) r = rng.NextGaussian();
  // A sparse leaf: every third example (strictly increasing).
  std::vector<uint32_t> indices;
  for (uint32_t i = 0; i < data.num_examples(); i += 3) indices.push_back(i);

  HistogramSet hist(binned);
  BuildLeafHistograms(binned, residuals, indices, &hist, nullptr);

  for (size_t f = 0; f < binned.num_features(); ++f) {
    std::vector<double> ref_sum(binned.num_bins(f), 0.0);
    std::vector<uint32_t> ref_cnt(binned.num_bins(f), 0);
    for (uint32_t idx : indices) {
      const uint8_t b = binned.bin(idx, f);
      ref_sum[b] += residuals[idx];
      ref_cnt[b] += 1;
    }
    const size_t off = binned.hist_offset(f);
    for (size_t b = 0; b < binned.num_bins(f); ++b) {
      ASSERT_EQ(hist.sums()[off + b], ref_sum[b]) << "f=" << f << " b=" << b;
      ASSERT_EQ(hist.counts()[off + b], ref_cnt[b]);
    }
  }
}

TEST(HistogramSetTest, BuildIsThreadCountInvariant) {
  Dataset data = MakeDataset(3000, 45, StepTarget);
  BinnedDataset binned(data);
  std::vector<double> residuals(data.num_examples());
  Rng rng(46);
  for (auto& r : residuals) r = rng.NextGaussian();
  std::vector<uint32_t> all(data.num_examples());
  std::iota(all.begin(), all.end(), 0u);

  HistogramSet sequential(binned), parallel(binned);
  BuildLeafHistograms(binned, residuals, all, &sequential, nullptr);
  ThreadPool pool(8);
  BuildLeafHistograms(binned, residuals, all, &parallel, &pool);
  for (size_t i = 0; i < sequential.size(); ++i) {
    ASSERT_EQ(sequential.sums()[i], parallel.sums()[i]);
    ASSERT_EQ(sequential.counts()[i], parallel.counts()[i]);
  }
}

TEST(HistogramSetTest, SubtractionCountsAreExact) {
  Dataset data = MakeDataset(2000, 47, NonlinearTarget);
  BinnedDataset binned(data, 128);
  std::vector<double> residuals(data.num_examples());
  Rng rng(48);
  for (auto& r : residuals) r = rng.NextGaussian();
  std::vector<uint32_t> parent(data.num_examples());
  std::iota(parent.begin(), parent.end(), 0u);
  std::vector<uint32_t> child, sibling;
  for (uint32_t i : parent) (i % 5 == 0 ? child : sibling).push_back(i);

  HistogramSet parent_hist(binned), child_hist(binned), direct(binned);
  BuildLeafHistograms(binned, residuals, parent, &parent_hist, nullptr);
  BuildLeafHistograms(binned, residuals, child, &child_hist, nullptr);
  BuildLeafHistograms(binned, residuals, sibling, &direct, nullptr);

  parent_hist.SubtractChild(child_hist);  // parent_hist is now the sibling
  double max_rel_err = 0.0;
  for (size_t i = 0; i < direct.size(); ++i) {
    // Counts are integer arithmetic: exactly equal to direct accumulation.
    ASSERT_EQ(parent_hist.counts()[i], direct.counts()[i]);
    // Sums differ from direct accumulation only by FP rounding.
    const double scale = std::max(1.0, std::abs(direct.sums()[i]));
    max_rel_err = std::max(
        max_rel_err,
        std::abs(parent_hist.sums()[i] - direct.sums()[i]) / scale);
  }
  EXPECT_LT(max_rel_err, 1e-9);
}

// The guarantee that matters for model bytes: the subtraction trick and
// plain direct accumulation fit byte-identical trees, because split search
// canonicalizes the winning feature from a direct re-accumulation before
// anything enters the tree.
TEST(TreeTest, SubtractionAndDirectHistogramsFitIdenticalModels) {
  Dataset data = MakeDataset(2500, 49, NonlinearTarget);
  MartParams params;
  params.num_trees = 25;
  params.subsample = 0.8;
  params.seed = 5;
  params.tree.force_direct_histograms = false;
  const MartModel with_subtraction = MartModel::Train(data, params);
  params.tree.force_direct_histograms = true;
  const MartModel direct = MartModel::Train(data, params);
  testing::ExpectSameModel(with_subtraction, direct);
}

// --- Regression tree -----------------------------------------------------

TEST(TreeTest, FitsStepFunction) {
  Dataset data = MakeDataset(2000, 21, StepTarget);
  BinnedDataset binned(data);
  std::vector<double> residuals(data.num_examples());
  for (size_t i = 0; i < data.num_examples(); ++i) {
    residuals[i] = data.target(i);
  }
  TreeParams params;
  params.max_leaves = 8;
  RegressionTree tree =
      RegressionTree::Fit(binned, residuals, {}, params, nullptr);
  EXPECT_LE(tree.num_leaves(), 8u);
  EXPECT_GE(tree.num_leaves(), 3u);
  // A step function in two features is learnable nearly exactly.
  double mse = 0.0;
  for (size_t i = 0; i < data.num_examples(); ++i) {
    const double d = tree.Predict(data.ExampleFeatures(i)) - data.target(i);
    mse += d * d;
  }
  mse /= static_cast<double>(data.num_examples());
  EXPECT_LT(mse, 0.01);
}

TEST(TreeTest, RespectsMinLeafSize) {
  Dataset data = MakeDataset(100, 22, StepTarget);
  BinnedDataset binned(data);
  std::vector<double> residuals(data.num_examples(), 1.0);
  TreeParams params;
  params.max_leaves = 64;
  params.min_examples_per_leaf = 50;
  RegressionTree tree =
      RegressionTree::Fit(binned, residuals, {}, params, nullptr);
  // 100 examples with min 50 per leaf allows at most one split.
  EXPECT_LE(tree.num_leaves(), 2u);
}

TEST(TreeTest, ConstantTargetYieldsSingleLeaf) {
  Dataset data = MakeDataset(500, 23, [](const std::vector<double>&) {
    return 7.0;
  });
  BinnedDataset binned(data);
  std::vector<double> residuals(data.num_examples(), 7.0);
  TreeParams params;
  RegressionTree tree =
      RegressionTree::Fit(binned, residuals, {}, params, nullptr);
  EXPECT_EQ(tree.num_leaves(), 1u);
  EXPECT_NEAR(tree.Predict({0.1, 0.2, 0.3, 0.4}), 7.0, 1e-9);
}

TEST(TreeTest, SerializationRoundTrip) {
  Dataset data = MakeDataset(1000, 24, NonlinearTarget);
  BinnedDataset binned(data);
  std::vector<double> residuals(data.num_examples());
  for (size_t i = 0; i < data.num_examples(); ++i) {
    residuals[i] = data.target(i);
  }
  TreeParams params;
  RegressionTree tree =
      RegressionTree::Fit(binned, residuals, {}, params, nullptr);
  // A lone tree persists as a one-tree model in the .rpsn model encoding.
  const MartModel model = MartModel::FromParts(0.0, 1.0, {tree}, {});
  auto restored = DecodeMartModel(EncodeMartModel(model));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  testing::ExpectSameModel(model, *restored);
  for (size_t i = 0; i < 50; ++i) {
    const auto x = data.ExampleFeatures(i);
    EXPECT_EQ(tree.Predict(x), restored->trees()[0].Predict(x));
  }
}

// --- MART ------------------------------------------------------------------

TEST(MartTest, TrainingLossDecreases) {
  Dataset data = MakeDataset(3000, 25, NonlinearTarget);
  MartParams params;
  params.num_trees = 40;
  MartModel model = MartModel::Train(data, params);
  const auto& curve = model.training_curve();
  ASSERT_EQ(curve.size(), 40u);
  EXPECT_LT(curve.back(), curve.front() * 0.3);
}

TEST(MartTest, BeatsMeanPredictor) {
  Dataset data = MakeDataset(3000, 26, StepTarget);
  MartModel model = MartModel::Train(data, {});
  double mean = 0.0;
  for (size_t i = 0; i < data.num_examples(); ++i) mean += data.target(i);
  mean /= static_cast<double>(data.num_examples());
  double mean_mse = 0.0;
  for (size_t i = 0; i < data.num_examples(); ++i) {
    mean_mse += (data.target(i) - mean) * (data.target(i) - mean);
  }
  mean_mse /= static_cast<double>(data.num_examples());
  EXPECT_LT(model.MeanSquaredError(data), mean_mse * 0.05);
}

TEST(MartTest, GeneralizesToFreshSample) {
  Dataset train = MakeDataset(4000, 27, NonlinearTarget);
  Dataset test = MakeDataset(1000, 28, NonlinearTarget);
  MartParams params;
  params.num_trees = 100;
  MartModel model = MartModel::Train(train, params);
  EXPECT_LT(model.MeanSquaredError(test), 0.01);
}

TEST(MartTest, SubsamplingStillLearns) {
  Dataset data = MakeDataset(4000, 29, StepTarget);
  MartParams params;
  params.num_trees = 80;
  params.subsample = 0.5;
  MartModel model = MartModel::Train(data, params);
  EXPECT_LT(model.MeanSquaredError(data), 0.02);
}

TEST(MartTest, FeatureImportanceIdentifiesSignal) {
  // Target depends only on features 0 and 1; 2 and 3 are noise.
  Dataset data = MakeDataset(4000, 30, StepTarget);
  MartParams params;
  params.num_trees = 50;
  MartModel model = MartModel::Train(data, params);
  const auto& gains = model.feature_gains();
  ASSERT_EQ(gains.size(), 4u);
  EXPECT_GT(gains[0], gains[2] * 10);
  EXPECT_GT(gains[1], gains[3] * 10);
}

TEST(MartTest, SerializationRoundTrip) {
  Dataset data = MakeDataset(1500, 31, NonlinearTarget);
  MartParams params;
  params.num_trees = 25;
  MartModel model = MartModel::Train(data, params);
  const std::string bytes = EncodeMartModel(model);
  auto restored = DecodeMartModel(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  testing::ExpectSameModel(model, *restored);
  for (size_t i = 0; i < 100; ++i) {
    const auto x = data.ExampleFeatures(i);
    EXPECT_EQ(model.Predict(x), restored->Predict(x));
  }
  // Re-encoding the decoded model reproduces the bytes.
  EXPECT_EQ(EncodeMartModel(*restored), bytes);
}

TEST(MartTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(DecodeMartModel("not a model").ok());
  EXPECT_FALSE(DecodeMartModel("").ok());
  Dataset data = MakeDataset(300, 32, StepTarget);
  MartParams params;
  params.num_trees = 3;
  const std::string bytes = EncodeMartModel(MartModel::Train(data, params));
  // Every strict prefix is truncated, and a trailing byte is rejected too.
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(DecodeMartModel(std::string_view(bytes).substr(0, len)).ok())
        << "prefix of " << len << " bytes";
  }
  EXPECT_FALSE(DecodeMartModel(bytes + '\0').ok());
  ASSERT_TRUE(DecodeMartModel(bytes).ok());
}

TEST(MartTest, EmptyDatasetProducesConstantZero) {
  Dataset data(3);
  MartModel model = MartModel::Train(data, {});
  EXPECT_DOUBLE_EQ(model.Predict({1.0, 2.0, 3.0}), 0.0);
}

// --- Linear baseline -------------------------------------------------------

TEST(LinearTest, RecoversLinearTarget) {
  Dataset data = MakeDataset(2000, 32, LinearTarget);
  LinearModel model = LinearModel::Train(data);
  EXPECT_LT(model.MeanSquaredError(data), 1e-6);
}

TEST(LinearTest, UnderfitsNonlinearTargetVsMart) {
  Dataset data = MakeDataset(3000, 33, StepTarget);
  LinearModel linear = LinearModel::Train(data);
  MartParams params;
  params.num_trees = 60;
  MartModel mart = MartModel::Train(data, params);
  // The §4.2 claim: trees handle the non-linear dependence, linear can't.
  EXPECT_LT(mart.MeanSquaredError(data),
            linear.MeanSquaredError(data) * 0.5);
}

}  // namespace
}  // namespace rpe
