// FlatEnsembleSet tests: bit-exact equivalence with MartModel::Predict
// across random models and inputs (one-model and multi-model sets), the
// encode → decode → compile round trip through the .rpsn model encoding,
// batch scoring, non-finite inputs, the leaf bound, and thread-count
// invariance of training (parallel training must fit bit-identical
// models).
#include <gtest/gtest.h>

#include <limits>
#include <span>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "mart/flat_ensemble.h"
#include "serving/snapshot.h"
#include "tests/test_util.h"

namespace rpe {
namespace {

Dataset RandomDataset(size_t n, size_t nf, uint64_t seed) {
  Dataset data(nf);
  Rng rng(seed);
  std::vector<double> x(nf);
  for (size_t i = 0; i < n; ++i) {
    for (auto& v : x) v = rng.NextDouble();
    const double y = x[0] * 0.7 + (x[1 % nf] > 0.4 ? 0.5 : -0.2) +
                     x[2 % nf] * x[3 % nf] + 0.1 * rng.NextGaussian();
    RPE_CHECK_OK(data.AddExample(x, y));
  }
  return data;
}

/// The prediction of a one-model set for x.
double PredictOne(const FlatEnsembleSet& set, std::span<const double> x) {
  std::vector<double> out(1);
  set.PredictAll(x, out);
  return out[0];
}

TEST(FlatEnsembleSetTest, BitExactWithMartPredictAcrossRandomModels) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Dataset data = RandomDataset(800, 6, seed);
    MartParams params;
    params.num_trees = 30;
    params.subsample = seed % 2 == 0 ? 0.7 : 1.0;
    params.seed = seed;
    const std::vector<MartModel> models = {MartModel::Train(data, params)};
    const FlatEnsembleSet set = FlatEnsembleSet::Compile(models);
    ASSERT_EQ(set.num_models(), 1u);

    Rng rng(100 + seed);
    std::vector<double> x(6);
    for (int trial = 0; trial < 200; ++trial) {
      for (auto& v : x) v = rng.NextDouble() * 2.0 - 0.5;
      EXPECT_EQ(models[0].Predict(x), PredictOne(set, x))
          << "seed " << seed << " trial " << trial;
    }
    for (size_t i = 0; i < data.num_examples(); ++i) {
      ASSERT_EQ(models[0].Predict(data.ExampleSpan(i)),
                PredictOne(set, data.ExampleSpan(i)));
    }
  }
}

TEST(FlatEnsembleSetTest, SerializeDeserializeFlattenRoundTrip) {
  Dataset data = RandomDataset(1200, 5, 9);
  MartParams params;
  params.num_trees = 40;
  MartModel model = MartModel::Train(data, params);
  auto restored = DecodeMartModel(EncodeMartModel(model));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ::rpe::testing::ExpectSameModel(model, *restored);

  const FlatEnsembleSet set = FlatEnsembleSet::Compile({model});
  const FlatEnsembleSet set_restored = FlatEnsembleSet::Compile({*restored});
  ASSERT_EQ(set.parts().threshold.size(),
            set_restored.parts().threshold.size());
  for (size_t i = 0; i < 300; ++i) {
    const auto x = data.ExampleSpan(i);
    EXPECT_EQ(PredictOne(set, x), PredictOne(set_restored, x));
    EXPECT_EQ(PredictOne(set_restored, x), model.Predict(x));
  }
}

TEST(FlatEnsembleSetTest, PredictBatchMatchesScalarPredict) {
  Dataset data = RandomDataset(700, 8, 17);
  MartParams params;
  params.num_trees = 25;
  MartModel model = MartModel::Train(data, params);
  const FlatEnsembleSet set = FlatEnsembleSet::Compile({model});

  std::vector<const double*> rows(data.num_examples());
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i] = data.ExampleSpan(i).data();
  }
  std::vector<double> batch(data.num_examples());
  set.PredictAllBatch(rows, batch);
  for (size_t i = 0; i < data.num_examples(); ++i) {
    ASSERT_EQ(batch[i], model.Predict(data.ExampleSpan(i)));
  }
}

TEST(FlatEnsembleSetTest, EmptyModelPredictsBias) {
  Dataset empty(3);
  const FlatEnsembleSet set =
      FlatEnsembleSet::Compile({MartModel::Train(empty, {})});
  EXPECT_EQ(PredictOne(set, std::vector<double>{1.0, 2.0, 3.0}), 0.0);
}

TEST(FlatEnsembleSetTest, PredictAllMatchesPerModelPredict) {
  std::vector<MartModel> models;
  Dataset data = RandomDataset(600, 6, 23);
  for (int m = 0; m < 4; ++m) {
    MartParams params;
    params.num_trees = 15 + m * 5;
    params.seed = static_cast<uint64_t>(m + 1);
    models.push_back(MartModel::Train(data, params));
  }
  FlatEnsembleSet set = FlatEnsembleSet::Compile(models);
  ASSERT_EQ(set.num_models(), models.size());

  std::vector<double> out(models.size());
  for (size_t i = 0; i < 200; ++i) {
    const auto x = data.ExampleSpan(i);
    set.PredictAll(x, out);
    size_t expected_best = 0;
    for (size_t m = 0; m < models.size(); ++m) {
      ASSERT_EQ(out[m], models[m].Predict(x));
      if (out[m] < out[expected_best]) expected_best = m;
    }
    EXPECT_EQ(set.ArgMin(x), expected_best);
  }
}

TEST(FlatEnsembleSetTest, EmptySetOfModelsCompiles) {
  FlatEnsembleSet set = FlatEnsembleSet::Compile({});
  EXPECT_EQ(set.num_models(), 0u);
}

TEST(FlatEnsembleSetTest, NonFiniteFeaturesMatchTreeWalkExactly) {
  // The tree walk sends NaN right at every split (x <= t is false), -inf
  // always left, +inf always right; the compiled scorers must agree.
  Dataset data = RandomDataset(800, 4, 41);
  MartParams params;
  params.num_trees = 20;
  std::vector<MartModel> models = {MartModel::Train(data, params)};
  FlatEnsembleSet set = FlatEnsembleSet::Compile(models);

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::vector<double>> probes = {
      {nan, nan, nan, nan},
      {-inf, -inf, -inf, -inf},
      {inf, inf, inf, inf},
      {nan, 0.5, -inf, inf},
      {0.2, nan, inf, 0.9},
  };
  std::vector<double> out(1);
  for (const auto& x : probes) {
    const double expected = models[0].Predict(x);
    set.PredictAll(x, out);
    EXPECT_EQ(out[0], expected);
  }
}

TEST(FlatEnsembleSetDeathTest, TreesWiderThanTheLeafBoundDie) {
  // One uint64 leaf bitvector per tree: a 65-leaf tree cannot compile.
  // Persisted models are turned away by EstimatorSelector::FromModels
  // before they get here; training wider trees is a programming error.
  Dataset data = RandomDataset(4000, 6, 57);
  MartParams params;
  params.num_trees = 2;
  params.tree.max_leaves = FlatEnsembleSet::kMaxLeaves + 1;
  params.tree.min_examples_per_leaf = 2;
  const std::vector<MartModel> models = {MartModel::Train(data, params)};
  ASSERT_GT(models[0].trees()[0].num_leaves(),
            static_cast<size_t>(FlatEnsembleSet::kMaxLeaves))
      << "fixture no longer grows a tree past the bound";
  EXPECT_DEATH(FlatEnsembleSet::Compile(models), "too wide");
}

// Training determinism: the fitted model (and therefore its serialized
// text) must be byte-identical at any thread count — histogram
// accumulation and the split sweep parallelize over feature blocks whose
// per-feature adds always run in example order, the reduction happens in
// feature order on the caller, and the prediction update writes per-index
// slots only.
TEST(ParallelTrainingTest, SerializedModelsAreThreadCountInvariant) {
  Dataset data = RandomDataset(3000, 10, 31);
  MartParams params;
  params.num_trees = 30;
  params.subsample = 0.8;

  ThreadPool sequential(1);
  params.pool = &sequential;
  const MartModel seq = MartModel::Train(data, params);
  for (const int threads : {2, 8}) {
    ThreadPool pool(threads);
    params.pool = &pool;
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ::rpe::testing::ExpectSameModel(seq, MartModel::Train(data, params));
  }
}

}  // namespace
}  // namespace rpe
