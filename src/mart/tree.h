// Binary regression tree with best-first (leaf-wise) growth over binned
// features, fit to residuals with the MSE criterion — the weak learner
// inside MART (paper §4.2). Split search is histogram-based: one pass over
// a leaf's examples fills a HistogramSet (all features at once, streaming
// the column-major bin slabs), a per-feature sweep picks the best split,
// and each split derives the larger child's histograms by subtraction
// (parent − smaller child). Histogram accumulation and the sweep
// parallelize over feature blocks on a ThreadPool with an ordered
// reduction, so the fitted tree is identical to the sequential result at
// any thread count. The full pipeline is documented in docs/TRAINING.md.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mart/dataset.h"

namespace rpe {

class ThreadPool;

/// \brief Tree-growth parameters.
struct TreeParams {
  int max_leaves = 30;        ///< paper: 30 leaf nodes
  int min_examples_per_leaf = 8;
  double min_gain = 1e-12;    ///< minimum variance reduction to split
  /// Test/benchmark escape hatch: build every leaf's histograms directly
  /// instead of deriving siblings by subtraction. The subtraction path
  /// canonicalizes the winning feature's statistics from a direct
  /// re-accumulation, so everything entering the tree is free of
  /// subtraction rounding and the two modes fit identical trees unless
  /// two *different features'* split gains tie within that rounding
  /// (e.g. exactly duplicated columns), where the cross-feature election
  /// itself may differ (asserted identical on continuous fixtures by
  /// tests/mart_test.cpp); direct mode exists to prove that and to give
  /// benchmarks a no-subtraction baseline.
  bool force_direct_histograms = false;
};

/// Build every feature's histogram over the examples in `indices` into
/// `hist` (which must be sized for `data`, i.e. HistogramSet(data)): for
/// each feature f and bin b, the sum of `residuals[i]` and the count of
/// examples i in `indices` with bin(i, f) == b. One gather pass materializes
/// the leaf's residuals, then each feature streams its contiguous bin
/// column; when `indices` covers every example the gather and the index
/// indirection are skipped entirely (dense fast path). `indices` must be
/// strictly increasing. Accumulation parallelizes over feature blocks on
/// `pool` (nullptr = sequential); per-feature adds always run in index
/// order, so the result is bitwise identical at any thread count.
/// Exposed for tests and benchmarks; RegressionTree::Fit is the real user.
void BuildLeafHistograms(const BinnedDataset& data,
                         const std::vector<double>& residuals,
                         std::span<const uint32_t> indices,
                         HistogramSet* hist, ThreadPool* pool = nullptr);

/// One feature's histogram over a dense leaf: for i in [0, n) ascending,
/// sum[col[i]] += res[i] and cnt[col[i]] += 1. The inner kernel of the
/// dense BuildLeafHistograms/Fit paths, dispatched through common/simd.h:
/// the AVX2 variant detects uniform 32-byte runs in the bin column
/// (constant and near-sorted columns — binned monotone features — are
/// long runs) and keeps that bin's accumulator in a register across the
/// run; mixed chunks fall back to the scalar loop. Every per-bin add
/// still happens in ascending-i order, so the result is bit-identical to
/// the scalar reference on every input (tests/simd_test.cpp). Exposed for
/// the differential tests and benchmarks.
void AccumulateColumnDense(const uint8_t* col, const double* res, size_t n,
                           double* sum, uint32_t* cnt);

/// The always-compiled scalar reference for AccumulateColumnDense.
void AccumulateColumnDenseScalar(const uint8_t* col, const double* res,
                                 size_t n, double* sum, uint32_t* cnt);

/// \brief A fitted regression tree; predicts from raw feature vectors.
class RegressionTree {
 public:
  /// \brief One tree node; exposed read-only so FlatEnsembleSet can
  /// compile the ensemble into its QuickScorer tables.
  struct Node {
    int feature = -1;      ///< -1 for leaves
    double threshold = 0;  ///< go left iff x[feature] <= threshold
    int left = -1;
    int right = -1;
    double value = 0.0;    ///< leaf prediction
  };

  /// Fit to `residuals` (one per example of `data`). Optionally restrict to
  /// `example_indices` (stochastic boosting subsample); empty = all.
  /// Accumulates per-feature split gains into `feature_gains` if non-null.
  /// Histogram accumulation and split search parallelize across feature
  /// blocks on `pool` (nullptr = the global pool); results are independent
  /// of the thread count.
  static RegressionTree Fit(const BinnedDataset& data,
                            const std::vector<double>& residuals,
                            const std::vector<uint32_t>& example_indices,
                            const TreeParams& params,
                            std::vector<double>* feature_gains,
                            ThreadPool* pool = nullptr);

  /// Reassemble a tree from its node array (binary snapshot load path).
  /// `nodes[0]` must be the root; child indices must be in range.
  static Result<RegressionTree> FromNodes(std::vector<Node> nodes);

  double Predict(std::span<const double> features) const;
  double Predict(const std::vector<double>& features) const {
    return Predict(std::span<const double>(features));
  }

  size_t num_nodes() const { return nodes_.size(); }
  size_t num_leaves() const;
  const std::vector<Node>& nodes() const { return nodes_; }

 private:
  std::vector<Node> nodes_;  // nodes_[0] is the root
};

}  // namespace rpe
