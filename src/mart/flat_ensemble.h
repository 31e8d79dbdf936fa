// Compiled inference layout for trained MART ensembles. A FlatEnsembleSet
// packs several models (the per-candidate error regressors of
// EstimatorSelector) into one set of QuickScorer tables (Lucchese et al.,
// SIGIR'15): per feature, the split nodes of every tree of every model,
// sorted by threshold; each node carries a bitmask clearing its left
// subtree's leaves. Scoring scans each feature's list while
// x[f] > threshold (a false node means the tree walk would go right,
// abandoning the left subtree) and ANDs the masks into per-tree leaf
// bitvectors; the exit leaf of every tree is then the lowest surviving
// bit. x[f] is loaded (and its NaN test done) once per feature for the
// whole set, and sequential streaming replaces the pointer-chased walk.
// The chosen leaf — and therefore the scored value — is the one the walk
// reaches, and leaf values (learning rate pre-folded) accumulate per
// model in tree order from the bias, so predictions are bit-exact with
// MartModel::Predict, the scalar reference. One uint64 bitvector per tree
// bounds trees at kMaxLeaves leaves; training and the snapshot gate
// enforce it.
//
// This is what makes the per-candidate scoring of the selection stack
// (selector × pool × observation) cheap enough for continuous
// monitoring.
//
// Storage: every table is a Slab — owned when compiled in memory
// (Compile), borrowed when rebuilt over a zero-copy snapshot mapping
// (FromParts, fed by serving/mmap_arena.h). Scoring reads only through
// the slab views, so both forms score bit-identically. FromParts is the
// untrusted-input gate for borrowed tables: every index a scoring pass
// can follow is bounds-checked there, so a hostile snapshot yields a
// Status, never UB.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/slab.h"
#include "common/status.h"
#include "mart/mart.h"

namespace rpe {

/// \brief Several models compiled into one set of QuickScorer tables,
/// scored together — the selection-stack hot path (one error regressor
/// per pool candidate).
class FlatEnsembleSet {
 public:
  /// Most leaves a compiled tree may have: one uint64 bitvector per tree.
  static constexpr int kMaxLeaves = 64;

  /// The full compiled state, exposed so a snapshot writer can persist it
  /// and the zero-copy loader can rebuild a set over borrowed slabs.
  struct Parts {
    int32_t num_features = 0;  ///< max split feature id + 1, over models

    /// Per feature f: entries [feat_begin[f], feat_begin[f+1]) sorted by
    /// ascending threshold (parallel arrays); trees are global ids.
    Slab<uint64_t> feat_begin;
    Slab<double> threshold;
    Slab<int32_t> entry_tree;
    Slab<uint64_t> entry_mask;

    Slab<uint64_t> init_mask;        ///< per global tree: one bit per leaf
    Slab<int32_t> leaf_base;         ///< per global tree, into leaf_value
    Slab<double> leaf_value;         ///< lr * leaf, left-to-right per tree
    Slab<int32_t> model_tree_begin;  ///< per model + 1, global tree ids
    Slab<double> bias;               ///< per model
  };

  FlatEnsembleSet() = default;

  /// Compile `models`; every tree must have at most kMaxLeaves leaves.
  static FlatEnsembleSet Compile(const std::vector<MartModel>& models);

  /// Rebuild a set from persisted parts (zero-copy snapshot load path).
  /// This is the untrusted-input gate: the slabs may alias raw file bytes,
  /// so every index scoring can reach — model tree ranges, entry tree
  /// ids, leaf tables — is bounds-checked against `num_inputs` (the
  /// feature-vector width scoring will be called with) before anything
  /// is scored. `leaf_value` must carry the snapshot writer's guard tail
  /// (see kQsLeafGuard in serving/snapshot.h). Returns InvalidArgument
  /// instead of invoking UB on a hostile or truncated snapshot.
  /// Validation is structural only, so a set that passes scores without
  /// further checks; it scores bit-identically to the Compile'd set its
  /// parts were persisted from.
  static Result<FlatEnsembleSet> FromParts(Parts parts, size_t num_inputs);

  /// Read access for the snapshot writer.
  const Parts& parts() const { return tables_; }

  size_t num_models() const { return tables_.bias.size(); }

  /// out[m] = prediction of model m; out.size() must equal num_models().
  /// Bit-exact with calling MartModel::Predict per model.
  void PredictAll(std::span<const double> features,
                  std::span<double> out) const;

  /// Batched PredictAll over many feature vectors, dispatched through
  /// common/simd.h: out is row-major, out[r * num_models() + m] = model
  /// m's prediction for rows[r] (each row a feature vector of at least
  /// the compiled input width); out.size() must be rows.size() *
  /// num_models(). The AVX2 kernel gathers 8 rows at a time into an SoA
  /// tile and runs the threshold compares and bitmask ANDs over all lanes
  /// at once; per lane the same entries fire and leaves accumulate in the
  /// same order as PredictAll, so every output double is bit-identical to
  /// the per-row path on every tier (tests/simd_test.cpp).
  void PredictAllBatch(std::span<const double* const> rows,
                       std::span<double> out) const;

  /// Index of the model with the smallest prediction (first on ties);
  /// requires num_models() > 0. Allocation-free after the first call on
  /// each thread.
  size_t ArgMin(std::span<const double> features) const;

  /// Batched ArgMin: out[r] = ArgMin(rows[r]), scored through
  /// PredictAllBatch (same first-on-ties election, so the chosen indices
  /// are identical to the per-row path at every tier).
  void ArgMinBatch(std::span<const double* const> rows,
                   std::span<size_t> out) const;

 private:
  Parts tables_;
};

}  // namespace rpe
