// ProgressMonitor: the deployed architecture of paper Figure 3. Holds the
// trained static + dynamic selection models and, for a running query,
// produces the live progress report: per pipeline it selects an estimator
// from static features before execution, revises the choice once the
// dynamic features become available at the 20% driver marker (§4.4), and
// combines pipelines into query-level progress (Eq. 5).
//
// The engine in this repository executes queries synchronously, so the
// monitor exposes a *replay* interface over the recorded observation
// stream: ReplayQueryProgress(oi) returns exactly what a live monitor
// would have reported at observation oi using only information available
// at that time.
#pragma once

#include <optional>
#include <vector>

#include "selection/selector.h"

namespace rpe {

/// \brief Live (replayed) progress reporting with online estimator
/// selection.
class ProgressMonitor {
 public:
  /// Both selectors must be trained on the same estimator pool. The static
  /// selector is used before the revision marker; the dynamic one after.
  ProgressMonitor(const EstimatorSelector* static_selector,
                  const EstimatorSelector* dynamic_selector,
                  double revision_marker_pct = 20.0);

  /// Per-pipeline estimator decisions for one run.
  struct PipelineDecision {
    int pipeline_id = 0;
    size_t initial_choice = 0;  ///< SelectableEstimators index (static)
    std::optional<size_t> revised_choice;  ///< set once the marker is hit
    int revision_obs = -1;      ///< observation index of the revision
  };

  /// Decide (and record) the estimator choices for every pipeline of `run`.
  std::vector<PipelineDecision> DecideForRun(const QueryRunResult& run) const;

  /// Batched DecideForRun over many runs: decisions are bit-identical to
  /// calling DecideForRun per run (same selectors, same first-on-ties
  /// argmin), but every static choice scores through one
  /// EstimatorSelector::SelectBatch call and every dynamic revision
  /// through another, so the SIMD tile kernel (common/simd.h) sees full
  /// batches even when each run has only a few pipelines.
  std::vector<std::vector<PipelineDecision>> DecideForRuns(
      std::span<const QueryRunResult* const> runs) const;

  /// Progress of one pipeline at observation oi as reported live: the
  /// static choice's estimate before the revision point, the revised
  /// choice's estimate afterwards.
  double PipelineProgress(const QueryRunResult& run,
                          const PipelineDecision& decision, size_t oi) const;

  /// Query-level progress at observation oi (estimate-weighted pipeline
  /// combination; completed pipelines report 1, unstarted ones 0).
  double QueryProgressAt(const QueryRunResult& run,
                         const std::vector<PipelineDecision>& decisions,
                         size_t oi) const;

  /// Full replayed progress series (one value per observation).
  std::vector<double> ReplayQueryProgress(const QueryRunResult& run) const;

  /// Average absolute error of the replayed series against true progress
  /// (elapsed virtual time fraction).
  double ReplayL1Error(const QueryRunResult& run) const;

 private:
  const EstimatorSelector* static_selector_;
  const EstimatorSelector* dynamic_selector_;
  double revision_marker_pct_;
};

}  // namespace rpe
