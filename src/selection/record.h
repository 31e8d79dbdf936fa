// PipelineRecord: one training/evaluation example for estimator selection —
// the features of one executed pipeline plus the measured error of every
// candidate estimator on it. Records persist as `.rpsn` record batches
// (serving/snapshot.h) so expensive workload runs can be captured once and
// reused across experiments (the paper's "training data can be captured at
// low overhead in a running system", §6.4).
#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "progress/error.h"
#include "selection/features.h"

namespace rpe {

/// \brief One pipeline execution, featurized and labeled.
struct PipelineRecord {
  std::string workload;   ///< source workload label
  std::string query;      ///< query/template label
  int pipeline_id = 0;
  std::string tag;        ///< experiment dimension (skew/design/size bucket)
  double total_n = 0.0;   ///< true total GetNext calls in the pipeline
  std::vector<double> features;                 ///< full feature vector
  std::vector<double> l1;                       ///< per selectable estimator
  std::vector<double> l2;

  /// Index (into SelectableEstimators order) of the estimator with the
  /// smallest L1 error.
  size_t BestEstimator() const;
  double BestL1() const;
};

/// Featurize + evaluate all selectable estimators on one pipeline.
/// Returns false (skip) for degenerate pipelines with fewer than
/// `min_observations` samples in their activity window.
bool MakeRecord(const PipelineView& view, const std::string& workload,
                const std::string& query, const std::string& tag,
                PipelineRecord* out, size_t min_observations = 5);

/// CSV export (header + one line per record, 12 significant digits): a
/// human-readable view only. Nothing reads it back; records persist as
/// `.rpsn` record batches (serving/snapshot.h), which are bit-exact.
std::string RecordsToCsv(const std::vector<PipelineRecord>& records);
Status SaveRecords(const std::vector<PipelineRecord>& records,
                   const std::string& path);

}  // namespace rpe
