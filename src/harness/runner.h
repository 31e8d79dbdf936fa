// Experiment runner: plans and executes whole workloads, turning every
// qualifying pipeline execution into a featurized, error-labeled
// PipelineRecord (the unit of training/evaluation throughout §6).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "harness/metrics.h"
#include "optimizer/planner.h"
#include "selection/record.h"
#include "workload/workload.h"

namespace rpe {

/// \brief One planned + executed query with its plan kept alive.
struct OwnedRun {
  std::unique_ptr<PhysicalPlan> plan;
  QueryRunResult result;
};

/// \brief Runner knobs.
struct RunOptions {
  ExecOptions exec;
  PlannerOptions planner;
  /// Pipelines with fewer observations than this are not recorded.
  size_t min_observations = 5;
  /// Print one progress line per N queries (0 = silent).
  size_t progress_every = 0;
  /// Record emission hook: invoked for every record a workload run
  /// produces, in execution order, before it is appended to the returned
  /// batch — wire it to RecordIngestQueue::Push to stream training data
  /// out of a running workload (the online-learning tap). Called on the
  /// executing thread; must not throw.
  std::function<void(const PipelineRecord&)> on_record;
};

/// Plan and execute a single query of a workload.
Result<OwnedRun> RunQuery(const Workload& workload, const QuerySpec& spec,
                          const RunOptions& options = {});

/// Run the full workload, labeling records with the workload name and `tag`.
Result<std::vector<PipelineRecord>> RunWorkload(
    const Workload& workload, const RunOptions& options = {},
    const std::string& tag = "");

/// Build the workload from `config` and run it (convenience).
Result<std::vector<PipelineRecord>> BuildAndRun(
    const WorkloadConfig& config, const RunOptions& options = {},
    const std::string& tag = "");

/// Disk-cached variant: loads the `.rpsn` record batch
/// `<cache_dir>/<name>.rpsn` when present and decodable (bit-exact, so a
/// cache hit returns the records a cold run computed), otherwise builds +
/// runs + saves it. cache_dir defaults to $RPE_CACHE_DIR or
/// "rpe_record_cache" under the current directory.
Result<std::vector<PipelineRecord>> CachedRecords(
    const std::string& name, const WorkloadConfig& config,
    const RunOptions& options = {}, const std::string& tag = "");

/// The cache directory currently in effect (created on demand).
std::string RecordCacheDir();

}  // namespace rpe
