#include "harness/runner.h"

#include <cstdlib>
#include <filesystem>
#include <iostream>

#include "common/logging.h"
#include "exec/executor.h"
#include "serving/snapshot.h"

namespace rpe {

Result<OwnedRun> RunQuery(const Workload& workload, const QuerySpec& spec,
                          const RunOptions& options) {
  CardinalityEstimator card(workload.catalog.get());
  Planner planner(workload.catalog.get(), &card, options.planner);
  RPE_ASSIGN_OR_RETURN(auto plan, planner.Plan(spec));
  RPE_ASSIGN_OR_RETURN(
      QueryRunResult result,
      ExecutePlan(*plan, *workload.catalog, options.exec));
  OwnedRun run;
  run.plan = std::move(plan);
  run.result = std::move(result);
  run.result.plan = run.plan.get();
  return run;
}

Result<std::vector<PipelineRecord>> RunWorkload(const Workload& workload,
                                                const RunOptions& options,
                                                const std::string& tag) {
  // One histogram store for the whole workload (statistics are per
  // database, not per query).
  CardinalityEstimator card(workload.catalog.get());
  Planner planner(workload.catalog.get(), &card, options.planner);

  std::vector<PipelineRecord> records;
  size_t failed = 0;
  for (size_t qi = 0; qi < workload.queries.size(); ++qi) {
    const QuerySpec& spec = workload.queries[qi];
    auto plan_result = planner.Plan(spec);
    if (!plan_result.ok()) {
      ++failed;
      continue;
    }
    std::unique_ptr<PhysicalPlan> plan = std::move(plan_result).ValueOrDie();
    auto run_result = ExecutePlan(*plan, *workload.catalog, options.exec);
    if (!run_result.ok()) {
      ++failed;
      continue;
    }
    QueryRunResult run = std::move(run_result).ValueOrDie();
    run.plan = plan.get();
    for (const Pipeline& pipeline : run.pipelines) {
      PipelineView view{&run, &pipeline};
      PipelineRecord record;
      if (MakeRecord(view, workload.config.name, spec.name, tag, &record,
                     options.min_observations)) {
        if (options.on_record) options.on_record(record);
        records.push_back(std::move(record));
      }
    }
    if (options.progress_every > 0 && (qi + 1) % options.progress_every == 0) {
      std::cerr << "[" << workload.config.name << "] " << (qi + 1) << "/"
                << workload.queries.size() << " queries, "
                << records.size() << " records\n";
    }
  }
  if (failed > workload.queries.size() / 4) {
    return Status::Internal("too many query failures in workload " +
                            workload.config.name + ": " +
                            std::to_string(failed));
  }
  return records;
}

Result<std::vector<PipelineRecord>> BuildAndRun(const WorkloadConfig& config,
                                                const RunOptions& options,
                                                const std::string& tag) {
  RPE_ASSIGN_OR_RETURN(Workload workload, BuildWorkload(config));
  return RunWorkload(workload, options, tag);
}

std::string RecordCacheDir() {
  const char* env = std::getenv("RPE_CACHE_DIR");
  std::string dir = env != nullptr ? env : "rpe_record_cache";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return dir;
}

Result<std::vector<PipelineRecord>> CachedRecords(const std::string& name,
                                                  const WorkloadConfig& config,
                                                  const RunOptions& options,
                                                  const std::string& tag) {
  const std::string path = RecordCacheDir() + "/" + name + ".rpsn";
  if (std::filesystem::exists(path)) {
    auto loaded = LoadRecordBatch(path);
    if (loaded.ok()) return loaded;
    // Fall through to recompute on a file that fails to decode.
  }
  RPE_ASSIGN_OR_RETURN(std::vector<PipelineRecord> records,
                       BuildAndRun(config, options, tag));
  RPE_RETURN_NOT_OK(SaveRecordBatch(records, path));
  return records;
}

}  // namespace rpe
