#include "selection/record.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/logging.h"

namespace rpe {

size_t PipelineRecord::BestEstimator() const {
  // Only the selectable candidates compete; oracle-model entries (if
  // present at the tail) are excluded.
  const size_t n =
      std::min(l1.size(), static_cast<size_t>(kNumSelectableEstimators));
  size_t best = 0;
  for (size_t i = 1; i < n; ++i) {
    if (l1[i] < l1[best]) best = i;
  }
  return best;
}

double PipelineRecord::BestL1() const { return l1[BestEstimator()]; }

bool MakeRecord(const PipelineView& view, const std::string& workload,
                const std::string& query, const std::string& tag,
                PipelineRecord* out, size_t min_observations) {
  if (view.pipeline->first_obs < 0) return false;
  const size_t window = static_cast<size_t>(view.pipeline->last_obs -
                                            view.pipeline->first_obs) + 1;
  if (window < min_observations) return false;
  out->workload = workload;
  out->query = query;
  out->pipeline_id = view.pipeline->id;
  out->tag = tag;
  out->total_n = 0.0;
  for (int id : view.pipeline->nodes) {
    out->total_n += view.run->true_n[static_cast<size_t>(id)];
  }
  out->features = ExtractAllFeatures(view);
  const auto errors = EvaluateAllEstimators(view);
  out->l1.clear();
  out->l2.clear();
  for (const auto& e : errors) {
    out->l1.push_back(e.l1);
    out->l2.push_back(e.l2);
  }
  return true;
}

std::string RecordsToCsv(const std::vector<PipelineRecord>& records) {
  std::ostringstream out;
  out.precision(12);
  const FeatureSchema& schema = FeatureSchema::Get();
  out << "workload,query,pipeline,tag,total_n";
  for (size_t f = 0; f < schema.num_features(); ++f) {
    out << "," << schema.name(f);
  }
  for (int e = 0; e < kNumEstimatorKinds; ++e) {
    out << ",l1_" << EstimatorName(static_cast<EstimatorKind>(e));
  }
  for (int e = 0; e < kNumEstimatorKinds; ++e) {
    out << ",l2_" << EstimatorName(static_cast<EstimatorKind>(e));
  }
  out << "\n";
  for (const auto& r : records) {
    out << r.workload << "," << r.query << "," << r.pipeline_id << ","
        << r.tag << "," << r.total_n;
    for (double f : r.features) out << "," << f;
    for (double v : r.l1) out << "," << v;
    for (double v : r.l2) out << "," << v;
    out << "\n";
  }
  return out.str();
}

Status SaveRecords(const std::vector<PipelineRecord>& records,
                   const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for write: " + path);
  out << RecordsToCsv(records);
  return out ? Status::OK() : Status::IOError("write failed: " + path);
}

}  // namespace rpe
