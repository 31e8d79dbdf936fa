// Golden executor-output test: runs two tiny fixed workloads end to end and
// pins the CRC-32 of their serialized record batch. Every field of every
// record (observation-derived features, l1/l2 labels, total_n) flows from
// the executor's emitted row sequence, its GetNext counters and its virtual
// clock, so any change to what the operators produce, or in which order,
// moves the constant. A change that is meant to alter executor output must
// update the constant and say why.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>

#include "common/crc32.h"
#include "harness/runner.h"
#include "optimizer/cardinality.h"
#include "optimizer/planner.h"
#include "serving/snapshot.h"

namespace rpe {
namespace {

std::vector<WorkloadConfig> GoldenConfigs() {
  WorkloadConfig tpch;
  tpch.kind = WorkloadKind::kTpch;
  tpch.name = "golden-tpch";
  tpch.scale = 2.0;
  tpch.zipf = 1.0;
  tpch.tuning = TuningLevel::kPartiallyTuned;
  tpch.num_queries = 60;
  tpch.seed = 5;

  WorkloadConfig real1;
  real1.kind = WorkloadKind::kReal1;
  real1.name = "golden-real1";
  real1.scale = 3.0;
  real1.zipf = 1.2;
  real1.tuning = TuningLevel::kPartiallyTuned;
  real1.num_queries = 40;
  real1.seed = 31;
  return {tpch, real1};
}

TEST(ExecGoldenTest, RecordBatchCrcIsPinned) {
  std::vector<PipelineRecord> all;
  std::set<OpType> ops;
  for (const WorkloadConfig& config : GoldenConfigs()) {
    auto workload = BuildWorkload(config);
    ASSERT_TRUE(workload.ok()) << workload.status().ToString();
    auto records = RunWorkload(*workload);
    ASSERT_TRUE(records.ok()) << records.status().ToString();
    all.insert(all.end(), records->begin(), records->end());

    CardinalityEstimator card(workload->catalog.get());
    Planner planner(workload->catalog.get(), &card);
    for (const QuerySpec& spec : workload->queries) {
      auto plan = planner.Plan(spec);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      for (const PlanNode* node : (*plan)->nodes()) ops.insert(node->op);
    }
  }
  // The pin only means something if the workloads reach the operators
  // whose output it guards.
  EXPECT_TRUE(ops.count(OpType::kIndexSeek));
  EXPECT_TRUE(ops.count(OpType::kFilter));
  EXPECT_TRUE(ops.count(OpType::kNestedLoopJoin));
  EXPECT_TRUE(ops.count(OpType::kHashJoin));
  EXPECT_TRUE(ops.count(OpType::kSort));
  EXPECT_TRUE(ops.count(OpType::kBatchSort));

  const std::string bytes = EncodeRecordBatch(all);
  const uint32_t crc = Crc32(bytes.data(), bytes.size());
  char hex[16];
  std::snprintf(hex, sizeof(hex), "0x%08x", crc);
  EXPECT_GT(all.size(), 100u);
  EXPECT_EQ(crc, 0xa902e8e4u) << "got " << hex << " over " << all.size();
}

}  // namespace
}  // namespace rpe
