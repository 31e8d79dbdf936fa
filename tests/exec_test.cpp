// Execution-engine tests: operator correctness against brute-force
// reference results, counter semantics, pipeline decomposition, and the
// observation stream.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <set>

#include "exec/executor.h"
#include "exec/operators.h"
#include "exec/plan_resolver.h"
#include "tests/test_util.h"

namespace rpe {
namespace {

using ::rpe::testing::BatchSortedByKey;
using ::rpe::testing::MakeSmallCatalog;
using ::rpe::testing::SortedByKey;

class ExecTest : public ::testing::Test {
 protected:
  void SetUp() override { catalog_ = MakeSmallCatalog(); }

  QueryRunResult Run(std::unique_ptr<PlanNode> root) {
    auto plan = FinalizePlan(std::move(root), *catalog_);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    plan_ = std::move(plan).ValueOrDie();
    auto result = ExecutePlan(*plan_, *catalog_);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).ValueOrDie();
  }

  /// The rows the root operator emits, pulled through Open/Next/Close.
  std::vector<Row> Pull(std::unique_ptr<PlanNode> root) {
    auto plan = FinalizePlan(std::move(root), *catalog_);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    plan_ = std::move(plan).ValueOrDie();
    ExecContext ctx(plan_.get(), catalog_.get(), ExecOptions{});
    auto op = Operator::Create(plan_->root(), &ctx);
    op->Open();
    std::vector<Row> rows;
    Row row;
    while (op->Next(&row)) rows.push_back(row);
    op->Close();
    return rows;
  }

  const Table& fact() { return **catalog_->GetTable("t_fact"); }
  const Table& dim() { return **catalog_->GetTable("t_dim"); }

  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<PhysicalPlan> plan_;
};

TEST_F(ExecTest, TableScanProducesAllRows) {
  auto run = Run(MakeTableScan("t_fact"));
  EXPECT_EQ(run.rows_out, 1000u);
  EXPECT_EQ(run.true_n[0], 1000.0);
  EXPECT_GT(run.total_time, 0.0);
}

TEST_F(ExecTest, FilterMatchesBruteForce) {
  auto root = MakeFilter(MakeTableScan("t_fact"), Predicate::Le(2, 10));
  auto run = Run(std::move(root));
  uint64_t expected = 0;
  for (const auto& row : fact().rows()) {
    if (row[2] <= 10) ++expected;
  }
  EXPECT_EQ(run.rows_out, expected);
}

TEST_F(ExecTest, FilterBetween) {
  auto root =
      MakeFilter(MakeTableScan("t_fact"), Predicate::Between(2, 10, 20));
  auto run = Run(std::move(root));
  uint64_t expected = 0;
  for (const auto& row : fact().rows()) {
    if (row[2] >= 10 && row[2] <= 20) ++expected;
  }
  EXPECT_EQ(run.rows_out, expected);
}

TEST_F(ExecTest, IndexScanIsSortedAndComplete) {
  auto run = Run(MakeIndexScan("t_fact", "f_fk"));
  EXPECT_EQ(run.rows_out, 1000u);
}

TEST_F(ExecTest, HashJoinMatchesBruteForce) {
  // dim JOIN fact ON d_id = f_fk (build = dim).
  auto root = MakeHashJoin(MakeTableScan("t_dim"), MakeTableScan("t_fact"),
                           /*build_key=*/0, /*probe_key=*/1);
  auto run = Run(std::move(root));
  // Every fact row joins exactly one dim row (FK in [0,100)).
  EXPECT_EQ(run.rows_out, 1000u);
}

TEST_F(ExecTest, HashJoinDuplicateKeysCrossProduct) {
  // fact JOIN fact ON f_fk = f_fk would explode; use dim attr instead:
  // join dim with itself on d_attr (10 distinct values).
  auto root = MakeHashJoin(MakeTableScan("t_dim"), MakeTableScan("t_dim"),
                           1, 1);
  auto run = Run(std::move(root));
  std::map<int64_t, uint64_t> counts;
  for (const auto& row : dim().rows()) counts[row[1]]++;
  uint64_t expected = 0;
  for (const auto& [attr, c] : counts) expected += c * c;
  EXPECT_EQ(run.rows_out, expected);
}

TEST_F(ExecTest, NestedLoopIndexSeekMatchesHashJoin) {
  // fact NLJ seek(dim.d_id) on f_fk: same cardinality as the hash join.
  auto root = MakeNestedLoopJoin(MakeTableScan("t_fact"),
                                 MakeIndexSeek("t_dim", "d_id"),
                                 /*outer_key=*/1);
  auto run = Run(std::move(root));
  EXPECT_EQ(run.rows_out, 1000u);
}

TEST_F(ExecTest, NaiveNestedLoopWithParamFilter) {
  auto inner = MakeFilter(MakeTableScan("t_dim"), Predicate::EqParam(0));
  auto root =
      MakeNestedLoopJoin(MakeTableScan("t_fact"), std::move(inner), 1);
  auto run = Run(std::move(root));
  EXPECT_EQ(run.rows_out, 1000u);
  // The rescanned inner table-scan node must have issued 1000 * 100 calls.
  // Node ids: 0=NLJ, 1=outer scan, 2=filter, 3=inner scan.
  EXPECT_EQ(run.true_n[3], 1000.0 * 100.0);
}

TEST_F(ExecTest, MergeJoinMatchesHashJoin) {
  // Sort both sides explicitly, then merge-join on the key.
  auto left = MakeSort(MakeTableScan("t_dim"), 0);
  auto right = MakeSort(MakeTableScan("t_fact"), 1);
  auto root = MakeMergeJoin(std::move(left), std::move(right), 0, 1);
  auto run = Run(std::move(root));
  EXPECT_EQ(run.rows_out, 1000u);
}

TEST_F(ExecTest, MergeJoinManyToMany) {
  auto left = MakeSort(MakeTableScan("t_dim"), 1);
  auto right = MakeSort(MakeTableScan("t_dim"), 1);
  auto root = MakeMergeJoin(std::move(left), std::move(right), 1, 1);
  auto run = Run(std::move(root));
  std::map<int64_t, uint64_t> counts;
  for (const auto& row : dim().rows()) counts[row[1]]++;
  uint64_t expected = 0;
  for (const auto& [attr, c] : counts) expected += c * c;
  EXPECT_EQ(run.rows_out, expected);
}

TEST_F(ExecTest, SortIsOrderedAndComplete) {
  auto run = Run(MakeSort(MakeTableScan("t_fact"), 2));
  EXPECT_EQ(run.rows_out, 1000u);
  EXPECT_EQ(Pull(MakeSort(MakeTableScan("t_fact"), 2)),
            SortedByKey(fact().rows(), 2));
  // Join rows: long runs that tie on the key and on the dim prefix.
  auto join = [] {
    return MakeHashJoin(MakeTableScan("t_dim"), MakeTableScan("t_fact"), 0, 1);
  };
  EXPECT_EQ(Pull(MakeSort(join(), 1)), SortedByKey(Pull(join()), 1));
}

TEST_F(ExecTest, BatchSortPreservesMultiset) {
  auto run = Run(MakeBatchSort(MakeTableScan("t_fact"), 1, 64));
  EXPECT_EQ(run.rows_out, 1000u);
  EXPECT_EQ(Pull(MakeBatchSort(MakeTableScan("t_fact"), 1, 64)),
            BatchSortedByKey(fact().rows(), 1, 64));
}

TEST_F(ExecTest, BatchSortGroupsStraddleBatches) {
  // Runs of 5 equal keys, in descending key order so every batch is
  // reordered, against batch sizes that cut the runs in the middle.
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  Rng rng(11);
  Schema schema({{"k", 8}, {"a", 8}, {"b", 8}});
  auto table = std::make_unique<Table>("t", schema);
  for (int64_t i = 0; i < 103; ++i) {
    Row row = {(103 - i) / 5, rng.NextInt(-2, 2), kMax - i % 3};
    ASSERT_TRUE(table->Append(row).ok());
  }
  catalog_ = std::make_unique<Catalog>();
  ASSERT_TRUE(catalog_->AddTable(std::move(table)).ok());
  const std::vector<Row> input = (*catalog_->GetTable("t"))->rows();
  for (size_t batch_size : {1u, 3u, 7u, 16u, 102u, 103u, 500u}) {
    auto root = MakeBatchSort(MakeTableScan("t"), 0, batch_size);
    EXPECT_EQ(Pull(std::move(root)), BatchSortedByKey(input, 0, batch_size))
        << "batch_size=" << batch_size;
  }
}

TEST_F(ExecTest, IndexSeekReopensWithChangingKeys) {
  // The inner side of an index nested-loop join: re-opened per outer row
  // with a new correlated key, including keys with no match at all.
  auto plan = FinalizePlan(MakeIndexSeek("t_fact", "f_fk"), *catalog_);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ExecContext ctx(plan->get(), catalog_.get(), ExecOptions{});
  auto seek = Operator::Create((*plan)->root(), &ctx);
  auto matches = [&](int64_t key) {
    std::vector<Row> expected;  // index order: key, then row id
    for (const Row& r : fact().rows()) {
      if (r[1] == key) expected.push_back(r);
    }
    return expected;
  };
  double emitted = 0.0;
  Row row;
  const int64_t keys[] = {3, 3, -1, 0, 1000, 99, 7};
  for (int64_t key : keys) {
    ctx.SetCorrelatedKey(key);
    seek->ReOpen();
    std::vector<Row> got;
    while (seek->Next(&row)) got.push_back(row);
    EXPECT_EQ(got, matches(key)) << "key " << key;
    emitted += static_cast<double>(got.size());
    EXPECT_EQ(ctx.counters(0).k, emitted) << "key " << key;
  }
  // A re-open abandons a partly drained key.
  ctx.SetCorrelatedKey(0);
  seek->ReOpen();
  ASSERT_TRUE(seek->Next(&row));
  ctx.SetCorrelatedKey(7);
  seek->ReOpen();
  std::vector<Row> got;
  while (seek->Next(&row)) got.push_back(row);
  EXPECT_EQ(got, matches(7));
  seek->Close();
}

TEST_F(ExecTest, HashAggregateCountsGroups) {
  auto root = MakeHashAggregate(MakeTableScan("t_dim"), {1});
  auto run = Run(std::move(root));
  std::set<int64_t> distinct;
  for (const auto& row : dim().rows()) distinct.insert(row[1]);
  EXPECT_EQ(run.rows_out, distinct.size());
}

TEST_F(ExecTest, StreamAggregateOverSortedInput) {
  auto root =
      MakeStreamAggregate(MakeSort(MakeTableScan("t_dim"), 1), {1});
  auto run = Run(std::move(root));
  std::set<int64_t> distinct;
  for (const auto& row : dim().rows()) distinct.insert(row[1]);
  EXPECT_EQ(run.rows_out, distinct.size());
}

TEST_F(ExecTest, StreamAggEqualsHashAggGroupCounts) {
  auto hash_run = Run(MakeHashAggregate(MakeTableScan("t_fact"), {1}));
  auto stream_run =
      Run(MakeStreamAggregate(MakeSort(MakeTableScan("t_fact"), 1), {1}));
  EXPECT_EQ(hash_run.rows_out, stream_run.rows_out);
}

TEST_F(ExecTest, TopLimitsOutput) {
  auto run = Run(MakeTop(MakeTableScan("t_fact"), 17));
  EXPECT_EQ(run.rows_out, 17u);
}

TEST_F(ExecTest, CountersMonotonicallyIncrease) {
  auto root = MakeHashJoin(MakeTableScan("t_dim"), MakeTableScan("t_fact"),
                           0, 1);
  auto run = Run(std::move(root));
  ASSERT_GE(run.observations.size(), 2u);
  for (size_t oi = 1; oi < run.observations.size(); ++oi) {
    EXPECT_GE(run.observations[oi].vtime, run.observations[oi - 1].vtime);
    for (size_t node = 0; node < run.true_n.size(); ++node) {
      EXPECT_GE(run.observations[oi].k[node],
                run.observations[oi - 1].k[node]);
    }
  }
}

TEST_F(ExecTest, FinalObservationMatchesTrueN) {
  auto root = MakeFilter(MakeTableScan("t_fact"), Predicate::Ge(2, 25));
  auto run = Run(std::move(root));
  const Observation& last = run.observations.back();
  for (size_t node = 0; node < run.true_n.size(); ++node) {
    EXPECT_DOUBLE_EQ(last.k[node], run.true_n[node]);
  }
}

TEST_F(ExecTest, BoundsContainTrueN) {
  auto root = MakeFilter(MakeTableScan("t_fact"), Predicate::Le(2, 30));
  auto run = Run(std::move(root));
  for (const auto& obs : run.observations) {
    for (size_t node = 0; node < run.true_n.size(); ++node) {
      EXPECT_LE(obs.lb[node], run.true_n[node] + 1e-9)
          << "node " << node;
      EXPECT_GE(obs.ub[node], run.true_n[node] - 1e-9)
          << "node " << node;
    }
  }
}

TEST_F(ExecTest, EstimateWithinBounds) {
  auto root = MakeHashJoin(MakeTableScan("t_dim"), MakeTableScan("t_fact"),
                           0, 1);
  auto run = Run(std::move(root));
  for (const auto& obs : run.observations) {
    for (size_t node = 0; node < run.true_n.size(); ++node) {
      EXPECT_GE(obs.e[node], obs.lb[node] - 1e-9);
      EXPECT_LE(obs.e[node], obs.ub[node] + 1e-9);
    }
  }
}

// --- pipeline decomposition -------------------------------------------

TEST_F(ExecTest, ScanFilterIsOnePipeline) {
  auto root = MakeFilter(MakeTableScan("t_fact"), Predicate::Le(2, 10));
  auto plan = FinalizePlan(std::move(root), *catalog_);
  ASSERT_TRUE(plan.ok());
  auto pipelines = DecomposePipelines(**plan);
  ASSERT_EQ(pipelines.size(), 1u);
  EXPECT_EQ(pipelines[0].nodes.size(), 2u);
  ASSERT_EQ(pipelines[0].driver_nodes.size(), 1u);
  EXPECT_EQ((*plan)->node(pipelines[0].driver_nodes[0])->op,
            OpType::kTableScan);
}

TEST_F(ExecTest, HashJoinSplitsBuildPipeline) {
  auto root = MakeHashJoin(MakeTableScan("t_dim"), MakeTableScan("t_fact"),
                           0, 1);
  auto plan = FinalizePlan(std::move(root), *catalog_);
  ASSERT_TRUE(plan.ok());
  auto pipelines = DecomposePipelines(**plan);
  ASSERT_EQ(pipelines.size(), 2u);
  // Root pipeline: join + probe scan; build pipeline: build scan only.
  EXPECT_EQ(pipelines[0].nodes.size(), 2u);
  EXPECT_EQ(pipelines[1].nodes.size(), 1u);
}

TEST_F(ExecTest, SortActsAsDriverOfParentPipeline) {
  auto root = MakeStreamAggregate(MakeSort(MakeTableScan("t_fact"), 1), {1});
  auto plan = FinalizePlan(std::move(root), *catalog_);
  ASSERT_TRUE(plan.ok());
  auto pipelines = DecomposePipelines(**plan);
  ASSERT_EQ(pipelines.size(), 2u);
  // Parent pipeline: agg + sort, driver = sort node.
  ASSERT_EQ(pipelines[0].driver_nodes.size(), 1u);
  EXPECT_EQ((*plan)->node(pipelines[0].driver_nodes[0])->op, OpType::kSort);
}

TEST_F(ExecTest, NljInnerNodesAreNotDrivers) {
  auto root = MakeNestedLoopJoin(MakeTableScan("t_fact"),
                                 MakeIndexSeek("t_dim", "d_id"), 1);
  auto plan = FinalizePlan(std::move(root), *catalog_);
  ASSERT_TRUE(plan.ok());
  auto pipelines = DecomposePipelines(**plan);
  ASSERT_EQ(pipelines.size(), 1u);
  ASSERT_EQ(pipelines[0].driver_nodes.size(), 1u);
  EXPECT_EQ((*plan)->node(pipelines[0].driver_nodes[0])->op,
            OpType::kTableScan);
}

TEST_F(ExecTest, PipelineWindowsAreOrdered) {
  auto root = MakeHashJoin(MakeTableScan("t_dim"), MakeTableScan("t_fact"),
                           0, 1);
  auto run = Run(std::move(root));
  ASSERT_EQ(run.pipelines.size(), 2u);
  for (const auto& p : run.pipelines) {
    ASSERT_GE(p.first_obs, 0) << "pipeline " << p.id << " never active";
    EXPECT_LE(p.first_obs, p.last_obs);
    EXPECT_LT(p.start_time, p.end_time);
  }
  // The build pipeline must start before the probe pipeline ends.
  EXPECT_LE(run.pipelines[1].start_time, run.pipelines[0].end_time);
}

TEST_F(ExecTest, SpillChargesExtraBytesAndCalls) {
  // Force a spill with a tiny memory budget.
  ExecOptions opts;
  opts.memory_limit_bytes = 1024;
  auto root = MakeHashJoin(MakeTableScan("t_fact"), MakeTableScan("t_dim"),
                           1, 0);
  auto plan = FinalizePlan(std::move(root), *catalog_);
  ASSERT_TRUE(plan.ok());
  auto run = ExecutePlan(**plan, *catalog_, opts);
  ASSERT_TRUE(run.ok());
  // Hash join node is the root (id 0): spills surface as written bytes.
  EXPECT_GT(run->final_bytes_written[0], 0.0);
  // And as extra GetNext calls beyond the pure join output.
  EXPECT_GT(run->true_n[0], 100.0);
}

TEST_F(ExecTest, DeterministicAcrossRuns) {
  auto make = [&] {
    return MakeHashJoin(MakeTableScan("t_dim"), MakeTableScan("t_fact"), 0,
                        1);
  };
  auto run1 = Run(make());
  auto plan2 = FinalizePlan(make(), *catalog_);
  ASSERT_TRUE(plan2.ok());
  auto run2 = ExecutePlan(**plan2, *catalog_);
  ASSERT_TRUE(run2.ok());
  EXPECT_EQ(run1.total_time, run2->total_time);
  EXPECT_EQ(run1.observations.size(), run2->observations.size());
}

}  // namespace
}  // namespace rpe
