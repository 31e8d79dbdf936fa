// ShardedMonitorService tests: sessions driven through the sharded tier
// from several threads must replay bit-identically to a single unsharded
// MonitorService at any shard/thread count (50k-session stress), the
// shards' shared registry counters must equal the unsharded service's,
// routing must keep per-session semantics intact, and a SwapModels publish
// must land on every shard as one generation step even while sessions
// open concurrently.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "exec/executor.h"
#include "serving/shard_router.h"
#include "serving/snapshot.h"
#include "tests/test_util.h"

namespace rpe {
namespace {

using ::rpe::testing::DriveSessions;
using ::rpe::testing::MakeSmallCatalog;
using ::rpe::testing::MetricValue;
using ::rpe::testing::RandomRecords;

SelectorStack TrainSmallStack(const std::vector<PipelineRecord>& records,
                              uint64_t seed) {
  MartParams params;
  params.num_trees = 10;
  params.tree.max_leaves = 8;
  params.seed = seed;
  return SelectorStack::Train(records, PoolOriginalThree(), params);
}

class ShardedMonitorServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = MakeSmallCatalog().release();
    runs_ = new std::vector<QueryRunResult>();
    plans_ = new std::vector<std::unique_ptr<PhysicalPlan>>();
    AddRun(MakeTableScan("t_fact"));
    AddRun(MakeHashJoin(MakeTableScan("t_dim"), MakeTableScan("t_fact"), 0,
                        1));
    AddRun(MakeNestedLoopJoin(MakeTableScan("t_fact"),
                              MakeIndexSeek("t_dim", "d_id"), 1));
    AddRun(MakeFilter(MakeTableScan("t_fact"), Predicate::Le(2, 25)));
    stack_ = std::make_shared<const SelectorStack>(
        TrainSmallStack(RandomRecords(80, 11), 7));
  }
  static void TearDownTestSuite() {
    delete runs_;
    delete plans_;
    delete catalog_;
    stack_.reset();
    runs_ = nullptr;
    plans_ = nullptr;
    catalog_ = nullptr;
  }

  static void AnnotateEstimates(PlanNode* node, double est) {
    node->est_rows = est;
    for (auto& c : node->children) AnnotateEstimates(c.get(), est * 0.8);
  }

  static void AddRun(std::unique_ptr<PlanNode> root) {
    AnnotateEstimates(root.get(), 1000.0);
    auto plan = FinalizePlan(std::move(root), *catalog_);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    plans_->push_back(std::move(plan).ValueOrDie());
    auto result = ExecutePlan(*plans_->back(), *catalog_);
    ASSERT_TRUE(result.ok());
    runs_->push_back(std::move(result).ValueOrDie());
  }

  static std::vector<const QueryRunResult*> SessionRuns(size_t n) {
    std::vector<const QueryRunResult*> out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i) out.push_back(&(*runs_)[i % runs_->size()]);
    return out;
  }

  /// Sequential reference series per distinct run (sessions cycle a small
  /// run set, so the reference is computed once per run, not per session).
  static std::vector<std::vector<double>> ReferencePerRun() {
    ProgressMonitor monitor(&stack_->static_selector,
                            &stack_->dynamic_selector);
    std::vector<std::vector<double>> out;
    out.reserve(runs_->size());
    for (const QueryRunResult& run : *runs_) {
      out.push_back(monitor.ReplayQueryProgress(run));
    }
    return out;
  }

  static Catalog* catalog_;
  static std::vector<QueryRunResult>* runs_;
  static std::vector<std::unique_ptr<PhysicalPlan>>* plans_;
  static std::shared_ptr<const SelectorStack> stack_;
};

Catalog* ShardedMonitorServiceTest::catalog_ = nullptr;
std::vector<QueryRunResult>* ShardedMonitorServiceTest::runs_ = nullptr;
std::vector<std::unique_ptr<PhysicalPlan>>*
    ShardedMonitorServiceTest::plans_ = nullptr;
std::shared_ptr<const SelectorStack> ShardedMonitorServiceTest::stack_;

TEST_F(ShardedMonitorServiceTest, StressReplay50kBitIdenticalToUnsharded) {
  // The acceptance bar: 50k sessions driven through the sharded tier from
  // four threads must be bit-identical to one unsharded MonitorService
  // driving the same slots, and the aggregated counters must be exact.
  const size_t kSessions = 50000;
  const auto session_runs = SessionRuns(kSessions);
  const auto reference = ReferencePerRun();

  MonitorService unsharded(stack_);
  auto expected = DriveSessions(&unsharded, session_runs, 4);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ASSERT_EQ(expected->size(), kSessions);
  for (size_t s = 0; s < kSessions; ++s) {
    ASSERT_EQ((*expected)[s], reference[s % runs_->size()])
        << "unsharded replay diverged from the sequential monitor";
  }

  ShardedMonitorService::Options options;
  options.num_shards = 16;
  ShardedMonitorService sharded(stack_, options);
  auto series = DriveSessions(&sharded, session_runs, 4);
  ASSERT_TRUE(series.ok()) << series.status().ToString();
  ASSERT_EQ(series->size(), kSessions);
  for (size_t s = 0; s < kSessions; ++s) {
    // Bit-identical, not approximately equal — and in caller order.
    ASSERT_EQ((*series)[s], (*expected)[s]) << "session " << s;
  }

  // Every shard counts into the router's registry: the scrape needs no
  // merge and equals the unsharded service's own counters.
  const obs::MetricsRegistry& metrics = sharded.metrics();
  const obs::MetricsRegistry& base = unsharded.metrics();
  EXPECT_EQ(MetricValue(metrics, "rpe_shards"), 16.0);
  EXPECT_EQ(MetricValue(metrics, "rpe_sessions_opened_total"), kSessions);
  EXPECT_EQ(MetricValue(metrics, "rpe_sessions_completed_total"), kSessions);
  EXPECT_EQ(MetricValue(metrics, "rpe_decisions_total"),
            MetricValue(base, "rpe_decisions_total"));
  EXPECT_EQ(MetricValue(metrics, "rpe_observations_scored_total"),
            MetricValue(base, "rpe_observations_scored_total"));
  EXPECT_EQ(MetricValue(metrics, "rpe_model_generation"), 0.0);
  const obs::Histogram* latency =
      sharded.metrics().GetHistogram("rpe_replay_latency_seconds");
  EXPECT_EQ(latency->Snap().count, kSessions);
  EXPECT_GE(MetricValue(metrics, "rpe_replay_latency_p95_ms"),
            MetricValue(metrics, "rpe_replay_latency_p50_ms"));
}

TEST_F(ShardedMonitorServiceTest, ReplayBitIdenticalAtAnyShardThreadCount) {
  const auto session_runs = SessionRuns(512);
  const auto reference = ReferencePerRun();
  for (size_t shards : {size_t{1}, size_t{3}, size_t{16}}) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      ShardedMonitorService::Options options;
      options.num_shards = shards;
      ShardedMonitorService service(stack_, options);
      auto series = DriveSessions(&service, session_runs, threads);
      ASSERT_TRUE(series.ok()) << series.status().ToString();
      ASSERT_EQ(series->size(), session_runs.size());
      for (size_t s = 0; s < series->size(); ++s) {
        ASSERT_EQ((*series)[s], reference[s % runs_->size()])
            << shards << " shards, " << threads << " threads, session " << s;
      }
      EXPECT_EQ(
          MetricValue(service.metrics(), "rpe_sessions_completed_total"),
          session_runs.size());
    }
  }
}

TEST_F(ShardedMonitorServiceTest, RoutedSessionsMatchSequentialReplay) {
  ShardedMonitorService::Options options;
  options.num_shards = 8;
  ShardedMonitorService service(stack_, options);
  const auto reference = ReferencePerRun();

  const size_t kSessions = 96;
  std::vector<ShardedMonitorService::SessionId> ids;
  for (size_t s = 0; s < kSessions; ++s) {
    auto id = service.OpenSession(&(*runs_)[s % runs_->size()]);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  EXPECT_EQ(service.num_open_sessions(), kSessions);
  // Ids are globally unique even though every shard numbers locally.
  std::set<ShardedMonitorService::SessionId> unique(ids.begin(), ids.end());
  EXPECT_EQ(unique.size(), kSessions);

  // Advance each session one observation at a time through the router;
  // the progress trajectory must match the sequential monitor bit for bit.
  for (size_t s = 0; s < kSessions; ++s) {
    const auto& expected = reference[s % runs_->size()];
    for (size_t oi = 0; oi < expected.size(); ++oi) {
      auto progress = service.Advance(ids[s]);
      ASSERT_TRUE(progress.ok()) << progress.status().ToString();
      ASSERT_EQ(*progress, expected[oi]) << "session " << s << " obs " << oi;
    }
    EXPECT_TRUE(*service.Done(ids[s]));
    EXPECT_FALSE(service.Advance(ids[s]).ok());  // stream exhausted
    EXPECT_EQ(*service.Progress(ids[s]), expected.back());
    ASSERT_TRUE(service.CloseSession(ids[s]).ok());
  }
  EXPECT_EQ(service.num_open_sessions(), 0u);

  // Unknown / stale ids are routed errors, not crashes.
  EXPECT_FALSE(service.Advance(ids[0]).ok());
  EXPECT_FALSE(service.Progress(12345678).ok());
  EXPECT_FALSE(service.CloseSession(0).ok());
}

TEST_F(ShardedMonitorServiceTest, SwapLandsOnAllShardsInOneGenerationStep) {
  auto other = std::make_shared<const SelectorStack>(
      TrainSmallStack(RandomRecords(80, 23), 41));
  ShardedMonitorService::Options options;
  options.num_shards = 8;
  ShardedMonitorService service(stack_, options);

  // Openers hammer every shard while swaps land; a reader scrapes
  // concurrently and asserts the exported generation ("published on every
  // shard") never steps backwards.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> opened{0};
  std::thread opener([&] {
    while (!stop.load()) {
      auto id = service.OpenSession(&(*runs_)[opened.load() % runs_->size()]);
      ASSERT_TRUE(id.ok());
      ++opened;
      ASSERT_TRUE(service.CloseSession(*id).ok());
    }
  });
  std::thread reader([&] {
    double last = 0.0;
    while (!stop.load()) {
      const double generation =
          MetricValue(service.metrics(), "rpe_model_generation");
      ASSERT_GE(generation, last);
      last = generation;
    }
  });

  const uint64_t kSwaps = 200;
  for (uint64_t g = 1; g <= kSwaps; ++g) {
    const uint64_t generation =
        service.SwapModels(g % 2 == 0 ? stack_ : other);
    ASSERT_EQ(generation, g);  // lockstep across all shards
  }
  // On a single-core box the swap loop can finish before the opener is
  // ever scheduled; let it observe the post-swap world at least once.
  while (opened.load() == 0) std::this_thread::yield();
  stop.store(true);
  opener.join();
  reader.join();

  // After the last swap returns, every shard reports the same generation.
  for (size_t i = 0; i < service.num_shards(); ++i) {
    EXPECT_EQ(service.shard(i).model_generation(), kSwaps) << "shard " << i;
  }
  EXPECT_EQ(service.model_generation(), kSwaps);
  EXPECT_EQ(MetricValue(service.metrics(), "rpe_model_generation"), kSwaps);
  EXPECT_GT(opened.load(), 0u);

  // Sessions opened after the swaps decide against the final snapshot.
  ProgressMonitor swapped(&stack_->static_selector,
                          &stack_->dynamic_selector);
  auto id = service.OpenSession(&(*runs_)[0]);
  ASSERT_TRUE(id.ok());
  std::vector<double> series;
  for (auto step = service.Advance(*id); step.ok();
       step = service.Advance(*id)) {
    series.push_back(*step);
  }
  EXPECT_EQ(series, swapped.ReplayQueryProgress((*runs_)[0]));
  ASSERT_TRUE(service.CloseSession(*id).ok());
}

}  // namespace
}  // namespace rpe
