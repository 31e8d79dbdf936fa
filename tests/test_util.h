// Shared fixtures for the test suite: a tiny deterministic catalog with
// known contents so operator results can be checked against brute force,
// the executor's reference sort order, random records, per-process temp
// paths, env-scaled case counts, a bit-exact model comparison, and a
// multi-threaded session driver for the serving tier.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "exec/executor.h"
#include "mart/mart.h"
#include "obs/metrics.h"
#include "selection/record.h"
#include "storage/catalog.h"
#include "storage/datagen.h"

namespace rpe::testing {

/// A path in the system temp directory that carries this process's pid:
/// ctest runs every TEST as its own process, so suites that write and
/// delete a fixed file name would otherwise race under `ctest -j`.
inline std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          (std::to_string(::getpid()) + "_" + name))
      .string();
}

/// Case count (or seed) for the seeded fuzz, property and chaos suites:
/// the decimal value of environment variable `name`, or `fallback` when it
/// is unset or empty. RPE_FUZZ_CASES / RPE_CHAOS_ROUNDS scale a suite up
/// (the CI fuzz job runs 10000 cases); RPE_FUZZ_SEED=<seed> with
/// RPE_FUZZ_CASES=1 replays one printed failure.
inline uint64_t EnvCount(const char* name, uint64_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  return std::strtoull(env, nullptr, 10);
}

/// Bit-for-bit model equality, independent of any persistence format:
/// bias, learning rate, per-feature gains and every field of every tree
/// node. Doubles compare as raw bits, so -0.0 vs 0.0 or two NaN payloads
/// count as different.
inline void ExpectSameModel(const MartModel& a, const MartModel& b) {
  auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
  EXPECT_EQ(bits(a.bias()), bits(b.bias()));
  EXPECT_EQ(bits(a.learning_rate()), bits(b.learning_rate()));
  ASSERT_EQ(a.feature_gains().size(), b.feature_gains().size());
  for (size_t f = 0; f < a.feature_gains().size(); ++f) {
    EXPECT_EQ(bits(a.feature_gains()[f]), bits(b.feature_gains()[f]))
        << "gain of feature " << f;
  }
  ASSERT_EQ(a.num_trees(), b.num_trees());
  for (size_t t = 0; t < a.num_trees(); ++t) {
    const auto& na = a.trees()[t].nodes();
    const auto& nb = b.trees()[t].nodes();
    ASSERT_EQ(na.size(), nb.size()) << "tree " << t;
    for (size_t i = 0; i < na.size(); ++i) {
      EXPECT_EQ(na[i].feature, nb[i].feature) << "tree " << t << " node " << i;
      EXPECT_EQ(bits(na[i].threshold), bits(nb[i].threshold))
          << "tree " << t << " node " << i;
      EXPECT_EQ(na[i].left, nb[i].left) << "tree " << t << " node " << i;
      EXPECT_EQ(na[i].right, nb[i].right) << "tree " << t << " node " << i;
      EXPECT_EQ(bits(na[i].value), bits(nb[i].value))
          << "tree " << t << " node " << i;
    }
  }
}

/// Value of the unlabeled sample `name` in one Collect() of `registry` —
/// the same read a scrape or the exit table makes. NaN (which fails any
/// equality) when the registry exports no such sample.
inline double MetricValue(const obs::MetricsRegistry& registry,
                          std::string_view name) {
  for (const obs::Sample& s : registry.Collect()) {
    if (s.name == name && s.labels.empty()) return s.value;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

/// Drive one monitoring session per entry of `runs` through `service`'s
/// session API, the way the TCP front-end does: OpenSession, Advance until
/// the replay is exhausted, CloseSession. Session i runs on std::thread
/// i % threads; out[i] is its progress series. Works for MonitorService
/// and ShardedMonitorService. The first error any thread hits is returned.
template <typename Service>
Result<std::vector<std::vector<double>>> DriveSessions(
    Service* service, const std::vector<const QueryRunResult*>& runs,
    size_t threads) {
  std::vector<std::vector<double>> series(runs.size());
  std::vector<Status> errors(threads);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t i = t; i < runs.size() && errors[t].ok(); i += threads) {
        auto id = service->OpenSession(runs[i]);
        if (!id.ok()) {
          errors[t] = id.status();
          return;
        }
        while (true) {
          auto progress = service->Advance(*id);
          if (!progress.ok()) {
            if (progress.status().code() != StatusCode::kOutOfRange) {
              errors[t] = progress.status();
            }
            break;
          }
          series[i].push_back(*progress);
        }
        const Status closed = service->CloseSession(*id);
        if (errors[t].ok()) errors[t] = closed;
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (const Status& st : errors) RPE_RETURN_NOT_OK(st);
  return series;
}

/// `rows` in the executor's sort order (key column, then the full row),
/// stated independently of SortRows: the reference the sort tests compare
/// against.
inline std::vector<Row> SortedByKey(std::vector<Row> rows, size_t key) {
  std::sort(rows.begin(), rows.end(), [key](const Row& a, const Row& b) {
    if (a[key] != b[key]) return a[key] < b[key];
    return a < b;
  });
  return rows;
}

/// What a BatchSort emits for `input`: each run of `batch_size` input rows
/// sorted on its own, the runs in input order.
inline std::vector<Row> BatchSortedByKey(const std::vector<Row>& input,
                                         size_t key, size_t batch_size) {
  std::vector<Row> out;
  for (size_t lo = 0; lo < input.size(); lo += batch_size) {
    const size_t hi = std::min(input.size(), lo + batch_size);
    std::vector<Row> batch(input.begin() + static_cast<ptrdiff_t>(lo),
                           input.begin() + static_cast<ptrdiff_t>(hi));
    batch = SortedByKey(std::move(batch), key);
    out.insert(out.end(), batch.begin(), batch.end());
  }
  return out;
}

/// Random PipelineRecords at full schema arity (features uniform in
/// [0, 1), l1/l2 for every estimator kind): the fixture for
/// persistence/serving tests and benches that need structurally valid
/// records but no learnable labels.
inline std::vector<PipelineRecord> RandomRecords(size_t n, uint64_t seed) {
  const FeatureSchema& schema = FeatureSchema::Get();
  Rng rng(seed);
  std::vector<PipelineRecord> records;
  records.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    PipelineRecord r;
    r.workload = "synthetic";
    r.query = "q" + std::to_string(i % 7);
    r.pipeline_id = static_cast<int>(i % 3);
    r.tag = i % 2 == 0 ? "even" : "odd";
    r.total_n = 100.0 + rng.NextDouble() * 1000.0;
    r.features.reserve(schema.num_features());
    for (size_t f = 0; f < schema.num_features(); ++f) {
      r.features.push_back(rng.NextDouble());
    }
    for (int e = 0; e < kNumEstimatorKinds; ++e) {
      r.l1.push_back(rng.NextDouble() * 0.3);
      r.l2.push_back(rng.NextDouble() * 0.3);
    }
    records.push_back(std::move(r));
  }
  return records;
}

/// Build a catalog with two small tables:
///   t_fact(f_id, f_fk, f_val)   — 1000 rows, f_fk in [0,100), f_val [0,50)
///   t_dim(d_id, d_attr)         — 100 rows, d_id = 0..99
/// plus indexes on t_dim.d_id and t_fact.f_fk.
inline std::unique_ptr<Catalog> MakeSmallCatalog(uint64_t seed = 5) {
  auto catalog = std::make_unique<Catalog>();
  Rng rng(seed);
  {
    TableGenSpec spec;
    spec.name = "t_dim";
    spec.num_rows = 100;
    spec.columns = {{"d_id", 8}, {"d_attr", 8}};
    spec.generators = {ColumnGen::Sequential(), ColumnGen::Uniform(0, 9)};
    auto table = GenerateTable(spec, &rng);
    RPE_CHECK(table.ok());
    RPE_CHECK_OK(catalog->AddTable(std::move(table).ValueOrDie()));
  }
  {
    TableGenSpec spec;
    spec.name = "t_fact";
    spec.num_rows = 1000;
    spec.columns = {{"f_id", 8}, {"f_fk", 8}, {"f_val", 8}};
    spec.generators = {ColumnGen::Sequential(), ColumnGen::FkZipf(100, 1.0),
                       ColumnGen::Uniform(0, 49)};
    auto table = GenerateTable(spec, &rng);
    RPE_CHECK(table.ok());
    RPE_CHECK_OK(catalog->AddTable(std::move(table).ValueOrDie()));
  }
  RPE_CHECK_OK(catalog->CreateIndex("t_dim", "d_id"));
  RPE_CHECK_OK(catalog->CreateIndex("t_fact", "f_fk"));
  return catalog;
}

}  // namespace rpe::testing
