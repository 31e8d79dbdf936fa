// Shared fixtures for the test suite: a tiny deterministic catalog with
// known contents so operator results can be checked against brute force,
// the executor's reference sort order, random records, and per-process
// temp paths.
#pragma once

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <set>
#include <string>

#include "common/logging.h"
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
