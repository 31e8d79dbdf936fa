// SortRows against a reference std::sort on (key, full row) over seeded
// random shapes and adversarial input orders. The Sort and BatchSort
// operators are checked against the same reference in exec_test.cpp.
// RPE_FUZZ_CASES scales the random-shape trials (default 120).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>

#include "common/random.h"
#include "exec/operators.h"
#include "tests/test_util.h"

namespace rpe {
namespace {

using ::rpe::testing::EnvCount;
using ::rpe::testing::SortedByKey;

constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

void ExpectSortsLikeReference(std::vector<Row> rows, size_t key,
                              const std::string& what) {
  const std::vector<Row> expected = SortedByKey(rows, key);
  SortRows(&rows, key);
  ASSERT_EQ(rows.size(), expected.size()) << what;
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_EQ(rows[i], expected[i]) << what << ", position " << i;
  }
}

/// A value drawn to make ties likely: a few small values (some negative),
/// occasionally an extreme.
int64_t TieHeavyValue(Rng* rng, int64_t cardinality) {
  const uint64_t pick = rng->NextUInt(20);
  if (pick == 0) return kMin;
  if (pick == 1) return kMax;
  if (pick == 2) return kMin + 1;
  return rng->NextInt(-cardinality / 2, cardinality - cardinality / 2);
}

/// Random rows shaped like join output: a constant prefix of `prefix`
/// columns shared by runs of rows, low-cardinality values elsewhere, and
/// some exact duplicates.
std::vector<Row> RandomRows(Rng* rng, size_t n, size_t width, size_t prefix,
                            int64_t cardinality) {
  std::vector<Row> rows;
  rows.reserve(n);
  Row shared(prefix);
  for (size_t i = 0; i < n; ++i) {
    if (!rows.empty() && rng->NextBool(0.1)) {
      rows.push_back(rows[rng->NextUInt(rows.size())]);  // exact duplicate
      continue;
    }
    if (i % 64 == 0) {
      for (auto& v : shared) v = TieHeavyValue(rng, cardinality);
    }
    Row row(width);
    for (size_t c = 0; c < width; ++c) {
      row[c] = c < prefix ? shared[c] : TieHeavyValue(rng, cardinality);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

TEST(RowSortTest, MatchesReferenceOnSeededRandomShapes) {
  Rng rng(20260417);
  const size_t sizes[] = {0, 1, 2, 15, 16, 17, 100, 10000};
  const uint64_t trials = EnvCount("RPE_FUZZ_CASES", 120);
  for (uint64_t trial = 0; trial < trials; ++trial) {
    const size_t n = sizes[trial % 8];
    const size_t width = 1 + rng.NextUInt(50);
    const size_t prefix = rng.NextUInt(width + 1);
    const int64_t cardinality = 1 + static_cast<int64_t>(rng.NextUInt(6));
    const size_t key = rng.NextUInt(width);
    std::ostringstream what;
    what << "trial " << trial << " n=" << n << " width=" << width
         << " key=" << key;
    auto rows = RandomRows(&rng, n, width, prefix, cardinality);
    ExpectSortsLikeReference(std::move(rows), key, what.str());
  }
}

TEST(RowSortTest, WideKeysWithFewTiesMatchReference) {
  Rng rng(7);
  for (size_t width : {1u, 2u, 25u, 50u}) {
    std::vector<Row> rows(10000, Row(width));
    for (auto& row : rows) {
      for (auto& v : row) v = static_cast<int64_t>(rng.Next());
    }
    ExpectSortsLikeReference(rows, width - 1,
                             "width=" + std::to_string(width));
  }
}

TEST(RowSortTest, AdversarialOrdersMatchReference) {
  // Presorted, reversed, all-equal and organ-pipe inputs: the orders that
  // defeat naive pivots, which the depth budget turns into std::sort.
  for (size_t n : {15u, 16u, 17u, 10000u}) {
    for (size_t width : {1u, 3u, 12u}) {
      auto make = [&](auto value_at) {
        std::vector<Row> rows(n, Row(width));
        for (size_t i = 0; i < n; ++i) {
          for (size_t c = 0; c < width; ++c) {
            rows[i][c] = value_at(i) ^ static_cast<int64_t>(c);
          }
        }
        return rows;
      };
      const int64_t last = static_cast<int64_t>(n) - 1;
      const auto sorted = [](size_t i) { return static_cast<int64_t>(i); };
      const auto reversed = [&](size_t i) { return last - sorted(i); };
      const auto equal = [](size_t) { return int64_t{-3}; };
      const auto organ_pipe = [&](size_t i) {
        return std::min(sorted(i), reversed(i));
      };
      const auto extremes = [](size_t i) { return i % 2 == 0 ? kMin : kMax; };
      const std::string what =
          " n=" + std::to_string(n) + " width=" + std::to_string(width);
      ExpectSortsLikeReference(make(sorted), 0, "sorted" + what);
      ExpectSortsLikeReference(make(reversed), 0, "reversed" + what);
      ExpectSortsLikeReference(make(equal), width - 1, "all-equal" + what);
      ExpectSortsLikeReference(make(organ_pipe), 0, "organ-pipe" + what);
      ExpectSortsLikeReference(make(extremes), width / 2, "extremes" + what);
    }
  }
}

}  // namespace
}  // namespace rpe
