#include "storage/index.h"

#include <algorithm>

#include "common/logging.h"

namespace rpe {

SortedIndex::SortedIndex(const Table* table, size_t column)
    : table_(table), column_(column) {
  RPE_CHECK(table != nullptr);
  RPE_CHECK_LT(column, table->schema().num_columns());
  entries_.reserve(table->num_rows());
  for (RowId id = 0; id < table->num_rows(); ++id) {
    entries_.emplace_back(table->row(id)[column], id);
  }
  std::sort(entries_.begin(), entries_.end());
}

std::pair<SortedIndex::EntryIter, SortedIndex::EntryIter>
SortedIndex::EqualRange(int64_t key) const {
  return std::equal_range(
      entries_.begin(), entries_.end(), std::make_pair(key, RowId{0}),
      [](const auto& a, const auto& b) { return a.first < b.first; });
}

std::vector<RowId> SortedIndex::SeekRange(int64_t lo_key, int64_t hi_key) const {
  auto lo = std::lower_bound(
      entries_.begin(), entries_.end(), std::make_pair(lo_key, RowId{0}),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<RowId> out;
  for (auto it = lo; it != entries_.end() && it->first <= hi_key; ++it) {
    out.push_back(it->second);
  }
  return out;
}

uint64_t SortedIndex::CountEqual(int64_t key) const {
  auto [lo, hi] = EqualRange(key);
  return static_cast<uint64_t>(hi - lo);
}

uint64_t SortedIndex::CountRange(int64_t lo_key, int64_t hi_key) const {
  auto lo = std::lower_bound(
      entries_.begin(), entries_.end(), std::make_pair(lo_key, RowId{0}),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  uint64_t n = 0;
  for (auto it = lo; it != entries_.end() && it->first <= hi_key; ++it) ++n;
  return n;
}

}  // namespace rpe
