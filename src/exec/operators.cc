#include "exec/operators.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <numeric>
#include <tuple>
#include <utility>

#include "common/logging.h"
#include "exec/cost_model.h"

namespace rpe {

namespace {

/// out = a ++ b, reusing out's storage. The reserve keeps a fresh buffer at
/// exactly the output width: blocking parents move these rows into their
/// buffers, so growth slack would be held per buffered row.
void ConcatInto(const Row& a, const Row& b, Row* out) {
  out->clear();
  out->reserve(a.size() + b.size());
  out->insert(out->end(), a.begin(), a.end());
  out->insert(out->end(), b.begin(), b.end());
}

/// Multikey quicksort of a row-id permutation over the sort tuple
/// (row[key], row[0], ..., row[w-1]). Tuple position 0 is the key column,
/// position p >= 1 is column p - 1; every position below `depth` is known
/// to be equal across the ids being sorted.
class RowSorter {
 public:
  RowSorter(const std::vector<Row>& rows, size_t key)
      : rows_(rows), key_(key), width_(rows.empty() ? 0 : rows[0].size()) {}

  void Sort(uint32_t* ids, size_t n) { Sort(ids, n, 0, DepthBudget(n)); }

 private:
  /// Below this many ids, insertion sort.
  static constexpr size_t kCutoff = 16;

  /// Partitioning passes a subarray may take at one tuple position before
  /// it falls back to std::sort: 2 * floor(log2 n), as in introsort.
  static int DepthBudget(size_t n) {
    int log2 = 0;
    while (n > 1) {
      n >>= 1;
      ++log2;
    }
    return 2 * log2;
  }

  size_t Column(size_t depth) const { return depth == 0 ? key_ : depth - 1; }

  /// The tuple order from position `depth` on.
  bool Less(uint32_t a, uint32_t b, size_t depth) const {
    const Row& ra = rows_[a];
    const Row& rb = rows_[b];
    if (depth == 0) {
      if (ra[key_] != rb[key_]) return ra[key_] < rb[key_];
      depth = 1;
    }
    for (size_t c = depth - 1; c < width_; ++c) {
      if (ra[c] != rb[c]) return ra[c] < rb[c];
    }
    return false;
  }

  static int64_t Median3(int64_t a, int64_t b, int64_t c) {
    return std::max(std::min(a, b), std::min(std::max(a, b), c));
  }

  void Sort(uint32_t* ids, size_t n, size_t depth, int budget) {
    while (true) {
      if (n < kCutoff) {
        for (size_t i = 1; i < n; ++i) {
          const uint32_t id = ids[i];
          size_t j = i;
          for (; j > 0 && Less(id, ids[j - 1], depth); --j) ids[j] = ids[j - 1];
          ids[j] = id;
        }
        return;
      }
      if (depth > width_) return;  // every tuple position is equal
      if (budget-- == 0) {
        std::sort(ids, ids + n, [this, depth](uint32_t a, uint32_t b) {
          return Less(a, b, depth);
        });
        return;
      }
      const size_t col = Column(depth);
      const int64_t pivot = Median3(rows_[ids[0]][col], rows_[ids[n / 2]][col],
                                    rows_[ids[n - 1]][col]);
      // Three-way partition: [0, lt) < pivot, [lt, gt) == pivot, [gt, n) >.
      size_t lt = 0, i = 0, gt = n;
      while (i < gt) {
        const int64_t v = rows_[ids[i]][col];
        if (v < pivot) {
          std::swap(ids[lt++], ids[i++]);
        } else if (v > pivot) {
          std::swap(ids[i], ids[--gt]);
        } else {
          ++i;
        }
      }
      // Recurse into the two smaller parts and loop on the largest, so the
      // stack stays O(log n) deep. The equal part moves to the next tuple
      // position with a fresh budget.
      const size_t n_lt = lt, n_eq = gt - lt, n_gt = n - gt;
      if (n_eq >= n_lt && n_eq >= n_gt) {
        Sort(ids, n_lt, depth, budget);
        Sort(ids + gt, n_gt, depth, budget);
        ids += lt;
        n = n_eq;
        ++depth;
        budget = DepthBudget(n);
      } else if (n_lt >= n_gt) {
        Sort(ids + lt, n_eq, depth + 1, DepthBudget(n_eq));
        Sort(ids + gt, n_gt, depth, budget);
        n = n_lt;
      } else {
        Sort(ids, n_lt, depth, budget);
        Sort(ids + lt, n_eq, depth + 1, DepthBudget(n_eq));
        ids += gt;
        n = n_gt;
      }
    }
  }

  const std::vector<Row>& rows_;
  const size_t key_;
  const size_t width_;
};

/// The single base table fed into an inner NLJ subtree (for the
/// matches-per-outer-row bound used in cardinality refinement).
const PlanNode* InnerLeaf(const PlanNode* node) {
  while (node->num_children() > 0) node = node->child(0);
  return node;
}

}  // namespace

void SortRows(std::vector<Row>* rows, size_t key) {
  const size_t n = rows->size();
  RPE_CHECK_LE(n, size_t{UINT32_MAX}) << "too many rows to sort";
  if (n < 2) return;
  std::vector<uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  RowSorter(*rows, key).Sort(perm.data(), n);
  // perm[i] is the row that belongs at position i: follow each cycle once,
  // moving rows (not copying them), and mark placed positions perm[j] = j.
  for (size_t i = 0; i < n; ++i) {
    if (perm[i] == i) continue;
    Row first = std::move((*rows)[i]);
    size_t j = i;
    while (perm[j] != i) {
      const size_t next = perm[j];
      (*rows)[j] = std::move((*rows)[next]);
      perm[j] = static_cast<uint32_t>(j);
      j = next;
    }
    (*rows)[j] = std::move(first);
    perm[j] = static_cast<uint32_t>(j);
  }
}

Operator::Operator(const PlanNode* node, ExecContext* ctx)
    : node_(node),
      ctx_(ctx),
      width_(static_cast<double>(node->output_schema.row_width_bytes())) {}

void Operator::ReOpen() {
  Close();
  Open();
}

bool Operator::Next(Row* out) {
  if (!NextImpl(out)) return false;
  ctx_->OnRowProduced(node_->id, node_->op, width_);
  return true;
}

// --- TableScanOp ------------------------------------------------------------

TableScanOp::TableScanOp(const PlanNode* node, ExecContext* ctx)
    : Operator(node, ctx) {}

void TableScanOp::Open() {
  table_ = *ctx_->catalog().GetTable(node_->table);
  pos_ = 0;
  if (!node_->nlj_inner) {
    // Driver-node input sizes are known exactly at pipeline start (§3.4).
    NodeCounters& c = counters();
    const double n = static_cast<double>(table_->num_rows());
    c.e = n;
    c.lb = std::max(c.lb, 0.0);
    c.ub = n;
  }
}

void TableScanOp::ReOpen() {
  // Rescan (naive nested-loop inner): position resets, counters accumulate.
  // A nested-loop join re-opens its inner subtree lazily, so the first
  // ReOpen may arrive before any Open.
  if (table_ == nullptr) {
    Open();
    return;
  }
  pos_ = 0;
}

bool TableScanOp::NextImpl(Row* out) {
  if (pos_ >= table_->num_rows()) return false;
  *out = table_->row(pos_++);
  ctx_->Charge(width_ * kReadCostPerByte);  // physical read
  return true;
}

// --- IndexScanOp ------------------------------------------------------------

IndexScanOp::IndexScanOp(const PlanNode* node, ExecContext* ctx)
    : Operator(node, ctx) {}

void IndexScanOp::Open() {
  table_ = *ctx_->catalog().GetTable(node_->table);
  index_ = ctx_->catalog().GetIndex(node_->table, node_->index_column);
  RPE_CHECK(index_ != nullptr) << "missing index for IndexScan";
  pos_ = 0;
  if (!node_->nlj_inner) {
    NodeCounters& c = counters();
    const double n = static_cast<double>(index_->num_entries());
    c.e = n;
    c.ub = n;
  }
}

void IndexScanOp::ReOpen() {
  if (index_ == nullptr) {
    Open();
    return;
  }
  pos_ = 0;
}

bool IndexScanOp::NextImpl(Row* out) {
  if (pos_ >= index_->entries().size()) return false;
  *out = table_->row(index_->entries()[pos_++].second);
  ctx_->Charge(width_ * kReadCostPerByte);
  return true;
}

// --- IndexSeekOp ------------------------------------------------------------

IndexSeekOp::IndexSeekOp(const PlanNode* node, ExecContext* ctx)
    : Operator(node, ctx) {
  // Resolved once: a nested-loop join re-opens this operator per outer row.
  table_ = *ctx_->catalog().GetTable(node_->table);
  index_ = ctx_->catalog().GetIndex(node_->table, node_->index_column);
  RPE_CHECK(index_ != nullptr) << "missing index for IndexSeek";
}

void IndexSeekOp::Open() {
  std::tie(pos_, end_) = index_->EqualRange(ctx_->correlated_key());
  ctx_->Charge(kSeekOpenCost);  // B-tree descent
}

void IndexSeekOp::ReOpen() { Open(); }

bool IndexSeekOp::NextImpl(Row* out) {
  if (pos_ == end_) return false;
  *out = table_->row((pos_++)->second);
  ctx_->Charge(width_ * kReadCostPerByte);
  return true;
}

// --- FilterOp ---------------------------------------------------------------

FilterOp::FilterOp(const PlanNode* node, ExecContext* ctx)
    : Operator(node, ctx) {
  child_ = Operator::Create(node->child(0), ctx);
}

void FilterOp::Open() {
  child_->Open();
  // Capture the correlated parameter at open time: a nested-loop join deeper
  // in this subtree may overwrite the context's key while we are draining.
  param_ = ctx_->correlated_key();
}

void FilterOp::ReOpen() {
  child_->ReOpen();
  param_ = ctx_->correlated_key();
}

void FilterOp::Close() { child_->Close(); }

bool FilterOp::NextImpl(Row* out) {
  while (child_->Next(out)) {
    if (node_->pred.Eval(*out, param_)) return true;
  }
  return false;
}

// --- NestedLoopJoinOp -------------------------------------------------------

NestedLoopJoinOp::NestedLoopJoinOp(const PlanNode* node, ExecContext* ctx)
    : Operator(node, ctx) {
  outer_ = Operator::Create(node->child(0), ctx);
  inner_ = Operator::Create(node->child(1), ctx);
}

void NestedLoopJoinOp::Open() {
  outer_->Open();
  have_outer_ = false;
  // Bound on matches per outer row: the size of the inner base table.
  const PlanNode* leaf = InnerLeaf(node_->child(1));
  if (!leaf->table.empty()) {
    auto t = ctx_->catalog().GetTable(leaf->table);
    if (t.ok()) {
      counters().max_join_group = static_cast<double>((*t)->num_rows());
    }
  }
}

void NestedLoopJoinOp::Close() {
  outer_->Close();
  inner_->Close();
}

bool NestedLoopJoinOp::NextImpl(Row* out) {
  while (true) {
    if (!have_outer_) {
      if (!outer_->Next(&outer_row_)) return false;
      ctx_->SetCorrelatedKey(outer_row_[node_->left_key]);
      inner_->ReOpen();
      have_outer_ = true;
    }
    if (inner_->Next(&inner_row_)) {
      ConcatInto(outer_row_, inner_row_, out);
      return true;
    }
    have_outer_ = false;
  }
}

// --- HashJoinOp -------------------------------------------------------------

HashJoinOp::HashJoinOp(const PlanNode* node, ExecContext* ctx)
    : Operator(node, ctx) {
  build_ = Operator::Create(node->child(0), ctx);
  probe_ = Operator::Create(node->child(1), ctx);
}

void HashJoinOp::Open() {
  table_.clear();
  matches_ = nullptr;
  match_pos_ = 0;

  build_->Open();
  const double build_width =
      static_cast<double>(node_->child(0)->output_schema.row_width_bytes());
  const double mem_limit = ctx_->options().memory_limit_bytes;
  double build_bytes = 0.0;
  double spilled_rows = 0.0;
  Row row;
  while (build_->Next(&row)) {
    const int64_t key = row[node_->left_key];
    table_[key].push_back(std::move(row));
    ctx_->Charge(BuildCostPerRow(OpType::kHashJoin));
    build_bytes += build_width;
    if (build_bytes > mem_limit) {
      // Spill: this row's partition goes to (virtual) disk.
      spilled_rows += 1.0;
      ctx_->ChargeWrite(node_->id, build_width);
    }
  }
  if (spilled_rows > 0.0) {
    // Re-read pass over spilled partitions; per §3.1 spills surface as
    // additional GetNext calls at the node.
    NodeCounters& c = counters();
    for (double i = 0.0; i < spilled_rows; i += 1.0) {
      c.k += 1.0;
      ctx_->ChargeRead(node_->id, build_width);
    }
  }
  double max_group = 0.0;
  for (const auto& [key, rows] : table_) {
    max_group = std::max(max_group, static_cast<double>(rows.size()));
  }
  NodeCounters& c = counters();
  c.max_join_group = max_group;
  c.input_done = true;

  probe_->Open();
}

void HashJoinOp::Close() {
  build_->Close();
  probe_->Close();
  table_.clear();
}

bool HashJoinOp::NextImpl(Row* out) {
  while (true) {
    if (matches_ != nullptr && match_pos_ < matches_->size()) {
      ConcatInto((*matches_)[match_pos_++], probe_row_, out);
      return true;
    }
    matches_ = nullptr;
    if (!probe_->Next(&probe_row_)) return false;
    auto it = table_.find(probe_row_[node_->right_key]);
    if (it != table_.end()) {
      matches_ = &it->second;
      match_pos_ = 0;
    }
  }
}

// --- MergeJoinOp ------------------------------------------------------------

MergeJoinOp::MergeJoinOp(const PlanNode* node, ExecContext* ctx)
    : Operator(node, ctx) {
  left_ = Operator::Create(node->child(0), ctx);
  right_ = Operator::Create(node->child(1), ctx);
}

void MergeJoinOp::Open() {
  left_->Open();
  right_->Open();
  have_left_ = AdvanceLeft();
  have_right_ = AdvanceRight();
  right_group_.clear();
  emitting_ = false;
}

void MergeJoinOp::Close() {
  left_->Close();
  right_->Close();
}

bool MergeJoinOp::AdvanceLeft() {
  have_left_ = left_->Next(&left_row_);
  return have_left_;
}

bool MergeJoinOp::AdvanceRight() {
  have_right_ = right_->Next(&right_row_);
  return have_right_;
}

bool MergeJoinOp::NextImpl(Row* out) {
  while (true) {
    if (emitting_) {
      if (group_pos_ < right_group_.size()) {
        ConcatInto(left_row_, right_group_[group_pos_++], out);
        return true;
      }
      emitting_ = false;
      if (!AdvanceLeft()) return false;
      if (left_row_[node_->left_key] == group_key_) {
        group_pos_ = 0;
        emitting_ = true;
        continue;
      }
    }
    if (!have_left_ || !have_right_) return false;
    const int64_t lk = left_row_[node_->left_key];
    const int64_t rk = right_row_[node_->right_key];
    if (lk < rk) {
      if (!AdvanceLeft()) return false;
    } else if (lk > rk) {
      if (!AdvanceRight()) return false;
    } else {
      group_key_ = lk;
      right_group_.clear();
      while (have_right_ && right_row_[node_->right_key] == group_key_) {
        right_group_.push_back(right_row_);
        AdvanceRight();
      }
      group_pos_ = 0;
      emitting_ = true;
    }
  }
}

// --- SortOp -----------------------------------------------------------------

SortOp::SortOp(const PlanNode* node, ExecContext* ctx) : Operator(node, ctx) {
  child_ = Operator::Create(node->child(0), ctx);
}

void SortOp::Open() {
  rows_.clear();
  pos_ = 0;
  child_->Open();
  const double mem_limit = ctx_->options().memory_limit_bytes;
  double buffered_bytes = 0.0;
  Row row;
  while (child_->Next(&row)) {
    rows_.push_back(std::move(row));
    ctx_->Charge(BuildCostPerRow(OpType::kSort));
    buffered_bytes += width_;
    if (buffered_bytes > mem_limit) {
      // External sort: run written to (virtual) disk.
      ctx_->ChargeWrite(node_->id, width_);
    }
  }
  SortRows(&rows_, node_->sort_key);
  // Comparison work, charged in chunks so the observation sampler can see
  // time passing during long sorts.
  const double n = static_cast<double>(rows_.size());
  const double sort_cpu = 0.3 * n * std::log2(n + 2.0);
  const int chunks = 32;
  for (int i = 0; i < chunks; ++i) ctx_->Charge(sort_cpu / chunks);
  NodeCounters& c = counters();
  c.input_done = true;
  c.e = n;
  c.ub = n;
}

void SortOp::Close() {
  child_->Close();
  rows_.clear();
}

bool SortOp::NextImpl(Row* out) {
  if (pos_ >= rows_.size()) return false;
  *out = rows_[pos_++];
  return true;
}

// --- BatchSortOp ------------------------------------------------------------

BatchSortOp::BatchSortOp(const PlanNode* node, ExecContext* ctx)
    : Operator(node, ctx) {
  child_ = Operator::Create(node->child(0), ctx);
}

void BatchSortOp::Open() {
  child_->Open();
  batch_.clear();
  pos_ = 0;
  child_done_ = false;
}

void BatchSortOp::ReOpen() {
  child_->ReOpen();
  batch_.clear();
  pos_ = 0;
  child_done_ = false;
}

void BatchSortOp::Close() {
  child_->Close();
  batch_.clear();
}

bool BatchSortOp::Refill() {
  batch_.clear();
  pos_ = 0;
  if (child_done_) return false;
  Row row;
  while (batch_.size() < node_->batch_size) {
    if (!child_->Next(&row)) {
      child_done_ = true;
      break;
    }
    batch_.push_back(std::move(row));
    ctx_->Charge(BuildCostPerRow(OpType::kBatchSort));
  }
  if (batch_.empty()) return false;
  SortRows(&batch_, node_->sort_key);
  return true;
}

bool BatchSortOp::NextImpl(Row* out) {
  if (pos_ >= batch_.size()) {
    if (!Refill()) return false;
  }
  *out = batch_[pos_++];
  return true;
}

// --- HashAggregateOp --------------------------------------------------------

HashAggregateOp::HashAggregateOp(const PlanNode* node, ExecContext* ctx)
    : Operator(node, ctx) {
  child_ = Operator::Create(node->child(0), ctx);
}

void HashAggregateOp::Open() {
  groups_.clear();
  pos_ = 0;
  child_->Open();
  // Ordered map for deterministic emission order across platforms.
  std::map<std::vector<int64_t>, int64_t> agg;
  Row row;
  std::vector<int64_t> key(node_->group_cols.size());
  while (child_->Next(&row)) {
    for (size_t i = 0; i < node_->group_cols.size(); ++i) {
      key[i] = row[node_->group_cols[i]];
    }
    agg[key] += 1;
    ctx_->Charge(BuildCostPerRow(OpType::kHashAggregate));
  }
  groups_.reserve(agg.size());
  for (const auto& [k, count] : agg) {
    Row g = k;
    g.push_back(count);
    groups_.push_back(std::move(g));
  }
  NodeCounters& c = counters();
  c.input_done = true;
  c.e = static_cast<double>(groups_.size());
  c.ub = c.e;
}

void HashAggregateOp::Close() {
  child_->Close();
  groups_.clear();
}

bool HashAggregateOp::NextImpl(Row* out) {
  if (pos_ >= groups_.size()) return false;
  *out = groups_[pos_++];
  return true;
}

// --- StreamAggregateOp ------------------------------------------------------

StreamAggregateOp::StreamAggregateOp(const PlanNode* node, ExecContext* ctx)
    : Operator(node, ctx) {
  child_ = Operator::Create(node->child(0), ctx);
}

void StreamAggregateOp::Open() {
  child_->Open();
  have_pending_ = false;
}

void StreamAggregateOp::ReOpen() {
  child_->ReOpen();
  have_pending_ = false;
}

void StreamAggregateOp::Close() { child_->Close(); }

bool StreamAggregateOp::NextImpl(Row* out) {
  if (!have_pending_) {
    if (!child_->Next(&pending_)) return false;
    have_pending_ = true;
  }
  const std::vector<size_t>& cols = node_->group_cols;
  auto same_group = [&](const Row& r) {
    for (size_t c : cols) {
      if (r[c] != pending_[c]) return false;
    }
    return true;
  };
  int64_t count = 1;
  bool more = false;
  while ((more = child_->Next(&next_))) {
    ctx_->Charge(0.4);  // per-input aggregation work
    if (!same_group(next_)) break;
    ++count;
  }
  out->clear();
  out->reserve(cols.size() + 1);
  for (size_t c : cols) out->push_back(pending_[c]);
  out->push_back(count);
  if (more) {
    std::swap(pending_, next_);
  } else {
    have_pending_ = false;
  }
  return true;
}

// --- TopOp ------------------------------------------------------------------

TopOp::TopOp(const PlanNode* node, ExecContext* ctx) : Operator(node, ctx) {
  child_ = Operator::Create(node->child(0), ctx);
}

void TopOp::Open() {
  child_->Open();
  emitted_ = 0;
}

void TopOp::ReOpen() {
  child_->ReOpen();
  emitted_ = 0;
}

void TopOp::Close() { child_->Close(); }

bool TopOp::NextImpl(Row* out) {
  if (emitted_ >= node_->limit) return false;
  if (!child_->Next(out)) return false;
  ++emitted_;
  return true;
}

// --- Factory ----------------------------------------------------------------

std::unique_ptr<Operator> Operator::Create(const PlanNode* node,
                                           ExecContext* ctx) {
  switch (node->op) {
    case OpType::kTableScan: return std::make_unique<TableScanOp>(node, ctx);
    case OpType::kIndexScan: return std::make_unique<IndexScanOp>(node, ctx);
    case OpType::kIndexSeek: return std::make_unique<IndexSeekOp>(node, ctx);
    case OpType::kFilter: return std::make_unique<FilterOp>(node, ctx);
    case OpType::kNestedLoopJoin:
      return std::make_unique<NestedLoopJoinOp>(node, ctx);
    case OpType::kHashJoin: return std::make_unique<HashJoinOp>(node, ctx);
    case OpType::kMergeJoin: return std::make_unique<MergeJoinOp>(node, ctx);
    case OpType::kSort: return std::make_unique<SortOp>(node, ctx);
    case OpType::kBatchSort: return std::make_unique<BatchSortOp>(node, ctx);
    case OpType::kHashAggregate:
      return std::make_unique<HashAggregateOp>(node, ctx);
    case OpType::kStreamAggregate:
      return std::make_unique<StreamAggregateOp>(node, ctx);
    case OpType::kTop: return std::make_unique<TopOp>(node, ctx);
  }
  RPE_CHECK(false) << "unknown operator";
  return nullptr;
}

}  // namespace rpe
