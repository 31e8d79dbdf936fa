// Volcano-style physical operators. Every produced row updates the node's
// GetNext counter K_i, its logical bytes, and the virtual clock; blocking
// phases (sort build, hash build, aggregation) charge build costs and may
// spill when the memory budget is exceeded (spills charge extra bytes
// written/read and extra GetNext calls, per paper §3.1).
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "exec/exec_context.h"
#include "exec/plan.h"
#include "storage/index.h"
#include "storage/table.h"

namespace rpe {

/// \brief Base class of all physical operators.
class Operator {
 public:
  virtual ~Operator() = default;

  /// Prepare for execution; blocking operators consume their input here.
  virtual void Open() = 0;
  /// Re-execute with the current correlated parameter (nested iteration).
  /// Default: Close + Open.
  virtual void ReOpen();
  /// Produce the next row into `*out`, reusing its storage; false on end of
  /// stream, after which `*out` is unspecified. Wraps NextImpl with the
  /// counter/clock bookkeeping.
  bool Next(Row* out);
  virtual void Close() {}

  const PlanNode* node() const { return node_; }

  /// Build an operator tree for a resolved plan.
  static std::unique_ptr<Operator> Create(const PlanNode* node,
                                          ExecContext* ctx);

 protected:
  Operator(const PlanNode* node, ExecContext* ctx);

  virtual bool NextImpl(Row* out) = 0;

  NodeCounters& counters() { return ctx_->counters(node_->id); }

  const PlanNode* node_;
  ExecContext* ctx_;
  double width_;  ///< output row width in bytes
};

// ---------------------------------------------------------------------------
// Scans
// ---------------------------------------------------------------------------

/// Heap scan over a base table in insertion order.
class TableScanOp : public Operator {
 public:
  TableScanOp(const PlanNode* node, ExecContext* ctx);
  void Open() override;
  void ReOpen() override;

 protected:
  bool NextImpl(Row* out) override;

 private:
  const Table* table_ = nullptr;
  uint64_t pos_ = 0;
};

/// Full scan in index-key order.
class IndexScanOp : public Operator {
 public:
  IndexScanOp(const PlanNode* node, ExecContext* ctx);
  void Open() override;
  void ReOpen() override;

 protected:
  bool NextImpl(Row* out) override;

 private:
  const Table* table_ = nullptr;
  const SortedIndex* index_ = nullptr;
  size_t pos_ = 0;
};

/// Parameterized equality lookup: reads the correlated key from the context
/// at (Re)Open and emits matching rows. Always the inner side of a NLJ.
class IndexSeekOp : public Operator {
 public:
  IndexSeekOp(const PlanNode* node, ExecContext* ctx);
  void Open() override;
  void ReOpen() override;

 protected:
  bool NextImpl(Row* out) override;

 private:
  const Table* table_ = nullptr;
  const SortedIndex* index_ = nullptr;
  SortedIndex::EntryIter pos_, end_;  ///< the current key's matches
};

// ---------------------------------------------------------------------------
// Filters
// ---------------------------------------------------------------------------

class FilterOp : public Operator {
 public:
  FilterOp(const PlanNode* node, ExecContext* ctx);
  void Open() override;
  void ReOpen() override;
  void Close() override;

 protected:
  bool NextImpl(Row* out) override;

 private:
  std::unique_ptr<Operator> child_;
  int64_t param_ = 0;  ///< correlated key captured at (re)open
};

// ---------------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------------

/// Tuple-at-a-time nested-loop join; re-opens the inner subtree per outer
/// row with the outer key as correlated parameter.
class NestedLoopJoinOp : public Operator {
 public:
  NestedLoopJoinOp(const PlanNode* node, ExecContext* ctx);
  void Open() override;
  void Close() override;

 protected:
  bool NextImpl(Row* out) override;

 private:
  std::unique_ptr<Operator> outer_;
  std::unique_ptr<Operator> inner_;
  Row outer_row_, inner_row_;
  bool have_outer_ = false;
};

/// Hash join: blocking build of child(0), streaming probe of child(1).
/// Builds exceeding the memory budget spill (extra W/R bytes and extra
/// GetNext calls during the re-read pass).
class HashJoinOp : public Operator {
 public:
  HashJoinOp(const PlanNode* node, ExecContext* ctx);
  void Open() override;
  void Close() override;

 protected:
  bool NextImpl(Row* out) override;

 private:
  std::unique_ptr<Operator> build_;
  std::unique_ptr<Operator> probe_;
  std::unordered_map<int64_t, std::vector<Row>> table_;
  Row probe_row_;
  const std::vector<Row>* matches_ = nullptr;
  size_t match_pos_ = 0;
};

/// Merge join over inputs sorted on the join keys (many-to-many).
class MergeJoinOp : public Operator {
 public:
  MergeJoinOp(const PlanNode* node, ExecContext* ctx);
  void Open() override;
  void Close() override;

 protected:
  bool NextImpl(Row* out) override;

 private:
  bool AdvanceLeft();
  bool AdvanceRight();

  std::unique_ptr<Operator> left_;
  std::unique_ptr<Operator> right_;
  Row left_row_, right_row_;
  bool have_left_ = false, have_right_ = false;
  std::vector<Row> right_group_;
  int64_t group_key_ = 0;
  size_t group_pos_ = 0;
  bool emitting_ = false;
};

// ---------------------------------------------------------------------------
// Sorts
// ---------------------------------------------------------------------------

/// Sort `rows` (all of one width) into the executor's sort order: by
/// row[key], then by the full row, lexicographically. This is a total order
/// on row contents, so the output depends only on the input multiset. A
/// three-way multikey quicksort (Bentley & Sedgewick) over a row-id
/// permutation, applied in place afterwards: rows that tie on a column are
/// partitioned once and never compared on it again, which matters for join
/// rows that share long equal prefixes. Falls back to std::sort when a
/// partition runs out of its 2 log2 n depth budget.
void SortRows(std::vector<Row>* rows, size_t key);

/// Fully blocking sort; spills to (virtual) disk when the buffer exceeds the
/// memory budget.
class SortOp : public Operator {
 public:
  SortOp(const PlanNode* node, ExecContext* ctx);
  void Open() override;
  void Close() override;

 protected:
  bool NextImpl(Row* out) override;

 private:
  std::unique_ptr<Operator> child_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
};

/// Partial batch sort (§5.1): sorts fixed-size batches of its input to
/// localize inner-side references of a nested iteration. Partially blocking:
/// consumes up to batch_size rows ahead of what it has emitted.
class BatchSortOp : public Operator {
 public:
  BatchSortOp(const PlanNode* node, ExecContext* ctx);
  void Open() override;
  void ReOpen() override;
  void Close() override;

 protected:
  bool NextImpl(Row* out) override;

 private:
  bool Refill();

  std::unique_ptr<Operator> child_;
  std::vector<Row> batch_;
  size_t pos_ = 0;
  bool child_done_ = false;
};

// ---------------------------------------------------------------------------
// Aggregates / Top
// ---------------------------------------------------------------------------

/// Blocking hash aggregation: group-by columns + COUNT(*).
class HashAggregateOp : public Operator {
 public:
  HashAggregateOp(const PlanNode* node, ExecContext* ctx);
  void Open() override;
  void Close() override;

 protected:
  bool NextImpl(Row* out) override;

 private:
  std::unique_ptr<Operator> child_;
  std::vector<Row> groups_;  // materialized (group cols..., count)
  size_t pos_ = 0;
};

/// Streaming aggregation over input sorted by the group columns.
class StreamAggregateOp : public Operator {
 public:
  StreamAggregateOp(const PlanNode* node, ExecContext* ctx);
  void Open() override;
  void ReOpen() override;
  void Close() override;

 protected:
  bool NextImpl(Row* out) override;

 private:
  std::unique_ptr<Operator> child_;
  Row pending_, next_;
  bool have_pending_ = false;
};

/// Emits the first `limit` input rows.
class TopOp : public Operator {
 public:
  TopOp(const PlanNode* node, ExecContext* ctx);
  void Open() override;
  void ReOpen() override;
  void Close() override;

 protected:
  bool NextImpl(Row* out) override;

 private:
  std::unique_ptr<Operator> child_;
  uint64_t emitted_ = 0;
};

}  // namespace rpe
