// RecordIngestQueue: the observe→record tap of the online-learning loop
// (paper §6.4, "training data can be captured at low overhead in a running
// system"). Producers are running executors / workload drivers that push
// each completed, featurized PipelineRecord; the single consumer is the
// background TrainerLoop, which drains records in batches and folds them
// into the sliding training corpus.
//
// Shape: bounded multi-producer/single-consumer queue, mutex + condvar
// with batched drain. Push never blocks — when the queue is full the
// record is dropped and counted, so ingest can never apply backpressure
// to query execution (losing a training example is cheap; stalling a
// query is not). The drop counter is exact: every record offered is
// accounted as either pushed or dropped, and pushed == drained once the
// consumer has caught up.
//
// Threading contract: all methods are thread-safe. Push may be called
// from any number of threads; DrainBatch/WaitAndDrain are intended for a
// single consumer (multiple consumers are safe but split the stream).
// Close() wakes blocked consumers; records offered after Close are
// counted as dropped.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "selection/record.h"

namespace rpe {

/// \brief Point-in-time read of the online-learning loop's counters
/// (TrainerLoop::GetStats). The queue fills the queue-side fields from its
/// own counters; the retraining fields are read from the TrainerLoop's
/// registry cells.
struct IngestStats {
  uint64_t pushed = 0;   ///< records accepted into the queue
  uint64_t dropped = 0;  ///< records rejected (queue full or closed)
  uint64_t drained = 0;  ///< records handed to the consumer
  uint64_t batches = 0;  ///< drain calls that returned at least one record
  uint64_t retrains = 0;  ///< completed retrain + publish cycles
  /// MonitorService model generation of the most recent publish (0 =
  /// nothing published yet).
  uint64_t last_swap_generation = 0;
  /// Retrain cycles that failed before anything was published; the loop
  /// quarantines (exponential backoff) and keeps serving the previous
  /// generation.
  uint64_t retrain_failures = 0;
  /// Successful retrain + publish cycles that ended a failure streak —
  /// the loop healed without intervention.
  uint64_t retrain_recoveries = 0;
  /// Failed .rpsn writes of retrained stacks after every retry was
  /// exhausted (publish still proceeded — a lost snapshot file never
  /// blocks serving fresh models).
  uint64_t snapshot_write_failures = 0;
  /// Snapshot-write retry attempts (beyond each first try) that the
  /// bounded exponential backoff consumed.
  uint64_t snapshot_write_retries = 0;
  /// Publishes abandoned after every retry was exhausted: the retrained
  /// stack is dropped, the previous generation keeps serving, and the
  /// pending-record counters stay set so a later cycle retries.
  uint64_t publish_failures = 0;
  /// Publish retry attempts (beyond each first try).
  uint64_t publish_retries = 0;
  size_t queue_size = 0;   ///< records currently queued
  size_t corpus_size = 0;  ///< records in the sliding training corpus
  double last_retrain_ms = 0.0;  ///< wall time of the most recent retrain
};

/// \brief Bounded MPSC queue of completed pipeline records. See the file
/// comment for the threading contract.
class RecordIngestQueue {
 public:
  explicit RecordIngestQueue(size_t capacity);

  /// Offer one record. Returns true if accepted; false (and counts the
  /// record as dropped) when the queue is full or closed. Never blocks.
  bool Push(PipelineRecord record);

  /// Pop up to `max_records` records (FIFO) into `*out` (appended).
  /// Returns the number drained; never blocks.
  size_t DrainBatch(std::vector<PipelineRecord>* out, size_t max_records);

  /// Like DrainBatch, but blocks until at least one record is available,
  /// the queue is closed, or `timeout` elapses.
  size_t WaitAndDrain(std::vector<PipelineRecord>* out, size_t max_records,
                      std::chrono::milliseconds timeout);

  /// Reject future pushes and wake blocked consumers. Records already
  /// queued remain drainable.
  void Close();
  bool closed() const;

  size_t size() const;
  size_t capacity() const { return capacity_; }
  uint64_t pushed() const;
  uint64_t dropped() const;

  /// Queue-side counters (retraining fields are zero; the TrainerLoop
  /// merges its own on top).
  IngestStats GetStats() const;

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<PipelineRecord> queue_;
  bool closed_ = false;
  uint64_t pushed_ = 0;
  uint64_t dropped_ = 0;
  uint64_t drained_ = 0;
  uint64_t batches_ = 0;
};

}  // namespace rpe
