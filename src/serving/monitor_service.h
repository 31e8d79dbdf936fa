// MonitorService: the concurrent serving front of the deployed architecture
// (paper Figure 3). Many queries are monitored at once; each open session
// replays one recorded run through the online select-then-revise protocol
// of ProgressMonitor, one observation per Advance call. Callers on any
// number of threads may drive distinct sessions concurrently.
//
// Model ownership is an immutable-snapshot hot swap: the service holds a
// std::shared_ptr<const SelectorStack>, every session pins the snapshot
// that was current when it opened, and SwapModels atomically publishes a
// new stack for future sessions without stopping in-flight traffic —
// nothing is ever mutated after publication, so no scoring path takes a
// lock.
//
// Replay is deterministic: each session advances through the same
// QueryProgressAt evaluations as the sequential
// ProgressMonitor::ReplayQueryProgress, and every session writes only its
// own state, so the progress series is bit-identical at any thread count.
//
// The service is also the publish point of the online-learning loop
// (serving/ingest.h + serving/trainer_loop.h): SwapModels carries a
// monotonic model generation, and GetStats can surface the trainer's
// IngestStats next to the replay counters so one call describes the whole
// observe → record → retrain → publish cycle.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "selection/monitor.h"
#include "serving/ingest.h"
#include "serving/snapshot.h"

namespace rpe {

/// \brief Publish target of the online-learning loop: anything that can
/// atomically swap in a new immutable model snapshot. MonitorService and
/// ShardedMonitorService (serving/shard_router.h) implement it; the
/// TrainerLoop publishes through it so retraining is agnostic to whether
/// the serving tier is sharded.
class ModelPublisher {
 public:
  virtual ~ModelPublisher() = default;

  /// Atomically publish a new snapshot; returns the new model generation
  /// (strictly increasing, construction-time snapshot = generation 0).
  virtual uint64_t SwapModels(
      std::shared_ptr<const SelectorStack> models) = 0;
};

/// \brief Concurrent progress-monitoring service over immutable model
/// snapshots. All public methods are thread-safe.
class MonitorService : public ModelPublisher {
 public:
  struct Options {
    /// Driver-consumption marker at which choices are revised (§4.4).
    double revision_marker_pct = 20.0;
  };

  using SessionId = uint64_t;

  explicit MonitorService(std::shared_ptr<const SelectorStack> models);
  MonitorService(std::shared_ptr<const SelectorStack> models,
                 Options options);

  /// Atomically publish a new model snapshot. Sessions opened before the
  /// swap keep scoring against the snapshot they pinned at open; only new
  /// sessions see the replacement. Returns the new model generation
  /// (strictly increasing; the construction-time snapshot is generation 0).
  uint64_t SwapModels(std::shared_ptr<const SelectorStack> models) override;
  std::shared_ptr<const SelectorStack> models() const;
  /// Generation of the currently published snapshot (number of swaps).
  uint64_t model_generation() const;

  /// Open a monitoring session over a recorded run. The per-pipeline
  /// estimator decisions (initial + revision) are made here, against the
  /// current snapshot — per-observation Advance work replays against
  /// these precomputed decisions and never scores a selector. `run` must
  /// outlive the session.
  Result<SessionId> OpenSession(const QueryRunResult* run);

  /// Advance the session by one observation tick; returns the query
  /// progress reported at the new observation. OutOfRange once the run's
  /// observation stream is exhausted.
  Result<double> Advance(SessionId id);

  /// Last reported progress (0 before the first Advance).
  Result<double> Progress(SessionId id) const;

  /// True once every observation of the session's run has been scored.
  Result<bool> Done(SessionId id) const;

  /// Close the session; its replay latency enters the aggregate stats.
  Status CloseSession(SessionId id);

  size_t num_open_sessions() const;

  /// \brief Aggregate serving statistics since construction.
  struct Stats {
    size_t sessions_opened = 0;
    size_t sessions_completed = 0;  ///< fully replayed, then closed
    uint64_t decisions = 0;  ///< estimator selections (initial + revised)
    uint64_t observations_scored = 0;
    /// Per-session full-replay latency percentiles over a sliding window
    /// of the most recent completions (the service is long-running; the
    /// window keeps stats memory bounded).
    double p50_replay_ms = 0.0;
    double p95_replay_ms = 0.0;
    double decisions_per_sec = 0.0;  ///< over cumulative scoring time
    double observations_per_sec = 0.0;
    /// Cumulative scoring time in seconds — the denominator of the rates,
    /// exposed so an aggregator (ShardedMonitorService) can recompute
    /// exact pooled rates from summed counters and times.
    double scoring_time_sec = 0.0;
    /// Generation of the published model snapshot (see SwapModels).
    uint64_t model_generation = 0;
    /// Online-learning counters (zeros unless a provider is registered
    /// via SetIngestStatsProvider).
    IngestStats ingest;
  };
  /// When `latency_samples` is non-null it receives a copy of the bounded
  /// replay-latency reservoir behind p50/p95 (most recent kLatencyWindow
  /// completions, unordered), taken under the same lock hold as the
  /// counters — one consistent snapshot. A shard aggregator merges these
  /// across shards so pooled percentiles are computed over the union of
  /// samples instead of averaging per-shard percentiles.
  Stats GetStats(std::vector<double>* latency_samples = nullptr) const;

  /// Register the source of Stats::ingest (typically
  /// TrainerLoop::GetStats). The provider is called outside the service's
  /// locks on every GetStats; pass nullptr to unregister. It must stay
  /// callable until unregistered or the service is destroyed.
  void SetIngestStatsProvider(std::function<IngestStats()> provider);

 private:
  struct Session {
    std::shared_ptr<const SelectorStack> pinned;  ///< keeps monitor valid
    ProgressMonitor monitor;
    const QueryRunResult* run = nullptr;
    std::vector<ProgressMonitor::PipelineDecision> decisions;
    size_t next_obs = 0;
    double last_progress = 0.0;
    double elapsed_sec = 0.0;  ///< cumulative scoring time
    /// Serializes Advance on the same session; distinct sessions never
    /// contend.
    mutable std::mutex mu;
    Session(std::shared_ptr<const SelectorStack> stack,
            const QueryRunResult* r, double marker_pct);
  };

  Result<std::shared_ptr<Session>> Find(SessionId id) const;
  void RecordCompletion(const Session& s);
  /// Caller holds stats_mu_.
  void PushLatencyLocked(double latency_ms);

  const Options options_;

  mutable std::mutex models_mu_;
  std::shared_ptr<const SelectorStack> models_;
  uint64_t model_generation_ = 0;

  mutable std::mutex sessions_mu_;
  SessionId next_id_ = 1;
  std::unordered_map<SessionId, std::shared_ptr<Session>> sessions_;

  mutable std::mutex ingest_mu_;
  std::function<IngestStats()> ingest_provider_;

  mutable std::mutex stats_mu_;
  size_t sessions_opened_ = 0;
  size_t sessions_completed_ = 0;
  uint64_t decisions_ = 0;
  uint64_t observations_scored_ = 0;
  /// Cumulative scoring time, accrued live (session open and every
  /// Advance step) — the rate denominator.
  double scoring_time_sec_ = 0.0;
  /// Bounded ring of recent per-session replay latencies (see Stats).
  static constexpr size_t kLatencyWindow = 4096;
  std::vector<double> replay_latency_ms_;
  size_t latency_next_ = 0;
};

}  // namespace rpe
