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
// monotonic model generation, and the TrainerLoop counts its retrains
// into the publisher's metrics registry, next to the replay counters, so
// one scrape describes the whole observe → record → retrain → publish
// cycle.
//
// Counters: the registry is the only store. Opens, completions,
// decisions, observations and scoring time are obs::Counters, and every
// completed session's replay latency lands in one histogram; there is no
// stats lock on the scoring path.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "selection/monitor.h"
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

  /// The registry the publisher's serving counters live in; the
  /// TrainerLoop registers its retrain counters here too.
  virtual obs::MetricsRegistry& metrics() = 0;
};

/// \brief The serving tier's counter cells in one MetricsRegistry.
/// GetCounter is find-or-create, so every object that builds a
/// ServiceMetrics over the same registry — each shard, the router's
/// collector, the TcpServer's kStats handler — resolves the same cells.
struct ServiceMetrics {
  explicit ServiceMetrics(obs::MetricsRegistry* registry);

  obs::Counter* sessions_opened;
  obs::Counter* sessions_completed;  ///< fully replayed, then closed
  obs::Counter* decisions;  ///< estimator selections (initial + revised)
  obs::Counter* observations_scored;
  /// Scoring time accrued at every open and Advance step — the
  /// denominator of the per-scoring-second rates.
  obs::Counter* scoring_ns;
  /// Full-replay latency of every completed session, in nanoseconds.
  obs::Histogram* replay_latency;

  /// Replay-latency quantile (q in [0,1]) in milliseconds, cumulative
  /// since construction, within the histogram's bucket error.
  double ReplayLatencyMs(double q) const;

  /// The derived samples of a scrape: the model generation, replay
  /// latency p50/p95, the two per-scoring-second rates and the scoring
  /// time in seconds.
  void AppendDerived(uint64_t model_generation,
                     std::vector<obs::Sample>* out) const;
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

  /// A standalone service counts into a registry of its own.
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
  /// The registry this service counts into (a shard's is the router's).
  obs::MetricsRegistry& metrics() override { return *registry_; }

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

  /// Close the session; a fully replayed one counts as completed and its
  /// replay latency enters the histogram.
  Status CloseSession(SessionId id);

  size_t num_open_sessions() const;

 private:
  struct Session {
    std::shared_ptr<const SelectorStack> pinned;  ///< keeps monitor valid
    ProgressMonitor monitor;
    const QueryRunResult* run = nullptr;
    std::vector<ProgressMonitor::PipelineDecision> decisions;
    size_t next_obs = 0;
    double last_progress = 0.0;
    uint64_t elapsed_ns = 0;  ///< cumulative scoring time
    /// Serializes Advance on the same session; distinct sessions never
    /// contend.
    mutable std::mutex mu;
    Session(std::shared_ptr<const SelectorStack> stack,
            const QueryRunResult* r, double marker_pct);
  };

  friend class ShardedMonitorService;
  /// Shard constructor: counts into the router's `registry`.
  MonitorService(std::shared_ptr<const SelectorStack> models,
                 Options options, obs::MetricsRegistry* registry);

  Result<std::shared_ptr<Session>> Find(SessionId id) const;

  const Options options_;
  std::unique_ptr<obs::MetricsRegistry> own_registry_;  ///< null on shards
  obs::MetricsRegistry* const registry_;
  const ServiceMetrics metrics_;

  mutable std::mutex models_mu_;
  std::shared_ptr<const SelectorStack> models_;
  uint64_t model_generation_ = 0;

  mutable std::mutex sessions_mu_;
  SessionId next_id_ = 1;
  std::unordered_map<SessionId, std::shared_ptr<Session>> sessions_;
};

}  // namespace rpe
