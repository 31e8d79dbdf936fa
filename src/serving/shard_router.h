// ShardedMonitorService: the scale-out front of the serving tier. One
// mutex-guarded session map is fine for hundreds of concurrent queries;
// at tens of thousands of open sessions every OpenSession/Advance/Close
// serializes on the same two locks. The router hash-partitions sessions
// across N fully independent MonitorService shards — each with its own
// session map and locks — so unrelated sessions never contend and the
// data-path cost of routing is two arithmetic ops on the session id.
//
// Routing: OpenSession picks a shard by hashing a monotone open ticket
// (splitmix64 — uniform spread without coordination) and returns a global
// id that encodes the shard: global = local * num_shards + shard. Every
// later call derives the shard from the id alone; there is no central
// session table.
//
// Publish: SwapModels fans out to every shard under one router lock, so a
// publish is observed by all shards as one generation step — after any
// SwapModels returns, every shard reports the same generation. The router
// is the TrainerLoop's ModelPublisher, so the online-learning loop drives
// all shards with one call.
//
// Counters: the router owns the process's MetricsRegistry (metrics()).
// Every shard increments the same registry counters and records into the
// same replay-latency histogram — obs::Counter and obs::Histogram are
// already sharded per thread, so shards never contend on them and a
// scrape needs no merge. The router registers one collector for the
// values that are derived rather than counted (generation, p50/p95, the
// per-scoring-second rates, per-shard open sessions); the TcpServer and
// the TrainerLoop register their counters into the same registry.
//
// Driving sessions: the router has no scheduler of its own. Callers (the
// TCP front-end's IO threads, tests, benches) step each session with
// Advance from whatever thread owns it.
//
// Determinism: shards only partition sessions; each session's replay is
// the same deterministic observation walk MonitorService performs, so a
// sharded replay is bit-identical to an unsharded one at any shard count
// and any number of driving threads.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "serving/monitor_service.h"

namespace rpe {

/// \brief Hash-partitioned MonitorService pool behind one service
/// interface. All public methods are thread-safe.
class ShardedMonitorService : public ModelPublisher {
 public:
  struct Options {
    /// Number of independent shards; must be >= 1. Powers of two give the
    /// cheapest routing but any count works.
    size_t num_shards = 4;
    /// Driver-consumption marker at which choices are revised (§4.4).
    double revision_marker_pct = 20.0;
  };

  using SessionId = MonitorService::SessionId;

  ShardedMonitorService(std::shared_ptr<const SelectorStack> models,
                        Options options);

  size_t num_shards() const { return shards_.size(); }

  /// Fan the publish out to every shard in one generation step (see file
  /// comment). Returns the new generation, identical on every shard.
  uint64_t SwapModels(std::shared_ptr<const SelectorStack> models) override;
  /// Generation every shard has observed (the min across shards — i.e.
  /// "published everywhere").
  uint64_t model_generation() const;
  /// The registry every shard, the front-end and the trainer count into.
  obs::MetricsRegistry& metrics() override { return registry_; }

  /// Session API, routed by id; semantics identical to MonitorService.
  Result<SessionId> OpenSession(const QueryRunResult* run);
  /// Open on an explicit shard instead of the hashed ticket. The TCP
  /// front-end (serving/server.h) pins each connection to one IO thread
  /// and opens that connection's sessions on the aligned shard, so every
  /// later Advance/Progress/Close from the connection touches only locks
  /// its own IO thread already owns. The returned id routes through the
  /// normal Advance/Progress/Close/Done calls.
  Result<SessionId> OpenSessionOnShard(const QueryRunResult* run,
                                       size_t shard);
  Result<double> Advance(SessionId id);
  Result<double> Progress(SessionId id) const;
  Result<bool> Done(SessionId id) const;
  Status CloseSession(SessionId id);
  size_t num_open_sessions() const;  ///< sum over shards

  /// Direct shard access for tests/benches (shards are owned; do not swap
  /// models through a shard directly or the one-step generation invariant
  /// breaks).
  MonitorService& shard(size_t i) { return *shards_[i]; }

 private:
  size_t ShardOf(SessionId id) const { return id % shards_.size(); }
  SessionId LocalId(SessionId id) const { return id / shards_.size(); }

  /// Declared first: the shards hold pointers to its cells.
  obs::MetricsRegistry registry_;
  const ServiceMetrics metrics_{&registry_};
  std::vector<std::unique_ptr<MonitorService>> shards_;

  /// Monotone open ticket; hashed to pick the shard of a new session.
  std::atomic<uint64_t> open_ticket_{0};

  /// Serializes SwapModels fan-outs so a publish lands on every shard as
  /// one step and generations advance in lockstep.
  mutable std::mutex swap_mu_;
};

}  // namespace rpe
