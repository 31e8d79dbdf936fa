// Scrape-time exporters bridging subsystems that own their own exact
// counters (ShardedMonitorService, TrainerLoop via the ingest-stats
// provider, the failpoint registry, the SIMD dispatch facade, the
// tracer) into a MetricsRegistry. Nothing here touches a hot path: each
// Register* call installs a collector that reads the subsystem's stats
// only when someone scrapes (/metrics, kMetricsDump, or the exit-time
// CLI table). The Sample table labels emitted here are the exact row
// labels the serve-tcp stats table has always printed — scripts that
// parse those rows (scripts/server_smoke_test.sh,
// scripts/cli_exit_test.sh) keep working against the registry-driven
// formatter. Metric names are catalogued in docs/OBSERVABILITY.md.
#pragma once

#include "obs/metrics.h"
#include "serving/shard_router.h"

namespace rpe {

/// Append the service + ingest/trainer samples derived from one stats
/// snapshot (the service rows of the serve-tcp exit table). Exposed
/// separately from the collector so callers with an already-taken
/// snapshot can reuse it.
void AppendServiceSamples(const ShardedMonitorService::Stats& stats,
                          std::vector<obs::Sample>* out);

/// Collector over `service->GetStats()` plus per-shard open-session
/// gauges. `service` must outlive the registration (remove with
/// MetricsRegistry::RemoveCollector otherwise).
int RegisterServiceCollector(obs::MetricsRegistry* registry,
                             ShardedMonitorService* service);

/// Collector exporting every armed failpoint's hit/trip counters as
/// rpe_failpoint_hits_total / rpe_failpoint_trips_total{name="..."}.
int RegisterFailPointCollector(obs::MetricsRegistry* registry);

/// Collector exporting the active SIMD tier as an info-style gauge
/// rpe_simd_tier_info{tier="..."} 1.
int RegisterSimdCollector(obs::MetricsRegistry* registry);

/// Collector exporting the tracer's own counters (spans recorded, slow
/// requests over the --slow-ms threshold).
int RegisterTracerCollector(obs::MetricsRegistry* registry);

}  // namespace rpe
