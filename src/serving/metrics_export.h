// Scrape-time exporters for process state that lives outside the
// serving tier's registry cells: the failpoint registry, the SIMD
// dispatch facade and the tracer. Nothing here touches a hot path: each
// Register* call installs a collector that reads the state only when
// someone scrapes (/metrics, kMetricsDump, or the exit-time CLI table).
// The serving counters themselves are registry cells owned by the
// monitor tier, the TcpServer and the TrainerLoop; they need no exporter.
// Metric names are catalogued in docs/OBSERVABILITY.md.
#pragma once

#include "obs/metrics.h"

namespace rpe {

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
