// The single stats serializer: the STATS frame, the SIGUSR1 dump and the
// periodic JSONL exporter all emit through StatsToJson, so the schema
// cannot drift into per-caller dialects.
//
// Output shape:
//   - every pre-existing NetMetrics key, unchanged in name and type, at the
//     top level (totals, then query_kinds / connections / shards / regions);
//   - "query_rejected_kinds": {kind: count} — per-kind reject attribution;
//   - "obs": {counters, gauges, histograms} from the registry, where each
//     histogram carries count/sum/mean/p50/p90/p99/p999, plus derived
//     top-level doubles "ingest_to_queryable_p50_ms",
//     "ingest_to_queryable_p99_ms" and "view_staleness_ms" (0.0 while the
//     corresponding series is empty, so consumers can always parse them).
#ifndef LDPJS_OBS_STATS_EXPORT_H_
#define LDPJS_OBS_STATS_EXPORT_H_

#include <string>
#include <string_view>

#include "net/net_metrics.h"
#include "obs/metrics.h"

namespace ldpjs {

/// Renders a NetMetrics snapshot and the registry's instruments as one JSON
/// object.
///
/// `extra_sections`, when non-empty, is spliced verbatim before the closing
/// brace (the caller supplies `"key":value[,...]` without a leading comma).
/// The fleet sections — "health", "fleet", "events" — arrive this way so
/// this serializer does not depend on the server layer, and so they land
/// AFTER every frozen NetMetrics key (the schema-freeze tests pin the
/// prefix).
std::string StatsToJson(const NetMetrics& metrics,
                        const MetricsRegistry& registry,
                        std::string_view extra_sections = {});

}  // namespace ldpjs

#endif  // LDPJS_OBS_STATS_EXPORT_H_
