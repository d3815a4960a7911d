#include "obs/stats_export.h"

#include <cmath>
#include <cstdio>

namespace ldpjs {

namespace {

void AppendField(std::string& out, const char* name, uint64_t value,
                 bool* first) {
  if (!*first) out += ',';
  *first = false;
  out += '"';
  out += name;
  out += "\":";
  out += std::to_string(value);
}

void AppendDoubleField(std::string& out, const char* name, double value,
                       bool* first) {
  if (!std::isfinite(value)) value = 0.0;  // keep the JSON parseable
  if (!*first) out += ',';
  *first = false;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%.6g", name, value);
  out += buf;
}

void AppendHistogram(std::string& out, const std::string& name,
                     const HistogramSnapshot& h, bool* first) {
  if (!*first) out += ',';
  *first = false;
  out += '"';
  out += name;
  out += "\":{";
  bool f = true;
  AppendField(out, "count", h.count, &f);
  AppendField(out, "sum", h.sum, &f);
  AppendDoubleField(out, "mean", h.mean(), &f);
  AppendField(out, "p50", h.Percentile(0.50), &f);
  AppendField(out, "p90", h.Percentile(0.90), &f);
  AppendField(out, "p99", h.Percentile(0.99), &f);
  AppendField(out, "p999", h.Percentile(0.999), &f);
  out += '}';
}

}  // namespace

std::string StatsToJson(const NetMetrics& m, const MetricsRegistry& registry,
                        std::string_view extra_sections) {
  std::string out;
  out.reserve(1024 + 128 * (m.connections.size() + m.shards.size() +
                            m.regions.size()));
  out += '{';
  bool first = true;
  AppendField(out, "connections_accepted", m.connections_accepted, &first);
  AppendField(out, "connections_active", m.connections_active, &first);
  AppendField(out, "handshakes_rejected", m.handshakes_rejected, &first);
  AppendField(out, "frames_received", m.frames_received, &first);
  AppendField(out, "bytes_received", m.bytes_received, &first);
  AppendField(out, "reports_ingested", m.reports_ingested, &first);
  AppendField(out, "corrupt_frames_rejected", m.corrupt_frames_rejected,
              &first);
  AppendField(out, "frames_shed", m.frames_shed, &first);
  AppendField(out, "queue_high_water", m.queue_high_water, &first);
  AppendField(out, "epochs_applied", m.epochs_applied, &first);
  AppendField(out, "epoch_duplicates_ignored", m.epoch_duplicates_ignored,
              &first);
  AppendField(out, "accept_failures", m.accept_failures, &first);
  AppendField(out, "accept_fatal", m.accept_fatal, &first);
  AppendField(out, "idle_reaped", m.idle_reaped, &first);
  AppendField(out, "connections_folded", m.connections_folded, &first);
  AppendField(out, "retries_attempted", m.retries_attempted, &first);
  AppendField(out, "backoff_millis", m.backoff_millis, &first);
  AppendField(out, "faults_injected", m.faults_injected, &first);
  AppendField(out, "spool_bytes_written", m.spool_bytes_written, &first);
  AppendField(out, "spool_bytes_resumed", m.spool_bytes_resumed, &first);
  AppendField(out, "spool_epochs_resumed", m.spool_epochs_resumed, &first);
  AppendField(out, "query_frames", m.query_frames, &first);
  AppendField(out, "queries_rejected", m.queries_rejected, &first);
  AppendField(out, "views_published", m.views_published, &first);
  // Derived SLO keys, always present and always finite so a scrape can
  // assert on them before any traced batch has completed the circuit.
  const HistogramSnapshot e2e =
      registry.HistogramByName("ingest_to_queryable_ns");
  AppendDoubleField(out, "ingest_to_queryable_p50_ms",
                    static_cast<double>(e2e.Percentile(0.50)) / 1e6, &first);
  AppendDoubleField(out, "ingest_to_queryable_p99_ms",
                    static_cast<double>(e2e.Percentile(0.99)) / 1e6, &first);
  out += ",\"query_kinds\":{";
  for (size_t i = 0; i < m.query_kinds.size(); ++i) {
    if (i > 0) out += ',';
    out += '"';
    out += m.query_kinds[i].kind;
    out += "\":";
    out += std::to_string(m.query_kinds[i].served);
  }
  out += '}';
  out += ",\"query_rejected_kinds\":{";
  for (size_t i = 0; i < m.query_rejected_kinds.size(); ++i) {
    if (i > 0) out += ',';
    out += '"';
    out += m.query_rejected_kinds[i].kind;
    out += "\":";
    out += std::to_string(m.query_rejected_kinds[i].served);
  }
  out += '}';
  out += ",\"connections\":[";
  for (size_t i = 0; i < m.connections.size(); ++i) {
    const ConnectionMetrics& c = m.connections[i];
    if (i > 0) out += ',';
    out += '{';
    bool f = true;
    AppendField(out, "id", c.id, &f);
    AppendField(out, "active", c.active ? 1 : 0, &f);
    AppendField(out, "frames_received", c.frames_received, &f);
    AppendField(out, "bytes_received", c.bytes_received, &f);
    AppendField(out, "reports_ingested", c.reports_ingested, &f);
    AppendField(out, "corrupt_frames_rejected", c.corrupt_frames_rejected, &f);
    AppendField(out, "frames_shed", c.frames_shed, &f);
    out += '}';
  }
  out += "],\"shards\":[";
  for (size_t i = 0; i < m.shards.size(); ++i) {
    const ShardMetrics& s = m.shards[i];
    if (i > 0) out += ',';
    out += '{';
    bool f = true;
    AppendField(out, "shard", i, &f);
    AppendField(out, "frames", s.frames, &f);
    AppendField(out, "reports", s.reports, &f);
    AppendField(out, "queue_high_water", s.queue_high_water, &f);
    out += '}';
  }
  out += "],\"regions\":[";
  for (size_t i = 0; i < m.regions.size(); ++i) {
    const RegionMetrics& r = m.regions[i];
    if (i > 0) out += ',';
    out += '{';
    bool f = true;
    AppendField(out, "region_id", r.region_id, &f);
    AppendField(out, "epochs_applied", r.epochs_applied, &f);
    AppendField(out, "empty_epochs", r.empty_epochs, &f);
    AppendField(out, "duplicates_ignored", r.duplicates_ignored, &f);
    AppendField(out, "reports_merged", r.reports_merged, &f);
    AppendField(out, "snapshot_bytes", r.snapshot_bytes, &f);
    AppendField(out, "next_epoch", r.next_epoch, &f);
    out += '}';
  }
  out += ']';
  const MetricsRegistry::Snapshot snap = registry.TakeSnapshot();
  out += ",\"obs\":{\"enabled\":";
  out += ObsEnabled() ? "true" : "false";
  out += ",\"counters\":{";
  bool f = true;
  for (const auto& [name, value] : snap.counters) {
    AppendField(out, name.c_str(), value, &f);
  }
  out += "},\"gauges\":{";
  f = true;
  for (const auto& [name, value] : snap.gauges) {
    AppendField(out, name.c_str(), value, &f);
  }
  out += "},\"histograms\":{";
  f = true;
  for (const auto& [name, hist] : snap.histograms) {
    AppendHistogram(out, name, hist, &f);
  }
  out += "}";
  // Staleness of the freshest published view (0.0 until the first
  // publication) — the gauge stores the wall time of the last publish.
  uint64_t last_publish = 0;
  for (const auto& [name, value] : snap.gauges) {
    if (name == "view_last_publish_unix_ns") last_publish = value;
  }
  const uint64_t now = NowNanos();
  const double staleness_ms =
      (last_publish == 0 || now < last_publish)
          ? 0.0
          : static_cast<double>(now - last_publish) / 1e6;
  f = false;
  AppendDoubleField(out, "view_staleness_ms", staleness_ms, &f);
  out += '}';
  if (!extra_sections.empty()) {
    out += ',';
    out += extra_sections;
  }
  out += '}';
  return out;
}

}  // namespace ldpjs
