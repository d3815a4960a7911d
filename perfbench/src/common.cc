#include <bit>
#include <cstdio>
#include <string>

#include "common/random.h"
#include "common/serialize.h"
#include "data/zipf.h"
#include "obs/metrics.h"
#include "service/sharded_aggregator.h"
#include "workloads.h"

namespace pb {

using ldpjs::LdpJoinSketchServer;
using ldpjs::LdpReport;

ldpjs::SketchParams MakeParams(int m, uint64_t seed) {
  ldpjs::SketchParams params;
  params.k = kSketchRows;
  params.m = m;
  params.seed = seed;
  return params;
}

ReportPool MakePool(const ldpjs::SketchParams& params, size_t frames,
                    uint64_t data_seed, uint64_t run_seed) {
  ReportPool pool;
  ldpjs::ZipfParams zipf;
  zipf.alpha = kZipfAlpha;
  zipf.domain = kZipfDomain;
  zipf.rows = frames * kFrameReports;
  zipf.seed = data_seed;
  pool.values = ldpjs::GenerateZipf(zipf).values();
  pool.reports.resize(pool.values.size());
  pool.frames.resize(frames);
  const ldpjs::LdpJoinSketchClient client(params, kEpsilon);
  for (size_t f = 0; f < frames; ++f) {
    ldpjs::Xoshiro256 rng = ldpjs::MakeStreamRng(run_seed, f);
    const size_t begin = f * kFrameReports;
    client.PerturbBatch(
        std::span<const uint64_t>(pool.values).subspan(begin, kFrameReports),
        std::span<LdpReport>(pool.reports).subspan(begin, kFrameReports),
        rng);
    ldpjs::BinaryWriter writer;
    ldpjs::EncodeReportBatch(pool.FrameReports(f), writer);
    pool.frames[f] = writer.TakeBuffer();
  }
  return pool;
}

LdpJoinSketchServer AbsorbPool(const ldpjs::SketchParams& params,
                               const ReportPool& pool) {
  LdpJoinSketchServer sketch(params, kEpsilon);
  sketch.AbsorbBatch(pool.reports);
  return sketch;
}

bool SameLanes(const LdpJoinSketchServer& a, const LdpJoinSketchServer& b) {
  if (a.finalized() || b.finalized()) return false;
  if (a.total_reports() != b.total_reports()) return false;
  const int k = a.params().k, m = a.params().m;
  if (b.params().k != k || b.params().m != m) return false;
  for (int row = 0; row < k; ++row) {
    for (int col = 0; col < m; ++col) {
      if (a.lane(row, col) != b.lane(row, col)) return false;
    }
  }
  return true;
}

bool SameCells(const LdpJoinSketchServer& a, const LdpJoinSketchServer& b) {
  if (!a.finalized() || !b.finalized()) return false;
  if (a.total_reports() != b.total_reports()) return false;
  const int k = a.params().k, m = a.params().m;
  if (b.params().k != k || b.params().m != m) return false;
  for (int row = 0; row < k; ++row) {
    for (int col = 0; col < m; ++col) {
      if (std::bit_cast<uint64_t>(a.cell(row, col)) !=
          std::bit_cast<uint64_t>(b.cell(row, col))) {
        return false;
      }
    }
  }
  return true;
}

void ProbeIngestLayers(const ldpjs::SketchParams& params,
                       const ReportPool& pool, size_t shards,
                       RunResult* result) {
  constexpr int kReps = 5;
  const double n = static_cast<double>(pool.reports.size());
  auto& layers = result->layers;

  const ldpjs::LdpJoinSketchClient client(params, kEpsilon);
  std::vector<LdpReport> scratch(pool.reports.size());
  layers["core.perturb_ns"] =
      TimePerItem("core.perturb", n, kReps, 1.0, "ns", [&] {
        ldpjs::Xoshiro256 rng = ldpjs::MakeStreamRng(1, 0);
        client.PerturbBatch(pool.values, scratch, rng);
      });
  layers["net.encode_ns"] =
      TimePerItem("net.encode", n, kReps, 1.0, "ns", [&] {
        for (size_t f = 0; f < pool.num_frames(); ++f) {
          ldpjs::BinaryWriter writer;
          ldpjs::EncodeReportBatch(pool.FrameReports(f), writer);
        }
      });
  size_t decoded = 0;
  layers["net.decode_ns"] =
      TimePerItem("net.decode", n, kReps, 1.0, "ns", [&] {
        for (const auto& frame : pool.frames) {
          ldpjs::BinaryReader reader(frame);
          auto count = ldpjs::DecodeReportBatch(
              reader, std::span<LdpReport>(scratch).first(kFrameReports));
          decoded += count.ok() ? *count : 0;
        }
      });
  result->Check(decoded == pool.reports.size() * kReps,
                "DecodeReportBatch decodes every pool frame");

  LdpJoinSketchServer absorbed(params, kEpsilon);
  layers["core.absorb_ns"] = TimePerItem(
      "core.absorb", n, kReps, 1.0, "ns",
      [&] { absorbed.AbsorbBatch(pool.reports); });

  ldpjs::ShardedAggregator aggregator(params, kEpsilon, shards);
  std::vector<std::span<const uint8_t>> frame_spans(pool.frames.begin(),
                                                    pool.frames.end());
  bool ingest_ok = true;
  layers["service.ingest_frame_ns"] =
      TimePerItem("service.ingest_frames", n, kReps, 1.0, "ns", [&] {
        ingest_ok = ingest_ok && aggregator.IngestFrames(frame_spans).ok();
      });
  result->Check(ingest_ok && SameLanes(aggregator.MergeShards(), absorbed),
                "ShardedAggregator::IngestFrames == AbsorbBatch on the pool");

  LdpJoinSketchServer merged(params, kEpsilon);
  layers["core.merge_us"] = TimePerItem(
      "core.merge", 1.0, 20, 1e3, "us", [&] { merged.Merge(absorbed); });

  ProbeFinalize(absorbed, result);
  LdpJoinSketchServer finalized = absorbed;
  finalized.Finalize();

  double estimate = 0.0;
  layers["core.join_estimate_us"] =
      TimePerItem("core.join_estimate", 1.0, 20, 1e3, "us",
                  [&] { estimate = finalized.JoinEstimate(finalized); });
  result->Check(estimate > 0.0, "self-join estimate of the pool is positive");

  ldpjs::MetricsRegistry registry;
  ldpjs::ObsHistogram* hist = registry.GetHistogram("perfbench_probe");
  constexpr int kRecords = 1 << 20;
  layers["obs.record_ns"] =
      TimePerItem("obs.record", kRecords, kReps, 1.0, "ns", [&] {
        for (int i = 0; i < kRecords; ++i) {
          hist->Record(static_cast<uint64_t>(i));
        }
      });
  result->Check(hist->Snapshot().count ==
                    static_cast<uint64_t>(kRecords) * kReps,
                "obs histogram kept every recorded value");
}

void ProbeFinalize(const LdpJoinSketchServer& raw, RunResult* result) {
  Samples finalize_us;
  for (int r = 0; r < 10; ++r) {
    LdpJoinSketchServer copy = raw;
    const uint64_t t0 = NowNs();
    {
      Span span("core.finalize", static_cast<uint64_t>(r));
      copy.Finalize();
    }
    finalize_us.Add(static_cast<double>(NowNs() - t0) / 1e3);
  }
  result->layers["core.finalize_us"] =
      Metric{finalize_us.Median(), "us", finalize_us.n()};
}

void RecordIngestCounters(const ldpjs::NetMetrics& metrics,
                          uint64_t busy_retries, RunResult* result) {
  auto& layers = result->layers;
  layers["net.busy_retries"] =
      Metric{static_cast<double>(busy_retries), "count", 1};
  layers["net.queue_high_water"] =
      Metric{static_cast<double>(metrics.queue_high_water), "count", 1};
  layers["net.frames_shed"] =
      Metric{static_cast<double>(metrics.frames_shed), "count", 1};
}

void RecordCpuSplit(double loadgen_cpu_ns, RunResult* result) {
  result->layers["cpu.loadgen_ns_per_op"] =
      Metric{loadgen_cpu_ns / result->ops, "ns", 1};
  result->layers["cpu.server_ns_per_op"] =
      Metric{(result->cpu_ns - loadgen_cpu_ns) / result->ops, "ns", 1};
}

void FinishTrace(const Args& args, RunResult* result) {
  std::map<std::string, Samples> duration_us;
  std::map<std::string, LayerSelf> self;
  const std::string path = args.out_dir.empty()
                               ? std::string()
                               : args.out_dir + "/spans-" + args.workload +
                                     "-" + std::to_string(args.seed) + ".tsv";
  const size_t spans = CollectSpans(&duration_us, &self, path);
  auto& layers = result->layers;
  // A catalogue entry "<span>_us" / "<span>_ms" not set by a probe is the
  // median duration of the spans named <span>.
  for (const auto& [metric, unit] : LayerCatalogue()) {
    if (layers.count(metric) != 0 || (unit != "us" && unit != "ms")) continue;
    auto it = duration_us.find(metric.substr(0, metric.size() - 3));
    if (it == duration_us.end()) continue;
    layers[metric] = Metric{it->second.Median() * (unit == "ms" ? 1e-3 : 1.0),
                            unit, it->second.n()};
  }
  // Query spans are named net.query.<kind>; their metric is the RTT.
  const std::string query_prefix = "net.query.";
  for (const auto& [name, d] : duration_us) {
    if (name.rfind(query_prefix, 0) != 0) continue;
    layers["net.query_rtt_us." + name.substr(query_prefix.size())] =
        Metric{d.Median(), "us", d.n()};
  }
  for (const auto& [layer, s] : self) {
    layers[layer + ".self_ms"] = Metric{s.ms, "ms", s.spans};
  }
  layers["trace.spans"] = Metric{static_cast<double>(spans), "count", spans};
  if (!path.empty()) result->notes.push_back("spans written to " + path);
}

}  // namespace pb
