// ingest_stream: sustained TCP ingest. Two sender connections replay a
// fixed pool of LJSB frames cyclically into one FrameServer with two
// shards; each runs a closed loop of kBatchFrames frames then one PING
// barrier. Ingest-to-queryable is timed from a batch's first frame to its
// PING_OK, which the server only sends once the batch is absorbed and the
// view republished.
#include <atomic>
#include <memory>
#include <optional>
#include <thread>

#include "net/frame_sender.h"
#include "net/frame_server.h"
#include "workloads.h"

namespace pb {

namespace {

using ldpjs::FrameSender;
using ldpjs::FrameServer;

constexpr int kSketchColumns = 1024;
constexpr size_t kPoolFrames = 256;  // 1M reports
constexpr size_t kShards = 2;
constexpr size_t kConnections = 2;
constexpr size_t kBatchFrames = 64;

struct Deployment {
  ReportPool pool;
  std::unique_ptr<FrameServer> server;
  std::vector<FrameSender> senders;
};

std::optional<Deployment> Deploy(const ldpjs::SketchParams& params,
                                 uint64_t seed, RunResult* result) {
  Deployment d;
  d.pool = MakePool(params, kPoolFrames, seed, seed ^ 0x1257ULL);
  ldpjs::FrameServerOptions options;
  options.num_shards = kShards;
  d.server = std::make_unique<FrameServer>(params, kEpsilon, options);
  const bool started = d.server->Start().ok();
  result->Op(started, "FrameServer::Start");
  if (!started) return std::nullopt;
  for (size_t c = 0; c < kConnections; ++c) {
    auto sender = FrameSender::Connect("127.0.0.1", d.server->port(), params,
                                       kEpsilon);
    result->Op(sender.ok(), "FrameSender::Connect");
    if (!sender.ok()) return std::nullopt;
    d.senders.push_back(std::move(*sender));
  }
  return d;
}

}  // namespace

RunResult RunIngestStream(const Args& args) {
  RunResult result;
  result.op_name = "report";
  result.rate_name = "ingest_rps";
  result.cpu_name = "ingest_cpu_ns_per_report";
  result.latency_name = "i2q";
  result.latency_unit = "ms";
  // p99 rides on scheduler hiccups (and hypervisor steal) of six busy threads
  // on four cores; the report prints it next to p90 of 2 s slices (~150
  // samples above it).
  result.tail_pct = 90.0;
  result.slice_s = 2.0;
  const ldpjs::SketchParams params = MakeParams(kSketchColumns, args.seed);

  std::optional<Deployment> d;
  for (int i = 0; i < kSetupRepeats; ++i) {
    d.reset();  // tear the previous deployment down outside the timer
    const uint64_t t0 = NowNs();
    d = Deploy(params, args.seed, &result);
    result.setup_s.Add(SecondsSince(t0));
    if (!d) return result;
  }
  const size_t pool_frames = d->pool.num_frames();

  // Per-connection replay state survives across measured segments.
  std::vector<size_t> cursor(kConnections), frames_sent(kConnections, 0);
  for (size_t c = 0; c < kConnections; ++c) {
    cursor[c] = c * pool_frames / kConnections;
  }
  const std::vector<size_t> start_cursor = cursor;
  std::atomic<uint64_t> loadgen_cpu_ns{0};
  uint64_t next_batch_id = 1;

  RunMeasured(args, &result, [&](double seconds) {
    const uint64_t deadline =
        NowNs() + static_cast<uint64_t>(seconds * 1e9);
    std::vector<Samples> latency(kConnections);
    std::vector<uint64_t> attempted(kConnections, 0), failed(kConnections, 0);
    std::vector<uint64_t> reports(kConnections, 0);
    std::vector<std::thread> threads;
    const uint64_t id_base = next_batch_id;
    for (size_t c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        const uint64_t cpu0 = ThreadCpuNs();
        FrameSender& sender = d->senders[c];
        uint64_t batch = 0;
        do {
          const uint64_t op = id_base + (batch++ << 1) + c;
          Span root("bench.batch", op);
          const uint64_t start = NowNs();
          bool ok = true;
          for (size_t b = 0; b < kBatchFrames; ++b) {
            Span span("net.send", op);
            ok = sender.SendEncodedBatch(d->pool.frames[cursor[c]]).ok() && ok;
            cursor[c] = (cursor[c] + 1) % pool_frames;
            ++frames_sent[c];
          }
          {
            Span span("net.ping", op);
            ok = sender.Ping().ok() && ok;
          }
          latency[c].Add(static_cast<double>(NowNs() - start) / 1e6);
          attempted[c] += kBatchFrames + 1;
          if (!ok) {
            ++failed[c];
          } else {
            reports[c] += kBatchFrames * kFrameReports;
          }
        } while (NowNs() < deadline);
        loadgen_cpu_ns += ThreadCpuNs() - cpu0;
      });
    }
    for (auto& t : threads) t.join();
    next_batch_id += uint64_t{1} << 40;
    double done = 0.0;
    for (size_t c = 0; c < kConnections; ++c) {
      result.latency_ms.Append(latency[c]);
      result.attempted += attempted[c];
      result.failed += failed[c];
      done += static_cast<double>(reports[c]);
    }
    return done;
  });

  // Check: the server's lanes equal, bit for bit, an in-process AbsorbBatch
  // of exactly the frames sent (whole pool passes plus each connection's
  // partial pass).
  {
    auto raw = d->senders[0].SnapshotRawSketch();
    result.Op(raw.ok(), "SNAPSHOT of the server lanes");
    if (raw.ok()) {
      auto served = ldpjs::LdpJoinSketchServer::Deserialize(*raw);
      const ldpjs::LdpJoinSketchServer pass = AbsorbPool(params, d->pool);
      ldpjs::LdpJoinSketchServer expected(params, kEpsilon);
      for (size_t c = 0; c < kConnections; ++c) {
        for (size_t p = 0; p < frames_sent[c] / pool_frames; ++p) {
          expected.Merge(pass);
        }
        for (size_t i = 0; i < frames_sent[c] % pool_frames; ++i) {
          expected.AbsorbBatch(
              d->pool.FrameReports((start_cursor[c] + i) % pool_frames));
        }
      }
      result.Check(served.ok() && SameLanes(*served, expected),
                   "server lanes == passes x AbsorbBatch(pool) + partial "
                   "passes, bit for bit");
    }
  }

  if (args.trace) {
    SetTracing(true);
    auto& layers = result.layers;
    ProbeIngestLayers(params, d->pool, kShards, &result);
    layers["service.publish_us"] =
        TimePerItem("service.publish", 1.0, 20, 1e3, "us",
                    [&] { d->server->PublishView(); });
    uint64_t busy = 0;
    for (const FrameSender& s : d->senders) busy += s.busy_retries();
    RecordIngestCounters(d->server->metrics(), busy, &result);
    RecordCpuSplit(static_cast<double>(loadgen_cpu_ns.load()), &result);
    SetTracing(false);
    FinishTrace(args, &result);
  }

  for (FrameSender& s : d->senders) result.Op(s.Finish().ok(), "BYE");
  d->server->Stop();
  return result;
}

}  // namespace pb
