// federated_window: the federation tier. Two RegionalNodes (one shard
// each) ship epoch snapshots of a sketch wider than L2 (m = 16384, 2.4 MB of
// raw lanes) to a CentralNode that keeps a 4-epoch sliding window. Each
// epoch both regions take a small fixed batch of reports, PING, then
// CutAndShip; the epoch is queryable once the central's windowed view
// covers it, and one join-size QUERY then goes to the central. Regions push
// stats at their default cadence.
#include <barrier>
#include <bit>
#include <memory>
#include <optional>
#include <thread>

#include "federation/central_node.h"
#include "federation/regional_node.h"
#include "federation/windowed_view.h"
#include "net/frame_sender.h"
#include "obs/fleet_stats.h"
#include "obs/metrics.h"
#include "service/query_engine.h"
#include "workloads.h"

namespace pb {

namespace {

using ldpjs::CentralNode;
using ldpjs::FrameSender;
using ldpjs::LdpJoinSketchServer;
using ldpjs::RegionalNode;

constexpr int kSketchColumns = 16384;
constexpr size_t kRegions = 2;
constexpr size_t kRegionPoolFrames = 32;
constexpr size_t kFramesPerEpoch = 2;  // 8192 reports per region per epoch
constexpr uint64_t kWindowEpochs = 4;
/// One in kCheckEvery epochs has its served answer checked.
constexpr uint64_t kCheckEvery = 16;
/// Paired STATS_PUSH trials (traced runs): pairs × 2 trials of this length,
/// so a pushing trial holds about four pushes per region at the default
/// 1 s cadence.
constexpr int kStatsPairs = 4;
constexpr double kStatsTrialSeconds = 4.0;

/// One central, two regions, a client per region and a query client.
struct Topology {
  std::unique_ptr<CentralNode> central;
  std::vector<std::unique_ptr<RegionalNode>> regions;
  std::vector<FrameSender> clients;
  std::optional<FrameSender> query;
  uint64_t epochs = 0;  ///< epochs shipped so far (epoch e is the e-th cut)
};

struct Inputs {
  std::vector<ReportPool> pools;  ///< one per region
  std::vector<uint8_t> probe;     ///< serialized finalized probe sketch
};

size_t FrameOf(uint64_t epoch, size_t i) {
  return static_cast<size_t>((epoch * kFramesPerEpoch + i) %
                             kRegionPoolFrames);
}

std::optional<Topology> Deploy(const ldpjs::SketchParams& params,
                               bool push_stats, RunResult* result) {
  Topology t;
  ldpjs::CentralNodeOptions central_options;
  central_options.finalize_after = kRegions;
  central_options.window_epochs = kWindowEpochs;
  central_options.window_expected_regions = kRegions;
  t.central = std::make_unique<CentralNode>(params, kEpsilon, central_options);
  bool ok = t.central->Start().ok();
  result->Op(ok, "CentralNode::Start");
  if (!ok) return std::nullopt;
  for (size_t r = 0; r < kRegions; ++r) {
    ldpjs::RegionalNodeOptions options;
    options.region_id = static_cast<uint32_t>(r);
    options.central_port = t.central->port();
    options.push_stats = push_stats;
    t.regions.push_back(
        std::make_unique<RegionalNode>(params, kEpsilon, options));
    ok = t.regions.back()->Start().ok();
    result->Op(ok, "RegionalNode::Start");
    if (!ok) return std::nullopt;
    auto client = FrameSender::Connect("127.0.0.1", t.regions.back()->port(),
                                       params, kEpsilon);
    result->Op(client.ok(), "FrameSender::Connect (region client)");
    if (!client.ok()) return std::nullopt;
    t.clients.push_back(std::move(*client));
  }
  auto query =
      FrameSender::Connect("127.0.0.1", t.central->port(), params, kEpsilon);
  result->Op(query.ok(), "FrameSender::Connect (central query)");
  if (!query.ok()) return std::nullopt;
  t.query.emplace(std::move(*query));
  return t;
}

/// One region's share of an epoch: its batch, a PING so the batch is in
/// the lanes before the cut, then the cut and ship. Returns false on any
/// failed call. Adds the thread CPU spent sending to `loadgen_cpu_ns`.
bool RegionEpoch(Topology& t, const Inputs& in, size_t r, uint64_t op,
                 uint64_t* loadgen_cpu_ns) {
  bool ok = true;
  const uint64_t cpu0 = ThreadCpuNs();
  for (size_t i = 0; i < kFramesPerEpoch; ++i) {
    Span span("net.send", op);
    ok = t.clients[r].SendEncodedBatch(in.pools[r].frames[FrameOf(t.epochs, i)])
             .ok() && ok;
  }
  *loadgen_cpu_ns += ThreadCpuNs() - cpu0;
  {
    Span span("net.ping", op);
    ok = t.clients[r].Ping().ok() && ok;
  }
  {
    Span span("federation.cut_ship", op);
    ok = t.regions[r]->CutAndShip().ok() && ok;
  }
  return ok;
}

/// A served join-size answer kept for the end-of-run check.
struct Served {
  uint64_t epoch;
  ldpjs::QueryResponse response;
};

/// Per-epoch figures handed back by RunEpochs.
struct EpochLog {
  Samples i2q_ms;
  uint64_t attempted = 0, failed = 0;
  uint64_t loadgen_cpu_ns = 0;
  std::vector<Served> served;
};

/// Runs whole epochs on `t` until `seconds` have passed (at least one).
/// Region 0 runs on the calling thread and region 1 on a helper; the epoch
/// ends when the slower region's ship is acked.
void RunEpochs(Topology& t, const Inputs& in, double seconds, EpochLog* log) {
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  std::barrier sync(2);
  bool stop = false;
  bool helper_ok = true;
  uint64_t helper_cpu_ns = 0;
  std::thread helper([&] {
    for (;;) {
      sync.arrive_and_wait();  // epoch start (or stop)
      if (stop) break;
      helper_ok = RegionEpoch(t, in, 1, t.epochs * 2 + 1, &helper_cpu_ns);
      sync.arrive_and_wait();  // epoch end
    }
  });
  uint64_t done = 0;
  for (;;) {
    stop = done > 0 && NowNs() >= deadline;
    sync.arrive_and_wait();
    if (stop) break;
    const uint64_t op = t.epochs * 2;
    Span root("bench.epoch", op);
    const uint64_t start = NowNs();
    const bool ok0 = RegionEpoch(t, in, 0, op, &log->loadgen_cpu_ns);
    sync.arrive_and_wait();
    const auto view = t.central->WindowedPublishedView();
    const bool covered = view->aligned && view->epoch == t.epochs;
    log->i2q_ms.Add(static_cast<double>(NowNs() - start) / 1e6);
    log->attempted += kRegions * (kFramesPerEpoch + 2) + 1;
    if (!ok0 || !helper_ok || !covered) ++log->failed;

    ldpjs::QueryRequest request;
    request.kind = ldpjs::QueryKind::kJoinSize;
    request.probe_sketch = in.probe;
    auto response = [&] {
      Span span("net.query.join_size", op);
      return t.query->Query(request);
    }();
    ++log->attempted;
    if (!response.ok()) {
      ++log->failed;
    } else if (log->served.empty() || t.epochs % kCheckEvery == 0) {
      log->served.push_back(Served{t.epochs, std::move(*response)});
    }
    ++t.epochs;
    ++done;
  }
  helper.join();
  log->loadgen_cpu_ns += helper_cpu_ns;
}

/// The reference window ending at `epoch`: a direct absorb of every report
/// both regions sent in the last kWindowEpochs epochs, finalized.
LdpJoinSketchServer ExpectedWindow(const ldpjs::SketchParams& params,
                                   const Inputs& in, uint64_t epoch) {
  LdpJoinSketchServer sketch(params, kEpsilon);
  const uint64_t first = epoch + 1 >= kWindowEpochs ? epoch + 1 - kWindowEpochs
                                                    : 0;
  for (uint64_t e = first; e <= epoch; ++e) {
    for (size_t r = 0; r < kRegions; ++r) {
      for (size_t i = 0; i < kFramesPerEpoch; ++i) {
        sketch.AbsorbBatch(in.pools[r].FrameReports(FrameOf(e, i)));
      }
    }
  }
  sketch.Finalize();
  return sketch;
}

}  // namespace

RunResult RunFederatedWindow(const Args& args) {
  RunResult result;
  result.op_name = "report";
  result.rate_name = "ingest_rps";
  result.cpu_name = "ingest_cpu_ns_per_report";
  result.latency_name = "i2q";
  result.latency_unit = "ms";
  result.tail_pct = 90.0;  // a few hundred epochs per run
  result.slice_s = 4.0;
  const ldpjs::SketchParams params = MakeParams(kSketchColumns, args.seed);

  Inputs in;
  std::optional<Topology> t;
  for (int i = 0; i < kSetupRepeats; ++i) {
    t.reset();
    in = Inputs();
    const uint64_t t0 = NowNs();
    for (size_t r = 0; r < kRegions; ++r) {
      in.pools.push_back(MakePool(params, kRegionPoolFrames,
                                  args.seed * kRegions + r,
                                  args.seed ^ (0xFEDULL + r)));
    }
    LdpJoinSketchServer probe = AbsorbPool(params, in.pools[0]);
    probe.Finalize();
    in.probe = probe.Serialize();
    t = Deploy(params, /*push_stats=*/true, &result);
    if (t) {
      // One warm-up epoch opens the upstream sessions, as a running
      // deployment's would already be.
      EpochLog warmup;
      RunEpochs(*t, in, 0.0, &warmup);
      result.attempted += warmup.attempted;
      result.failed += warmup.failed;
    }
    result.setup_s.Add(SecondsSince(t0));
    if (!t) return result;
  }

  EpochLog log;
  RunMeasured(args, &result, [&](double seconds) {
    const uint64_t before = t->epochs;
    const size_t first = log.i2q_ms.n();
    RunEpochs(*t, in, seconds, &log);
    for (size_t i = first; i < log.i2q_ms.n(); ++i) {
      result.latency_ms.Add(log.i2q_ms.values()[i]);
    }
    return static_cast<double>((t->epochs - before) * kRegions *
                               kFramesPerEpoch * kFrameReports);
  });
  result.attempted += log.attempted;
  result.failed += log.failed;

  if (args.trace) {
    SetTracing(true);
    auto& layers = result.layers;
    ProbeIngestLayers(params, in.pools[0], 1, &result);

    // Snapshot decode and window apply, on snapshots of the same shape.
    std::vector<LdpJoinSketchServer> snapshots;
    for (size_t r = 0; r < kRegions; ++r) {
      LdpJoinSketchServer s(params, kEpsilon);
      for (size_t i = 0; i < kFramesPerEpoch; ++i) {
        s.AbsorbBatch(in.pools[r].FrameReports(i));
      }
      snapshots.push_back(std::move(s));
    }
    const std::vector<uint8_t> bytes = snapshots[0].Serialize();
    bool decoded = true;
    layers["federation.snapshot_decode_us"] =
        TimePerItem("federation.snapshot_decode", 1.0, 10, 1e3, "us", [&] {
          decoded = LdpJoinSketchServer::Deserialize(bytes).ok() && decoded;
        });
    result.Check(decoded, "epoch snapshot decodes");
    ldpjs::WindowedView window(params, kEpsilon, kWindowEpochs, kRegions);
    Samples apply_us;
    for (uint64_t e = 0; e < 4 * kWindowEpochs; ++e) {
      for (size_t r = 0; r < kRegions; ++r) {
        LdpJoinSketchServer copy = snapshots[r];
        const uint64_t t0 = NowNs();
        {
          Span span("federation.window_apply", e);
          window.OnEpochApplied(static_cast<uint32_t>(r), e, &copy);
        }
        apply_us.Add(static_cast<double>(NowNs() - t0) / 1e3);
      }
    }
    layers["federation.window_apply_us"] =
        Metric{apply_us.Median(), "us", apply_us.n()};
    result.Check(window.epochs_in_window() == kWindowEpochs * kRegions,
                 "standalone window holds W epochs per region");

    uint64_t bytes_shipped = 0, epochs_shipped = 0;
    for (const auto& region : t->regions) {
      bytes_shipped += region->snapshot_bytes_shipped();
      epochs_shipped += region->epochs_shipped();
    }
    layers["federation.snapshot_bytes"] =
        Metric{static_cast<double>(bytes_shipped) /
                   static_cast<double>(epochs_shipped),
               "B/epoch", epochs_shipped};

    // STATS_PUSH cost, timed directly on a session to the central.
    auto pusher = FrameSender::Connect("127.0.0.1", t->central->port(),
                                       params, kEpsilon);
    result.Op(pusher.ok(), "FrameSender::Connect (stats push)");
    if (pusher.ok()) {
      bool pushed = true;
      layers["obs.stats_push_us"] =
          TimePerItem("obs.stats_push", 1.0, 20, 1e3, "us", [&] {
            ldpjs::FleetSnapshot snapshot;
            snapshot.region_id = 1000;
            snapshot.captured_unix_ns = ldpjs::NowNanos();
            snapshot.stats = ldpjs::MetricsRegistry::Default().TakeSnapshot();
            pushed = pusher->PushStats(snapshot).ok() && pushed;
          });
      result.Check(pushed, "STATS_PUSH acked");
      result.Op(pusher->Finish().ok(), "BYE (stats push)");
    }

    // STATS_PUSH overhead, paired: the same epoch loop on a twin topology
    // with stats pushing off, trials alternating which side runs first.
    // Signed, as a share of the epoch rate and as time per push; the spread
    // over pairs is this design's resolution, far coarser than one push
    // (obs.stats_push_us) at the default cadence.
    SetTracing(false);
    std::optional<Topology> twin = Deploy(params, /*push_stats=*/false,
                                          &result);
    if (twin) {
      EpochLog warmup;
      RunEpochs(*twin, in, 0.0, &warmup);
      auto pushes = [&] {
        uint64_t n = 0;
        for (const auto& region : t->regions) n += region->stats_pushes();
        return n;
      };
      Samples overhead_pct, overhead_us_per_push;
      uint64_t total_pushes = 0;
      bool every_trial_pushed = true;
      for (int pair = 0; pair < kStatsPairs; ++pair) {
        double rate[2] = {0.0, 0.0};  // epochs/s: [0] pushing, [1] not
        uint64_t epochs_pushing = 0, pushes_in_trial = 0;
        for (int k = 0; k < 2; ++k) {
          const int side = (pair + k) % 2;
          Topology& topo = side == 0 ? *t : *twin;
          EpochLog trial;
          const uint64_t before = topo.epochs, pushes_before = pushes();
          const uint64_t t0 = NowNs();
          RunEpochs(topo, in, kStatsTrialSeconds, &trial);
          rate[side] = static_cast<double>(topo.epochs - before) /
                       SecondsSince(t0);
          if (side == 0) {
            epochs_pushing = topo.epochs - before;
            pushes_in_trial = pushes() - pushes_before;
          }
          result.attempted += trial.attempted;
          result.failed += trial.failed;
        }
        overhead_pct.Add((rate[1] - rate[0]) / rate[1] * 100.0);
        // Time the pushing trial took beyond the plain rate's, per push.
        const double extra_us = static_cast<double>(epochs_pushing) *
                                (1.0 / rate[0] - 1.0 / rate[1]) * 1e6;
        if (pushes_in_trial == 0) {
          every_trial_pushed = false;
        } else {
          overhead_us_per_push.Add(extra_us /
                                   static_cast<double>(pushes_in_trial));
        }
        total_pushes += pushes_in_trial;
      }
      result.Check(every_trial_pushed, "every pushing trial pushed stats");
      layers["obs.stats_push_overhead_pct"] =
          Metric{overhead_pct.Median(), "%", overhead_pct.n()};
      layers["obs.stats_push_overhead_iqr_pct"] =
          Metric{overhead_pct.Percentile(75) - overhead_pct.Percentile(25),
                 "%", overhead_pct.n()};
      // n is the number of pushes the pushing trials held.
      layers["obs.stats_push_overhead_us_per_push"] =
          Metric{overhead_us_per_push.Median(), "us", total_pushes};
      for (auto& region : twin->regions) {
        result.Op(region->FlushAndStop().ok(), "twin FlushAndStop");
      }
      twin->central->Stop();
    }
    SetTracing(true);

    uint64_t retries = 0;
    for (const auto& region : t->regions) retries += region->ship_retries();
    layers["federation.ship_retries"] =
        Metric{static_cast<double>(retries), "count", t->epochs};
    RecordCpuSplit(static_cast<double>(log.loadgen_cpu_ns), &result);
    SetTracing(false);
    FinishTrace(args, &result);
  }

  // Checks: the windowed view equals a direct absorb of the window's epochs,
  // bit for bit; sampled served answers equal AnswerQuery on the reference
  // window of their epoch; and the ship path never had to retry.
  {
    const uint64_t last = t->epochs - 1;
    const auto view = t->central->WindowedPublishedView();
    result.Check(view->aligned && view->epoch == last &&
                     SameCells(view->sketch, ExpectedWindow(params, in, last)),
                 "windowed view == direct absorb of the window's epochs, "
                 "bit for bit");
    uint64_t mismatched = 0;
    for (const Served& s : log.served) {
      const ldpjs::PublishedView reference(s.response.view_sequence, true,
                                           s.epoch,
                                           ExpectedWindow(params, in, s.epoch));
      ldpjs::QueryRequest request;
      request.kind = ldpjs::QueryKind::kJoinSize;
      request.probe_sketch = in.probe;
      auto expected = ldpjs::AnswerQuery(reference, request);
      const bool same =
          expected.ok() && s.response.view_epoch == s.epoch &&
          s.response.view_reports == expected->view_reports &&
          std::bit_cast<uint64_t>(s.response.value) ==
              std::bit_cast<uint64_t>(expected->value);
      if (!same) ++mismatched;
    }
    result.attempted += log.served.size();
    result.failed += mismatched;
    result.notes.push_back(
        std::string(mismatched == 0 && !log.served.empty() ? "ok     "
                                                           : "FAILED ") +
        std::to_string(log.served.size() - mismatched) + " of " +
        std::to_string(log.served.size()) +
        " sampled join answers == AnswerQuery on the reference window");
    if (log.served.empty()) ++result.failed;
    uint64_t retries = 0, push_failures = 0;
    for (const auto& region : t->regions) {
      retries += region->ship_retries();
      push_failures += region->stats_push_failures();
    }
    result.Check(retries == 0, "zero ship retries");
    result.Check(push_failures == 0, "zero failed stats pushes");
  }

  for (auto& region : t->regions) {
    result.Op(region->FlushAndStop().ok(), "RegionalNode::FlushAndStop");
  }
  result.Op(t->query->Finish().ok(), "BYE (central query)");
  t->central->Stop();
  return result;
}

}  // namespace pb
