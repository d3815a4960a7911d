// bench_micro: the in-process gates. Each timing gate decides on the median
// of kPairedTrials paired windows and writes that median to BENCH_micro.json:
//   - a STATS_PUSH costs at most 1% of epoch-snapshot ship throughput;
//   - an RCU published-view read beats a copy of the sketch by at least 4x;
//   - published-view reads on a 16x wider sketch are at most 8x slower;
//   - one metrics Record costs under 2% of one wire frame's AbsorbBatch.
// The bit-identity gates: batch ingest reproduces scalar ingest's estimate,
// and sharded wire ingest the batch estimate. The paired central view-cache
// speedup rides along. Per-layer costs live in perfbench (BENCHMARK.json).
// A failing check prints its name, measured value and budget to stderr and
// aborts; no BENCH_micro.json is written then.
//
//   LDPJS_MICRO_REPORTS=200000 ./bench_micro   # reports per table, default 1M
//   LDPJS_BENCH_JSON=path                      # default ./BENCH_micro.json
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/serialize.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "core/ldp_join_sketch.h"
#include "data/zipf.h"
#include "federation/central_node.h"
#include "federation/windowed_view.h"
#include "net/frame_sender.h"
#include "net/frame_server.h"
#include "obs/fleet_stats.h"
#include "obs/metrics.h"
#include "service/sharded_aggregator.h"

namespace ldpjs {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Keeps `value` observable, so the optimizer cannot drop the work that
/// computed it.
template <typename T>
void Sink(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

std::string Num(double value) {
  char text[32];
  std::snprintf(text, sizeof(text), "%.10g", value);
  return text;
}

/// The one exit of a failed check: names it, with what it measured and what
/// it allows, so an abort can always be attributed.
[[noreturn]] void Fail(std::string_view check, const std::string& measured,
                       std::string_view budget) {
  std::fprintf(stderr, "bench_micro: check failed: %.*s: measured %s, "
               "budget %.*s\n", static_cast<int>(check.size()), check.data(),
               measured.c_str(), static_cast<int>(budget.size()),
               budget.data());
  std::abort();
}

void Require(bool holds, std::string_view check, double measured,
             std::string_view budget) {
  if (!holds) Fail(check, Num(measured), budget);
}

void RequireOk(const Status& status, std::string_view check) {
  if (!status.ok()) Fail(check, status.ToString(), "OK");
}

void RequireIdentical(std::string_view check, double a, double b) {
  if (a != b) Fail(check, Num(a) + " vs " + Num(b), "bit-identical");
}

/// One window of MeasurePairedTrials: the wall time of every pass, index-
/// aligned so that a_seconds[j] and b_seconds[j] ran back to back.
struct PairedWindow {
  std::vector<double> a_seconds;
  std::vector<double> b_seconds;
};

/// Trials behind every gated or ratio key that must hold above its noise
/// floor: a median over this many windows, not one pooled window.
inline constexpr int kPairedTrials = 15;

/// kPairedTrials interleaved paired windows. Each window alternates A and
/// B pass by pass and ends after at least `min_pairs` pairs and
/// `min_seconds`; the side that leads alternates from window to window, so
/// neither side systematically runs first. Callers reduce each window to
/// one figure with SummarizeTrials.
template <typename PassA, typename PassB>
std::vector<PairedWindow> MeasurePairedTrials(size_t min_pairs,
                                              double min_seconds,
                                              const PassA& pass_a,
                                              const PassB& pass_b) {
  pass_a();  // warm both paths before timing
  pass_b();
  auto timed = [](const auto& pass, std::vector<double>& seconds) {
    const auto start = Clock::now();
    pass();
    seconds.push_back(SecondsSince(start));
  };
  std::vector<PairedWindow> windows(kPairedTrials);
  for (int trial = 0; trial < kPairedTrials; ++trial) {
    PairedWindow& window = windows[trial];
    const bool a_leads = trial % 2 == 0;
    const auto start = Clock::now();
    do {
      if (a_leads) timed(pass_a, window.a_seconds);
      timed(pass_b, window.b_seconds);
      if (!a_leads) timed(pass_a, window.a_seconds);
    } while (window.a_seconds.size() < min_pairs ||
             SecondsSince(start) < min_seconds);
  }
  return windows;
}

double Sum(std::span<const double> values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

struct MedianIqr {
  double median = 0.0;
  double iqr = 0.0;
};

/// Reduces every window of `windows` to one figure; the median and IQR of
/// the figures over the trials.
template <typename Figure>
MedianIqr SummarizeTrials(const std::vector<PairedWindow>& windows,
                          const Figure& figure) {
  std::vector<double> figures;
  for (const PairedWindow& window : windows) figures.push_back(figure(window));
  return {Median(figures), Quantile(figures, 0.75) - Quantile(figures, 0.25)};
}

void RunGates() {
  const size_t n = bench::EnvU64("LDPJS_MICRO_REPORTS", 1'000'000);
  Require(n >= kMaxWireBatchReports, "LDPJS_MICRO_REPORTS", n,
          ">= one wire frame (4096)");
  const char* json_env = std::getenv("LDPJS_BENCH_JSON");
  const std::string json_path =
      json_env != nullptr && *json_env != '\0' ? json_env : "BENCH_micro.json";
  SketchParams params;
  params.k = 18;
  params.m = 1024;
  params.seed = 5;
  const double epsilon = 4.0;
  LdpJoinSketchClient client(params, epsilon);
  const size_t service_shards = SharedThreadPool().num_threads();
  // BENCH_micro.json rows, appended as the legs run. A timing figure adds
  // its median under `key` and its IQR under `iqr_key`, and returns the
  // median for its gate.
  std::vector<std::pair<std::string, double>> metrics = {
      {"reports", static_cast<double>(n)},
      {"service_shards", static_cast<double>(service_shards)}};
  auto add_trials = [&](const char* key, const char* iqr_key,
                        const MedianIqr& trials) {
    metrics.emplace_back(key, trials.median);
    metrics.emplace_back(iqr_key, trials.iqr);
    return trials.median;
  };

  // Synthetic skewed values (so the join estimates carry signal) and their
  // perturbed reports, generated once.
  ZipfParams zipf;
  zipf.alpha = 1.2;
  zipf.domain = 10000;
  zipf.rows = n;
  zipf.seed = 1;
  const std::vector<uint64_t> values_a = GenerateZipf(zipf).values();
  zipf.seed = 2;
  const std::vector<uint64_t> values_b = GenerateZipf(zipf).values();
  std::vector<LdpReport> reports_a(n), reports_b(n);
  Xoshiro256 rng_a(11), rng_b(12);
  client.PerturbBatch(values_a, reports_a, rng_a);
  client.PerturbBatch(values_b, reports_b, rng_b);

  // One epoch's raw-lane snapshot, shipped by the two central legs.
  const size_t epoch_reports = std::min<size_t>(n, 100'000);
  LdpJoinSketchServer epoch_sketch(params, epsilon);
  epoch_sketch.AbsorbBatch(std::span(reports_a).first(epoch_reports));
  const std::vector<uint8_t> snapshot = epoch_sketch.Serialize();

  // --- Gate: STATS_PUSH costs <= 1% of ship throughput. One session ships
  // epoch snapshots to a central, and every 128th ship of the stats side is
  // preceded by a STATS_PUSH on the same session — the way a region
  // interleaves them. Both sides ship on the same session, so no central
  // or reader thread can favour one of them. A trial is exactly 512 pairs,
  // so the stats side pays exactly 4 pushes in each. Its extra time is the
  // whole excess of the 4 pairs that carried a push (the push, whose
  // central-side cost is inside its ack, and any effect on the ship after
  // it) plus, for the other pairs, the median paired difference (a median
  // shrugs off the scheduler spikes that swamp a sum of sub-ms ships on a
  // shared host); the overhead is that over the trial's plain ship time.
  {
    FrameServerOptions options;
    options.num_shards = service_shards;
    FrameServer central(params, epsilon, options);
    RequireOk(central.Start(), "stats-push central starts");
    auto sender =
        FrameSender::Connect("127.0.0.1", central.port(), params, epsilon);
    RequireOk(sender.status(), "stats-push session connects");
    uint64_t epoch = 0, stats_ships = 0;
    constexpr uint64_t kShipsPerStatsPush = 128;
    constexpr size_t kPairsPerTrial = 4 * kShipsPerStatsPush;
    auto ship = [&] {
      auto applied = sender->PushEpochSnapshot(0, epoch++, snapshot);
      RequireOk(applied.status(), "epoch snapshot ships");
      Require(applied->code == EpochPushAckCode::kApplied,
              "epoch snapshot ack code", static_cast<int>(applied->code),
              "kApplied");
    };
    const std::vector<PairedWindow> windows = MeasurePairedTrials(
        kPairsPerTrial, /*min_seconds=*/0.0,
        [&] {
          if (++stats_ships % kShipsPerStatsPush == 0) {
            FleetSnapshot stats;
            stats.region_id = 0;
            stats.captured_unix_ns = NowNanos();
            stats.stats = MetricsRegistry::Default().TakeSnapshot();
            RequireOk(sender->PushStats(stats), "STATS_PUSH sends");
          }
          ship();
        },
        ship);
    const MedianIqr overhead_pct = SummarizeTrials(windows, [](const auto& w) {
      // The warm-up pass is stats-side ship 1, so each trial's pushes ride
      // its pairs j with j + 2 ≡ 0 (mod 128).
      double push_pairs_excess = 0.0;
      std::vector<double> diff;
      for (size_t j = 0; j < kPairsPerTrial; ++j) {
        const double d = w.a_seconds[j] - w.b_seconds[j];
        if ((j + 2) % kShipsPerStatsPush == 0) {
          push_pairs_excess += d;
        } else {
          diff.push_back(d);
        }
      }
      const double extra = push_pairs_excess + Median(diff) * diff.size();
      // Signed: noise reads both ways.
      return extra / (Median(w.b_seconds) * kPairsPerTrial) * 100.0;
    });
    RequireOk(sender->Finish(), "stats-push session finishes");
    central.Stop();
    const size_t fleet_regions = central.CurrentFleetView().regions.size();
    Require(fleet_regions == 1, "fleet view regions after STATS_PUSH",
            fleet_regions, "1");
    Require(stats_ships == 1 + kPairedTrials * kPairsPerTrial,
            "stats-side ships", stats_ships,
            Num(1 + kPairedTrials * kPairsPerTrial));
    const double overhead = add_trials(
        "stats_push_overhead_pct", "stats_push_overhead_iqr_pct", overhead_pct);
    Require(overhead <= 1.0, "stats_push_overhead_pct", overhead, "<= 1");
  }

  // --- Central windowed estimates: the incrementally cached WindowedView
  // vs a full re-merge of the lifetime view, answering the same kind of
  // query (finalized view + join estimate against a fixed sketch) on a
  // central that has applied several epoch pushes. The cached path pays one
  // lane copy + the estimate; the re-merge path pays shard merges + the k
  // Hadamard transforms of a fresh finalize (PublishView) every query. ----
  {
    LdpJoinSketchServer estimate_against(params, epsilon);
    estimate_against.AbsorbBatch(std::span(reports_b).first(epoch_reports));
    estimate_against.Finalize();

    CentralNodeOptions central_options;
    central_options.server.num_shards = service_shards;
    central_options.finalize_after = 1;
    central_options.window_epochs = 4;
    CentralNode central(params, epsilon, central_options);
    RequireOk(central.Start(), "windowed central starts");
    auto sender =
        FrameSender::Connect("127.0.0.1", central.port(), params, epsilon);
    RequireOk(sender.status(), "windowed central session connects");
    for (uint64_t epoch = 0; epoch < 6; ++epoch) {  // 2 epochs slide out
      RequireOk(sender->PushEpochSnapshot(0, epoch, snapshot).status(),
                "windowed central epoch push");
    }
    const std::vector<PairedWindow> windows = MeasurePairedTrials(
        /*min_pairs=*/3, /*min_seconds=*/0.1,
        [&] {
          const LdpJoinSketchServer view =
              central.WindowedPublishedView()->sketch;
          Sink(view.JoinEstimate(estimate_against));
        },
        [&] {
          central.server_mutable().PublishView();
          const auto view = central.server().CurrentPublishedView();
          Sink(view->sketch.JoinEstimate(estimate_against));
        });
    add_trials("central_view_cache_speedup", "central_view_cache_speedup_iqr",
               SummarizeTrials(windows, [](const PairedWindow& w) {
                 return Sum(w.b_seconds) / Sum(w.a_seconds);
               }));
    // Sanity: the window really slid — 4 of 6 epochs in the view.
    const uint64_t expired = central.window()->epochs_expired();
    Require(expired == 2, "windowed epochs expired", expired, "2");
    const uint64_t windowed_reports =
        central.WindowedPublishedView()->sketch.total_reports();
    Require(windowed_reports == 4 * epoch_reports, "windowed view reports",
            windowed_reports, Num(4 * epoch_reports));
    RequireOk(sender->Finish(), "windowed central session finishes");
    central.Stop();
  }

  // --- Gates: RCU published views. The steady-state read path is one
  // atomic shared_ptr load — pointer-stable while the view is clean, cost
  // independent of sketch size, and far cheaper than copying the published
  // sketch. A copy-on-read cache would copy the whole k·m sketch on every
  // call, so its cost would scale linearly with m. ------------------------
  {
    // A window that has published one applied epoch. Read and copy costs
    // depend on the sketch's shape only, so the epoch carries no reports.
    auto loaded_window = [&](int m) {
      SketchParams view_params = params;
      view_params.m = m;
      auto window =
          std::make_unique<WindowedView>(view_params, epsilon, 4, 1);
      LdpJoinSketchServer epoch(view_params, epsilon);
      window->OnEpochApplied(0, 0, &epoch);
      return window;
    };
    constexpr int kReadsPerPass = 4096;
    auto reads = [](const WindowedView& window) {
      return [&window] {
        for (int i = 0; i < kReadsPerPass; ++i) Sink(window.Published().get());
      };
    };
    const auto narrow = loaded_window(1024);
    const auto wide = loaded_window(16384);
    // Size independence: a 16x wider sketch may not slow acquisition by
    // even 8x (a copy-on-read path scales ~16x here; an atomic load is
    // flat, so 8x is pure noise headroom).
    const double slowdown = add_trials(
        "rcu_wide_vs_narrow_read_slowdown",
        "rcu_wide_vs_narrow_read_slowdown_iqr",
        SummarizeTrials(MeasurePairedTrials(/*min_pairs=*/16,
                                            /*min_seconds=*/0.01,
                                            reads(*narrow), reads(*wide)),
                        [](const PairedWindow& w) {
                          return Sum(w.b_seconds) / Sum(w.a_seconds);
                        }));
    Require(slowdown <= 8.0, "rcu_wide_vs_narrow_read_slowdown", slowdown,
            "<= 8");

    // And the zero-copy path must beat a copy of the sketch handily.
    const auto copy_sketch = [&] {
      const LdpJoinSketchServer view = wide->Published()->sketch;
      Sink(view.total_reports());
    };
    const double speedup = add_trials(
        "rcu_published_vs_copy_speedup", "rcu_published_vs_copy_speedup_iqr",
        SummarizeTrials(
            MeasurePairedTrials(/*min_pairs=*/8, /*min_seconds=*/0.01,
                                reads(*wide), copy_sketch),
            [](const PairedWindow& w) {
              return kReadsPerPass * Sum(w.b_seconds) / Sum(w.a_seconds);
            }));
    Require(speedup >= 4.0, "rcu_published_vs_copy_speedup", speedup, ">= 4");
  }

  // --- Gate: recording into a hot-path histogram with metrics ON, versus
  // the single-branch disabled path, costs under 2% of one wire frame's
  // absorb budget — instrumentation stays in the noise. The budget is
  // AbsorbBatch of one full frame (kMaxWireBatchReports reports), paired
  // with itself: a window is simply twice the samples of one path. ---------
  {
    const auto frame = std::span(reports_a).first(kMaxWireBatchReports);
    LdpJoinSketchServer sketch(params, epsilon);
    const auto absorb_frame = [&] { sketch.AbsorbBatch(frame); };
    const double frame_ns = add_trials(
        "frame_absorb_ns", "frame_absorb_iqr_ns",
        SummarizeTrials(MeasurePairedTrials(/*min_pairs=*/64,
                                            /*min_seconds=*/0.01,
                                            absorb_frame, absorb_frame),
                        [](const PairedWindow& w) {
                          return (Sum(w.a_seconds) + Sum(w.b_seconds)) * 1e9 /
                                 static_cast<double>(2 * w.a_seconds.size());
                        }));

    constexpr uint64_t kRecordsPerPass = 1 << 16;
    ObsHistogram histogram;
    auto records = [&](bool enabled) {
      return [&histogram, enabled] {
        SetObsEnabled(enabled);
        for (uint64_t i = 0; i < kRecordsPerPass; ++i) histogram.Record(i);
      };
    };
    const double record_ns = add_trials(
        "metrics_record_overhead_ns", "metrics_record_overhead_iqr_ns",
        SummarizeTrials(
            MeasurePairedTrials(/*min_pairs=*/4, /*min_seconds=*/0.01,
                                records(true), records(false)),
            [](const PairedWindow& w) {
              // Signed: noise reads both ways.
              return (Sum(w.a_seconds) - Sum(w.b_seconds)) * 1e9 /
                     static_cast<double>(w.a_seconds.size() * kRecordsPerPass);
            }));
    SetObsEnabled(true);
    Require(record_ns < 0.02 * frame_ns, "metrics_record_overhead_ns",
            record_ns, "< 2% of frame_absorb_ns = " + Num(0.02 * frame_ns));
  }

  // --- Gates: bit identity. Scalar Absorb, AbsorbBatch and sharded wire
  // ingest of the same reports reach the same raw lanes, so their finalized
  // join estimates agree exactly. -----------------------------------------
  auto join_estimate = [&](const auto& finalized_sketch) {
    return finalized_sketch(reports_a).JoinEstimate(finalized_sketch(reports_b));
  };
  const double estimate_scalar =
      join_estimate([&](std::span<const LdpReport> reports) {
        LdpJoinSketchServer sketch(params, epsilon);
        for (const LdpReport& r : reports) sketch.Absorb(r);
        sketch.Finalize();
        return sketch;
      });
  const double estimate_batch =
      join_estimate([&](std::span<const LdpReport> reports) {
        LdpJoinSketchServer sketch(params, epsilon);
        sketch.AbsorbBatch(reports);
        sketch.Finalize();
        return sketch;
      });
  const double estimate_sharded =
      join_estimate([&](std::span<const LdpReport> reports) {
        BinaryWriter stream;
        for (size_t first = 0; first < reports.size();
             first += kMaxWireBatchReports) {
          BinaryWriter frame;
          EncodeReportBatch(
              reports.subspan(first, std::min(kMaxWireBatchReports,
                                              reports.size() - first)),
              frame);
          stream.PutFrame(frame.buffer());
        }
        ShardedAggregator service(params, epsilon, service_shards);
        RequireOk(service.IngestStream(stream.buffer()), "sharded ingest");
        return service.Finalize();
      });
  RequireIdentical("estimate_batch_equals_scalar", estimate_batch,
                   estimate_scalar);
  RequireIdentical("estimate_sharded_equals_batch", estimate_sharded,
                   estimate_batch);

  metrics.insert(
      metrics.end(),
      {{"estimate_scalar", estimate_scalar},
       {"estimate_batch", estimate_batch},
       {"estimate_sharded", estimate_sharded},
       {"estimate_batch_equals_scalar",
        estimate_batch == estimate_scalar ? 1.0 : 0.0},
       {"estimate_sharded_equals_batch",
        estimate_sharded == estimate_batch ? 1.0 : 0.0}});

  // The gates' keys must stay present, so the trajectory of committed
  // BENCH_micro.json files remains comparable. A rename or accidental drop
  // fails the bench loudly instead of silently truncating history.
  static constexpr const char* kRequiredKeys[] = {
      "reports", "stats_push_overhead_pct", "central_view_cache_speedup",
      "rcu_published_vs_copy_speedup", "rcu_wide_vs_narrow_read_slowdown",
      "frame_absorb_ns", "metrics_record_overhead_ns",
      "estimate_batch_equals_scalar", "estimate_sharded_equals_batch",
  };
  for (const char* key : kRequiredKeys) {
    const bool present = std::ranges::any_of(
        metrics, [&](const auto& row) { return row.first == key; });
    Require(present, std::string("BENCH_micro.json key ") + key, 0, "present");
  }

  for (const auto& [name, value] : metrics) {
    std::printf("%-38s %.6g\n", name.c_str(), value);
  }
  bench::WriteBenchJson(json_path, metrics);
  std::printf("wrote %s\n", json_path.c_str());
}

}  // namespace
}  // namespace ldpjs

int main() {
  ldpjs::RunGates();
  return 0;
}
