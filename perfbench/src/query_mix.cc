// query_mix: the read side under writes. A FrameServer preloaded with a few
// million reports serves two closed-loop query connections sending a fixed
// mix of small probes, the burst shape of a cost-based optimizer's
// cardinality probes: mostly point frequencies, plus narrow range counts,
// narrow predicate joins, join sizes against a probe sketch and a
// small-domain frequent-items scan. A third connection ingests open-loop at
// a paced rate far below saturation and sends a PING at a fixed interval,
// so the view republishes while the readers run.
#include <array>
#include <atomic>
#include <bit>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "common/random.h"
#include "net/frame_sender.h"
#include "net/frame_server.h"
#include "service/query_engine.h"
#include "workloads.h"

namespace pb {

namespace {

using ldpjs::FrameSender;
using ldpjs::FrameServer;
using ldpjs::PublishedView;
using ldpjs::QueryKind;
using ldpjs::QueryRequest;
using ldpjs::QueryResponse;

constexpr int kSketchColumns = 1024;
constexpr size_t kPoolFrames = 256;      // 1M reports
constexpr size_t kPreloadPasses = 3;     // 3.1M reports before the readers
constexpr size_t kProbeFrames = 64;      // the join-size probe's table
constexpr size_t kShards = 2;
constexpr size_t kQueryConnections = 2;
constexpr size_t kRequests = 4096;       // the fixed request sequence
/// Paced ingest: one frame every 2 ms (2M reports/s, a few percent of the
/// server's capacity) and a PING every 50 frames (every 100 ms).
constexpr uint64_t kIngestIntervalNs = 2'000'000;
constexpr size_t kFramesPerPing = 50;
/// One in kCheckEvery served answers of each kind is checked against
/// AnswerQuery, counted per connection and kind over the whole run, so the
/// first answer of every kind is always among them.
constexpr uint64_t kCheckEvery = 32;
constexpr uint64_t kRangeWidth = 64;
constexpr uint64_t kFrequentItemsDomain = 4096;

constexpr const char* kKindNames[] = {"join_size",   "frequency",
                                      "frequent_items", "multiway",
                                      "range_count", "predicate_join"};

const char* KindName(QueryKind kind) {
  return kKindNames[static_cast<size_t>(kind)];
}

/// Query span names, one per kind (string literals, as Span requires).
const char* KindSpan(QueryKind kind) {
  switch (kind) {
    case QueryKind::kJoinSize: return "net.query.join_size";
    case QueryKind::kFrequency: return "net.query.frequency";
    case QueryKind::kFrequentItems: return "net.query.frequent_items";
    case QueryKind::kRangeCount: return "net.query.range_count";
    case QueryKind::kPredicateJoin: return "net.query.predicate_join";
    case QueryKind::kMultiwayChain: break;
  }
  return "net.query.other";
}

/// The kind of request `i`: of every 400, 389 point frequencies, 8 range
/// counts, and one each of predicate join, join size and frequent items.
/// The three heavy kinds decode a probe sketch or scan a domain on the
/// server's shared thread pool, so they cost 25-40x a point probe; kept
/// this rare they stay visible in query_qps without dominating it.
QueryKind KindOf(size_t i) {
  switch (i % 400) {
    case 124: return QueryKind::kPredicateJoin;
    case 224: return QueryKind::kJoinSize;
    case 324: return QueryKind::kFrequentItems;
    default: break;
  }
  return i % 50 == 49 ? QueryKind::kRangeCount : QueryKind::kFrequency;
}

/// Keys come from the Zipf data, so hot keys dominate as they would in a
/// real optimizer's probes.
std::vector<QueryRequest> MakeRequests(const ReportPool& pool,
                                       const std::vector<uint8_t>& probe,
                                       uint64_t seed) {
  ldpjs::Xoshiro256 rng = ldpjs::MakeStreamRng(seed ^ 0x9E11ULL, 0);
  std::vector<QueryRequest> requests(kRequests);
  for (size_t i = 0; i < kRequests; ++i) {
    QueryRequest& r = requests[i];
    const uint64_t key = pool.values[rng.NextBounded(pool.values.size())];
    r.kind = KindOf(i);
    switch (r.kind) {
      case QueryKind::kRangeCount:
      case QueryKind::kPredicateJoin:
        r.range_lo = key;
        r.range_hi = key + kRangeWidth - 1;
        if (r.kind == QueryKind::kPredicateJoin) r.probe_sketch = probe;
        break;
      case QueryKind::kJoinSize:
        r.probe_sketch = probe;
        break;
      case QueryKind::kFrequentItems:
        r.domain = kFrequentItemsDomain;
        r.threshold = 2000.0;
        break;
      default:
        r.key = key;
        break;
    }
  }
  return requests;
}

struct Deployment {
  ReportPool pool;
  std::vector<uint8_t> probe;  ///< serialized raw-lane probe sketch
  std::vector<QueryRequest> requests;
  std::unique_ptr<FrameServer> server;
  std::optional<FrameSender> ingest;
  std::vector<FrameSender> readers;
};

std::optional<Deployment> Deploy(const ldpjs::SketchParams& params,
                                 uint64_t seed, RunResult* result) {
  Deployment d;
  d.pool = MakePool(params, kPoolFrames, seed, seed ^ 0x51A7ULL);
  const ReportPool probe_pool =
      MakePool(params, kProbeFrames, seed + 0x9A3B, seed ^ 0x7B0BULL);
  d.probe = AbsorbPool(params, probe_pool).Serialize();
  d.requests = MakeRequests(d.pool, d.probe, seed);

  ldpjs::FrameServerOptions options;
  options.num_shards = kShards;
  d.server = std::make_unique<FrameServer>(params, kEpsilon, options);
  const bool started = d.server->Start().ok();
  result->Op(started, "FrameServer::Start");
  if (!started) return std::nullopt;
  auto ingest =
      FrameSender::Connect("127.0.0.1", d.server->port(), params, kEpsilon);
  result->Op(ingest.ok(), "FrameSender::Connect (ingest)");
  if (!ingest.ok()) return std::nullopt;
  d.ingest.emplace(std::move(*ingest));
  bool preloaded = true;
  for (size_t pass = 0; pass < kPreloadPasses; ++pass) {
    for (const auto& frame : d.pool.frames) {
      preloaded = d.ingest->SendEncodedBatch(frame).ok() && preloaded;
    }
  }
  preloaded = d.ingest->Ping().ok() && preloaded;
  result->Op(preloaded, "preload + PING");
  if (!preloaded) return std::nullopt;
  for (size_t c = 0; c < kQueryConnections; ++c) {
    auto reader =
        FrameSender::Connect("127.0.0.1", d.server->port(), params, kEpsilon);
    result->Op(reader.ok(), "FrameSender::Connect (reader)");
    if (!reader.ok()) return std::nullopt;
    d.readers.push_back(std::move(*reader));
  }
  return d;
}

bool SameAnswer(const QueryResponse& a, const QueryResponse& b) {
  return a.kind == b.kind && a.view_sequence == b.view_sequence &&
         a.view_reports == b.view_reports &&
         std::bit_cast<uint64_t>(a.value) == std::bit_cast<uint64_t>(b.value) &&
         a.items == b.items;
}

}  // namespace

RunResult RunQueryMix(const Args& args) {
  RunResult result;
  result.op_name = "query";
  result.rate_name = "query_qps";
  result.cpu_name = "query_cpu_ns_per_query";
  result.latency_name = "query";
  result.latency_unit = "us";
  // p99 sits where the point-probe tail meets the rare heavy kinds, so it
  // jumps between the two; the report prints p90 and p99.
  result.tail_pct = 90.0;
  const ldpjs::SketchParams params = MakeParams(kSketchColumns, args.seed);

  std::optional<Deployment> d;
  for (int i = 0; i < kSetupRepeats; ++i) {
    d.reset();
    const uint64_t t0 = NowNs();
    d = Deploy(params, args.seed, &result);
    result.setup_s.Add(SecondsSince(t0));
    if (!d) return result;
  }

  // Every view the readers can be served from: the preload view and one per
  // paced PING (only the ingest connection ever publishes).
  std::map<uint64_t, std::shared_ptr<const PublishedView>> views;
  auto capture_view = [&] {
    auto view = d->server->CurrentPublishedView();
    views[view->sequence] = view;
  };
  capture_view();

  struct Served {
    size_t request;
    QueryResponse response;
  };
  std::vector<std::vector<Served>> served(kQueryConnections);
  std::vector<size_t> cursor(kQueryConnections);
  std::vector<std::array<uint64_t, std::size(kKindNames)>> served_of_kind(
      kQueryConnections);
  for (size_t c = 0; c < kQueryConnections; ++c) {
    cursor[c] = c * kRequests / kQueryConnections;
  }
  std::map<std::string, Samples> rtt_by_kind;
  Samples lag_ms;
  size_t ingest_frame = 0;
  std::atomic<uint64_t> loadgen_cpu_ns{0};
  uint64_t next_op = 1;

  RunMeasured(args, &result, [&](double seconds) {
    const uint64_t start = NowNs();
    const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
    const uint64_t op_base = next_op;
    next_op += uint64_t{1} << 40;

    // Open-loop paced ingest: frame i is due at start + i·interval whatever
    // happened before; lateness is recorded, never absorbed.
    uint64_t ingest_attempted = 0, ingest_failed = 0;
    std::thread ingest([&] {
      const uint64_t cpu0 = ThreadCpuNs();
      for (uint64_t i = 0;; ++i) {
        const uint64_t due = start + i * kIngestIntervalNs;
        if (due >= deadline) break;
        // Read the clock once per check: `due - NowNs()` after a separate
        // `NowNs() < due` test underflows when `due` passes in between.
        for (uint64_t now = NowNs(); now < due; now = NowNs()) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        }
        lag_ms.Add(static_cast<double>(NowNs() - due) / 1e6);
        const uint64_t op = op_base + (i << 2) + 3;
        Span root("bench.ingest", op);
        bool ok;
        {
          Span span("net.send", op);
          ok = d->ingest->SendEncodedBatch(d->pool.frames[ingest_frame]).ok();
        }
        ingest_frame = (ingest_frame + 1) % d->pool.num_frames();
        ++ingest_attempted;
        if (!ok) ++ingest_failed;
        if ((i + 1) % kFramesPerPing == 0) {
          {
            Span span("net.ping", op);
            ok = d->ingest->Ping().ok();
          }
          ++ingest_attempted;
          if (!ok) ++ingest_failed;
          capture_view();
        }
      }
      loadgen_cpu_ns += ThreadCpuNs() - cpu0;
    });

    std::vector<Samples> latency(kQueryConnections);
    std::vector<std::map<std::string, Samples>> by_kind(kQueryConnections);
    std::vector<uint64_t> failed(kQueryConnections, 0),
        count(kQueryConnections, 0);
    std::vector<std::thread> readers;
    for (size_t c = 0; c < kQueryConnections; ++c) {
      readers.emplace_back([&, c] {
        const uint64_t cpu0 = ThreadCpuNs();
        FrameSender& sender = d->readers[c];
        do {
          const size_t idx = cursor[c];
          cursor[c] = (cursor[c] + 1) % kRequests;
          const QueryRequest& request = d->requests[idx];
          const uint64_t op = op_base + (count[c] << 2) + c;
          const uint64_t t0 = NowNs();
          Span root("bench.query", op);
          auto response = [&] {
            Span span(KindSpan(request.kind), op);
            return sender.Query(request);
          }();
          const double us = static_cast<double>(NowNs() - t0) / 1e3;
          latency[c].Add(us / 1e3);
          by_kind[c][KindName(request.kind)].Add(us);
          uint64_t& of_kind =
              served_of_kind[c][static_cast<size_t>(request.kind)];
          if (!response.ok()) {
            ++failed[c];
          } else if (of_kind++ % kCheckEvery == 0) {
            served[c].push_back(Served{idx, std::move(*response)});
          }
          ++count[c];
        } while (NowNs() < deadline);
        loadgen_cpu_ns += ThreadCpuNs() - cpu0;
      });
    }
    for (auto& t : readers) t.join();
    ingest.join();
    double done = 0.0;
    for (size_t c = 0; c < kQueryConnections; ++c) {
      result.latency_ms.Append(latency[c]);
      for (const auto& [kind, s] : by_kind[c]) rtt_by_kind[kind].Append(s);
      result.attempted += count[c];
      result.failed += failed[c];
      done += static_cast<double>(count[c]);
    }
    result.attempted += ingest_attempted;
    result.failed += ingest_failed;
    return done;
  });

  // Check: the sampled served answers equal AnswerQuery on the very view
  // that served them, bit for bit, with at least one answer of every kind.
  std::map<std::string, std::pair<uint64_t, uint64_t>> checked_by_kind;
  for (QueryKind kind :
       {QueryKind::kFrequency, QueryKind::kRangeCount,
        QueryKind::kPredicateJoin, QueryKind::kJoinSize,
        QueryKind::kFrequentItems}) {
    checked_by_kind[KindName(kind)] = {0, 0};
  }
  for (const auto& per_conn : served) {
    for (const Served& s : per_conn) {
      const QueryRequest& request = d->requests[s.request];
      auto& [checked, mismatched] = checked_by_kind[KindName(request.kind)];
      ++checked;
      auto view = views.find(s.response.view_sequence);
      if (view == views.end()) {
        ++mismatched;
        continue;
      }
      auto expected = ldpjs::AnswerQuery(*view->second, request);
      if (!expected.ok() || !SameAnswer(*expected, s.response)) ++mismatched;
    }
  }
  for (const auto& [kind, counts] : checked_by_kind) {
    const auto [checked, mismatched] = counts;
    result.attempted += checked;
    result.failed += mismatched;
    if (checked == 0) ++result.failed;
    result.notes.push_back(
        std::string(mismatched == 0 && checked > 0 ? "ok     " : "FAILED ") +
        std::to_string(checked - mismatched) + " of " +
        std::to_string(checked) + " " + kind +
        " answers == AnswerQuery on the serving view, bit for bit (1 in " +
        std::to_string(kCheckEvery) + " served)");
  }
  for (const auto& [kind, s] : rtt_by_kind) {
    result.extra["query_p50_us." + kind] = Metric{s.Median(), "us", s.n()};
  }
  result.extra["loadgen_lag_p99_ms"] = Metric{lag_ms.Percentile(99), "ms",
                                              lag_ms.n()};

  if (args.trace) {
    SetTracing(true);
    auto& layers = result.layers;
    ProbeIngestLayers(params, d->pool, kShards, &result);
    layers["service.publish_us"] =
        TimePerItem("service.publish", 1.0, 20, 1e3, "us",
                    [&] { d->server->PublishView(); });
    const auto view = d->server->CurrentPublishedView();
    for (QueryKind kind :
         {QueryKind::kFrequency, QueryKind::kRangeCount,
          QueryKind::kPredicateJoin, QueryKind::kJoinSize,
          QueryKind::kFrequentItems}) {
      std::vector<const QueryRequest*> of_kind;
      for (const QueryRequest& r : d->requests) {
        if (r.kind == kind && of_kind.size() < 64) of_kind.push_back(&r);
      }
      bool ok = true;
      layers[std::string("service.answer_us.") + KindName(kind)] =
          TimePerItem("service.answer", static_cast<double>(of_kind.size()),
                      5, 1e3, "us", [&] {
                        for (const QueryRequest* r : of_kind) {
                          ok = ldpjs::AnswerQuery(*view, *r).ok() && ok;
                        }
                      });
      result.Check(ok, std::string("AnswerQuery serves every ") +
                           KindName(kind) + " probe");
    }
    constexpr int kAcquires = 1 << 18;
    uint64_t sequences = 0;
    layers["service.view_acquire_ns"] =
        TimePerItem("service.view_acquire", kAcquires, 5, 1.0, "ns", [&] {
          for (int i = 0; i < kAcquires; ++i) {
            sequences += d->server->CurrentPublishedView()->sequence;
          }
        });
    result.Check(sequences > 0, "CurrentPublishedView is never empty");
    uint64_t busy = d->ingest->busy_retries();
    for (const FrameSender& s : d->readers) busy += s.busy_retries();
    RecordIngestCounters(d->server->metrics(), busy, &result);
    RecordCpuSplit(static_cast<double>(loadgen_cpu_ns.load()), &result);
    layers["loadgen.lag_ms"] = result.extra["loadgen_lag_p99_ms"];
    SetTracing(false);
    FinishTrace(args, &result);
  }

  result.Op(d->ingest->Finish().ok(), "BYE (ingest)");
  for (FrameSender& s : d->readers) result.Op(s.Finish().ok(), "BYE (reader)");
  d->server->Stop();
  return result;
}

}  // namespace pb
