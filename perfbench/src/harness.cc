#include "harness.h"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>

namespace pb {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

uint64_t ClockNs(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

}  // namespace

uint64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }
uint64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }

double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

void ReadCpuJiffies(uint64_t* steal, uint64_t* total) {
  *steal = 0;
  *total = 0;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return;
  // "cpu  user nice system idle iowait irq softirq steal guest guest_nice"
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    *steal = v[7];
    for (unsigned long long x : v) *total += x;
  }
  std::fclose(f);
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double SupportedTailPercentile(size_t n) {
  for (double p : {99.0, 95.0, 90.0, 50.0}) {
    if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0) return p;
  }
  return 100.0;
}

// ---- Tracing ---------------------------------------------------------------

namespace {

std::atomic<bool> g_tracing{false};

/// Several times the spans one thread records in a traced run at the
/// default run length; spans past the cap are not recorded, so memory stays
/// bounded.
constexpr size_t kMaxSpansPerThread = size_t{1} << 20;

struct ThreadBuffer {
  std::vector<SpanRecord> spans;
  std::vector<int32_t> open;  ///< stack of open span indices
};

std::mutex g_buffers_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;

ThreadBuffer& LocalBuffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    buffer = g_buffers.back().get();
  }
  return *buffer;
}

}  // namespace

bool TracingOn() { return g_tracing.load(std::memory_order_relaxed); }
void SetTracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }

Span::Span(const char* name, uint64_t op_id) {
  if (!TracingOn()) return;
  ThreadBuffer& b = LocalBuffer();
  if (b.spans.size() >= kMaxSpansPerThread) return;
  index_ = static_cast<int32_t>(b.spans.size());
  const int32_t parent = b.open.empty() ? -1 : b.open.back();
  b.spans.push_back(SpanRecord{name, op_id, parent, NowNs(), 0, 0});
  b.open.push_back(index_);
}

Span::~Span() {
  if (index_ < 0) return;
  ThreadBuffer& b = LocalBuffer();
  SpanRecord& s = b.spans[static_cast<size_t>(index_)];
  s.end_ns = NowNs();
  b.open.pop_back();
  if (s.parent >= 0) {
    b.spans[static_cast<size_t>(s.parent)].child_ns += s.end_ns - s.start_ns;
  }
}

size_t CollectSpans(std::map<std::string, Samples>* duration_us_by_name,
                    std::map<std::string, LayerSelf>* self_by_layer,
                    const std::string& path) {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  std::FILE* out = path.empty() ? nullptr : std::fopen(path.c_str(), "w");
  if (out != nullptr) {
    std::fprintf(out, "name\top_id\tparent\tstart_ns\tend_ns\n");
  }
  size_t count = 0;
  for (const auto& buffer : g_buffers) {
    for (const SpanRecord& s : buffer->spans) {
      if (s.end_ns == 0) continue;  // never closed (cannot happen normally)
      ++count;
      const uint64_t duration = s.end_ns - s.start_ns;
      (*duration_us_by_name)[s.name].Add(static_cast<double>(duration) / 1e3);
      const char* dot = std::strchr(s.name, '.');
      LayerSelf& self =
          (*self_by_layer)[dot == nullptr
                               ? std::string(s.name)
                               : std::string(s.name, static_cast<size_t>(
                                                         dot - s.name))];
      // Signed: children can only cover their parent, but never clamp.
      self.ms +=
          (static_cast<double>(duration) - static_cast<double>(s.child_ns)) /
          1e6;
      ++self.spans;
      if (out != nullptr) {
        const char* parent =
            s.parent < 0 ? "-"
                         : buffer->spans[static_cast<size_t>(s.parent)].name;
        std::fprintf(out, "%s\t%llu\t%s\t%llu\t%llu\n", s.name,
                     static_cast<unsigned long long>(s.op_id), parent,
                     static_cast<unsigned long long>(s.start_ns),
                     static_cast<unsigned long long>(s.end_ns));
      }
    }
  }
  if (out != nullptr) std::fclose(out);
  return count;
}

// ---- Results ---------------------------------------------------------------

void RunResult::Check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) ++failed;
  notes.push_back(std::string(ok ? "ok     " : "FAILED ") + what);
}

void RunResult::Op(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    // Keep the first few failures readable; the count carries the rest.
    if (failed <= 5) notes.push_back("FAILED " + what);
  }
}

void RunMeasured(const Args& args, RunResult* result,
                 const std::function<double(double seconds)>& segment) {
  auto run = [&](double seconds, bool traced, double* ops, double* wall) {
    SetTracing(traced);
    const uint64_t cpu0 = ProcessCpuNs();
    const uint64_t t0 = NowNs();
    const double done = segment(seconds);
    const double s = SecondsSince(t0);
    result->cpu_ns += static_cast<double>(ProcessCpuNs() - cpu0);
    result->ops += done;
    result->measure_s += s;
    *ops += done;
    *wall += s;
    SetTracing(false);
  };
  uint64_t steal0 = 0, total0 = 0, steal1 = 0, total1 = 0;
  ReadCpuJiffies(&steal0, &total0);
  auto end_window = [&] {
    ReadCpuJiffies(&steal1, &total1);
    const double total = static_cast<double>(total1 - total0);
    const Metric steal{total > 0 ? static_cast<double>(steal1 - steal0) /
                                       total * 100.0
                                 : 0.0,
                       "%", 1};
    result->extra["host_steal_pct"] = steal;
    result->layers["host.steal_pct"] = steal;
    result->peak_rss_mb = PeakRssMb();
  };
  if (!args.trace) {
    double elapsed = 0.0;
    while (elapsed < args.seconds) {
      const size_t first = result->latency_ms.n();
      const double cpu_before = result->cpu_ns;
      double ops = 0.0, wall = 0.0;
      uint64_t slice_steal0 = 0, slice_total0 = 0, slice_steal1 = 0,
               slice_total1 = 0;
      ReadCpuJiffies(&slice_steal0, &slice_total0);
      run(std::min(result->slice_s, args.seconds - elapsed), false, &ops,
          &wall);
      ReadCpuJiffies(&slice_steal1, &slice_total1);
      result->slice_steal_pct.Add(
          slice_total1 > slice_total0
              ? static_cast<double>(slice_steal1 - slice_steal0) /
                    static_cast<double>(slice_total1 - slice_total0) * 100.0
              : 0.0);
      elapsed += wall;
      Samples latency;
      const std::vector<double>& all = result->latency_ms.values();
      for (size_t i = first; i < all.size(); ++i) latency.Add(all[i]);
      result->slice_rate.Add(ops / wall);
      result->slice_cpu_ns.Add((result->cpu_ns - cpu_before) / ops);
      result->slice_p50_ms.Add(latency.Median());
      result->slice_tail_ms.Add(latency.Percentile(result->tail_pct));
    }
    end_window();
    return;
  }
  double plain_ops = 0.0, plain_wall = 0.0, traced_ops = 0.0,
         traced_wall = 0.0;
  for (int quarter = 0; quarter < 4; ++quarter) {
    const bool traced = quarter % 2 == 1;
    run(args.seconds / 4.0, traced, traced ? &traced_ops : &plain_ops,
        traced ? &traced_wall : &plain_wall);
  }
  end_window();
  const double plain_rate = plain_ops / plain_wall;
  const double traced_rate = traced_ops / traced_wall;
  result->layers["trace.overhead_pct"] =
      Metric{(plain_rate - traced_rate) / plain_rate * 100.0, "%", 4};
}

Metric TimePerItem(const char* span_name, double items, int reps,
                   double scale_ns, const std::string& unit,
                   const std::function<void()>& fn) {
  Samples per_item;
  for (int r = 0; r < reps; ++r) {
    const uint64_t t0 = NowNs();
    {
      Span span(span_name, static_cast<uint64_t>(r));
      fn();
    }
    per_item.Add(static_cast<double>(NowNs() - t0) / items / scale_ns);
  }
  return Metric{per_item.Median(), unit, per_item.n()};
}

const std::vector<std::pair<std::string, std::string>>& LayerCatalogue() {
  static const std::vector<std::pair<std::string, std::string>> kCatalogue = {
      {"core.perturb_ns", "ns"},
      {"core.fap_perturb_ns", "ns"},
      {"core.absorb_ns", "ns"},
      {"core.merge_us", "us"},
      {"core.finalize_us", "us"},
      {"core.join_estimate_us", "us"},
      {"core.fi_scan_ms", "ms"},
      {"core.plus_offline_s", "s"},
      {"core.plus_online_s", "s"},
      {"core.plain_estimate_s", "s"},
      {"core.join_rel_error", "ratio"},
      {"net.encode_ns", "ns"},
      {"net.decode_ns", "ns"},
      {"net.send_us", "us"},
      {"net.ping_us", "us"},
      {"net.query_rtt_us.frequency", "us"},
      {"net.query_rtt_us.range_count", "us"},
      {"net.query_rtt_us.predicate_join", "us"},
      {"net.query_rtt_us.join_size", "us"},
      {"net.query_rtt_us.frequent_items", "us"},
      {"net.busy_retries", "count"},
      {"net.queue_high_water", "count"},
      {"net.frames_shed", "count"},
      {"service.ingest_frame_ns", "ns"},
      {"service.publish_us", "us"},
      {"service.answer_us.frequency", "us"},
      {"service.answer_us.range_count", "us"},
      {"service.answer_us.predicate_join", "us"},
      {"service.answer_us.join_size", "us"},
      {"service.answer_us.frequent_items", "us"},
      {"service.view_acquire_ns", "ns"},
      {"federation.cut_ship_ms", "ms"},
      {"federation.snapshot_bytes", "B/epoch"},
      {"federation.snapshot_decode_us", "us"},
      {"federation.window_apply_us", "us"},
      {"federation.ship_retries", "count"},
      {"obs.record_ns", "ns"},
      {"obs.stats_push_us", "us"},
      {"obs.stats_push_overhead_pct", "%"},
      {"obs.stats_push_overhead_iqr_pct", "%"},
      {"obs.stats_push_overhead_us_per_push", "us"},
      {"cpu.loadgen_ns_per_op", "ns"},
      {"cpu.server_ns_per_op", "ns"},
      {"loadgen.lag_ms", "ms"},
      {"trace.overhead_pct", "%"},
      {"host.steal_pct", "%"},
      {"trace.spans", "count"},
      {"bench.self_ms", "ms"},
      {"core.self_ms", "ms"},
      {"net.self_ms", "ms"},
      {"service.self_ms", "ms"},
      {"federation.self_ms", "ms"},
      {"obs.self_ms", "ms"},
  };
  return kCatalogue;
}

}  // namespace pb
