// Measurement plumbing shared by every workload: clocks, raw-sample
// percentiles, the in-memory span tracer, and the result record each
// workload fills in. Nothing here reads the library's own log2 histograms;
// every percentile comes from raw samples taken by the benchmark.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace pb {

/// Steady-clock nanoseconds (the benchmark's own clock for every latency).
uint64_t NowNs();
/// CPU time of the whole process (all threads) and of the calling thread.
uint64_t ProcessCpuNs();
uint64_t ThreadCpuNs();
/// Peak resident set (VmHWM) in MiB.
double PeakRssMb();
/// Host-wide CPU jiffies from /proc/stat: time stolen by the hypervisor and
/// the total. On a shared virtual machine steal is the main source of
/// run-to-run spread, so every run reports its share.
void ReadCpuJiffies(uint64_t* steal, uint64_t* total);
/// Steady-clock seconds since `start_ns`.
double SecondsSince(uint64_t start_ns);

/// Raw samples; percentiles interpolate linearly between order statistics.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other);
  size_t n() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  /// p in [0, 100]. 0 on an empty set.
  double Percentile(double p) const;
  double Median() const { return Percentile(50.0); }
  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
};

/// The highest of p99 / p95 / p90 / p50 that has at least ten samples above
/// it, or 100 (the maximum) when there are fewer than twenty samples.
double SupportedTailPercentile(size_t n);

// ---- Tracing ---------------------------------------------------------------
// Spans are recorded only from the benchmark's own files, around its calls
// into each layer. Each thread appends to its own buffer; nothing is written
// out until the run ends. A span's parent is the span open on the same
// thread when it started, so self time is duration minus children.

/// True while spans are being recorded.
bool TracingOn();
void SetTracing(bool on);

/// Records one span (name, op id, start, end, parent) when tracing is on at
/// construction; a no-op otherwise. `name` must be a string literal whose
/// prefix up to the first '.' names the layer (core, net, service, ...).
class Span {
 public:
  Span(const char* name, uint64_t op_id);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int32_t index_ = -1;
};

struct SpanRecord {
  const char* name;
  uint64_t op_id;
  int32_t parent;  ///< index into the same thread's buffer, -1 for a root
  uint64_t start_ns;
  uint64_t end_ns;
  uint64_t child_ns;  ///< summed duration of direct children
};

/// One layer's share of the recorded spans: summed self time and span count.
struct LayerSelf {
  double ms = 0.0;
  size_t spans = 0;
};

/// Collects every thread's spans: durations (us) per span name, and self
/// time per layer. Writes all spans to `path` as TSV (name, op id, parent
/// name, start, end) when `path` is non-empty. Returns the span count.
size_t CollectSpans(std::map<std::string, Samples>* duration_us_by_name,
                    std::map<std::string, LayerSelf>* self_by_layer,
                    const std::string& path);

// ---- Results ---------------------------------------------------------------

/// A metric as printed: value, unit and how many raw samples it rests on.
struct Metric {
  double value = 0.0;
  std::string unit;
  size_t n = 0;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;         ///< where span dumps go
  std::string recorded_path;   ///< recorded estimate_plus values
};

/// What one workload run hands back to main().
struct RunResult {
  // Correctness: every operation and every check counts as attempted; a
  // failed operation or a failed check counts as failed and fails the run.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> notes;  ///< one line per check, ok or not

  void Check(bool ok, const std::string& what);
  void Op(bool ok, const std::string& what);

  // End-to-end figures (untraced runs).
  Samples setup_s;
  std::string op_name;      ///< what one "op" is: report, query, row
  double ops = 0.0;         ///< ops completed in the measured window
  double measure_s = 0.0;   ///< wall seconds of the measured window
  double cpu_ns = 0.0;      ///< process CPU over the measured window
  /// Peak RSS at the end of the measured window, before the end-of-run
  /// checks and layer probes allocate their references.
  double peak_rss_mb = 0.0;
  Samples latency_ms;       ///< the workload's user-visible latency
  /// Tail percentile reported; fixed per workload so runs stay comparable.
  double tail_pct = 99.0;
  /// Untraced runs cut the measured window into slices of this length (a
  /// slice always completes at least one op) and report each figure as the
  /// median over slices, so a burst of interference from outside the
  /// process moves one slice, not the run.
  double slice_s = 1.0;
  Samples slice_rate, slice_cpu_ns, slice_p50_ms, slice_tail_ms,
      slice_steal_pct;
  /// The workload's own names for the generic figures, e.g. "ingest_rps".
  std::string rate_name, cpu_name, latency_name, latency_unit;
  /// Workload-specific end-to-end extras printed but not in the JSON line.
  std::map<std::string, Metric> extra;

  // Per-layer figures (traced runs).
  std::map<std::string, Metric> layers;
};

/// Runs the measured phase. Untraced: runs `segment(slice)` back to back with
/// tracing off until `seconds` have passed, recording per-slice figures.
/// Traced: alternates untraced / traced quarters (U T U T),
/// records spans in the traced ones, and stores in `layers` the signed
/// overhead of tracing on the segment's op rate. `segment` returns the ops
/// it completed and must add its own samples to the result.
void RunMeasured(const Args& args, RunResult* result,
                 const std::function<double(double seconds)>& segment);

/// Times `fn` `reps` times (each call covering `items` items) inside a span
/// named `span_name` and returns the median per-item cost in `scale_ns`
/// units (1 = ns, 1e3 = us, 1e6 = ms, 1e9 = s).
Metric TimePerItem(const char* span_name, double items, int reps,
                   double scale_ns, const std::string& unit,
                   const std::function<void()>& fn);

/// The per-layer catalogue: every metric a traced run prints, in order,
/// with its unit. Workloads that do not exercise a layer leave it at 0
/// (n = 0) and the report says so.
const std::vector<std::pair<std::string, std::string>>& LayerCatalogue();

}  // namespace pb

#endif  // PERFBENCH_HARNESS_H_
