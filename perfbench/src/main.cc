// perfbench: runs one workload against the in-process deployment and prints
// a human-readable report followed, as the last line of stdout, by one JSON
// object {"correct", "attempted", "failed", "metrics"}. Untraced runs put
// the end-to-end metrics in "metrics"; traced runs (--trace 1) put the
// per-layer ones there. The exit code is 0 only when every check and
// operation succeeded.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir for span dumps>] [--recorded <file>]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

using pb::Metric;
using pb::RunResult;

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload ingest_stream|query_mix|"
               "federated_window|estimate_plus --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR] [--recorded FILE]\n",
               argv0);
  std::exit(2);
}

/// JSON number with every digit the double carries.
std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintLine(const std::string& name, const Metric& m,
               const std::string& note = "") {
  std::printf("  %-36s %16.6g %-8s n=%zu%s%s\n", name.c_str(), m.value,
              m.unit.c_str(), m.n, note.empty() ? "" : "  ", note.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  pb::Args args;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(argv[0]);
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
      have_seconds = args.seconds > 0.0;
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
      have_trace = args.trace || std::strcmp(value, "0") == 0;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--recorded") {
      args.recorded_path = value;
    } else {
      Usage(argv[0]);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    Usage(argv[0]);
  }

  RunResult r;
  if (args.workload == "ingest_stream") {
    r = pb::RunIngestStream(args);
  } else if (args.workload == "query_mix") {
    r = pb::RunQueryMix(args);
  } else if (args.workload == "federated_window") {
    r = pb::RunFederatedWindow(args);
  } else if (args.workload == "estimate_plus") {
    r = pb::RunEstimatePlus(args);
  } else {
    Usage(argv[0]);
  }

  // ---- End-to-end figures, under the names the workload gives them. ------
  // Untraced runs report medians over slices of the measured window; a
  // traced run has no slices and prints whole-window figures instead.
  const bool sliced = !r.slice_rate.empty();
  const double ops = r.ops > 0.0 ? r.ops : std::nan("");
  const double lat_scale = r.latency_unit == "us" ? 1e3 : 1.0;
  const size_t samples = r.latency_ms.n();
  const Metric setup{r.setup_s.Median(), "s", r.setup_s.n()};
  const Metric rate{sliced ? r.slice_rate.Median() : ops / r.measure_s, "1/s",
                    samples};
  const Metric cpu{sliced ? r.slice_cpu_ns.Median() : r.cpu_ns / ops, "ns",
                   samples};
  const Metric p50{sliced ? r.slice_p50_ms.Median() : r.latency_ms.Median(),
                   "ms", samples};
  const Metric tail{sliced ? r.slice_tail_ms.Median()
                           : r.latency_ms.Percentile(r.tail_pct),
                    "ms", samples};
  const Metric rss{r.peak_rss_mb, "MB", 1};
  const double error_rate =
      r.attempted == 0 ? 1.0
                       : static_cast<double>(r.failed) /
                             static_cast<double>(r.attempted);
  const bool correct = r.failed == 0 && r.attempted > 0;

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  const std::string window =
      sliced ? "medians over " + std::to_string(r.slice_rate.n()) +
                   " slices of the measured window"
             : "whole traced window";
  std::printf("end-to-end (op = one %s; %s):\n", r.op_name.c_str(),
              window.c_str());
  PrintLine("setup_s", setup, "median of repeated set-ups");
  PrintLine(r.rate_name, rate);
  PrintLine(r.cpu_name, cpu);
  auto latency_line = [&](double pct, const Metric& m, bool sliced_figure) {
    char name[64];
    std::snprintf(name, sizeof(name), "%s_p%g_%s", r.latency_name.c_str(), pct,
                  r.latency_unit.c_str());
    const size_t per_slice = sliced_figure ? samples / r.slice_rate.n()
                                           : samples;
    PrintLine(name, Metric{m.value * lat_scale, r.latency_unit, m.n},
              pb::SupportedTailPercentile(per_slice) >= pct
                  ? ""
                  : "(fewer than 10 samples above this percentile)");
  };
  latency_line(50, p50, sliced);
  latency_line(r.tail_pct, tail, sliced);
  if (r.tail_pct < 99.0) {  // p99 as well, flagged if unsupported
    latency_line(99, Metric{r.latency_ms.Percentile(99), "ms", samples},
                 false);
  }
  for (const auto& [name, m] : r.extra) PrintLine(name, m);
  PrintLine("error_rate", Metric{error_rate, "ratio", r.attempted},
            std::to_string(r.failed) + " failed of " +
                std::to_string(r.attempted) + " attempted");
  PrintLine("peak_rss_mb", rss);
  if (sliced) {
    std::printf("slices (%s/s, host steal %%):", r.op_name.c_str());
    for (size_t i = 0; i < r.slice_rate.n(); ++i) {
      std::printf(" %.4g/%.1f", r.slice_rate.values()[i],
                  r.slice_steal_pct.values()[i]);
    }
    std::printf("\n");
  }
  std::printf("checks:\n");
  for (const std::string& note : r.notes) std::printf("  %s\n", note.c_str());

  std::string metrics;
  auto add = [&](const std::string& name, const Metric& m) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + Num(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
  };
  if (!args.trace) {
    // Only the figures that load from other tenants of a shared host moves
    // least go in the JSON line: CPU time per op, memory and set-up.
    // Wall-clock rate and latency move with that load several times as far
    // (a pipeline of threads handing work over loopback waits on every
    // wake-up), so they are printed above but carry no bound.
    add("setup_s", setup);
    add("cpu_ns_per_op", cpu);
    add("peak_rss_mb", rss);
  } else {
    std::printf("per-layer (traced run):\n");
    for (const auto& [name, unit] : pb::LayerCatalogue()) {
      auto it = r.layers.find(name);
      const Metric m = it == r.layers.end() ? Metric{0.0, unit, 0} : it->second;
      PrintLine(name, m,
                it == r.layers.end() ? "not on this workload's path" : "");
      add(name, m);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
  // A failed check or operation fails the run, after the result is printed.
  return correct ? 0 : 1;
}
