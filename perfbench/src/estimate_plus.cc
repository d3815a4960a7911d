// estimate_plus: the paper's algorithm as a batch job. LDPJoinSketch+ (both
// phases, EstimateJoinSizePlus) on two 2M-row Zipf tables with the
// process's full thread count and no network, repeated for the run length,
// plus one plain LDPJoinSketch estimate for comparison. The only workload
// where the core estimator layers (FAP perturbation, the frequent-item
// scan, JoinEst) do most of the work.
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_set>

#include "common/random.h"
#include "core/fap.h"
#include "core/freq_items.h"
#include "core/ldp_join_sketch_plus.h"
#include "core/simulation.h"
#include "data/datasets.h"
#include "data/join.h"
#include "workloads.h"

namespace pb {

namespace {

using ldpjs::LdpJoinSketchServer;

constexpr int kSketchColumns = 1024;
constexpr uint64_t kRows = 2'000'000;

ldpjs::LdpJoinSketchPlusParams PlusParams(uint64_t seed) {
  ldpjs::LdpJoinSketchPlusParams params;
  params.sketch = MakeParams(kSketchColumns, seed);
  params.epsilon = kEpsilon;
  params.simulation.run_seed = seed;
  params.simulation.num_threads = std::thread::hardware_concurrency();
  return params;
}

/// Recorded estimates, one "seed plus_estimate plain_estimate" line each
/// (doubles as C hex floats, so the check is bit for bit).
struct Recorded {
  double plus = 0.0;
  double plain = 0.0;
};

bool LookupRecorded(const std::string& path, uint64_t seed, Recorded* out) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    uint64_t s = 0;
    std::string plus, plain;
    if (!(fields >> s >> plus >> plain) || s != seed) continue;
    out->plus = std::strtod(plus.c_str(), nullptr);
    out->plain = std::strtod(plain.c_str(), nullptr);
    return true;
  }
  return false;
}

std::string HexFloat(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

}  // namespace

RunResult RunEstimatePlus(const Args& args) {
  RunResult result;
  result.op_name = "input row";
  result.rate_name = "estimate_rows_per_s";
  result.cpu_name = "estimate_cpu_ns_per_row";
  result.latency_name = "estimate";
  result.latency_unit = "ms";
  // A handful of estimates per run: one slice, and the tail is the slowest.
  result.tail_pct = 100.0;
  result.slice_s = args.seconds;

  ldpjs::JoinWorkload workload;
  double exact = 0.0;
  for (int i = 0; i < kSetupRepeats; ++i) {
    workload = ldpjs::JoinWorkload();
    const uint64_t t0 = NowNs();
    workload = ldpjs::MakeZipfWorkload(kZipfAlpha, kZipfDomain, kRows,
                                       args.seed);
    exact = ldpjs::ExactJoinSize(workload.table_a, workload.table_b);
    result.setup_s.Add(SecondsSince(t0));
  }
  const ldpjs::LdpJoinSketchPlusParams params = PlusParams(args.seed);
  const double rows_per_estimate = static_cast<double>(
      workload.table_a.size() + workload.table_b.size());

  std::vector<ldpjs::LdpJoinSketchPlusResult> estimates;
  Samples offline_s, online_s;
  RunMeasured(args, &result, [&](double seconds) {
    const uint64_t deadline = NowNs() + static_cast<uint64_t>(seconds * 1e9);
    double rows = 0.0;
    do {
      const uint64_t t0 = NowNs();
      {
        Span root("bench.estimate", estimates.size());
        Span span("core.plus", estimates.size());
        estimates.push_back(ldpjs::EstimateJoinSizePlus(
            workload.table_a, workload.table_b, params));
      }
      result.latency_ms.Add(static_cast<double>(NowNs() - t0) / 1e6);
      offline_s.Add(estimates.back().offline_seconds);
      online_s.Add(estimates.back().online_seconds);
      rows += rows_per_estimate;
    } while (NowNs() < deadline);
    return rows;
  });

  // One plain LDPJoinSketch estimate on the same tables.
  double plain = 0.0;
  const uint64_t plain_start = NowNs();
  {
    Span span("core.plain_estimate", 0);
    ldpjs::SimulationOptions sim = params.simulation;
    const LdpJoinSketchServer a = ldpjs::BuildLdpJoinSketch(
        workload.table_a, params.sketch, kEpsilon, sim);
    sim.run_seed = ldpjs::Mix64(sim.run_seed);
    const LdpJoinSketchServer b = ldpjs::BuildLdpJoinSketch(
        workload.table_b, params.sketch, kEpsilon, sim);
    plain = a.JoinEstimate(b);
  }
  const double plain_s = SecondsSince(plain_start);

  // Checks: every repetition is bit-identical to the first, and — for the
  // seeds with a recorded value — equal to it.
  const double estimate = estimates.front().estimate;
  bool repeatable = true;
  for (const auto& e : estimates) {
    repeatable = repeatable && std::bit_cast<uint64_t>(e.estimate) ==
                                   std::bit_cast<uint64_t>(estimate);
  }
  result.Check(repeatable, std::to_string(estimates.size()) +
                               " repeated estimates are bit-identical");
  result.attempted += estimates.size();
  Recorded recorded;
  if (!args.recorded_path.empty() &&
      LookupRecorded(args.recorded_path, args.seed, &recorded)) {
    result.Check(std::bit_cast<uint64_t>(recorded.plus) ==
                         std::bit_cast<uint64_t>(estimate) &&
                     std::bit_cast<uint64_t>(recorded.plain) ==
                         std::bit_cast<uint64_t>(plain),
                 "estimates == the values recorded for seed " +
                     std::to_string(args.seed));
  } else {
    result.notes.push_back("note   no recorded value for seed " +
                           std::to_string(args.seed) + "; record line: " +
                           std::to_string(args.seed) + " " +
                           HexFloat(estimate) + " " + HexFloat(plain));
  }

  const double rel_error = std::fabs(estimate - exact) / exact;
  result.extra["estimate_s"] = Metric{result.latency_ms.Median() / 1e3, "s",
                                      result.latency_ms.n()};
  result.extra["join_rel_error"] = Metric{rel_error, "ratio", 1};
  result.extra["plain_estimate_s"] = Metric{plain_s, "s", 1};
  result.extra["plain_join_rel_error"] =
      Metric{std::fabs(plain - exact) / exact, "ratio", 1};

  if (args.trace) {
    SetTracing(true);
    auto& layers = result.layers;
    layers["core.plus_offline_s"] =
        Metric{offline_s.Median(), "s", offline_s.n()};
    layers["core.plus_online_s"] = Metric{online_s.Median(), "s", online_s.n()};
    layers["core.plain_estimate_s"] = Metric{plain_s, "s", 1};
    layers["core.join_rel_error"] = Metric{rel_error, "ratio", 1};

    // Phase-1 pieces the estimator runs internally, timed on inputs of the
    // same size: the sampled sketches and the frequent-item scan over them.
    const ldpjs::Column sample_a = workload.table_a.Prefix(
        static_cast<size_t>(kRows * params.sample_rate));
    const ldpjs::Column sample_b = workload.table_b.Prefix(
        static_cast<size_t>(kRows * params.sample_rate));
    const LdpJoinSketchServer sketch_a = ldpjs::BuildLdpJoinSketch(
        sample_a, params.sketch, kEpsilon, params.simulation);
    const LdpJoinSketchServer sketch_b = ldpjs::BuildLdpJoinSketch(
        sample_b, params.sketch, kEpsilon, params.simulation);
    std::unordered_set<uint64_t> frequent;
    layers["core.fi_scan_ms"] =
        TimePerItem("core.fi_scan", 1.0, 1, 1e6, "ms", [&] {
          frequent = ldpjs::FindFrequentItemsUnion(
              sketch_a, sketch_b, kZipfDomain,
              params.threshold * static_cast<double>(sample_a.size()),
              params.threshold * static_cast<double>(sample_b.size()));
        });
    result.Check(!frequent.empty(), "frequent-item scan finds items");

    const ldpjs::FapClient fap(params.sketch, kEpsilon, ldpjs::FapMode::kLow,
                               frequent);
    const std::vector<uint64_t>& values = workload.table_a.values();
    std::vector<ldpjs::LdpReport> reports(values.size());
    layers["core.fap_perturb_ns"] = TimePerItem(
        "core.fap_perturb", static_cast<double>(values.size()), 3, 1.0, "ns",
        [&] {
          ldpjs::Xoshiro256 rng = ldpjs::MakeStreamRng(args.seed, 0);
          fap.PerturbBatch(values, reports, rng);
        });
    const ldpjs::LdpJoinSketchClient client(params.sketch, kEpsilon);
    layers["core.perturb_ns"] = TimePerItem(
        "core.perturb", static_cast<double>(values.size()), 3, 1.0, "ns",
        [&] {
          ldpjs::Xoshiro256 rng = ldpjs::MakeStreamRng(args.seed, 1);
          client.PerturbBatch(values, reports, rng);
        });
    LdpJoinSketchServer absorbed(params.sketch, kEpsilon);
    layers["core.absorb_ns"] = TimePerItem(
        "core.absorb", static_cast<double>(reports.size()), 3, 1.0, "ns",
        [&] { absorbed.AbsorbBatch(reports); });
    ProbeFinalize(absorbed, &result);
    double self_join = 0.0;
    layers["core.join_estimate_us"] =
        TimePerItem("core.join_estimate", 1.0, 20, 1e3, "us",
                    [&] { self_join = sketch_a.JoinEstimate(sketch_b); });
    result.Check(std::isfinite(self_join), "sample join estimate is finite");
    SetTracing(false);
    FinishTrace(args, &result);
  }
  return result;
}

}  // namespace pb
