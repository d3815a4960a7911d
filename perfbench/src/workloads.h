// The four workloads and the helpers they share. Every workload builds its
// inputs from the seed alone (Zipf data, perturbation randomness, query
// mix), hands the system under test only those generated inputs, and checks
// the system's outputs against an in-process reference.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/ldp_join_sketch.h"
#include "net/net_metrics.h"
#include "harness.h"

namespace pb {

// The paper's defaults: k = 18 rows, ε = 4, Zipf(1.1) over a 3M-value domain.
inline constexpr int kSketchRows = 18;
inline constexpr double kEpsilon = 4.0;
inline constexpr double kZipfAlpha = 1.1;
inline constexpr uint64_t kZipfDomain = 3'000'000;
/// Reports per wire frame: one full LJSB batch envelope.
inline constexpr size_t kFrameReports = ldpjs::kMaxWireBatchReports;
/// How many times each run repeats its set-up (setup_s is their median).
inline constexpr int kSetupRepeats = 5;

ldpjs::SketchParams MakeParams(int m, uint64_t seed);

/// A fixed pool of perturbed reports, cut into full wire frames.
struct ReportPool {
  std::vector<uint64_t> values;
  std::vector<ldpjs::LdpReport> reports;
  std::vector<std::vector<uint8_t>> frames;  ///< one LJSB envelope each

  size_t num_frames() const { return frames.size(); }
  std::span<const ldpjs::LdpReport> FrameReports(size_t frame) const {
    return std::span<const ldpjs::LdpReport>(reports).subspan(
        frame * kFrameReports, kFrameReports);
  }
};

/// Draws `frames` full frames of Zipf values from `data_seed`, perturbs
/// them (one RNG stream per frame, from `run_seed`) and LJSB-encodes them.
ReportPool MakePool(const ldpjs::SketchParams& params, size_t frames,
                    uint64_t data_seed, uint64_t run_seed);

/// Un-finalized sketch of every report in `pool`.
ldpjs::LdpJoinSketchServer AbsorbPool(const ldpjs::SketchParams& params,
                                      const ReportPool& pool);

/// Bit-for-bit comparison of raw lanes (both un-finalized) or of finalized
/// cells (both finalized), plus the report count.
bool SameLanes(const ldpjs::LdpJoinSketchServer& a,
               const ldpjs::LdpJoinSketchServer& b);
bool SameCells(const ldpjs::LdpJoinSketchServer& a,
               const ldpjs::LdpJoinSketchServer& b);

/// Traced runs: times the ingest-side layers (perturb, encode, decode,
/// absorb, sharded frame ingest, merge, finalize, join estimate, metrics
/// record) on `pool` at the pool's shape, with `shards` aggregator shards.
void ProbeIngestLayers(const ldpjs::SketchParams& params,
                       const ReportPool& pool, size_t shards,
                       RunResult* result);

/// Traced runs: median time (us) to finalize a copy of `raw`, as
/// core.finalize_us.
void ProbeFinalize(const ldpjs::LdpJoinSketchServer& raw, RunResult* result);

/// Traced runs: the server's ingest counters (busy retries summed over the
/// senders, queue high water, frames shed) and the CPU split per op between
/// the load generator's threads and everything else in the process.
void RecordIngestCounters(const ldpjs::NetMetrics& metrics,
                          uint64_t busy_retries, RunResult* result);
void RecordCpuSplit(double loadgen_cpu_ns, RunResult* result);

/// Traced runs: folds the recorded spans into per-layer metrics (span
/// medians for the `<name>_us` / `<name>_ms` entries of the catalogue not
/// already set, plus per-layer self time) and writes the spans out.
void FinishTrace(const Args& args, RunResult* result);

RunResult RunIngestStream(const Args& args);
RunResult RunQueryMix(const Args& args);
RunResult RunFederatedWindow(const Args& args);
RunResult RunEstimatePlus(const Args& args);

}  // namespace pb

#endif  // PERFBENCH_WORKLOADS_H_
