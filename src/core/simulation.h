// Parallel client/server simulation drivers.
//
// Ingestion is batched: users are processed in fixed blocks of
// kIngestBlockSize, and each block draws its randomness from one
// counter-based stream, Xoshiro256(DeriveStreamSeed(run_seed, block_index)).
// Within a block the engine is drawn sequentially (PerturbBatch), so the
// per-user engine seeding of the old per-user-stream scheme — which
// dominated the client-side cost — is paid once per block instead.
//
// Determinism: the block → stream mapping depends only on run_seed, and
// shard-local sketches accumulate integer lanes (exact, order-independent
// under merge), so a run is bit-identical for a fixed run_seed regardless
// of the thread count. NOTE: this per-block derivation replaces the
// per-user Mix64-derived streams of earlier versions, so fixed-seed outputs
// (golden values) differ from those versions while all distributional
// guarantees are unchanged.
#ifndef LDPJS_CORE_SIMULATION_H_
#define LDPJS_CORE_SIMULATION_H_

#include <cstdint>

#include "core/fap.h"
#include "core/ldp_join_sketch.h"
#include "data/column.h"

namespace ldpjs {

/// Users perturbed per RNG stream / absorb batch. Large enough to amortize
/// engine seeding and batch-validation overhead, small enough that a
/// block's reports stay L1/L2-resident between PerturbBatch and AbsorbBatch.
inline constexpr size_t kIngestBlockSize = 4096;

// The wire path encodes one ingest block per batch-envelope record, so a
// block must fit the wire batch limit — keep retunes of either constant
// honest at compile time.
static_assert(kIngestBlockSize <= kMaxWireBatchReports,
              "an ingest block must encode as one wire batch");

struct SimulationOptions {
  uint64_t run_seed = 42;   ///< perturbation randomness (distinct from hash seed)
  size_t num_threads = 0;   ///< 0 = hardware concurrency
};

/// Runs the full LDPJoinSketch protocol over `column`: every value is
/// perturbed by an O(1) client and absorbed server-side. Returns the
/// finalized sketch.
LdpJoinSketchServer BuildLdpJoinSketch(const Column& column,
                                       const SketchParams& params,
                                       double epsilon,
                                       const SimulationOptions& options);

/// Same, but clients perturb with FAP (phase 2 of LDPJoinSketch+).
LdpJoinSketchServer BuildFapSketch(
    const Column& column, const SketchParams& params, double epsilon,
    FapMode mode, const FrequentItemSet& frequent_items,
    const SimulationOptions& options);

}  // namespace ldpjs

#endif  // LDPJS_CORE_SIMULATION_H_
