// Multi-epoch streaming: an aggregator that periodically snapshots its raw
// lanes (serialize → reset) and merges the snapshots later must be bit-
// identical to one continuous ingest. This is the paper's deployment story
// over time — collection windows that close, ship their sketch, and start
// fresh — and it holds exactly because every pre-finalize representation is
// raw int64 lanes under integer addition.
#include <vector>

#include <gtest/gtest.h>

#include "common/serialize.h"
#include "core/ldp_join_sketch.h"
#include "service/sharded_aggregator.h"

namespace ldpjs {
namespace {

SketchParams TestParams() {
  SketchParams params;
  params.k = 5;
  params.m = 128;
  params.seed = 31;
  return params;
}

/// Wire frames (LJSB envelopes) for `n` perturbed reports, one frame per
/// ingest-sized block.
std::vector<std::vector<uint8_t>> MakeFrames(const SketchParams& params,
                                             double epsilon, size_t n,
                                             uint64_t seed) {
  LdpJoinSketchClient client(params, epsilon);
  std::vector<uint64_t> values(n);
  for (size_t i = 0; i < n; ++i) values[i] = (seed + i * 7919) % 2000;
  std::vector<LdpReport> reports(n);
  Xoshiro256 rng(seed);
  client.PerturbBatch(values, reports, rng);
  std::vector<std::vector<uint8_t>> frames;
  for (size_t first = 0; first < n; first += kMaxWireBatchReports) {
    const size_t count = std::min(kMaxWireBatchReports, n - first);
    BinaryWriter writer;
    EncodeReportBatch({reports.data() + first, count}, writer);
    frames.push_back(writer.TakeBuffer());
  }
  return frames;
}

TEST(ServiceEpochTest, EpochSnapshotsMergeBitIdenticalToContinuousIngest) {
  const SketchParams params = TestParams();
  const double epsilon = 2.0;
  const std::vector<std::vector<uint8_t>> frames =
      MakeFrames(params, epsilon, 30000, 11);

  // Continuous: one aggregator sees every frame.
  ShardedAggregator continuous(params, epsilon, 3);
  for (size_t i = 0; i < frames.size(); ++i) {
    ASSERT_TRUE(
        continuous.IngestFrameToShard(i % continuous.num_shards(), frames[i])
            .ok());
  }

  // Epoched: a fresh aggregator per window; each window's raw-lane
  // snapshot is serialized (as a shipping aggregator would) and merged
  // across epochs afterwards.
  constexpr size_t kEpochs = 4;
  std::vector<std::vector<uint8_t>> snapshots;
  const size_t per_epoch = (frames.size() + kEpochs - 1) / kEpochs;
  for (size_t e = 0; e < kEpochs; ++e) {
    ShardedAggregator epoch(params, epsilon, 3);
    const size_t begin = e * per_epoch;
    const size_t end = std::min(frames.size(), begin + per_epoch);
    for (size_t i = begin; i < end; ++i) {
      ASSERT_TRUE(
          epoch.IngestFrameToShard(i % epoch.num_shards(), frames[i]).ok());
    }
    snapshots.push_back(epoch.MergeShards().Serialize());
  }

  LdpJoinSketchServer merged(params, epsilon);
  for (const auto& snapshot : snapshots) {
    auto epoch_sketch = LdpJoinSketchServer::Deserialize(snapshot);
    ASSERT_TRUE(epoch_sketch.ok()) << epoch_sketch.status().ToString();
    ASSERT_FALSE(epoch_sketch->finalized());
    merged.Merge(*epoch_sketch);
  }

  // Raw lanes identical before finalize…
  EXPECT_EQ(merged.Serialize(), continuous.MergeShards().Serialize());
  // …and cells identical after.
  LdpJoinSketchServer continuous_final = continuous.Finalize();
  merged.Finalize();
  EXPECT_EQ(merged.Serialize(), continuous_final.Serialize());
}

TEST(ServiceEpochTest, EpochsSurviveChangingShardCounts) {
  const SketchParams params = TestParams();
  const double epsilon = 1.0;
  const std::vector<std::vector<uint8_t>> frames =
      MakeFrames(params, epsilon, 25000, 42);

  ShardedAggregator continuous(params, epsilon, 1);
  for (size_t i = 0; i < frames.size(); ++i) {
    ASSERT_TRUE(
        continuous.IngestFrameToShard(i % continuous.num_shards(), frames[i])
            .ok());
  }

  // Each epoch runs a different shard width (a redeploy mid-collection);
  // exactness must not care.
  const size_t shard_widths[] = {1, 4, 2, 3};
  LdpJoinSketchServer merged(params, epsilon);
  size_t next = 0;
  const size_t per_epoch = (frames.size() + 3) / 4;
  for (size_t e = 0; e < 4; ++e) {
    ShardedAggregator epoch(params, epsilon, shard_widths[e]);
    for (size_t i = 0; i < per_epoch && next < frames.size(); ++i, ++next) {
      ASSERT_TRUE(
          epoch.IngestFrameToShard(i % epoch.num_shards(), frames[next]).ok());
    }
    auto snapshot = LdpJoinSketchServer::Deserialize(
        epoch.MergeShards().Serialize());
    ASSERT_TRUE(snapshot.ok());
    merged.Merge(*snapshot);
  }
  EXPECT_EQ(merged.Serialize(), continuous.MergeShards().Serialize());

  // Estimates from the epoch-merged sketch agree exactly too.
  const std::vector<std::vector<uint8_t>> frames_b =
      MakeFrames(params, epsilon, 25000, 43);
  ShardedAggregator aggregator_b(params, epsilon, 2);
  for (size_t i = 0; i < frames_b.size(); ++i) {
    ASSERT_TRUE(
        aggregator_b.IngestFrameToShard(i % aggregator_b.num_shards(),
                                        frames_b[i])
            .ok());
  }
  LdpJoinSketchServer other = aggregator_b.Finalize();
  LdpJoinSketchServer continuous_final = continuous.Finalize();
  merged.Finalize();
  EXPECT_EQ(merged.JoinEstimate(other), continuous_final.JoinEstimate(other));
}

}  // namespace
}  // namespace ldpjs
