#include "service/sharded_aggregator.h"

#include <cstring>

#include "common/serialize.h"
#include "common/thread_pool.h"

namespace ldpjs {

ShardedAggregator::ShardedAggregator(const SketchParams& params,
                                     double epsilon, size_t num_shards) {
  if (num_shards == 0) num_shards = SharedThreadPool().num_threads();
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) shards_.emplace_back(params, epsilon);
}

Status ShardedAggregator::IngestFrameToShard(size_t shard,
                                             std::span<const uint8_t> frame) {
  LDPJS_CHECK(shard < shards_.size());
  return shards_[shard].IngestFrame(frame);
}

Result<LdpJoinSketchServer> ShardedAggregator::DecodeCompatibleSketch(
    std::span<const uint8_t> bytes) const {
  auto pushed = LdpJoinSketchServer::Deserialize(bytes);
  if (!pushed.ok()) return pushed.status();
  if (pushed->finalized()) {
    return Status::FailedPrecondition(
        "pushed sketch is finalized: only raw-lane snapshots merge");
  }
  const LdpJoinSketchServer& mine = shards_[0].sketch();
  const SketchParams& theirs = pushed->params();
  // Epsilon compares as bits: mismatched debias scales must never merge.
  const double e_theirs = pushed->epsilon();
  const double e_mine = mine.epsilon();
  uint64_t eps_theirs = 0, eps_mine = 0;
  std::memcpy(&eps_theirs, &e_theirs, sizeof(eps_theirs));
  std::memcpy(&eps_mine, &e_mine, sizeof(eps_mine));
  if (theirs.k != mine.params().k || theirs.m != mine.params().m ||
      theirs.seed != mine.params().seed || eps_theirs != eps_mine) {
    return Status::FailedPrecondition(
        "pushed sketch params mismatch: lanes are not mergeable");
  }
  return pushed;
}

void ShardedAggregator::MergeRawSketch(size_t shard,
                                       const LdpJoinSketchServer& sketch) {
  LDPJS_CHECK(shard < shards_.size());
  shards_[shard].MergeRaw(sketch);
}

ShardedAggregator::EpochCut ShardedAggregator::CutEpoch() {
  EpochCut cut;
  LdpJoinSketchServer merged = MergeShards();
  cut.reports = merged.total_reports();
  cut.raw_sketch = merged.Serialize();
  for (AggregatorShard& shard : shards_) shard.Reset();
  return cut;
}

Status ShardedAggregator::IngestStream(std::span<const uint8_t> stream) {
  // Index the frames first (a cheap scan of the length prefixes), so the
  // parallel phase touches disjoint shard state only.
  std::vector<std::span<const uint8_t>> frames;
  BinaryReader reader(stream);
  while (!reader.AtEnd()) {
    auto frame = reader.GetFrame();
    if (!frame.ok()) return frame.status();
    frames.push_back(*frame);
  }
  return IngestFrames(frames);
}

Status ShardedAggregator::IngestFrames(
    std::span<const std::span<const uint8_t>> frames) {
  const size_t n_shards = shards_.size();
  std::vector<Status> shard_status(n_shards);
  SharedParallelFor(
      n_shards, frames.size() * kMaxWireBatchReports,
      [&](size_t, size_t begin, size_t end) {
        for (size_t s = begin; s < end; ++s) {
          for (size_t i = s; i < frames.size(); i += n_shards) {
            shard_status[s] = shards_[s].IngestFrame(frames[i]);
            if (!shard_status[s].ok()) break;
          }
        }
      });
  for (const Status& status : shard_status) LDPJS_RETURN_IF_ERROR(status);
  return Status::OK();
}

LdpJoinSketchServer ShardedAggregator::MergeShards() const {
  LdpJoinSketchServer merged(shards_[0].sketch().params(),
                             shards_[0].sketch().epsilon());
  for (const AggregatorShard& shard : shards_) merged.Merge(shard.sketch());
  return merged;
}

LdpJoinSketchServer ShardedAggregator::Finalize() const {
  LdpJoinSketchServer merged = MergeShards();
  merged.Finalize();
  return merged;
}

uint64_t ShardedAggregator::frames_ingested() const {
  uint64_t total = 0;
  for (const AggregatorShard& shard : shards_) total += shard.frames_ingested();
  return total;
}

uint64_t ShardedAggregator::reports_ingested() const {
  uint64_t total = 0;
  for (const AggregatorShard& shard : shards_) {
    total += shard.reports_ingested();
  }
  return total;
}

}  // namespace ldpjs
