#include "service/aggregator_shard.h"

#include "common/serialize.h"

namespace ldpjs {

AggregatorShard::AggregatorShard(const SketchParams& params, double epsilon)
    : sketch_(params, epsilon),
      ring_(kShardDecodeRingSize * kMaxWireBatchReports) {}

Status AggregatorShard::IngestFrame(std::span<const uint8_t> frame) {
  std::span<LdpReport> buffer(
      ring_.data() + next_buffer_ * kMaxWireBatchReports, kMaxWireBatchReports);
  BinaryReader reader(frame);
  auto count = DecodeReportBatch(reader, buffer);
  if (!count.ok()) return count.status();
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after batch-envelope record");
  }
  // The codec guarantees strict ±1 signs and j ≤ 0xffff; the sketch shape
  // (k, m) is this shard's business, and AbsorbBatch treats violations as
  // programmer errors (abort), so screen them here as wire corruption.
  const std::span<const LdpReport> reports = buffer.first(*count);
  const uint32_t k = static_cast<uint32_t>(sketch_.params().k);
  const uint32_t m = static_cast<uint32_t>(sketch_.params().m);
  for (const LdpReport& r : reports) {
    if (r.j >= k) {
      return Status::Corruption("report row index outside sketch shape");
    }
    if (r.l >= m) {
      return Status::Corruption("report coordinate outside sketch shape");
    }
  }
  sketch_.AbsorbBatch(reports);
  next_buffer_ = (next_buffer_ + 1) % kShardDecodeRingSize;
  ++frames_;
  return Status::OK();
}

void AggregatorShard::MergeRaw(const LdpJoinSketchServer& other) {
  sketch_.Merge(other);
}

void AggregatorShard::Reset() {
  shipped_reports_ += sketch_.total_reports();
  sketch_.ResetLanes();
}

}  // namespace ldpjs
