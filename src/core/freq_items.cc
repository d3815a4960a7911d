#include "core/freq_items.h"

#include <algorithm>
#include <memory_resource>

#include "common/thread_pool.h"

namespace ldpjs {

namespace {

/// Values per block of the domain scan: one run of the bucket hash's low
/// byte, so each row's high-byte table lookups happen once per block.
constexpr size_t kFrequencyScanBlock = 256;

/// Largest number of sketches one scan covers (the FI union's two).
constexpr size_t kMaxScanSketches = 2;

/// Bitmap words of an explicit value list.
template <typename Values>
std::vector<uint64_t> BitmapOf(const Values& values) {
  size_t num_words = 0;
  for (const uint64_t value : values) {
    LDPJS_CHECK(value < (uint64_t{1} << 32));
    num_words = std::max(num_words, static_cast<size_t>(value / 64 + 1));
  }
  std::vector<uint64_t> words(num_words, 0);
  for (const uint64_t value : values) {
    words[value >> 6] |= uint64_t{1} << (value & 63);
  }
  return words;
}

/// The block kernel: est[s][i] = f̂_s(start + i) for i < n, bit-identical to
/// FrequencyEstimate. Every sketch shares one set of row hashes, so each
/// row's buckets and signs for the block are computed once for all of them.
void EstimateBlock(std::span<const LdpJoinSketchServer* const> sketches,
                   uint64_t start, size_t n,
                   double (&est)[kMaxScanSketches][kFrequencyScanBlock]) {
  uint32_t buckets[kFrequencyScanBlock];
  int8_t signs[kFrequencyScanBlock];
  for (size_t s = 0; s < sketches.size(); ++s) std::fill_n(est[s], n, 0.0);
  const std::vector<RowHashes>& rows = sketches[0]->row_hashes();
  const int k = sketches[0]->params().k;
  for (int j = 0; j < k; ++j) {
    const RowHashes& row = rows[static_cast<size_t>(j)];
    row.bucket.HashRange(start, std::span<uint32_t>(buckets, n));
    row.sign.HashRange(start, std::span<int8_t>(signs, n));
    for (size_t s = 0; s < sketches.size(); ++s) {
      const double* cells = sketches[s]->finalized_row(j);
      double* acc = est[s];
      for (size_t i = 0; i < n; ++i) acc[i] += cells[buckets[i]] * signs[i];
    }
  }
  // acc / k, as FrequencyEstimate computes it (not a reciprocal multiply).
  const double rows_k = static_cast<double>(k);
  for (size_t s = 0; s < sketches.size(); ++s) {
    for (size_t i = 0; i < n; ++i) est[s][i] /= rows_k;
  }
}

}  // namespace

FrequentItemSet::FrequentItemSet(std::vector<uint64_t> words)
    : words_(std::move(words)) {
  for (const uint64_t word : words_) {
    size_ += static_cast<size_t>(std::popcount(word));
  }
}

FrequentItemSet::FrequentItemSet(std::initializer_list<uint64_t> values)
    : FrequentItemSet(BitmapOf(values)) {}

FrequentItemSet::FrequentItemSet(const std::unordered_set<uint64_t>& values)
    : FrequentItemSet(BitmapOf(values)) {}

std::unordered_set<uint64_t> FrequentItemSet::ToUnorderedSet() const {
  // Ascending inserts into a default-constructed set that is never
  // reserve()d: its bucket count, and so its iteration order, then grows
  // exactly as under a serial ascending scan. The recorded LDPJoinSketch+
  // estimates sum FI masses in that order, so building the set any other
  // way changes their last bits.
  std::unordered_set<uint64_t> items;
  ForEach([&](uint64_t d) { items.insert(d); });
  return items;
}

FrequencyScan ScanFrequencies(
    std::span<const LdpJoinSketchServer* const> sketches,
    std::span<const double> thresholds, uint64_t domain,
    bool keep_estimates) {
  LDPJS_CHECK(!sketches.empty() && sketches.size() <= kMaxScanSketches);
  LDPJS_CHECK(thresholds.size() == sketches.size());
  const SketchParams& params = sketches[0]->params();
  for (const LdpJoinSketchServer* sketch : sketches) {
    LDPJS_CHECK(sketch->finalized());
    LDPJS_CHECK(sketch->params().k == params.k &&
                sketch->params().m == params.m &&
                sketch->params().seed == params.seed);
  }

  FrequencyScan scan;
  if (keep_estimates) {
    scan.estimates.assign(sketches.size(),
                          std::vector<double>(static_cast<size_t>(domain)));
  }
  // Blocks start at multiples of 256, so each one owns whole bitmap words
  // and the shards never write the same word.
  std::vector<uint64_t> words(static_cast<size_t>((domain + 63) / 64), 0);
  const size_t blocks = static_cast<size_t>(
      (domain + kFrequencyScanBlock - 1) / kFrequencyScanBlock);
  const size_t work = static_cast<size_t>(domain) *
                      static_cast<size_t>(params.k) * sketches.size();
  SharedParallelFor(blocks, work, [&](size_t, size_t begin, size_t end) {
    double est[kMaxScanSketches][kFrequencyScanBlock];
    for (size_t block = begin; block < end; ++block) {
      const uint64_t start = block * kFrequencyScanBlock;
      const size_t n = static_cast<size_t>(
          std::min<uint64_t>(kFrequencyScanBlock, domain - start));
      EstimateBlock(sketches, start, n, est);
      for (size_t i = 0; i < n; ++i) {
        bool hot = false;
        for (size_t s = 0; s < sketches.size(); ++s) {
          hot = hot || est[s][i] > thresholds[s];
        }
        const uint64_t d = start + i;
        if (hot) words[d >> 6] |= uint64_t{1} << (d & 63);
      }
      for (size_t s = 0; s < scan.estimates.size(); ++s) {
        std::copy_n(est[s], n, scan.estimates[s].begin() + start);
      }
    }
  });
  scan.items = FrequentItemSet(std::move(words));
  return scan;
}

std::unordered_set<uint64_t> FindFrequentItems(
    const LdpJoinSketchServer& sketch, uint64_t domain, double threshold) {
  const LdpJoinSketchServer* sketches[] = {&sketch};
  const double thresholds[] = {threshold};
  return ScanFrequencies(sketches, thresholds, domain, false)
      .items.ToUnorderedSet();
}

std::unordered_set<uint64_t> FindFrequentItemsUnion(
    const LdpJoinSketchServer& sketch_a, const LdpJoinSketchServer& sketch_b,
    uint64_t domain, double threshold_a, double threshold_b) {
  const LdpJoinSketchServer* sketches[] = {&sketch_a, &sketch_b};
  const double thresholds[] = {threshold_a, threshold_b};
  return ScanFrequencies(sketches, thresholds, domain, false)
      .items.ToUnorderedSet();
}

FrequentItemsWithMass FindFrequentItemsWithMass(
    const LdpJoinSketchServer& sketch_a, const LdpJoinSketchServer& sketch_b,
    uint64_t domain, double threshold_a, double threshold_b) {
  const LdpJoinSketchServer* sketches[] = {&sketch_a, &sketch_b};
  const double thresholds[] = {threshold_a, threshold_b};
  FrequencyScan scan = ScanFrequencies(sketches, thresholds, domain, true);
  FrequentItemsWithMass out;
  // The sums run in the iteration order of the set FindFrequentItemsUnion
  // returns, as EstimateFrequentMass over that set does: floating-point
  // addition is not associative, so any other order changes the last bits.
  // That order follows from the insertion sequence alone (ascending inserts
  // into a default-constructed set, never reserve()d), not from the
  // allocator, so a set drawing its nodes from a pool reproduces it without
  // a separate malloc and free per item.
  std::pmr::unsynchronized_pool_resource pool;
  std::pmr::unordered_set<uint64_t> order(&pool);
  scan.items.ForEach([&](uint64_t d) { order.insert(d); });
  for (const uint64_t d : order) {
    out.mass_a += std::max(0.0, scan.estimates[0][d]);
    out.mass_b += std::max(0.0, scan.estimates[1][d]);
  }
  out.items = std::move(scan.items);
  return out;
}

double EstimateFrequentMass(const LdpJoinSketchServer& sketch,
                            const std::unordered_set<uint64_t>& items,
                            double scale) {
  double mass = 0.0;
  for (uint64_t d : items) {
    mass += std::max(0.0, sketch.FrequencyEstimate(d));
  }
  return mass * scale;
}

}  // namespace ldpjs
