// Phase 1 of LDPJoinSketch+ (paper §V-C): find the frequent join values from
// the LDPJoinSketches built over sampled users, using the unbiased frequency
// estimator of Theorem 7.
//
// Every domain scan here runs one block kernel: for each run of 256
// consecutive values and each sketch row j, it hashes the whole run at once
// (BucketHash/SignHash::HashRange) and adds row j's signed cells into
// per-value sums. Each value's sum still runs over
// j = 0..k-1 in order and is divided by k, so every f̂(d) is bit-identical
// to LdpJoinSketchServer::FrequencyEstimate(d).
#ifndef LDPJS_CORE_FREQ_ITEMS_H_
#define LDPJS_CORE_FREQ_ITEMS_H_

#include <bit>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <unordered_set>
#include <vector>

#include "core/ldp_join_sketch.h"

namespace ldpjs {

/// A set of domain values as a dense bitmap, so membership — the FAP
/// client's per-report target test — is one bit lookup. Members must be
/// below 2^32 (contract check), which bounds the bitmap at 512 MiB.
class FrequentItemSet {
 public:
  FrequentItemSet() = default;
  /// Value d is a member iff bit d % 64 of words[d / 64] is set.
  explicit FrequentItemSet(std::vector<uint64_t> words);
  FrequentItemSet(std::initializer_list<uint64_t> values);
  /// Implicit, so the hash set FindFrequentItems* return can be passed
  /// wherever a FrequentItemSet is taken.
  FrequentItemSet(const std::unordered_set<uint64_t>& values);

  bool contains(uint64_t value) const {
    const uint64_t word = value >> 6;
    return word < words_.size() && ((words_[word] >> (value & 63)) & 1) != 0;
  }
  size_t size() const { return size_; }

  /// Calls fn(d) for every member d in ascending order.
  template <typename Fn>
  void ForEach(const Fn& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      for (uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
        fn(w * 64 + static_cast<uint64_t>(std::countr_zero(bits)));
      }
    }
  }

  /// The members inserted in ascending order into a default-constructed
  /// std::unordered_set — the set, and so the iteration order, that a serial
  /// ascending scan builds.
  std::unordered_set<uint64_t> ToUnorderedSet() const;

 private:
  std::vector<uint64_t> words_;
  size_t size_ = 0;
};

/// One domain scan over sketches that share SketchParams (contract check).
struct FrequencyScan {
  /// Values d with f̂_s(d) > thresholds[s] for at least one sketch s.
  FrequentItemSet items;
  /// estimates[s][d] = f̂_s(d); filled only when requested.
  std::vector<std::vector<double>> estimates;
};

/// Scans [0, domain) for one or two finalized sketches, sharded across the
/// shared pool for large domains; the result does not depend on the worker
/// count. Pass a threshold of +infinity to flag nothing.
FrequencyScan ScanFrequencies(
    std::span<const LdpJoinSketchServer* const> sketches,
    std::span<const double> thresholds, uint64_t domain,
    bool keep_estimates);

/// Values d in [0, domain) with estimated sketch frequency > threshold.
/// `threshold` is in *sample counts*: for full-table threshold θ·|A| and a
/// sample of |S_A| users, pass θ·|S_A| (the two are equivalent because the
/// sketch estimates sample frequencies).
std::unordered_set<uint64_t> FindFrequentItems(
    const LdpJoinSketchServer& sketch, uint64_t domain, double threshold);

/// FI = FI_A ∪ FI_B with per-attribute thresholds (paper: θ·|S_A|, θ·|S_B|).
std::unordered_set<uint64_t> FindFrequentItemsUnion(
    const LdpJoinSketchServer& sketch_a, const LdpJoinSketchServer& sketch_b,
    uint64_t domain, double threshold_a, double threshold_b);

/// FI = FI_A ∪ FI_B and both sketches' unscaled FI masses from one scan.
struct FrequentItemsWithMass {
  FrequentItemSet items;
  double mass_a = 0.0;  ///< == EstimateFrequentMass(sketch_a, FI, 1.0)
  double mass_b = 0.0;  ///< == EstimateFrequentMass(sketch_b, FI, 1.0)
};

/// FindFrequentItemsUnion and both EstimateFrequentMass sums in one pass,
/// each bit-identical to the separate calls.
FrequentItemsWithMass FindFrequentItemsWithMass(
    const LdpJoinSketchServer& sketch_a, const LdpJoinSketchServer& sketch_b,
    uint64_t domain, double threshold_a, double threshold_b);

/// Σ_{d ∈ FI} max(0, f̂(d)) scaled by `scale` — the estimated total
/// frequency mass of the FI items on the full table (Algorithm 5 lines 1-4,
/// scale = |A|/|S_A|). Clamped below at 0 per item because sketch estimates
/// of infrequent items can be negative. One FrequencyEstimate per item; the
/// reference that FindFrequentItemsWithMass is tested against.
double EstimateFrequentMass(const LdpJoinSketchServer& sketch,
                            const std::unordered_set<uint64_t>& items,
                            double scale);

}  // namespace ldpjs

#endif  // LDPJS_CORE_FREQ_ITEMS_H_
