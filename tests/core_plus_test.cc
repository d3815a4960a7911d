#include "core/ldp_join_sketch_plus.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/freq_items.h"
#include "core/join_est.h"
#include "core/simulation.h"
#include "data/datasets.h"
#include "data/join.h"

namespace ldpjs {
namespace {

SketchParams TestParams(int k = 18, int m = 1024, uint64_t seed = 51) {
  SketchParams params;
  params.k = k;
  params.m = m;
  params.seed = seed;
  return params;
}

TEST(FreqItemsTest, FindsPlantedHeavyHitters) {
  // Domain of 500; values 0,1,2 hold ~60% of the mass.
  const uint64_t domain = 500;
  const JoinWorkload w = MakeZipfWorkload(1.8, domain, 200000, 3);
  SimulationOptions sim;
  sim.run_seed = 7;
  const LdpJoinSketchServer sketch =
      BuildLdpJoinSketch(w.table_a, TestParams(), 4.0, sim);
  const auto fi = FindFrequentItems(sketch, domain,
                                    0.01 * static_cast<double>(w.table_a.size()));
  EXPECT_TRUE(fi.contains(0));
  EXPECT_TRUE(fi.contains(1));
  // The tail must stay out.
  size_t tail_hits = 0;
  for (uint64_t d = 100; d < domain; ++d) {
    tail_hits += fi.contains(d) ? size_t{1} : size_t{0};
  }
  EXPECT_LE(tail_hits, 5u);
}

TEST(FreqItemsTest, UnionCoversBothAttributes) {
  const uint64_t domain = 100;
  // Table A heavy at 0, table B heavy at 99.
  std::vector<uint64_t> va(50000, 0), vb(50000, 99);
  for (size_t i = 0; i < 20000; ++i) {
    va.push_back(i % domain);
    vb.push_back(i % domain);
  }
  Column a(std::move(va), domain), b(std::move(vb), domain);
  SimulationOptions sim;
  sim.run_seed = 9;
  const LdpJoinSketchServer sa = BuildLdpJoinSketch(a, TestParams(), 4.0, sim);
  sim.run_seed = 10;
  const LdpJoinSketchServer sb = BuildLdpJoinSketch(b, TestParams(), 4.0, sim);
  const auto fi = FindFrequentItemsUnion(
      sa, sb, domain, 0.1 * static_cast<double>(a.size()),
      0.1 * static_cast<double>(b.size()));
  EXPECT_TRUE(fi.contains(0));
  EXPECT_TRUE(fi.contains(99));
}

TEST(FreqItemsTest, MassEstimateTracksTruth) {
  const uint64_t domain = 200;
  const JoinWorkload w = MakeZipfWorkload(1.6, domain, 150000, 11);
  SimulationOptions sim;
  sim.run_seed = 13;
  const LdpJoinSketchServer sketch =
      BuildLdpJoinSketch(w.table_a, TestParams(), 4.0, sim);
  const std::unordered_set<uint64_t> items{0, 1, 2, 3, 4};
  const auto freq = w.table_a.Frequencies();
  double truth = 0;
  for (uint64_t d : items) truth += static_cast<double>(freq[d]);
  const double est = EstimateFrequentMass(sketch, items, 1.0);
  EXPECT_NEAR(est / truth, 1.0, 0.1);
}

// The block-scan kernel against the per-value FrequencyEstimate reference,
// bit for bit, on domains that are not a multiple of the 256-value block:
// 301 values keep the two-sketch scan below kMinSharedParallelWork (serial),
// 100003 put it above (sharded across the pool).
class FreqItemsScanTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FreqItemsScanTest, FusedScanMatchesPerValueReference) {
  const uint64_t domain = GetParam();
  const JoinWorkload w = MakeZipfWorkload(1.2, domain, 60000, 83);
  SimulationOptions sim;
  sim.run_seed = 89;
  const LdpJoinSketchServer sa =
      BuildLdpJoinSketch(w.table_a, TestParams(), 4.0, sim);
  sim.run_seed = 97;
  const LdpJoinSketchServer sb =
      BuildLdpJoinSketch(w.table_b, TestParams(), 4.0, sim);
  const double threshold_a = 0.004 * static_cast<double>(w.table_a.size());
  const double threshold_b = 0.006 * static_cast<double>(w.table_b.size());

  const FrequentItemsWithMass fused =
      FindFrequentItemsWithMass(sa, sb, domain, threshold_a, threshold_b);
  const std::unordered_set<uint64_t> fi =
      FindFrequentItemsUnion(sa, sb, domain, threshold_a, threshold_b);
  const std::unordered_set<uint64_t> fi_a =
      FindFrequentItems(sa, domain, threshold_a);
  const std::vector<double> all_a = sa.EstimateAllFrequencies(domain);
  ASSERT_EQ(all_a.size(), domain);
  size_t mismatches = 0;
  for (uint64_t d = 0; d < domain; ++d) {
    const double fa = sa.FrequencyEstimate(d);
    const bool hot = fa > threshold_a || sb.FrequencyEstimate(d) > threshold_b;
    mismatches += (std::bit_cast<uint64_t>(all_a[d]) !=
                   std::bit_cast<uint64_t>(fa)) ||
                  fi.contains(d) != hot || fused.items.contains(d) != hot ||
                  fi_a.contains(d) != (fa > threshold_a);
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(fused.items.size(), fi.size());
  EXPECT_GT(fi.size(), 0u);
  EXPECT_LT(fi.size(), domain);
  EXPECT_EQ(std::bit_cast<uint64_t>(fused.mass_a),
            std::bit_cast<uint64_t>(EstimateFrequentMass(sa, fi, 1.0)));
  EXPECT_EQ(std::bit_cast<uint64_t>(fused.mass_b),
            std::bit_cast<uint64_t>(EstimateFrequentMass(sb, fi, 1.0)));
}

INSTANTIATE_TEST_SUITE_P(Domains, FreqItemsScanTest,
                         ::testing::Values(301, 100003));
// The scan's work estimate is domain·k·sketches.
static_assert(301 * 18 * 2 < kMinSharedParallelWork);
static_assert(100003 * 18 * 2 >= kMinSharedParallelWork);

TEST(FrequentItemSetTest, MembershipMatchesSourceSet) {
  const std::unordered_set<uint64_t> empty_source;
  for (const FrequentItemSet& empty :
       {FrequentItemSet(), FrequentItemSet{}, FrequentItemSet(empty_source)}) {
    EXPECT_EQ(empty.size(), 0u);
    for (const uint64_t d : {0ULL, 1ULL, 63ULL, 64ULL, 1000000ULL}) {
      EXPECT_FALSE(empty.contains(d));
    }
  }

  const FrequentItemSet listed{1, 2, 3};
  EXPECT_EQ(listed.size(), 3u);
  for (uint64_t d = 0; d < 200; ++d) {
    EXPECT_EQ(listed.contains(d), d >= 1 && d <= 3) << d;
  }

  // Random members, word edges included, probed past the largest member.
  std::unordered_set<uint64_t> source{0, 63, 64, 127, 128, 4095};
  Xoshiro256 rng(101);
  for (int i = 0; i < 2000; ++i) source.insert(rng.NextBounded(50000));
  const FrequentItemSet bitmap(source);
  EXPECT_EQ(bitmap.size(), source.size());
  size_t mismatches = 0;
  for (uint64_t d = 0; d < 50200; ++d) {
    mismatches += bitmap.contains(d) != source.contains(d);
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_FALSE(bitmap.contains(~uint64_t{0}));

  // Back to a hash set: the same members, iterated in the order of ascending
  // inserts into a default-constructed set.
  std::unordered_set<uint64_t> ascending;
  for (uint64_t d = 0; d < 50000; ++d) {
    if (source.contains(d)) ascending.insert(d);
  }
  const std::unordered_set<uint64_t> round_trip = bitmap.ToUnorderedSet();
  EXPECT_EQ(round_trip, source);
  EXPECT_TRUE(std::equal(round_trip.begin(), round_trip.end(),
                         ascending.begin(), ascending.end()));
}

TEST(FrequentItemSetDeathTest, MembersAbove32BitsAbort) {
  const std::unordered_set<uint64_t> huge{uint64_t{1} << 40};
  EXPECT_DEATH(FrequentItemSet{huge}, "LDPJS_CHECK failed");
}

TEST(JoinEstTest, LowModeRemovesHighFrequencyMass) {
  // Build FAP low-sketches over a mixture and verify the estimate matches
  // the low-frequency join only.
  const SketchParams params = TestParams(12, 512);
  const uint64_t domain = 1000;
  const size_t n_low = 100000, n_high = 150000;
  auto make_column = [&](uint64_t low_value) {
    std::vector<uint64_t> values;
    values.reserve(n_low + n_high);
    for (size_t i = 0; i < n_low; ++i) values.push_back(low_value);
    for (size_t i = 0; i < n_high; ++i) values.push_back(7);  // shared heavy
    return Column(std::move(values), domain);
  };
  // Both tables share the same low value 123 → low join = n_low^2.
  Column a = make_column(123), b = make_column(123);
  const std::unordered_set<uint64_t> fi{7};
  SimulationOptions sim;
  sim.run_seed = 17;
  const LdpJoinSketchServer mla =
      BuildFapSketch(a, params, 4.0, FapMode::kLow, fi, sim);
  sim.run_seed = 18;
  const LdpJoinSketchServer mlb =
      BuildFapSketch(b, params, 4.0, FapMode::kLow, fi, sim);

  JoinEstSide side_a{&mla, static_cast<double>(n_high),
                     static_cast<double>(a.size()),
                     static_cast<double>(a.size())};
  JoinEstSide side_b{&mlb, static_cast<double>(n_high),
                     static_cast<double>(b.size()),
                     static_cast<double>(b.size())};
  const double est = JoinEst(side_a, side_b, FapMode::kLow);
  const double truth = static_cast<double>(n_low) * static_cast<double>(n_low);
  EXPECT_NEAR(est / truth, 1.0, 0.2);
}

TEST(JoinEstTest, HighModeRemovesLowFrequencyMass) {
  const SketchParams params = TestParams(12, 512);
  const uint64_t domain = 1000;
  const size_t n_low = 150000, n_high = 100000;
  auto make_column = [&] {
    std::vector<uint64_t> values;
    values.reserve(n_low + n_high);
    for (size_t i = 0; i < n_low; ++i) values.push_back(200 + i % 300);
    for (size_t i = 0; i < n_high; ++i) values.push_back(7);
    return Column(std::move(values), domain);
  };
  Column a = make_column(), b = make_column();
  const std::unordered_set<uint64_t> fi{7};
  SimulationOptions sim;
  sim.run_seed = 21;
  const LdpJoinSketchServer mha =
      BuildFapSketch(a, params, 4.0, FapMode::kHigh, fi, sim);
  sim.run_seed = 22;
  const LdpJoinSketchServer mhb =
      BuildFapSketch(b, params, 4.0, FapMode::kHigh, fi, sim);

  JoinEstSide side_a{&mha, static_cast<double>(n_high),
                     static_cast<double>(a.size()),
                     static_cast<double>(a.size())};
  JoinEstSide side_b{&mhb, static_cast<double>(n_high),
                     static_cast<double>(b.size()),
                     static_cast<double>(b.size())};
  const double est = JoinEst(side_a, side_b, FapMode::kHigh);
  const double truth =
      static_cast<double>(n_high) * static_cast<double>(n_high);
  EXPECT_NEAR(est / truth, 1.0, 0.2);
}

TEST(JoinEstTest, ZeroNonTargetMassReducesToPlainJoinEstimate) {
  // mode = kLow with zero FI mass: nothing to subtract, so JoinEst must
  // equal the plain sketch product exactly.
  const SketchParams params = TestParams(6, 256);
  const JoinWorkload w = MakeZipfWorkload(1.4, 300, 30000, 19);
  SimulationOptions sim;
  sim.run_seed = 71;
  const LdpJoinSketchServer sa =
      BuildFapSketch(w.table_a, params, 4.0, FapMode::kLow, {}, sim);
  sim.run_seed = 72;
  const LdpJoinSketchServer sb =
      BuildFapSketch(w.table_b, params, 4.0, FapMode::kLow, {}, sim);
  JoinEstSide side_a{&sa, 0.0, static_cast<double>(w.table_a.size()),
                     static_cast<double>(w.table_a.size())};
  JoinEstSide side_b{&sb, 0.0, static_cast<double>(w.table_b.size()),
                     static_cast<double>(w.table_b.size())};
  EXPECT_EQ(JoinEst(side_a, side_b, FapMode::kLow), sa.JoinEstimate(sb));
}

TEST(JoinEstTest, GroupScaledSubtractionDiffersFromPaperLiteral) {
  const SketchParams params = TestParams(6, 256);
  Column a(std::vector<uint64_t>(50000, 3), 100);
  const std::unordered_set<uint64_t> fi{3};
  SimulationOptions sim;
  sim.run_seed = 23;
  const LdpJoinSketchServer sketch =
      BuildFapSketch(a, params, 4.0, FapMode::kLow, fi, sim);
  // Group is half the table → group-scaled subtraction removes half the
  // mass of the literal variant.
  JoinEstSide side{&sketch, 50000.0, 100000.0, 50000.0};
  JoinEstOptions literal;
  literal.paper_literal_subtraction = true;
  const double est_scaled = JoinEst(side, side, FapMode::kLow);
  const double est_literal = JoinEst(side, side, FapMode::kLow, literal);
  EXPECT_NE(est_scaled, est_literal);
}

TEST(LdpJoinSketchPlusTest, EndToEndOnSkewedData) {
  const uint64_t domain = 3000;
  const JoinWorkload w = MakeZipfWorkload(1.5, domain, 400000, 29);
  const double truth = ExactJoinSize(w.table_a, w.table_b);
  LdpJoinSketchPlusParams params;
  params.sketch = TestParams();
  params.epsilon = 4.0;
  params.sample_rate = 0.2;
  params.threshold = 0.005;
  params.simulation.run_seed = 31;
  const LdpJoinSketchPlusResult result =
      EstimateJoinSizePlus(w.table_a, w.table_b, params);
  EXPECT_NEAR(result.estimate / truth, 1.0, 0.3);
  EXPECT_GT(result.frequent_item_count, 0u);
  // Partition accounting: sample + group1 + group2 = table.
  EXPECT_EQ(result.sample_rows_a + result.group_rows_a[0] +
                result.group_rows_a[1],
            w.table_a.size());
  EXPECT_EQ(result.sample_rows_b + result.group_rows_b[0] +
                result.group_rows_b[1],
            w.table_b.size());
  // Sample is ~r of the table.
  EXPECT_NEAR(static_cast<double>(result.sample_rows_a) /
                  static_cast<double>(w.table_a.size()),
              params.sample_rate, 0.02);
  // Estimate decomposes into the two scaled parts.
  EXPECT_NEAR(result.estimate, result.low_estimate + result.high_estimate,
              1e-6);
}

TEST(LdpJoinSketchPlusTest, DeterministicForFixedSeedAndThreads) {
  const JoinWorkload w = MakeZipfWorkload(1.5, 500, 100000, 37);
  LdpJoinSketchPlusParams params;
  params.sketch = TestParams(12, 512);
  params.epsilon = 4.0;
  params.simulation.run_seed = 41;
  params.simulation.num_threads = 2;
  const auto r1 = EstimateJoinSizePlus(w.table_a, w.table_b, params);
  const auto r2 = EstimateJoinSizePlus(w.table_a, w.table_b, params);
  EXPECT_EQ(r1.estimate, r2.estimate);
  EXPECT_EQ(r1.frequent_item_count, r2.frequent_item_count);
}

// Pins the estimator's outputs across builds, not just across two runs of
// one build: any change to the Theorem-7 summation order, the FI set's
// iteration order or the FAP target test shows up here as a bit difference.
// The values were recorded from the per-value FrequencyEstimate reference.
// At the default θ the phase-1 noise puts most of the domain in FI and both
// masses clamp to |A|; θ = 0.03 leaves 14 items, whose unclamped mass sums
// pin the summation order over the FI set.
TEST(LdpJoinSketchPlusTest, PinnedOutputsAcrossBuilds) {
  struct Pinned {
    double threshold;
    double estimate;
    double mass_a;
    double mass_b;
    size_t frequent_items;
  };
  const Pinned pins[] = {
      {0.001, 0x1.223d1597b4217p+30, 0x1.86ap+17, 0x1.86ap+17, 68855},
      {0.03, 0x1.13f7e6d3f55b7p+30, 0x1.5907747dd6f64p+16,
       0x1.5787a5a87ae0dp+16, 14},
  };
  const JoinWorkload w = MakeZipfWorkload(1.1, 100000, 200000, 61);
  for (const Pinned& pin : pins) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(testing::Message() << "threshold " << pin.threshold
                                      << " threads " << threads);
      LdpJoinSketchPlusParams params;
      params.sketch = TestParams();
      params.epsilon = 4.0;
      params.threshold = pin.threshold;
      params.simulation.run_seed = 67;
      params.simulation.num_threads = threads;
      const auto r = EstimateJoinSizePlus(w.table_a, w.table_b, params);
      EXPECT_EQ(r.estimate, pin.estimate);
      EXPECT_EQ(r.high_freq_mass_a, pin.mass_a);
      EXPECT_EQ(r.high_freq_mass_b, pin.mass_b);
      EXPECT_EQ(r.frequent_item_count, pin.frequent_items);
    }
  }
}

TEST(LdpJoinSketchPlusTest, HighFreqMassClampedToTableSize) {
  const JoinWorkload w = MakeZipfWorkload(2.0, 200, 80000, 43);
  LdpJoinSketchPlusParams params;
  params.sketch = TestParams(12, 512);
  params.epsilon = 0.5;  // noisy phase 1 → inflated raw mass estimates
  params.threshold = 0.001;
  params.simulation.run_seed = 47;
  const auto result = EstimateJoinSizePlus(w.table_a, w.table_b, params);
  EXPECT_LE(result.high_freq_mass_a, static_cast<double>(w.table_a.size()));
  EXPECT_LE(result.high_freq_mass_b, static_cast<double>(w.table_b.size()));
}

TEST(LdpJoinSketchPlusDeathTest, InvalidParamsAbort) {
  const JoinWorkload w = MakeZipfWorkload(1.5, 100, 1000, 3);
  LdpJoinSketchPlusParams params;
  params.sample_rate = 0.0;
  EXPECT_DEATH(EstimateJoinSizePlus(w.table_a, w.table_b, params),
               "LDPJS_CHECK failed");
  params.sample_rate = 0.1;
  params.threshold = 1.5;
  EXPECT_DEATH(EstimateJoinSizePlus(w.table_a, w.table_b, params),
               "LDPJS_CHECK failed");
}

// Property sweep: the full pipeline stays sane across thresholds (Fig. 11's
// x-axis) — estimates remain positive and within a loose band of truth on
// well-behaved data.
class PlusThresholdTest : public ::testing::TestWithParam<double> {};

TEST_P(PlusThresholdTest, EstimateWithinLooseBand) {
  const JoinWorkload w = MakeZipfWorkload(1.5, 1000, 200000, 53);
  const double truth = ExactJoinSize(w.table_a, w.table_b);
  LdpJoinSketchPlusParams params;
  params.sketch = TestParams(12, 1024);
  params.epsilon = 4.0;
  params.threshold = GetParam();
  params.simulation.run_seed = 59;
  const auto result = EstimateJoinSizePlus(w.table_a, w.table_b, params);
  EXPECT_GT(result.estimate, 0.2 * truth);
  EXPECT_LT(result.estimate, 3.0 * truth);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, PlusThresholdTest,
                         ::testing::Values(0.0005, 0.001, 0.005, 0.02, 0.08));

}  // namespace
}  // namespace ldpjs
