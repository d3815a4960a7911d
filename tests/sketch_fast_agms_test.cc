#include "sketch/fast_agms.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/stats.h"
#include "data/datasets.h"
#include "data/join.h"

namespace ldpjs {
namespace {

TEST(FastAgmsTest, SingleValueFrequency) {
  FastAgmsSketch sketch(1, 5, 64);
  for (int i = 0; i < 100; ++i) sketch.Update(42);
  EXPECT_EQ(sketch.FrequencyEstimate(42), 100.0);
}

TEST(FastAgmsTest, WeightedUpdate) {
  FastAgmsSketch sketch(1, 5, 64);
  sketch.Update(7, 3.5);
  EXPECT_EQ(sketch.FrequencyEstimate(7), 3.5);
}

TEST(FastAgmsTest, JoinOfDisjointColumnsNearZero) {
  FastAgmsSketch sa(9, 7, 256), sb(9, 7, 256);
  for (uint64_t v = 0; v < 100; ++v) sa.Update(v);
  for (uint64_t v = 1000; v < 1100; ++v) sb.Update(v);
  // True join is 0; estimator error is bounded by ~F1(A)F1(B)/sqrt(m).
  EXPECT_LT(std::abs(sa.JoinEstimate(sb)), 100.0 * 100.0 / std::sqrt(256.0) * 4);
}

TEST(FastAgmsTest, JoinEstimateIsUnbiasedAcrossSeeds) {
  const JoinWorkload w = MakeZipfWorkload(1.3, 2000, 20000, 3);
  const double truth = ExactJoinSize(w.table_a, w.table_b);
  double acc = 0;
  const int kSeeds = 40;
  for (int s = 0; s < kSeeds; ++s) {
    FastAgmsSketch sa(static_cast<uint64_t>(s) + 1, 1, 512);
    FastAgmsSketch sb(static_cast<uint64_t>(s) + 1, 1, 512);
    sa.UpdateColumn(w.table_a);
    sb.UpdateColumn(w.table_b);
    acc += sa.JoinEstimate(sb);
  }
  const double mean = acc / kSeeds;
  EXPECT_NEAR(mean / truth, 1.0, 0.1);
}

TEST(FastAgmsTest, MedianOfRowsTracksExactJoin) {
  const JoinWorkload w = MakeZipfWorkload(1.5, 5000, 50000, 11);
  const double truth = ExactJoinSize(w.table_a, w.table_b);
  FastAgmsSketch sa(5, 9, 1024), sb(5, 9, 1024);
  sa.UpdateColumn(w.table_a);
  sb.UpdateColumn(w.table_b);
  EXPECT_NEAR(sa.JoinEstimate(sb) / truth, 1.0, 0.15);
}

TEST(FastAgmsTest, SelfJoinEstimatesSecondMoment) {
  const JoinWorkload w = MakeZipfWorkload(1.5, 5000, 50000, 13);
  const double f2 = FrequencyMomentF2(w.table_a);
  FastAgmsSketch s(3, 9, 1024);
  s.UpdateColumn(w.table_a);
  EXPECT_NEAR(s.SecondMomentEstimate() / f2, 1.0, 0.15);
}

TEST(FastAgmsTest, ErrorShrinksWithM) {
  // Property from Eq. 1's bound: error ~ 1/sqrt(m). Compare mean absolute
  // error across seeds for m=64 vs m=2048.
  const JoinWorkload w = MakeZipfWorkload(1.2, 3000, 20000, 23);
  const double truth = ExactJoinSize(w.table_a, w.table_b);
  auto mean_err = [&](int m) {
    double acc = 0;
    for (int s = 0; s < 12; ++s) {
      FastAgmsSketch sa(100 + static_cast<uint64_t>(s), 5, m);
      FastAgmsSketch sb(100 + static_cast<uint64_t>(s), 5, m);
      sa.UpdateColumn(w.table_a);
      sb.UpdateColumn(w.table_b);
      acc += std::abs(sa.JoinEstimate(sb) - truth);
    }
    return acc / 12;
  };
  EXPECT_LT(mean_err(2048), mean_err(64));
}

TEST(FastAgmsTest, MergeEqualsSequentialConstruction) {
  FastAgmsSketch merged(7, 4, 128), part1(7, 4, 128), part2(7, 4, 128), all(7, 4, 128);
  for (uint64_t v = 0; v < 50; ++v) {
    part1.Update(v);
    all.Update(v);
  }
  for (uint64_t v = 50; v < 100; ++v) {
    part2.Update(v);
    all.Update(v);
  }
  merged.Merge(part1);
  merged.Merge(part2);
  for (int j = 0; j < 4; ++j) {
    for (int x = 0; x < 128; ++x) {
      EXPECT_EQ(merged.cell(j, x), all.cell(j, x));
    }
  }
}

TEST(FastAgmsDeathTest, JoinRequiresMatchingSeeds) {
  FastAgmsSketch sa(1, 2, 64), sb(2, 2, 64);
  EXPECT_DEATH(sa.JoinEstimate(sb), "LDPJS_CHECK failed");
}

TEST(FastAgmsDeathTest, MergeRequiresMatchingShape) {
  FastAgmsSketch sa(1, 2, 64), sb(1, 2, 128);
  EXPECT_DEATH(sa.Merge(sb), "LDPJS_CHECK failed");
}

TEST(FastAgmsTest, ByteSizeIsCellCount) {
  FastAgmsSketch s(1, 3, 64);
  EXPECT_EQ(s.ByteSize(), 3u * 64u * sizeof(double));
}

// Property sweep: frequency estimates of planted heavy items stay within a
// relative tolerance across sketch shapes.
class FastAgmsParamTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(FastAgmsParamTest, HeavyItemFrequencyWithinTolerance) {
  const auto [k, m] = GetParam();
  const JoinWorkload w = MakeZipfWorkload(1.4, 2000, 30000, 41);
  FastAgmsSketch s(19, k, m);
  s.UpdateColumn(w.table_a);
  const auto freq = w.table_a.Frequencies();
  // Rank-0 item holds a large share of a zipf(1.4) stream.
  const double truth = static_cast<double>(freq[0]);
  EXPECT_NEAR(s.FrequencyEstimate(0) / truth, 1.0, 0.2)
      << "k=" << k << " m=" << m;
}

INSTANTIATE_TEST_SUITE_P(Shapes, FastAgmsParamTest,
                         ::testing::Combine(::testing::Values(3, 7, 11),
                                            ::testing::Values(256, 1024)));

}  // namespace
}  // namespace ldpjs
