#include "common/hash.h"

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

namespace ldpjs {
namespace {

TEST(PolynomialHashTest, DeterministicForSeed) {
  PolynomialHash h1(11, 4), h2(11, 4), h3(12, 4);
  bool any_diff = false;
  for (uint64_t x = 0; x < 100; ++x) {
    EXPECT_EQ(h1(x), h2(x));
    if (h1(x) != h3(x)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(PolynomialHashTest, OutputBelowMersennePrime) {
  PolynomialHash h(99, 4);
  for (uint64_t x = 0; x < 1000; ++x) {
    EXPECT_LT(h(x * 0x9e3779b97f4a7c15ULL), kMersenne61);
  }
}

TEST(PolynomialHashTest, IndependenceDegreeIsStored) {
  EXPECT_EQ(PolynomialHash(1, 2).independence(), 2);
  EXPECT_EQ(PolynomialHash(1, 4).independence(), 4);
}

TEST(MulMod61Test, MatchesSmallCases) {
  EXPECT_EQ(internal::MulMod61(3, 5), 15u);
  EXPECT_EQ(internal::MulMod61(kMersenne61 - 1, 1), kMersenne61 - 1);
  // (p-1)*(p-1) mod p = 1 since (p-1) ≡ -1 (mod p).
  EXPECT_EQ(internal::MulMod61(kMersenne61 - 1, kMersenne61 - 1), 1u);
}

TEST(AddMod61Test, WrapsAround) {
  EXPECT_EQ(internal::AddMod61(kMersenne61 - 1, 1), 0u);
  EXPECT_EQ(internal::AddMod61(5, 6), 11u);
}

TEST(BucketHashTest, InRange) {
  const uint64_t m = 77;  // non power of two on purpose
  BucketHash h(5, m);
  EXPECT_EQ(h.num_buckets(), m);
  for (uint64_t x = 0; x < 10000; ++x) {
    EXPECT_LT(h(x), m);
  }
}

TEST(BucketHashTest, ApproximatelyUniform) {
  const uint64_t m = 64;
  BucketHash h(17, m);
  std::vector<int> counts(m, 0);
  const int n = 64000;
  for (int x = 0; x < n; ++x) ++counts[h(static_cast<uint64_t>(x))];
  const double expected = static_cast<double>(n) / static_cast<double>(m);
  for (uint64_t b = 0; b < m; ++b) {
    EXPECT_GT(counts[b], expected * 0.75) << "bucket " << b;
    EXPECT_LT(counts[b], expected * 1.25) << "bucket " << b;
  }
}

TEST(BucketHashTest, PairwiseCollisionRateNearOneOverM) {
  const uint64_t m = 128;
  int collisions = 0;
  const int kPairs = 20000;
  for (int t = 0; t < kPairs; ++t) {
    BucketHash h(1000 + static_cast<uint64_t>(t), m);
    if (h(2 * static_cast<uint64_t>(t)) == h(2 * static_cast<uint64_t>(t) + 1)) {
      ++collisions;
    }
  }
  const double rate = static_cast<double>(collisions) / kPairs;
  EXPECT_NEAR(rate, 1.0 / static_cast<double>(m), 0.004);
}

TEST(SignHashTest, OutputsPlusMinusOne) {
  SignHash xi(23);
  for (uint64_t x = 0; x < 1000; ++x) {
    const int s = xi(x);
    EXPECT_TRUE(s == 1 || s == -1);
  }
}

TEST(SignHashTest, BalancedSigns) {
  SignHash xi(29);
  int sum = 0;
  const int n = 100000;
  for (int x = 0; x < n; ++x) sum += xi(static_cast<uint64_t>(x));
  EXPECT_LT(std::abs(sum), 1500);  // ~4.7 sigma for fair coin
}

TEST(SignHashTest, PairProductMeanNearZero) {
  // E[ξ(a)ξ(b)] = 0 for a != b over the hash family.
  double acc = 0;
  const int kFamilies = 20000;
  for (int t = 0; t < kFamilies; ++t) {
    SignHash xi(40000 + static_cast<uint64_t>(t));
    acc += xi(1) * xi(2);
  }
  EXPECT_NEAR(acc / kFamilies, 0.0, 0.02);
}

TEST(SignHashTest, FourWiseProductMeanNearZero) {
  // E[ξ(a)ξ(b)ξ(c)ξ(d)] = 0 for distinct a,b,c,d — needs 4-wise
  // independence, which degree-3 polynomials provide.
  double acc = 0;
  const int kFamilies = 20000;
  for (int t = 0; t < kFamilies; ++t) {
    SignHash xi(90000 + static_cast<uint64_t>(t));
    acc += xi(10) * xi(20) * xi(30) * xi(40);
  }
  EXPECT_NEAR(acc / kFamilies, 0.0, 0.02);
}

TEST(RowHashesTest, SameSeedSameFamilies) {
  auto rows1 = MakeRowHashes(77, 5, 64);
  auto rows2 = MakeRowHashes(77, 5, 64);
  ASSERT_EQ(rows1.size(), 5u);
  for (size_t j = 0; j < rows1.size(); ++j) {
    for (uint64_t x = 0; x < 200; ++x) {
      EXPECT_EQ(rows1[j].bucket(x), rows2[j].bucket(x));
      EXPECT_EQ(rows1[j].sign(x), rows2[j].sign(x));
    }
  }
}

TEST(RowHashesTest, RowsAreDistinct) {
  auto rows = MakeRowHashes(88, 4, 1024);
  int diff = 0;
  for (uint64_t x = 0; x < 200; ++x) {
    if (rows[0].bucket(x) != rows[1].bucket(x)) ++diff;
  }
  EXPECT_GT(diff, 150);  // different rows hash differently almost always
}

TEST(TabulationHashTest, DeterministicAndSeedSensitive) {
  TabulationHash h1(3), h2(3), h3(4);
  bool any_diff = false;
  for (uint64_t x = 0; x < 100; ++x) {
    EXPECT_EQ(h1(x), h2(x));
    if (h1(x) != h3(x)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(TabulationHashTest, AvalancheOnSingleBitFlip) {
  TabulationHash h(5);
  double total = 0;
  const int kTrials = 512;
  for (int t = 0; t < kTrials; ++t) {
    const uint64_t x = static_cast<uint64_t>(t) * 0x9e3779b97f4a7c15ULL;
    total += std::popcount(h(x) ^ h(x ^ (1ULL << (static_cast<unsigned>(t) % 64))));
  }
  EXPECT_GT(total / kTrials, 24.0);
  EXPECT_LT(total / kTrials, 40.0);
}

// Property sweep: bucket hashes stay in range and stay deterministic for a
// grid of (seed, m) configurations.
class BucketHashParamTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint64_t>> {};

TEST_P(BucketHashParamTest, RangeAndDeterminism) {
  const auto [seed, m] = GetParam();
  BucketHash a(seed, m), b(seed, m);
  for (uint64_t x = 0; x < 2000; ++x) {
    const uint64_t va = a(x);
    EXPECT_LT(va, m);
    EXPECT_EQ(va, b(x));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BucketHashParamTest,
    ::testing::Combine(::testing::Values(1u, 42u, 0xdeadbeefu),
                       ::testing::Values(2u, 3u, 64u, 1024u, 1u << 20)));

// Block kernels (HashRange) against the scalar operator(), value for value:
// starts at and around 256-run boundaries, deep into the 64-bit range, and
// just below p; lengths crossing many runs; several seeds.
const uint64_t kRangeStarts[] = {0,   1,   255, 256, (uint64_t{1} << 40) + 17,
                                 kMersenne61 - 5000};
constexpr size_t kMaxRangeLength = 4096;

std::vector<size_t> RangeLengths() {
  std::vector<size_t> lengths;
  for (size_t n = 1; n <= 8; ++n) lengths.push_back(n);
  for (size_t n = 9; n <= kMaxRangeLength; n += 37) lengths.push_back(n);
  for (const size_t n : {255, 256, 257, 511, 512, 513, 4095, 4096}) {
    lengths.push_back(n);
  }
  return lengths;
}

// Index of the first i < out.size() with out[i] != expected(start + i), or
// out.size() if every value matches.
template <typename T, typename Scalar>
size_t FirstMismatch(uint64_t start, const std::vector<T>& out, size_t n,
                     const Scalar& expected) {
  for (size_t i = 0; i < n; ++i) {
    if (static_cast<int64_t>(out[i]) !=
        static_cast<int64_t>(expected(start + i))) {
      return i;
    }
  }
  return n;
}

TEST(BucketHashTest, HashRangeEqualsScalar) {
  for (const uint64_t seed : {1ULL, 77ULL, 0xdeadbeefULL}) {
    for (const uint64_t m : {uint64_t{77}, uint64_t{1024}, uint64_t{1} << 32}) {
      const BucketHash h(seed, m);
      for (const uint64_t start : kRangeStarts) {
        for (const size_t n : RangeLengths()) {
          std::vector<uint32_t> out(n);
          h.HashRange(start, out);
          EXPECT_EQ(FirstMismatch(start, out, n, h), n)
              << "seed " << seed << " m " << m << " start " << start
              << " length " << n;
        }
      }
    }
  }
}

TEST(SignHashTest, HashRangeEqualsScalar) {
  for (const uint64_t seed : {1ULL, 77ULL, 0xdeadbeefULL, 12345ULL}) {
    const SignHash h(seed);
    for (const uint64_t start : kRangeStarts) {
      for (const size_t n : RangeLengths()) {
        std::vector<int8_t> out(n);
        h.HashRange(start, out);
        EXPECT_EQ(FirstMismatch(start, out, n, h), n)
            << "seed " << seed << " start " << start << " length " << n;
      }
    }
  }
}

TEST(SignHashTest, HashRangeEndsExactlyAtP) {
  const SignHash h(3);
  std::vector<int8_t> out(300);
  h.HashRange(kMersenne61 - out.size(), out);
  EXPECT_EQ(FirstMismatch(kMersenne61 - out.size(), out, out.size(), h),
            out.size());
  h.HashRange(kMersenne61, std::span<int8_t>());  // empty range at p
}

// The forward-difference contract: every input of the range stays below p.
TEST(SignHashDeathTest, HashRangeCrossingPAborts) {
  const SignHash h(3);
  std::vector<int8_t> out(11);
  EXPECT_DEATH(h.HashRange(kMersenne61 - 10, out), "LDPJS_CHECK failed");
  EXPECT_DEATH(h.HashRange(~uint64_t{0}, std::span<int8_t>(out.data(), 1)),
               "LDPJS_CHECK failed");
}

TEST(BucketHashDeathTest, HashRangeWrappingPast64BitsAborts) {
  const BucketHash h(3, 1024);
  std::vector<uint32_t> out(2);
  EXPECT_DEATH(h.HashRange(~uint64_t{0}, out), "LDPJS_CHECK failed");
  h.HashRange(~uint64_t{0}, std::span<uint32_t>(out.data(), 1));
  EXPECT_EQ(out[0], h(~uint64_t{0}));
}

}  // namespace
}  // namespace ldpjs
