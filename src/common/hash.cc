#include "common/hash.h"

#include <algorithm>

#include "common/random.h"

namespace ldpjs {

PolynomialHash::PolynomialHash(uint64_t seed, int degree_plus_one) {
  LDPJS_CHECK(degree_plus_one >= 1);
  coeffs_.resize(static_cast<size_t>(degree_plus_one));
  uint64_t sm = seed;
  for (auto& c : coeffs_) {
    do {
      c = SplitMix64Next(sm) & kMersenne61;
    } while (c >= kMersenne61);  // rejection keeps the draw uniform in [0, p)
  }
  // Non-zero leading coefficient so the family has full degree.
  while (coeffs_[0] == 0) {
    coeffs_[0] = SplitMix64Next(sm) & kMersenne61;
    if (coeffs_[0] >= kMersenne61) coeffs_[0] = 0;
  }
}

BucketHash::BucketHash(uint64_t seed, uint64_t m) : m_(m) {
  LDPJS_CHECK(m >= 1);
  LDPJS_CHECK(m <= (uint64_t{1} << 32));
  uint64_t sm = seed;
  for (auto& table : tables_) {
    // Keep the low 32 bits of each SplitMix64 draw (uniform on 32 bits).
    for (auto& entry : table) {
      entry = static_cast<uint32_t>(SplitMix64Next(sm));
    }
  }
}

void BucketHash::HashRange(uint64_t start, std::span<uint32_t> out) const {
  LDPJS_CHECK(out.empty() || out.size() - 1 <= ~start);
  size_t i = 0;
  while (i < out.size()) {
    const uint64_t x = start + i;
    uint32_t high = 0;
    for (size_t byte = 1; byte < 8; ++byte) {
      high ^= tables_[byte][(x >> (8 * byte)) & 0xff];
    }
    const size_t low = x & 0xff;
    const size_t run = std::min(size_t{256} - low, out.size() - i);
    const uint32_t* low_table = tables_[0].data() + low;
    for (size_t r = 0; r < run; ++r) {
      out[i + r] = static_cast<uint32_t>(
          (static_cast<uint64_t>(high ^ low_table[r]) * m_) >> 32);
    }
    i += run;
  }
}

SignHash::SignHash(uint64_t seed) {
  const PolynomialHash poly(seed, /*degree_plus_one=*/4);
  std::copy(poly.coeffs().begin(), poly.coeffs().end(), c_.begin());
}

void SignHash::HashRange(uint64_t start, std::span<int8_t> out) const {
  using internal::AddMod61;
  using internal::SubMod61;
  LDPJS_CHECK(out.size() <= kMersenne61 && start <= kMersenne61 - out.size());
  if (out.size() < 4) {
    for (size_t i = 0; i < out.size(); ++i) {
      out[i] = static_cast<int8_t>((*this)(start + i));
    }
    return;
  }
  // Forward differences of the cubic at start: value, Δ, Δ², Δ³ (constant).
  const uint64_t p0 = Polynomial(start), p1 = Polynomial(start + 1),
                 p2 = Polynomial(start + 2), p3 = Polynomial(start + 3);
  uint64_t value = p0;
  uint64_t d1 = SubMod61(p1, p0);
  uint64_t d2 = SubMod61(SubMod61(p2, p1), d1);
  const uint64_t d3 = SubMod61(SubMod61(SubMod61(p3, p2), SubMod61(p2, p1)), d2);
  for (int8_t& sign : out) {
    sign = static_cast<int8_t>(SignOf(value));
    value = AddMod61(value, d1);
    d1 = AddMod61(d1, d2);
    d2 = AddMod61(d2, d3);
  }
}

std::vector<RowHashes> MakeRowHashes(uint64_t seed, int k, uint64_t m) {
  LDPJS_CHECK(k >= 1);
  std::vector<RowHashes> rows;
  rows.reserve(static_cast<size_t>(k));
  for (int j = 0; j < k; ++j) {
    const uint64_t row_seed =
        Mix64(seed ^ (0x9e3779b97f4a7c15ULL * (static_cast<uint64_t>(j) + 1)));
    rows.push_back(RowHashes{BucketHash(Mix64(row_seed ^ 0xb7e151628aed2a6bULL), m),
                             SignHash(Mix64(row_seed ^ 0x243f6a8885a308d3ULL))});
  }
  return rows;
}

TabulationHash::TabulationHash(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& table : tables_) {
    for (auto& entry : table) entry = SplitMix64Next(sm);
  }
}

}  // namespace ldpjs
