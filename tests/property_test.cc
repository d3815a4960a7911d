// Cross-cutting property tests: serialization robustness under arbitrary
// truncation/corruption, Parseval's identity for the FWHT (the identity the
// noise analysis rests on), facade invariants, and protocol determinism
// across thread counts.
#include <cmath>

#include <gtest/gtest.h>

#include "common/hadamard.h"
#include "common/stats.h"
#include "core/join_methods.h"
#include "core/ldp_join_sketch.h"
#include "core/simulation.h"
#include "data/datasets.h"
#include "data/join.h"
#include "ldp/frequency_oracle.h"
#include "sketch/fast_agms.h"

namespace ldpjs {
namespace {

TEST(SerializationRobustnessTest, ArbitraryTruncationNeverCrashes) {
  SketchParams params;
  params.k = 3;
  params.m = 64;
  params.seed = 5;
  LdpJoinSketchServer server(params, 2.0);
  LdpJoinSketchClient client(params, 2.0);
  Xoshiro256 rng(1);
  for (int i = 0; i < 500; ++i) {
    server.Absorb(client.Perturb(static_cast<uint64_t>(i % 7), rng));
  }
  server.Finalize();
  const auto bytes = server.Serialize();
  // Every prefix must either parse to a valid sketch or fail cleanly.
  for (size_t cut = 0; cut < bytes.size(); cut += 7) {
    std::vector<uint8_t> prefix(bytes.begin(),
                                bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    auto result = LdpJoinSketchServer::Deserialize(prefix);
    EXPECT_FALSE(result.ok()) << "prefix of " << cut << " bytes parsed";
  }
  EXPECT_TRUE(LdpJoinSketchServer::Deserialize(bytes).ok());
}

TEST(SerializationRobustnessTest, SingleByteCorruptionDetectedOrBenign) {
  SketchParams params;
  params.k = 2;
  params.m = 32;
  params.seed = 9;
  LdpJoinSketchServer server(params, 1.5);
  server.Finalize();
  const auto bytes = server.Serialize();
  Xoshiro256 rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    auto copy = bytes;
    const size_t pos = rng.NextBounded(copy.size());
    copy[pos] = static_cast<uint8_t>(rng.NextBounded(256));
    // Must not crash; may fail (Corruption) or parse to some sketch whose
    // shape invariants hold.
    auto result = LdpJoinSketchServer::Deserialize(copy);
    if (result.ok()) {
      EXPECT_GE(result->params().k, 1);
      EXPECT_TRUE(IsPowerOfTwo(static_cast<uint64_t>(result->params().m)));
    }
  }
}

TEST(ParsevalTest, FwhtPreservesScaledNorm) {
  // ||H_m x||^2 = m ||x||^2 — used to derive the sampling-noise variance of
  // the sketch cells.
  Xoshiro256 rng(7);
  for (size_t m : {8u, 64u, 512u}) {
    std::vector<double> x(m);
    double norm = 0;
    for (double& v : x) {
      v = rng.NextGaussian();
      norm += v * v;
    }
    FastWalshHadamardTransform(std::span<double>(x));
    double transformed_norm = 0;
    for (double v : x) transformed_norm += v * v;
    EXPECT_NEAR(transformed_norm, static_cast<double>(m) * norm,
                1e-6 * transformed_norm);
  }
}

TEST(FacadeTest, CommBitsMatchCostModel) {
  const JoinWorkload w = MakeZipfWorkload(1.5, 1 << 14, 20000, 3);
  JoinMethodConfig config;
  config.epsilon = 4.0;
  config.sketch.k = 18;
  config.sketch.m = 1024;
  config.flh_pool_size = 64;
  const double users = 2.0 * static_cast<double>(w.table_a.size());
  EXPECT_EQ(
      EstimateJoin(JoinMethod::kKrr, w.table_a, w.table_b, config).comm_bits,
      CommCostModel::KrrBitsPerUser(w.table_a.domain()) * users);
  EXPECT_EQ(EstimateJoin(JoinMethod::kLdpJoinSketch, w.table_a, w.table_b,
                         config)
                .comm_bits,
            CommCostModel::HadamardSketchBitsPerUser(18, 1024) * users);
}

TEST(FacadeTest, PlusAndBaseShareReportFormat) {
  const JoinWorkload w = MakeZipfWorkload(1.5, 500, 30000, 5);
  JoinMethodConfig config;
  config.sketch.k = 18;
  config.sketch.m = 1024;
  const double base =
      EstimateJoin(JoinMethod::kLdpJoinSketch, w.table_a, w.table_b, config)
          .comm_bits;
  const double plus = EstimateJoin(JoinMethod::kLdpJoinSketchPlus, w.table_a,
                                   w.table_b, config)
                          .comm_bits;
  EXPECT_EQ(base, plus);
}

TEST(DeterminismTest, FullPlusPipelineIdenticalAcrossRepeats) {
  const JoinWorkload w = MakeZipfWorkload(1.6, 800, 60000, 7);
  LdpJoinSketchPlusParams params;
  params.sketch.k = 12;
  params.sketch.m = 512;
  params.sketch.seed = 3;
  params.epsilon = 4.0;
  params.simulation.run_seed = 11;
  params.simulation.num_threads = 3;
  const auto r1 = EstimateJoinSizePlus(w.table_a, w.table_b, params);
  const auto r2 = EstimateJoinSizePlus(w.table_a, w.table_b, params);
  EXPECT_EQ(r1.estimate, r2.estimate);
  EXPECT_EQ(r1.low_estimate, r2.low_estimate);
  EXPECT_EQ(r1.high_estimate, r2.high_estimate);
  EXPECT_EQ(r1.frequent_item_count, r2.frequent_item_count);
}

TEST(FastAgmsPropertyTest, JoinEstimateTracksExactJoin) {
  // Fast-AGMS is the paper's non-private baseline: on a moderately skewed
  // workload its estimate stays within its error bar of the exact join.
  const JoinWorkload w = MakeZipfWorkload(1.6, 400, 20000, 9);
  const double truth = ExactJoinSize(w.table_a, w.table_b);
  FastAgmsSketch fa(3, 5, 512), fb(3, 5, 512);
  fa.UpdateColumn(w.table_a);
  fb.UpdateColumn(w.table_b);
  EXPECT_NEAR(fa.JoinEstimate(fb) / truth, 1.0, 0.15);
}

TEST(ScenarioTest, PrivateDiscoveryRankingPreservesOverlapOrder) {
  // Mirror of examples/dataset_discovery.cpp as a regression test: the
  // privately estimated join sizes must rank candidates by true overlap.
  const uint64_t domain = 5000;
  const uint64_t rows = 60000;
  const JoinWorkload query_pop = MakeZipfWorkload(1.5, domain, rows, 21);
  SketchParams params;
  params.k = 18;
  params.m = 1024;
  params.seed = 23;
  SimulationOptions sim;
  sim.run_seed = 31;
  const LdpJoinSketchServer query =
      BuildLdpJoinSketch(query_pop.table_a, params, 4.0, sim);

  std::vector<double> estimates;
  const double overlaps[] = {0.8, 0.4, 0.05};
  for (int c = 0; c < 3; ++c) {
    const JoinWorkload pop =
        MakeZipfWorkload(1.5, domain, rows, 100 + static_cast<uint64_t>(c));
    std::vector<uint64_t> values;
    for (size_t i = 0; i < pop.table_b.size(); ++i) {
      const bool shared =
          (static_cast<double>(i % 100) / 100.0) < overlaps[c];
      values.push_back(shared ? pop.table_b[i]
                              : (pop.table_b[i] + domain / 2) % domain);
    }
    sim.run_seed = 50 + static_cast<uint64_t>(c);
    const LdpJoinSketchServer sketch =
        BuildLdpJoinSketch(Column(std::move(values), domain), params, 4.0, sim);
    estimates.push_back(query.JoinEstimate(sketch));
  }
  EXPECT_GT(estimates[0], estimates[1]);
  EXPECT_GT(estimates[1], estimates[2]);
}

TEST(ScenarioTest, CosineSimilarityFromSketchesMatchesTruth) {
  // Mirror of examples/private_similarity.cpp.
  const uint64_t domain = 3000;
  const JoinWorkload w = MakeZipfWorkload(1.5, domain, 80000, 25);
  SketchParams params;
  params.k = 18;
  params.m = 1024;
  params.seed = 27;
  SimulationOptions sim;
  auto build = [&](const Column& c, uint64_t seed) {
    sim.run_seed = seed;
    return BuildLdpJoinSketch(c, params, 4.0, sim);
  };
  const auto sa = build(w.table_a, 1), sb = build(w.table_b, 2);
  const auto sa2 = build(w.table_a, 3), sb2 = build(w.table_b, 4);
  const double cosine =
      sa.JoinEstimate(sb) / (std::sqrt(std::abs(sa.JoinEstimate(sa2))) *
                             std::sqrt(std::abs(sb.JoinEstimate(sb2))));
  const auto fa = w.table_a.Frequencies();
  const auto fb = w.table_b.Frequencies();
  double inner = 0, na = 0, nb = 0;
  for (uint64_t d = 0; d < domain; ++d) {
    inner += static_cast<double>(fa[d]) * static_cast<double>(fb[d]);
    na += static_cast<double>(fa[d]) * static_cast<double>(fa[d]);
    nb += static_cast<double>(fb[d]) * static_cast<double>(fb[d]);
  }
  const double truth = inner / (std::sqrt(na) * std::sqrt(nb));
  EXPECT_NEAR(cosine, truth, 0.1);
}

}  // namespace
}  // namespace ldpjs
