// Tests for the optimized-confidence algorithm (Algorithm 4.2), including
// randomized equivalence against the exhaustive O(M^2) oracle.

#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "rules/naive.h"
#include "rules/optimized_confidence.h"
#include "rules/optimized_support.h"

namespace optrules::rules {
namespace {

/// Random bucket instance: u_i in [1, max_u], v_i in [0, u_i].
struct Instance {
  std::vector<int64_t> u;
  std::vector<int64_t> v;
  int64_t total = 0;
};

Instance RandomInstance(int m, int64_t max_u, uint64_t seed) {
  Rng rng(seed);
  Instance instance;
  instance.u.resize(static_cast<size_t>(m));
  instance.v.resize(static_cast<size_t>(m));
  for (int i = 0; i < m; ++i) {
    instance.u[static_cast<size_t>(i)] = rng.NextInt(1, max_u);
    instance.v[static_cast<size_t>(i)] =
        rng.NextInt(0, instance.u[static_cast<size_t>(i)]);
    instance.total += instance.u[static_cast<size_t>(i)];
  }
  return instance;
}

/// Exact comparison h1/s1 vs h2/s2.
bool SameConfidence(int64_t h1, int64_t s1, int64_t h2, int64_t s2) {
  return static_cast<__int128>(h1) * s2 == static_cast<__int128>(h2) * s1;
}

TEST(OptimizedConfidenceTest, SingleBucket) {
  const std::vector<int64_t> u = {10};
  const std::vector<int64_t> v = {7};
  const RangeRule rule = OptimizedConfidenceRule(u, v, 10, 1);
  ASSERT_TRUE(rule.found);
  EXPECT_EQ(rule.s, 0);
  EXPECT_EQ(rule.t, 0);
  EXPECT_DOUBLE_EQ(rule.confidence, 0.7);
  EXPECT_DOUBLE_EQ(rule.support, 1.0);
}

TEST(OptimizedConfidenceTest, PicksHighConfidenceCluster) {
  // Middle buckets have 90% confidence; support threshold forces at least
  // 20 tuples, which the two middle buckets satisfy.
  const std::vector<int64_t> u = {10, 10, 10, 10};
  const std::vector<int64_t> v = {1, 9, 9, 1};
  const RangeRule rule = OptimizedConfidenceRule(u, v, 40, 20);
  ASSERT_TRUE(rule.found);
  EXPECT_EQ(rule.s, 1);
  EXPECT_EQ(rule.t, 2);
  EXPECT_DOUBLE_EQ(rule.confidence, 0.9);
  EXPECT_EQ(rule.support_count, 20);
}

TEST(OptimizedConfidenceTest, SupportThresholdForcesWiderRange) {
  const std::vector<int64_t> u = {10, 10, 10, 10};
  const std::vector<int64_t> v = {1, 9, 9, 1};
  // Threshold 30 forces three buckets; the best 3-run is 1+9+9 (or 9+9+1).
  const RangeRule rule = OptimizedConfidenceRule(u, v, 40, 30);
  ASSERT_TRUE(rule.found);
  EXPECT_EQ(rule.support_count, 30);
  EXPECT_EQ(rule.hit_count, 19);
}

TEST(OptimizedConfidenceTest, InfeasibleThresholdReturnsNotFound) {
  const std::vector<int64_t> u = {5, 5};
  const std::vector<int64_t> v = {1, 1};
  const RangeRule rule = OptimizedConfidenceRule(u, v, 10, 11);
  EXPECT_FALSE(rule.found);
}

TEST(OptimizedConfidenceTest, ThresholdEqualToTotalUsesWholeRange) {
  const std::vector<int64_t> u = {5, 5};
  const std::vector<int64_t> v = {1, 4};
  const RangeRule rule = OptimizedConfidenceRule(u, v, 10, 10);
  ASSERT_TRUE(rule.found);
  EXPECT_EQ(rule.s, 0);
  EXPECT_EQ(rule.t, 1);
  EXPECT_EQ(rule.hit_count, 5);
}

TEST(OptimizedConfidenceTest, ZeroHitsEverywhere) {
  const std::vector<int64_t> u = {5, 5, 5};
  const std::vector<int64_t> v = {0, 0, 0};
  const RangeRule rule = OptimizedConfidenceRule(u, v, 15, 5);
  ASSERT_TRUE(rule.found);
  EXPECT_DOUBLE_EQ(rule.confidence, 0.0);
  // Tie on confidence: maximum support wins, so the whole domain.
  EXPECT_EQ(rule.support_count, 15);
}

TEST(OptimizedConfidenceTest, AllHitsEverywherePrefersMaxSupport) {
  const std::vector<int64_t> u = {5, 5, 5};
  const std::vector<int64_t> v = {5, 5, 5};
  const RangeRule rule = OptimizedConfidenceRule(u, v, 15, 5);
  ASSERT_TRUE(rule.found);
  EXPECT_DOUBLE_EQ(rule.confidence, 1.0);
  EXPECT_EQ(rule.support_count, 15);
}

TEST(OptimizedConfidenceTest, MinSupportClampedToOneTuple) {
  const std::vector<int64_t> u = {2, 8};
  const std::vector<int64_t> v = {2, 0};
  const RangeRule rule = OptimizedConfidenceRule(u, v, 10, 0);
  ASSERT_TRUE(rule.found);
  EXPECT_EQ(rule.s, 0);
  EXPECT_EQ(rule.t, 0);
  EXPECT_DOUBLE_EQ(rule.confidence, 1.0);
}

TEST(OptimizedConfidenceTest, EmptyInput) {
  const RangeRule rule = OptimizedConfidenceRule({}, {}, 0, 1);
  EXPECT_FALSE(rule.found);
}

// Paper Example 2.3 flavor: a superset range can have higher confidence
// than its subset, and the optimizer must consider both.
TEST(OptimizedConfidenceTest, SupersetCanBeatSubset) {
  // [1,1] has conf 1/4; the superset [0,2] has conf 7/12 > 1/4, mirroring
  // the paper's remark that confidence is not monotone under inclusion.
  const std::vector<int64_t> u = {4, 4, 4};
  const std::vector<int64_t> v = {3, 1, 3};
  const RangeRule subset = MakeRangeRule(u, v, 12, 1, 1);
  const RangeRule superset = MakeRangeRule(u, v, 12, 0, 2);
  EXPECT_GT(superset.confidence, subset.confidence);
  // With min support 9 the optimizer must pick the full range even though
  // it contains the weak middle bucket.
  const RangeRule rule = OptimizedConfidenceRule(u, v, 12, 9);
  ASSERT_TRUE(rule.found);
  EXPECT_EQ(rule.s, 0);
  EXPECT_EQ(rule.t, 2);
  EXPECT_EQ(rule.hit_count, 7);
}

// ----------------------------------------------- property: vs naive ----

struct PropertyCase {
  int m;
  int64_t max_u;
  double min_support_fraction;
  uint64_t seed_base;
};

class ConfidencePropertyTest : public testing::TestWithParam<PropertyCase> {
};

TEST_P(ConfidencePropertyTest, MatchesNaiveOracle) {
  const PropertyCase& param = GetParam();
  for (uint64_t seed = param.seed_base; seed < param.seed_base + 25;
       ++seed) {
    const Instance instance = RandomInstance(param.m, param.max_u, seed);
    const int64_t min_support = MinSupportCount(
        instance.total, param.min_support_fraction);
    const RangeRule fast = OptimizedConfidenceRule(
        instance.u, instance.v, instance.total, min_support);
    const RangeRule naive = NaiveOptimizedConfidenceRule(
        instance.u, instance.v, instance.total, min_support);
    ASSERT_EQ(fast.found, naive.found) << "seed " << seed;
    if (!fast.found) continue;
    // The rules must agree exactly on the optimum (confidence, support);
    // the ranges themselves may differ only if fully tied.
    EXPECT_TRUE(SameConfidence(fast.hit_count, fast.support_count,
                               naive.hit_count, naive.support_count))
        << "seed " << seed << " fast " << fast.s << ".." << fast.t << " ("
        << fast.hit_count << "/" << fast.support_count << ") naive "
        << naive.s << ".." << naive.t << " (" << naive.hit_count << "/"
        << naive.support_count << ")";
    EXPECT_EQ(fast.support_count, naive.support_count) << "seed " << seed;
    // And the returned range must really be ample.
    EXPECT_GE(fast.support_count, std::max<int64_t>(min_support, 1));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConfidencePropertyTest,
    testing::Values(PropertyCase{1, 5, 0.2, 100},
                    PropertyCase{2, 5, 0.3, 200},
                    PropertyCase{3, 4, 0.25, 300},
                    PropertyCase{8, 6, 0.3, 400},
                    PropertyCase{20, 10, 0.2, 500},
                    PropertyCase{50, 20, 0.1, 600},
                    PropertyCase{50, 20, 0.5, 700},
                    PropertyCase{120, 3, 0.15, 800},   // heavy slope ties
                    PropertyCase{200, 50, 0.05, 900},
                    PropertyCase{200, 50, 0.9, 1000},  // near-full ranges
                    PropertyCase{33, 1, 0.3, 1100}));  // unit buckets

// OptimalSlopePair over real-valued weights (negative values allowed).
TEST(OptimalSlopePairTest, HandlesNegativeWeights) {
  const std::vector<int64_t> u = {1, 1, 1, 1};
  const std::vector<double> v = {-5.0, 3.0, 4.0, -2.0};
  const SlopePair pair = OptimalSlopePair(u, v, 2);
  ASSERT_TRUE(pair.found);
  // Best average over >= 2 tuples: buckets {1,2} avg 3.5.
  EXPECT_EQ(pair.m, 1);
  EXPECT_EQ(pair.n, 3);
}

void ExpectSameSlopePair(const SlopePair& a, const SlopePair& b) {
  EXPECT_EQ(a.found, b.found);
  EXPECT_EQ(a.m, b.m);
  EXPECT_EQ(a.n, b.n);
}

void ExpectSameRangeRule(const RangeRule& a, const RangeRule& b) {
  EXPECT_EQ(a.found, b.found);
  EXPECT_EQ(a.s, b.s);
  EXPECT_EQ(a.t, b.t);
  EXPECT_EQ(a.support_count, b.support_count);
  EXPECT_EQ(a.hit_count, b.hit_count);
  EXPECT_EQ(a.support, b.support);
  EXPECT_EQ(a.confidence, b.confidence);
}

// One context and one support scratch carried across bucket arrays that
// shrink to nothing and grow back, each solved at several thresholds (and
// a threshold repeated after larger ones, so every Solve really rewinds):
// every answer equals a fresh one-shot call.
TEST(OptimizerReuseTest, ReusedContextAndScratchMatchFreshCalls) {
  SlopePairContext context;
  OptimizedSupportScratch scratch;
  uint64_t seed = 1;
  for (const int m : {1000, 3, 1, 0, 1000}) {
    SCOPED_TRACE(m);
    const Instance instance = RandomInstance(m, 40, ++seed);
    std::vector<double> weights(instance.v.begin(), instance.v.end());
    for (double& w : weights) w -= 10.0;  // real-valued, mostly negative

    context.Assign(instance.u, weights);
    ASSERT_EQ(context.num_buckets(), m);
    for (const double fraction : {0.0, 0.01, 0.3, 0.9, 1.0, 0.01}) {
      SCOPED_TRACE(fraction);
      const int64_t min_support = MinSupportCount(instance.total, fraction);
      ExpectSameSlopePair(context.Solve(min_support),
                          OptimalSlopePair(instance.u, weights, min_support));
    }

    context.Assign(instance.u, instance.v);
    for (const double fraction : {0.0, 0.05, 0.5, 1.0, 0.05}) {
      SCOPED_TRACE(fraction);
      const int64_t min_support = MinSupportCount(instance.total, fraction);
      ExpectSameRangeRule(
          OptimizedConfidenceRule(context, instance.u, instance.v,
                                  instance.total, min_support),
          OptimizedConfidenceRule(instance.u, instance.v, instance.total,
                                  min_support));
    }
    for (const Ratio theta : {Ratio(0, 1), Ratio(1, 4), Ratio(1, 2),
                              Ratio(9, 10), Ratio(1, 1), Ratio(1, 4)}) {
      ExpectSameRangeRule(
          OptimizedSupportRule(instance.u, instance.v, instance.total, theta,
                               scratch),
          OptimizedSupportRule(instance.u, instance.v, instance.total,
                               theta));
    }
  }
}

}  // namespace
}  // namespace optrules::rules
