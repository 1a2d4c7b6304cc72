#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace cloudalloc {
namespace {

TEST(Summary, EmptyIsZero) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.ci95_halfwidth(), 0.0);
}

TEST(Summary, SingleValue) {
  Summary s;
  s.add(3.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

// The n < 2 guard: with fewer than two samples there is no sample
// variance, so both it and the CI half-width must be exactly 0 — never
// NaN — because replication merges feed them straight into reports.
TEST(Summary, VarianceAndCiGuardFewerThanTwoSamples) {
  Summary none;
  EXPECT_DOUBLE_EQ(none.variance(), 0.0);
  EXPECT_DOUBLE_EQ(none.ci95_halfwidth(), 0.0);
  Summary one;
  one.add(7.25);
  EXPECT_DOUBLE_EQ(one.variance(), 0.0);
  EXPECT_DOUBLE_EQ(one.ci95_halfwidth(), 0.0);
  Summary two;
  two.add(1.0);
  two.add(3.0);
  EXPECT_GT(two.ci95_halfwidth(), 0.0);
}

TEST(Summary, KnownMoments) {
  Summary s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1 = 7: sum of squared deviations = 32.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Summary, CiShrinksWithSamples) {
  Summary small, large;
  for (int i = 0; i < 10; ++i) small.add(i % 2);
  for (int i = 0; i < 1000; ++i) large.add(i % 2);
  EXPECT_GT(small.ci95_halfwidth(), large.ci95_halfwidth());
}

TEST(Summary, NegativeValues) {
  Summary s;
  s.add(-5.0);
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), -5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

// Below 31 degrees of freedom the half-width uses the tabulated Student-t
// critical value (the replication runner's R = 8 case among them); with
// thousands of samples it keeps the normal 1.96, bit for bit.
TEST(Summary, CiUsesStudentTForFewSamples) {
  Summary two;
  two.add(1.0);
  two.add(3.0);
  EXPECT_EQ(two.ci95_halfwidth(), 12.706 * two.stddev() / std::sqrt(2.0));

  Summary eight;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) eight.add(x);
  EXPECT_EQ(eight.ci95_halfwidth(), 2.365 * eight.stddev() / std::sqrt(8.0));

  Summary thirty_one, thirty_two;
  for (int i = 0; i < 31; ++i) thirty_one.add(i % 3);
  for (int i = 0; i < 32; ++i) thirty_two.add(i % 3);
  EXPECT_EQ(thirty_one.ci95_halfwidth(),
            2.042 * thirty_one.stddev() / std::sqrt(31.0));
  EXPECT_EQ(thirty_two.ci95_halfwidth(),
            1.96 * thirty_two.stddev() / std::sqrt(32.0));

  Summary many;
  for (int i = 0; i < 1000; ++i) many.add(i % 7);
  EXPECT_EQ(many.ci95_halfwidth(), 1.96 * many.stddev() / std::sqrt(1000.0));
}

TEST(MeanOf, EmptyAndBasic) {
  EXPECT_DOUBLE_EQ(mean_of({}), 0.0);
  EXPECT_DOUBLE_EQ(mean_of({1.0, 2.0, 3.0}), 2.0);
}

TEST(Quantile, MedianOfOdd) {
  EXPECT_DOUBLE_EQ(quantile({3.0, 1.0, 2.0}, 0.5), 2.0);
}

TEST(Quantile, Extremes) {
  EXPECT_DOUBLE_EQ(quantile({3.0, 1.0, 2.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile({3.0, 1.0, 2.0}, 1.0), 3.0);
}

TEST(Quantile, Interpolates) {
  EXPECT_DOUBLE_EQ(quantile({0.0, 10.0}, 0.25), 2.5);
}

TEST(Quantile, LeavesItsArgumentUntouched) {
  const std::vector<double> xs{5.0, 1.0, 4.0, 2.0, 3.0};
  const std::vector<double> copy = xs;
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 3.0);
  EXPECT_EQ(xs, copy);
}

/// The sort-based definition quantiles_in_place must reproduce bitwise.
double sorted_quantile(std::vector<double> xs, double p) {
  std::sort(xs.begin(), xs.end());
  const double pos = p * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

TEST(QuantilesInPlace, BitwiseEqualToASortedCopy) {
  Rng rng(2024);
  for (std::size_t n : {1u, 2u, 3u, 4u, 7u, 10u, 101u, 1000u, 4097u}) {
    for (int round = 0; round < 4; ++round) {
      // Values drawn from few distinct levels plus a continuous part, so
      // duplicates straddle the selected positions.
      std::vector<double> xs(n);
      for (double& x : xs)
        x = rng.uniform() < 0.5 ? std::floor(rng.uniform(0.0, 5.0))
                                : rng.exponential(0.3);
      const double ps[] = {0.0, 0.5, 0.95, 0.99, 1.0};
      std::vector<double> work = xs;
      const auto got = quantiles_in_place(work, ps);
      for (std::size_t k = 0; k < std::size(ps); ++k)
        EXPECT_EQ(got[k], sorted_quantile(xs, ps[k]))
            << "n=" << n << " p=" << ps[k];
      // Selection permutes, never changes, the samples.
      std::sort(work.begin(), work.end());
      std::sort(xs.begin(), xs.end());
      EXPECT_EQ(work, xs);
    }
  }
}

TEST(QuantilesInPlace, RepeatedAndSingleProbabilities) {
  std::vector<double> xs{9.0, 1.0, 8.0, 2.0, 7.0, 3.0};
  const auto same = quantiles_in_place(xs, {0.4, 0.4});
  EXPECT_EQ(same[0], same[1]);
  EXPECT_EQ(same[0], sorted_quantile(xs, 0.4));
  EXPECT_EQ(quantiles_in_place(xs, {0.25})[0], sorted_quantile(xs, 0.25));
}

}  // namespace
}  // namespace cloudalloc
