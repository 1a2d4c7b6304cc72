#include "common/mathutil.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>

#include <gtest/gtest.h>

namespace cloudalloc {
namespace {

TEST(Clamp, Basics) {
  EXPECT_DOUBLE_EQ(clamp(0.5, 0.0, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(clamp(-1.0, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(clamp(2.0, 0.0, 1.0), 1.0);
}

TEST(Clamp, ToleratesInvertedBoundsFromRounding) {
  // lo slightly above hi: collapse to hi rather than crash.
  EXPECT_DOUBLE_EQ(clamp(0.5, 1.0 + 1e-12, 1.0), 1.0);
}

TEST(Near, AbsoluteAndRelative) {
  EXPECT_TRUE(near(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(near(1.0, 1.1));
  EXPECT_TRUE(near(1e9, 1e9 + 1.0, 1e-8));
}

TEST(RelGain, Basics) {
  EXPECT_NEAR(rel_gain(100.0, 110.0), 0.1, 1e-12);
  EXPECT_NEAR(rel_gain(100.0, 90.0), -0.1, 1e-12);
}

TEST(RelGain, GuardsZeroBase) {
  EXPECT_TRUE(std::isfinite(rel_gain(0.0, 5.0)));
}

TEST(Bisect, FindsRootOfLinear) {
  const double root =
      bisect([](double x) { return 2.0 * x - 1.0; }, 0.0, 1.0);
  EXPECT_NEAR(root, 0.5, 1e-10);
}

TEST(Bisect, FindsRootOfDecreasingFunction) {
  const double root = bisect([](double x) { return 1.0 - x * x; }, 0.0, 5.0);
  EXPECT_NEAR(root, 1.0, 1e-10);
}

TEST(Bisect, EndpointRoot) {
  EXPECT_DOUBLE_EQ(bisect([](double x) { return x; }, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(bisect([](double x) { return x - 1.0; }, 0.0, 1.0), 1.0);
}

TEST(Bisect, TranscendentalRoot) {
  const double root =
      bisect([](double x) { return std::cos(x) - x; }, 0.0, 1.0);
  EXPECT_NEAR(root, 0.7390851332, 1e-8);
}

/// bisect as a fixed-count loop, without the early stop at the fixed
/// point: the oracle the early stop must reproduce bit for bit.
template <class F>
double bisect_fixed_count(const F& f, double lo, double hi, int iters) {
  double flo = f(lo);
  if (flo == 0.0) return lo;
  const double fhi = f(hi);
  if (fhi == 0.0) return hi;
  for (int it = 0; it < iters; ++it) {
    const double mid = 0.5 * (lo + hi);
    const double fm = f(mid);
    if (fm == 0.0) return mid;
    if ((fm < 0.0) == (flo < 0.0)) {
      lo = mid;
      flo = fm;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

/// Both loops on the same f and bracket, compared bitwise.
template <class F>
void expect_same_bits(const F& f, double lo, double hi, int iters) {
  const double want = bisect_fixed_count(f, lo, hi, iters);
  const double got = bisect(f, lo, hi, iters);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
            std::bit_cast<std::uint64_t>(want))
      << "lo=" << lo << " hi=" << hi << " iters=" << iters << " got=" << got
      << " want=" << want;
}

TEST(Bisect, EarlyStopMatchesFixedCountOnRandomMonotoneFunctions) {
  std::mt19937_64 gen(20111);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int trial = 0; trial < 2000; ++trial) {
    const double scale = std::pow(10.0, 12.0 * unit(gen) - 6.0);
    const double lo = -scale * unit(gen);
    const double hi = scale * unit(gen) + std::numeric_limits<double>::min();
    const double root = lo + (hi - lo) * unit(gen);
    const double slope = (trial % 2 == 0 ? 1.0 : -1.0) *
                         std::pow(10.0, 8.0 * unit(gen) - 4.0);
    const int iters = trial % 3 == 0 ? 80 : (trial % 3 == 1 ? 100 : 1100);
    switch (trial % 4) {
      case 0:
        expect_same_bits([&](double x) { return slope * (x - root); }, lo, hi,
                         iters);
        break;
      case 1:
        expect_same_bits(
            [&](double x) {
              const double d = x - root;
              return slope * d * d * d;
            },
            lo, hi, iters);
        break;
      case 2:
        expect_same_bits(
            [&](double x) { return std::atan(slope * (x - root)); }, lo, hi,
            iters);
        break;
      default:
        // Flat almost everywhere: most midpoints decide on the sign alone.
        expect_same_bits(
            [&](double x) { return std::tanh(1e3 * slope * (x - root)); }, lo,
            hi, iters);
        break;
    }
  }
}

TEST(Bisect, EarlyStopMatchesFixedCountOnAdjacentDoubles) {
  const double a = 0.75;
  const auto step = [a](double x) { return x < a ? -1.0 : 1.0; };
  // Brackets one and two doubles wide around the step.
  expect_same_bits(step, std::nextafter(a, 0.0), a, 80);
  expect_same_bits(step, std::nextafter(a, 0.0), std::nextafter(a, 1.0), 80);
  const double third = 1.0 / 3.0;
  const auto line = [third](double x) { return x - third; };
  expect_same_bits(line, std::nextafter(third, 0.0),
                   std::nextafter(third, 1.0), 80);
  expect_same_bits(line, 0.0, 1.0, 1100);
}

TEST(Bisect, StopsAtTheFixedPoint) {
  int calls = 0;
  const double third = 1.0 / 3.0;
  const double root = bisect(
      [&](double x) {
        ++calls;
        return x - third;
      },
      0.0, 1.0, 1100);
  EXPECT_NEAR(root, third, 1e-15);
  // Two endpoint evaluations, then about one halving per mantissa bit.
  EXPECT_LE(calls, 2 + 60);
}

TEST(Bisect, EarlyStopMatchesFixedCountOnSubnormalsAndSignedZeros) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  // Subnormal brackets: halving rounds to even, so mid lands on an
  // endpoint within a few steps.
  expect_same_bits([&](double x) { return x - 3.0 * tiny; }, 0.0, 8.0 * tiny,
                   80);
  expect_same_bits([&](double x) { return x - 2.5 * tiny; }, tiny, 7.0 * tiny,
                   80);
  expect_same_bits([&](double x) { return x - 1e-310; }, -1e-308, 1e-308,
                   100);
  // An f that tells -0.0 from +0.0: the midpoint of -tiny and +0.0 is -0.0,
  // equal to hi under == but not the same double.
  const auto sign_of_zero = [](double x) {
    return std::signbit(x) ? -1.0 : 1.0;
  };
  expect_same_bits(sign_of_zero, -0.0, 0.0, 80);
  expect_same_bits(sign_of_zero, -tiny, 0.0, 80);
  expect_same_bits(sign_of_zero, -0.0, tiny, 80);
  expect_same_bits(sign_of_zero, -2.0 * tiny, tiny, 80);
  const auto inverse = [](double x) { return 1.0 / x; };  // -inf at -0.0
  expect_same_bits(inverse, -0.0, 0.0, 80);
  expect_same_bits(inverse, -tiny, tiny, 80);
}

TEST(Bisect, EarlyStopMatchesFixedCountWhenNonMonotoneAtTheUlp) {
  // Deterministic ulp-level noise: near the root the sign flips back and
  // forth between neighbouring doubles, as a rounded sum of terms can.
  std::mt19937_64 gen(7);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int trial = 0; trial < 500; ++trial) {
    const double root = 0.1 + unit(gen);
    const double ulp = std::nextafter(root, 2.0) - root;
    const double amplitude = (1 + trial % 16) * ulp;
    const auto noisy = [root, amplitude](double x) {
      const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
      const double jitter =
          ((bits * 0x9E3779B97F4A7C15ULL) >> 63) != 0 ? 1.0 : -1.0;
      return (x - root) + jitter * amplitude;
    };
    expect_same_bits(noisy, 0.0, 2.0, trial % 2 == 0 ? 80 : 1100);
  }
}

TEST(GoldenSection, MinimizesParabola) {
  const double x =
      golden_section_min([](double v) { return (v - 2.0) * (v - 2.0); }, -10.0,
                         10.0);
  EXPECT_NEAR(x, 2.0, 1e-6);
}

TEST(GoldenSection, MinimumAtBoundary) {
  const double x =
      golden_section_min([](double v) { return v; }, 1.0, 3.0);
  EXPECT_NEAR(x, 1.0, 1e-6);
}

}  // namespace
}  // namespace cloudalloc
