#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "common/check.h"
#include "common/mathutil.h"

namespace cloudalloc {

double Summary::mean() const { return n_ == 0 ? 0.0 : mean_; }

double Summary::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double Summary::stddev() const { return std::sqrt(variance()); }

namespace {

/// Two-sided 95% (upper 97.5%) Student-t critical values, indexed by
/// degrees of freedom 1..30.
constexpr double kStudentT975[] = {
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042};

double critical_value_95(std::size_t dof) {
  constexpr std::size_t kTabulated = std::size(kStudentT975);
  return dof <= kTabulated ? kStudentT975[dof - 1] : 1.96;
}

}  // namespace

double Summary::ci95_halfwidth() const {
  if (n_ < 2) return 0.0;
  return critical_value_95(n_ - 1) * stddev() /
         std::sqrt(static_cast<double>(n_));
}

double mean_of(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double quantile(std::vector<double> xs, double p) {
  return quantiles_in_place(xs, {p})[0];
}

void quantiles_in_place(std::vector<double>& xs, std::span<const double> ps,
                        std::span<double> out) {
  CHECK(!xs.empty());
  CHECK(ps.size() == out.size());
  const std::size_t last = xs.size() - 1;
  // Invariant: xs[0..from) holds the `from` smallest values, so the next
  // (larger or equal) order statistic lies in xs[from..].
  std::size_t from = 0;
  double prev_p = 0.0;
  for (std::size_t k = 0; k < ps.size(); ++k) {
    const double p = ps[k];
    CHECK(p >= prev_p && p <= 1.0);
    prev_p = p;
    const double pos = p * static_cast<double>(last);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, last);
    const double frac = pos - static_cast<double>(lo);
    const auto lo_it = xs.begin() + static_cast<std::ptrdiff_t>(lo);
    std::nth_element(xs.begin() + static_cast<std::ptrdiff_t>(from), lo_it,
                     xs.end());
    // The hi-th order statistic is the smallest value above position lo.
    const double x_hi =
        hi == lo ? *lo_it : *std::min_element(lo_it + 1, xs.end());
    out[k] = *lo_it * (1.0 - frac) + x_hi * frac;
    from = lo;
  }
}

}  // namespace cloudalloc
