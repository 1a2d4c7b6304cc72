// Running summary statistics and simple confidence intervals, used by the
// benchmark harnesses and the discrete-event simulator's metric sinks.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

namespace cloudalloc {

/// Welford-style accumulator for mean/variance/min/max. add() is inline:
/// it sits on the simulator's per-completion hot path.
class Summary {
 public:
  void add(double x) {
    if (n_ == 0) {
      min_ = max_ = x;
    } else {
      min_ = x < min_ ? x : min_;
      max_ = x > max_ ? x : max_;
    }
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
  }

  std::size_t count() const { return n_; }
  double mean() const;
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  /// Half-width of a 95% confidence interval on the mean: the two-sided
  /// Student-t critical value for n-1 <= 30 degrees of freedom (a table),
  /// the normal 1.96 above that.
  double ci95_halfwidth() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Mean of a vector (0 when empty).
double mean_of(const std::vector<double>& xs);

/// p-quantile (0 <= p <= 1) by linear interpolation between the two
/// neighbouring order statistics; `xs` is left untouched (a copy).
double quantile(std::vector<double> xs, double p);

/// Writes the ps[k]-quantile of `xs` to out[k], interpolating exactly as
/// quantile() does, for ascending ps in [0, 1]. Reorders `xs`: each order
/// statistic is found by std::nth_element on the range the previous one
/// left, so several tail percentiles cost about one linear-time pass
/// each instead of a full sort, and the results are bitwise equal to a
/// sort's (the k-th order statistic is the same value whichever
/// algorithm finds it).
void quantiles_in_place(std::vector<double>& xs, std::span<const double> ps,
                        std::span<double> out);

/// quantiles_in_place for a fixed list of probabilities, e.g.
/// `auto [p50, p99] = quantiles_in_place(samples, {0.50, 0.99});`.
template <std::size_t N>
std::array<double, N> quantiles_in_place(std::vector<double>& xs,
                                         const double (&ps)[N]) {
  std::array<double, N> out{};
  quantiles_in_place(xs, ps, out);
  return out;
}

}  // namespace cloudalloc
