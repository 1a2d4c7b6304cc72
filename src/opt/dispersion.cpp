#include "opt/dispersion.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/check.h"
#include "common/mathutil.h"

namespace cloudalloc::opt {
namespace {

// d/dpsi of the per-server cost: delay part + linear part.
double marginal(const DispersionItem& it, double lambda, double delay_weight,
                double psi) {
  const double sp = it.mu_p - psi * lambda;
  const double sn = it.mu_n - psi * lambda;
  CHECK(sp > 0.0 && sn > 0.0);
  return delay_weight * (it.mu_p / (sp * sp) + it.mu_n / (sn * sn)) +
         it.lin_cost;
}

// One item with its marginal at both ends of [0, cap], evaluated once per
// solve instead of on every psi_at call of the two bisections.
struct Bracketed {
  const DispersionItem* it;
  double m0 = 0.0;
  double mcap = 0.0;
};

// psi_j(nu): smallest psi with marginal >= nu, clamped to [0, cap].
double psi_at(const Bracketed& b, double lambda, double delay_weight,
              double nu) {
  const DispersionItem& it = *b.it;
  if (it.cap <= 0.0) return 0.0;
  if (b.m0 >= nu) return 0.0;
  if (b.mcap <= nu) return it.cap;
  return bisect(
      [&](double psi) { return marginal(it, lambda, delay_weight, psi) - nu; },
      0.0, it.cap, 80);
}

}  // namespace

std::optional<DispersionSolution> solve_dispersion(
    const std::vector<DispersionItem>& items, double lambda,
    double delay_weight) {
  CHECK(lambda > 0.0);
  CHECK(delay_weight >= 0.0);
  CHECK(!items.empty());
  double cap_sum = 0.0;
  for (const auto& it : items) {
    CHECK(it.cap >= 0.0 && it.cap <= 1.0 + kEps);
    CHECK(it.lin_cost >= 0.0);
    if (it.cap > 0.0) {
      // Stability must hold across the whole [0, cap] range.
      if (it.mu_p <= it.cap * lambda || it.mu_n <= it.cap * lambda)
        return std::nullopt;
    }
    cap_sum += it.cap;
  }
  if (cap_sum < 1.0 - 1e-9) return std::nullopt;

  DispersionSolution sol;
  sol.psi.assign(items.size(), 0.0);

  if (delay_weight <= 0.0) {
    // Pure linear objective: fill cheapest servers first.
    std::vector<std::size_t> order(items.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return items[a].lin_cost < items[b].lin_cost;
    });
    double remaining = 1.0;
    for (std::size_t j : order) {
      const double take = std::min(remaining, items[j].cap);
      sol.psi[j] = take;
      remaining -= take;
      if (remaining <= 1e-12) break;
    }
  } else {
    std::vector<Bracketed> bracketed;
    bracketed.reserve(items.size());
    for (const auto& it : items) {
      Bracketed b{&it};
      if (it.cap > 0.0) {
        b.m0 = marginal(it, lambda, delay_weight, 0.0);
        b.mcap = marginal(it, lambda, delay_weight, it.cap);
      }
      bracketed.push_back(b);
    }
    auto total = [&](double nu) {
      double s = 0.0;
      for (const auto& b : bracketed) s += psi_at(b, lambda, delay_weight, nu);
      return s;
    };
    double nu_lo = 0.0;
    double nu_hi = 1.0;
    double total_hi = total(nu_hi);
    while (total_hi < 1.0 && nu_hi < 1e30) {
      nu_hi *= 4.0;
      total_hi = total(nu_hi);
    }
    // When caps sum to ~1 exactly, total() may plateau just under 1 and
    // never bracket; pin at the caps and let the renormalization below
    // absorb the residual.
    const double nu =
        total_hi < 1.0
            ? nu_hi
            : bisect([&](double v) { return total(v) - 1.0; }, nu_lo, nu_hi,
                     100);
    for (std::size_t j = 0; j < items.size(); ++j)
      sol.psi[j] = psi_at(bracketed[j], lambda, delay_weight, nu);
    // Normalize residual rounding so callers see an exact unit split.
    double s = 0.0;
    for (double p : sol.psi) s += p;
    CHECK(s > 0.0);
    // Only rescale within caps; the residual is at bisection tolerance.
    for (std::size_t j = 0; j < items.size(); ++j)
      sol.psi[j] = std::min(sol.psi[j] / s, items[j].cap);
  }

  sol.objective = dispersion_objective(items, lambda, delay_weight, sol.psi);
  return sol;
}

double dispersion_objective(const std::vector<DispersionItem>& items,
                            double lambda, double delay_weight,
                            const std::vector<double>& psi) {
  CHECK(items.size() == psi.size());
  double obj = 0.0;
  for (std::size_t j = 0; j < items.size(); ++j) {
    if (psi[j] <= 0.0) continue;
    const double sp = items[j].mu_p - psi[j] * lambda;
    const double sn = items[j].mu_n - psi[j] * lambda;
    if (sp <= 0.0 || sn <= 0.0)
      return std::numeric_limits<double>::infinity();
    obj += delay_weight * psi[j] * (1.0 / sp + 1.0 / sn) +
           items[j].lin_cost * psi[j];
  }
  return obj;
}

}  // namespace cloudalloc::opt
