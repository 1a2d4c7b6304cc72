#include "alloc/adjust_dispersion.h"

#include <cmath>
#include <optional>
#include <vector>

#include "alloc/delta_price.h"
#include "common/check.h"
#include "common/mathutil.h"
#include "model/alloc_state.h"
#include "opt/dispersion.h"
#include "queueing/gps.h"

namespace cloudalloc::alloc {
namespace {

using model::AllocState;
using model::Allocation;
using model::Client;
using model::ClientId;
using model::Placement;

/// psi below this after re-optimization drops the slice entirely.
constexpr double kDropThreshold = 1e-4;

/// Clients per plan chunk: fixed, so chunk boundaries never depend on the
/// worker count. One solve is tens of microseconds.
constexpr int kPlanGrain = 8;

/// True when client i has a split for the solver to move.
bool resplittable(const Allocation& ledger, ClientId i) {
  return ledger.is_assigned(i) && ledger.placements(i).size() >= 2;
}

/// Client i's re-split, solved on its current slices: the new placements,
/// or nullopt to keep the split. Reads only i's own slices, their server
/// classes and the cloud constants. Requires resplittable(ledger, i).
std::optional<std::vector<Placement>> plan_dispersion(
    const Allocation& ledger, ClientId i, const AllocatorOptions& opts) {
  const auto& cloud = ledger.cloud();
  const Client& c = cloud.client(i);
  const std::vector<Placement>& current = ledger.placements(i);

  const double r_now = ledger.response_time(i);
  const double slope = std::isfinite(r_now) ? cloud.utility_of(i).slope(r_now)
                                            : cloud.utility_of(i).slope(0.0);
  const double delay_weight = slope * c.lambda_agreed;

  std::vector<opt::DispersionItem> items;
  items.reserve(current.size());
  for (const Placement& p : current) {
    const auto& sc = cloud.server_class_of(p.server);
    opt::DispersionItem it;
    it.mu_p = queueing::gps_service_rate(units::Share{p.phi_p},
                                         units::WorkRate{sc.cap_p},
                                         units::Work{c.alpha_p})
                  .value();
    it.mu_n = queueing::gps_service_rate(units::Share{p.phi_n},
                                         units::WorkRate{sc.cap_n},
                                         units::Work{c.alpha_n})
                  .value();
    it.lin_cost = sc.cost_per_util * c.lambda_pred * c.alpha_p / sc.cap_p;
    // Stability cap with headroom, against the slower stage.
    const double mu_min = std::min(it.mu_p, it.mu_n);
    it.cap = clamp((mu_min - opts.stability_headroom) / c.lambda_pred, 0.0,
                   1.0);
    items.push_back(it);
  }

  const auto sol = opt::solve_dispersion(items, c.lambda_pred, delay_weight);
  if (!sol) return std::nullopt;

  std::vector<Placement> next;
  double psi_sum = 0.0;
  for (std::size_t idx = 0; idx < current.size(); ++idx) {
    if (sol->psi[idx] < kDropThreshold) continue;
    Placement p = current[idx];
    p.psi = sol->psi[idx];
    psi_sum += p.psi;
    next.push_back(p);
  }
  if (next.empty() || !near(psi_sum, 1.0, 1e-3)) return std::nullopt;
  // Renormalize the rounding left by dropped slices.
  for (Placement& p : next) p.psi /= psi_sum;
  return next;
}

/// The single-client step after its plan: settle profit, assign, and revert
/// unless the gain covers the migration penalty. Returns the realized
/// delta; counts a revert in `counters`.
double commit_dispersion(AllocState& state, ClientId i,
                         const std::optional<std::vector<Placement>>& plan,
                         const AllocatorOptions& opts,
                         DispersionCounters* counters) {
  const double before = state.profit();
  if (!plan) return 0.0;
  const Allocation& ledger = state.ledger();
  const std::vector<Placement> current = ledger.placements(i);
  // A re-split redirects psi between the client's servers — under
  // migration pricing the improvement must cover the redirected traffic.
  const double penalty = migration_penalty(opts, current, *plan);
  state.assign(i, ledger.cluster_of(i), *plan);
  const double after = state.profit();
  if (after + 1e-12 < before + penalty) {
    state.assign(i, ledger.cluster_of(i), current);
    if (counters != nullptr) ++counters->reverted;
    return 0.0;
  }
  return after - before;
}

}  // namespace

double adjust_dispersion_rates(AllocState& state, ClientId i,
                               const AllocatorOptions& opts) {
  if (!resplittable(state.ledger(), i)) return 0.0;
  return commit_dispersion(state, i,
                           plan_dispersion(state.ledger(), i, opts), opts,
                           nullptr);
}

double adjust_all_dispersions(AllocState& state, const AllocatorOptions& opts,
                              const dist::ParallelEval& eval,
                              DispersionCounters* counters) {
  const Allocation& ledger = state.ledger();
  std::vector<ClientId> split;
  for (ClientId i : state.cloud().client_ids())
    if (resplittable(ledger, i)) split.push_back(i);
  const int n = static_cast<int>(split.size());

  // Plans only read the ledger (never its profit caches), and no commit
  // runs until every plan is in, so the fan-out sees one frozen state.
  std::vector<std::optional<std::vector<Placement>>> plans(split.size());
  eval.for_chunks(n, kPlanGrain, [&](int begin, int end) {
    for (int idx = begin; idx < end; ++idx) {
      const auto k = static_cast<std::size_t>(idx);
      plans[k] = plan_dispersion(ledger, split[k], opts);
    }
  });

  double delta = 0.0;
  for (std::size_t k = 0; k < split.size(); ++k)
    delta += commit_dispersion(state, split[k], plans[k], opts, counters);
  if (counters != nullptr) counters->solved += n;
  return delta;
}

}  // namespace cloudalloc::alloc
