#include "alloc/adjust_shares.h"

#include <cmath>
#include <utility>
#include <vector>

#include "alloc/share_policy.h"
#include "common/check.h"
#include "common/mathutil.h"
#include "model/alloc_state.h"
#include "opt/kkt_shares.h"
#include "queueing/gps.h"

namespace cloudalloc::alloc {
namespace {

using model::AllocState;
using model::Allocation;
using model::Client;
using model::ClientId;
using model::Placement;
using model::ServerClass;
using model::ServerId;

/// Finds the index of client i's placement on server j.
std::size_t placement_index(const Allocation& alloc, ClientId i, ServerId j) {
  const auto& ps = alloc.placements(i);
  for (std::size_t idx = 0; idx < ps.size(); ++idx)
    if (ps[idx].server == j) return idx;
  CHECK_MSG(false, "client has no placement on server");
  return 0;
}

/// Servers per plan chunk: fixed, so chunk boundaries never depend on the
/// worker count. One server's two KKT solves take about a microsecond.
constexpr int kPlanGrain = 64;

/// Server j's rebalanced shares, solved over its clients in `clients`
/// order (the item order, which the solver's sums follow).
struct SharePlan {
  std::vector<ClientId> clients;  ///< clients_on(j) when planned
  bool fits = false;              ///< false: the floors do not fit
  std::vector<double> phi_p;      ///< by position in `clients`
  std::vector<double> phi_n;
};

/// Reads only clients_on(j), the psi of their slices on j, and the cloud
/// constants — never a share, so other servers' commits leave it valid up
/// to the order of `clients` (see commit_shares).
SharePlan plan_shares(const Allocation& ledger, ServerId j,
                      const AllocatorOptions& opts) {
  const auto& cloud = ledger.cloud();
  const ServerClass& sc = cloud.server_class_of(j);
  SharePlan plan;
  plan.clients = ledger.clients_on(j);
  if (plan.clients.empty()) return plan;

  // Budgets exclude background reservations.
  const double budget_p = 1.0 - cloud.server(j).background.phi_p;
  const double budget_n = 1.0 - cloud.server(j).background.phi_n;

  const ShareSizing sizing = ShareSizing::from(cloud);
  std::vector<opt::ShareItem> items_p, items_n;
  items_p.reserve(plan.clients.size());
  items_n.reserve(plan.clients.size());
  for (ClientId i : plan.clients) {
    const Client& c = cloud.client(i);
    const Placement& p = ledger.placements(i)[placement_index(ledger, i, j)];
    // Weight by the slope at the origin (the paper's linear form): using
    // the local slope would zero out clients currently past their
    // zero-crossing and make them unrecoverable.
    const double slope = cloud.utility_of(i).slope(0.0);
    const units::Time zc{cloud.utility_of(i).zero_crossing()};
    const double w = slope * c.lambda_agreed * p.psi;
    const units::ArrivalRate load{p.psi * c.lambda_pred};

    // Ceilings follow the share policy so rebalancing cannot freeze the
    // whole server at 100% and block future client moves.
    opt::ShareItem ip;
    ip.weight = w;
    ip.rate_factor = sc.cap_p / c.alpha_p;
    ip.load = load.value();
    ip.lo = queueing::gps_min_share(load, units::WorkRate{sc.cap_p},
                                    units::Work{c.alpha_p},
                                    units::ArrivalRate{opts.stability_headroom})
                .value();
    ip.hi = clamp(share_cap(load, p.psi, units::WorkRate{sc.cap_p},
                            units::Work{c.alpha_p}, zc, sizing.slack_work_p,
                            opts)
                      .value(),
                  ip.lo, budget_p);
    items_p.push_back(ip);

    opt::ShareItem in;
    in.weight = w;
    in.rate_factor = sc.cap_n / c.alpha_n;
    in.load = load.value();
    in.lo = queueing::gps_min_share(load, units::WorkRate{sc.cap_n},
                                    units::Work{c.alpha_n},
                                    units::ArrivalRate{opts.stability_headroom})
                .value();
    in.hi = clamp(share_cap(load, p.psi, units::WorkRate{sc.cap_n},
                            units::Work{c.alpha_n}, zc, sizing.slack_work_n,
                            opts)
                      .value(),
                  in.lo, budget_n);
    items_n.push_back(in);
  }

  auto sol_p = opt::solve_shares(items_p, budget_p);
  auto sol_n = opt::solve_shares(items_n, budget_n);
  if (!sol_p || !sol_n) return plan;  // floors do not fit; keep current shares
  plan.fits = true;
  plan.phi_p = std::move(sol_p->phi);
  plan.phi_n = std::move(sol_n->phi);
  return plan;
}

/// The single-server step after its plan: settle profit, then write the
/// planned shares into each client's slice on j.
double commit_shares(AllocState& state, ServerId j, const SharePlan& plan,
                     const AllocatorOptions& opts) {
  const Allocation& ledger = state.ledger();
  // An earlier server's commit re-assigns its clients, and assign re-lists
  // a client last on each of its servers; the solver's sums follow the
  // item order, so a plan made on another order is made again here.
  if (plan.clients != ledger.clients_on(j))
    return commit_shares(state, j, plan_shares(ledger, j, opts), opts);
  if (plan.clients.empty()) return 0.0;

  // Profit-affecting state before the move (only this server's clients and
  // this server's cost can change).
  const double before = state.profit();
  if (!plan.fits) return 0.0;

  // Apply unconditionally: this is the exact optimum of the linearized
  // convex subproblem under the policy ceilings. It may momentarily lower
  // clipped profit (shares shrink toward their caps), but the freed
  // capacity is what lets reassignment serve waiting clients — the outer
  // loop keeps the best allocation it has seen.
  for (std::size_t idx = 0; idx < plan.clients.size(); ++idx) {
    const ClientId i = plan.clients[idx];
    std::vector<Placement> ps = ledger.placements(i);
    Placement& mine = ps[placement_index(ledger, i, j)];
    mine.phi_p = plan.phi_p[idx];
    mine.phi_n = plan.phi_n[idx];
    state.assign(i, ledger.cluster_of(i), std::move(ps));
  }
  return state.profit() - before;
}

}  // namespace

double adjust_resource_shares(AllocState& state, ServerId j,
                              const AllocatorOptions& opts) {
  return commit_shares(state, j, plan_shares(state.ledger(), j, opts), opts);
}

double adjust_all_shares(AllocState& state, const AllocatorOptions& opts,
                         const dist::ParallelEval& eval) {
  const Allocation& ledger = state.ledger();
  // Share moves change no server's client set, so the active set is fixed
  // for the whole pass.
  std::vector<ServerId> active;
  for (ServerId j : state.cloud().server_ids())
    if (ledger.active(j)) active.push_back(j);
  const int n = static_cast<int>(active.size());

  std::vector<SharePlan> plans(active.size());
  eval.for_chunks(n, kPlanGrain, [&](int begin, int end) {
    for (int idx = begin; idx < end; ++idx) {
      const auto k = static_cast<std::size_t>(idx);
      plans[k] = plan_shares(ledger, active[k], opts);
    }
  });

  double delta = 0.0;
  for (std::size_t k = 0; k < active.size(); ++k)
    delta += commit_shares(state, active[k], plans[k], opts);
  return delta;
}

}  // namespace cloudalloc::alloc
