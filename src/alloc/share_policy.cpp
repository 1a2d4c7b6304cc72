#include "alloc/share_policy.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace cloudalloc::alloc {
namespace {

/// Keep a sliver of slack even in overload, so stability floors plus a
/// hair of quality remain expressible.
constexpr double kMinSlackWork = 0.05;
/// Fraction of the raw fleet slack the policy hands out; the remainder is
/// mobility headroom for the local search.
constexpr double kSlackSafety = 0.8;
/// Planning utilization ceiling: when demand exceeds this fraction of
/// capacity, the policy sizes shares as if only the supportable fraction
/// of clients were planned for. Without it an overloaded fleet divides
/// its deficit across everyone, starving even the clients that admission
/// control would happily serve profitably.
constexpr double kPlanningUtilization = 0.7;

double per_client_slack(double cap, double demand, double n) {
  if (demand <= 0.0) return kSlackSafety * cap / n;
  const double demand_eff = std::min(demand, kPlanningUtilization * cap);
  const double n_eff = std::max(1.0, n * demand_eff / demand);
  return std::max(kMinSlackWork,
                  kSlackSafety * (cap - demand_eff) / n_eff);
}

}  // namespace

ShareSizing ShareSizing::from(const model::Cloud& cloud) {
  ShareSizing sizing;
  const double n = std::max(1, cloud.fleet_clients());
  sizing.slack_work_p = units::WorkRate{
      per_client_slack(cloud.total_cap_p(), cloud.total_demand_p(), n)};
  sizing.slack_work_n = units::WorkRate{
      per_client_slack(cloud.total_cap_n(), cloud.total_demand_n(), n)};
  return sizing;
}

// preferred_share / share_cap are inline in the header (hot path).

}  // namespace cloudalloc::alloc
