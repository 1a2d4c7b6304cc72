#include "model/alloc_state.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <utility>

#include "common/check.h"
#include "model/evaluator.h"

namespace cloudalloc::model {

void AllocState::assign(ClientId i, ClusterId k, std::vector<Placement> ps) {
  touched_.clear();
  for (const Placement& p : ledger_.placements(i)) touched_.push_back(p.server);
  for (const Placement& p : ps) touched_.push_back(p.server);
  ledger_.assign(i, k, std::move(ps));
  for (ServerId j : touched_) view_.resync_server(ledger_, j);
}

void AllocState::clear(ClientId i) {
  touched_.clear();
  for (const Placement& p : ledger_.placements(i)) touched_.push_back(p.server);
  ledger_.clear(i);
  for (ServerId j : touched_) view_.resync_server(ledger_, j);
}

double AllocState::profit() { return model::profit(ledger_); }

namespace {

template <class IdT>
IdT local_id(const std::vector<IdT>& ascending, IdT parent_id) {
  const auto it =
      std::lower_bound(ascending.begin(), ascending.end(), parent_id);
  CHECK(it != ascending.end() && *it == parent_id);
  return IdT{static_cast<int>(it - ascending.begin())};
}

}  // namespace

ClusterTrial AllocState::extract_cluster(ClusterId k) const {
  CHECK_MSG(ledger_.profit_settled(),
            "extract_cluster needs settled profit caches");
  CHECK_MSG(ledger_.origin_ == nullptr, "trials do not nest");
  const Cloud& cloud = this->cloud();
  auto origin = std::make_unique<Allocation::SliceOrigin>();
  origin->parent = &ledger_;
  std::vector<ServerId>& servers = origin->servers;
  servers = cloud.cluster(k).servers;
  std::sort(servers.begin(), servers.end());
  // Every client assigned to k has a placement on one of k's servers.
  std::vector<ClientId>& clients = origin->clients;
  for (ServerId j : servers)
    for (ClientId i : ledger_.server_[j].clients) clients.push_back(i);
  std::sort(clients.begin(), clients.end());
  clients.erase(std::unique(clients.begin(), clients.end()), clients.end());

  auto slice = std::make_unique<const Cloud>(cloud.cluster_slice(k, clients));
  Allocation led(*slice);
  // The constructor marks background-pinned servers dirty; the copied
  // caches below are the parent's settled ones instead.
  for (ServerId j : led.dirty_servers_) led.server_dirty_[j] = false;
  led.dirty_servers_.clear();
  const auto to_local = [&](std::vector<Placement> ps) {
    for (Placement& p : ps) p.server = local_id(servers, p.server);
    return ps;
  };
  for (ClientId li : led.cluster_of_.ids()) {
    const ClientId i = clients[li.index()];
    led.cluster_of_[li] = ClusterId{0};
    led.placements_[li] = to_local(ledger_.placements_[i]);
    led.revenue_cache_[li] = ledger_.revenue_cache_[i];
  }
  for (ServerId lj : led.server_.ids()) {
    const ServerId j = servers[lj.index()];
    const Allocation::ServerAgg& agg = ledger_.server_[j];
    Allocation::ServerAgg& out = led.server_[lj];
    out.phi_p = agg.phi_p;
    out.phi_n = agg.phi_n;
    out.disk = agg.disk;
    out.load_p = agg.load_p;
    out.clients.reserve(agg.clients.size());
    for (ClientId i : agg.clients) out.clients.push_back(local_id(clients, i));
    led.cost_cache_[lj] = ledger_.cost_cache_[j];
  }
  led.profit_total_ = ledger_.profit_total_;
  led.repairs_ = ledger_.repairs_;
  led.origin_ = origin.get();

  AllocState state(std::move(led));
  // The view rows are copied, not re-derived: a trial sees exactly the
  // parent's probe surface.
  ResidualView& view = state.view_;
  for (ServerId lj : view.used_p_.ids()) {
    const ServerId j = servers[lj.index()];
    view.used_p_[lj] = view_.used_p_[j];
    view.used_n_[lj] = view_.used_n_[j];
    view.used_disk_[lj] = view_.used_disk_[j];
    view.load_p_[lj] = view_.load_p_[j];
    view.hosted_[lj] = view_.hosted_[j];
  }
  return ClusterTrial(k, std::move(slice), std::move(origin),
                      std::move(state));
}

void AllocState::merge_cluster(ClusterTrial&& trial) {
  const Allocation::SliceOrigin& origin = *trial.origin_;
  CHECK_MSG(origin.parent == &ledger_,
            "merge_cluster: trial was extracted from another state");
  const Allocation& led = trial.state_.ledger_;
  const ResidualView& view = trial.state_.view_;
  CHECK_MSG(led.profit_settled(), "merge_cluster needs a settled trial");
  const ClusterId k = trial.cluster_;
  const std::vector<ClientId>& clients = origin.clients;
  const std::vector<ServerId>& servers = origin.servers;
  for (ClientId li : led.cluster_of_.ids()) {
    const ClientId i = clients[li.index()];
    const bool assigned = led.cluster_of_[li] != kNoCluster;
    ledger_.cluster_of_[i] = assigned ? k : kNoCluster;
    std::vector<Placement>& ps = ledger_.placements_[i];
    ps = led.placements_[li];
    for (Placement& p : ps) p.server = servers[p.server.index()];
    ledger_.revenue_cache_[i] = led.revenue_cache_[li];
  }
  for (ServerId lj : led.server_.ids()) {
    const ServerId j = servers[lj.index()];
    const Allocation::ServerAgg& agg = led.server_[lj];
    Allocation::ServerAgg& out = ledger_.server_[j];
    out.phi_p = agg.phi_p;
    out.phi_n = agg.phi_n;
    out.disk = agg.disk;
    out.load_p = agg.load_p;
    out.clients.clear();
    for (ClientId li : agg.clients) out.clients.push_back(clients[li.index()]);
    ledger_.cost_cache_[j] = led.cost_cache_[lj];
    view_.used_p_[j] = view.used_p_[lj];
    view_.used_n_[j] = view.used_n_[lj];
    view_.used_disk_[j] = view.used_disk_[lj];
    view_.load_p_[j] = view.load_p_[lj];
    view_.hosted_[j] = view.hosted_[lj];
    view_.mark_server_dirty(j);
  }
  ledger_.profit_total_ = led.profit_total_;
  ledger_.repairs_ = led.repairs_;
  audit_merged_cluster(k, led.profit_total_);
}

void AllocState::audit_merged_cluster(ClusterId k, double trial_total) const {
  for (ServerId j : cloud().cluster(k).servers) {
    const Allocation::ServerAgg& agg = ledger_.server_[j];
    CHECK_MSG(view_.used_p_[j] == agg.phi_p && view_.used_n_[j] == agg.phi_n &&
                  view_.used_disk_[j] == agg.disk &&
                  view_.load_p_[j] == agg.load_p &&
                  view_.hosted_[j] == static_cast<int>(agg.clients.size()),
              "merge_cluster audit: a merged view row differs from its "
              "ledger row");
  }
  CHECK_MSG(ledger_.profit_total_ == trial_total,
            "merge_cluster audit: carried profit total differs from the "
            "trial's");
}

AllocState::PendingRepairs AllocState::settle_reversibly() {
  PendingRepairs pending;
  pending.clients = ledger_.dirty_clients_;
  for (ClientId i : pending.clients)
    pending.revenue.push_back(ledger_.revenue_cache_[i]);
  pending.servers = ledger_.dirty_servers_;
  for (ServerId j : pending.servers)
    pending.cost.push_back(ledger_.cost_cache_[j]);
  pending.profit_total = ledger_.profit_total_;
  pending.repairs = ledger_.repairs_;
  profit();
  return pending;
}

void AllocState::unsettle(const PendingRepairs& pending) {
  CHECK(ledger_.profit_settled());
  for (std::size_t idx = 0; idx < pending.clients.size(); ++idx) {
    const ClientId i = pending.clients[idx];
    ledger_.revenue_cache_[i] = pending.revenue[idx];
    ledger_.client_dirty_[i] = true;
  }
  for (std::size_t idx = 0; idx < pending.servers.size(); ++idx) {
    const ServerId j = pending.servers[idx];
    ledger_.cost_cache_[j] = pending.cost[idx];
    ledger_.server_dirty_[j] = true;
  }
  ledger_.dirty_clients_ = pending.clients;
  ledger_.dirty_servers_ = pending.servers;
  ledger_.profit_total_ = pending.profit_total;
  ledger_.repairs_ = pending.repairs;
}

AllocState::Checkpoint AllocState::checkpoint(double profit) const {
  Checkpoint ckpt;
  ckpt.cluster_of = ledger_.cluster_of_.raw();
  ckpt.placements = ledger_.placements_.raw();
  ckpt.profit = profit;
  return ckpt;
}

Allocation AllocState::materialize(const Checkpoint& ckpt) const {
  Allocation alloc(cloud());
  for (std::size_t ii = 0; ii < ckpt.placements.size(); ++ii) {
    if (ckpt.cluster_of[ii] == kNoCluster) continue;
    alloc.assign(ClientId{static_cast<int>(ii)}, ckpt.cluster_of[ii],
                 std::vector<Placement>(ckpt.placements[ii]));
  }
  return alloc;
}

bool AllocState::aggregates_consistent(double tol) const {
  const Cloud& cloud = ledger_.cloud();
  const auto num_servers = static_cast<std::size_t>(cloud.num_servers());
  std::vector<double> phi_p(num_servers, 0.0), phi_n(num_servers, 0.0),
      disk(num_servers, 0.0), load_p(num_servers, 0.0);
  std::vector<int> hosted(num_servers, 0);
  for (ClientId i : cloud.client_ids()) {
    if (!ledger_.is_assigned(i)) continue;
    const Client& c = cloud.client(i);
    for (const Placement& p : ledger_.placements(i)) {
      const auto jj = p.server.index();
      phi_p[jj] += p.phi_p;
      phi_n[jj] += p.phi_n;
      disk[jj] += c.disk;
      load_p[jj] += p.psi * c.lambda_pred * c.alpha_p;
      ++hosted[jj];
    }
  }
  // Recomputed sums vs incrementally-maintained ledger aggregates: a
  // relative tolerance absorbs summation-order ulps (emptied servers are
  // reset to exactly 0.0 on both sides, so zero compares exactly).
  const auto close = [tol](double a, double b) {
    return std::abs(a - b) <=
           tol * std::max({1.0, std::abs(a), std::abs(b)});
  };
  for (ServerId j : cloud.server_ids()) {
    const auto jj = j.index();
    const Allocation::ServerAgg& agg = ledger_.server_[j];
    if (static_cast<int>(agg.clients.size()) != hosted[jj]) return false;
    if (!close(agg.phi_p, phi_p[jj]) || !close(agg.phi_n, phi_n[jj]) ||
        !close(agg.disk, disk[jj]) || !close(agg.load_p, load_p[jj]))
      return false;
    // The view mirrors the ledger bit-for-bit — any difference means a
    // missed resync, which silently corrupts every subsequent probe.
    if (view_.used_p_[j] != agg.phi_p || view_.used_n_[j] != agg.phi_n ||
        view_.used_disk_[j] != agg.disk || view_.load_p_[j] != agg.load_p ||
        view_.hosted_[j] != static_cast<int>(agg.clients.size()))
      return false;
  }
  return true;
}

void AllocState::check_invariants() const {
  CHECK_MSG(aggregates_consistent(),
            "AllocState aggregates diverged from a from-scratch "
            "recomputation (or the view desynced from the ledger)");
}

void AllocState::corrupt_aggregate_for_test(ServerId j, double delta) {
  ledger_.server_[j].phi_p += delta;
}

void AllocState::corrupt_view_for_test(ServerId j, double delta) {
  view_.used_p_[j] += delta;
}

void AllocState::set_repairs_for_test(std::size_t repairs) {
  ledger_.repairs_ = repairs;
}

}  // namespace cloudalloc::model
