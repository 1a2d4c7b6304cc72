#include "alloc/server_power.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "alloc/adjust_shares.h"
#include "alloc/assign_distribute.h"
#include "alloc/delta_price.h"
#include "common/check.h"
#include "model/alloc_state.h"
#include "model/evaluator.h"
#include "model/residual.h"

namespace cloudalloc::alloc {
namespace {

using model::AllocState;
using model::Allocation;
using model::ClientId;
using model::Cloud;
using model::ClusterId;
using model::ServerClassId;
using model::ServerId;

/// Revenue share a server can claim: sum over hosted slices of
/// psi * lambda_agreed * U(R), minus its operating cost. TurnOFF candidates
/// are ranked by this, lowest first.
double server_value(const Allocation& alloc, ServerId j) {
  const Cloud& cloud = alloc.cloud();
  double value = 0.0;
  for (ClientId i : alloc.clients_on(j)) {
    const double r = alloc.response_time(i);
    if (!std::isfinite(r)) continue;
    for (const auto& p : alloc.placements(i)) {
      if (p.server != j) continue;
      value += p.psi * cloud.client(i).lambda_agreed *
               cloud.utility_of(i).value(r);
    }
  }
  return value - model::server_cost(alloc, j);
}

/// Clients in cluster k whose delivered utility is below the degraded
/// threshold (these are the ones a new server could help).
std::vector<ClientId> degraded_clients(const Allocation& alloc, ClusterId k,
                                       const AllocatorOptions& opts) {
  const Cloud& cloud = alloc.cloud();
  std::vector<ClientId> out;
  for (ClientId i : cloud.client_ids()) {
    if (alloc.cluster_of(i) != k) continue;
    const auto& fn = cloud.utility_of(i);
    const double max_u = fn.max_value();
    if (max_u <= 0.0) continue;
    const double r = alloc.response_time(i);
    const double u = std::isfinite(r) ? fn.value(r) : 0.0;
    if (u < opts.degraded_utility_fraction * max_u) out.push_back(i);
  }
  // Worst-served first: they have the most to gain.
  std::sort(out.begin(), out.end(), [&](ClientId a, ClientId b) {
    return alloc.response_time(a) > alloc.response_time(b);
  });
  return out;
}

/// One cluster's TurnON and TurnOFF passes, run on a trial extracted from
/// the frozen state.
struct ClusterRun {
  std::optional<model::ClusterTrial> trial;
  double on = 0.0;
  double off = 0.0;
  PowerCounters counters;
};

ClusterRun run_cluster(const AllocState& state, ClusterId k,
                       const AllocatorOptions& opts) {
  ClusterRun run;
  run.trial.emplace(state.extract_cluster(k));
  AllocatorOptions local = opts;
  std::vector<std::uint8_t> insertable;
  if (opts.insertable != nullptr) {
    for (ClientId i : run.trial->parent_clients())
      insertable.push_back((*opts.insertable)[i.index()]);
    local.insertable = &insertable;
  }
  AllocState& trial = run.trial->state();
  const ClusterId slice_cluster{0};
  run.counters.cluster_visits = 1;
  if (opts.enable_turn_on)
    run.on = turn_on_servers(trial, slice_cluster, local, &run.counters);
  if (opts.enable_turn_off)
    run.off = turn_off_servers(trial, slice_cluster, local, &run.counters);
  return run;
}

}  // namespace

PowerCounters& PowerCounters::operator+=(const PowerCounters& o) {
  cluster_visits += o.cluster_visits;
  commits += o.commits;
  turn_on_bids += o.turn_on_bids;
  turn_on_rollbacks += o.turn_on_rollbacks;
  turn_on_skipped += o.turn_on_skipped;
  turn_on_bundles += o.turn_on_bundles;
  turn_off_probes += o.turn_off_probes;
  turn_off_screened += o.turn_off_screened;
  turn_off_materialized += o.turn_off_materialized;
  speculative_reruns += o.speculative_reruns;
  return *this;
}

double turn_on_servers(AllocState& state, ClusterId k,
                       const AllocatorOptions& opts, PowerCounters* counters) {
  const Cloud& cloud = state.cloud();
  PowerCounters count;

  // One inactive representative per server class present in this cluster,
  // in class order.
  std::map<ServerClassId, ServerId> by_class;
  for (ServerId j : cloud.cluster(k).servers)
    if (!state.ledger().active(j) &&
        !by_class.count(cloud.server(j).server_class))
      by_class.emplace(cloud.server(j).server_class, j);
  if (by_class.empty()) return 0.0;
  std::vector<ServerId> candidates;
  for (const auto& [cls, j] : by_class) candidates.push_back(j);

  // The bid loop reads its candidate only through uses_j. A run in which
  // no plan placed a slice on its candidate (a neutral run) is therefore
  // the candidate-free trajectory: it never reaches the gate and leaves
  // `state` untouched. A later candidate that none of its plans touched
  // would replay it bit for bit and be discarded too, so it is skipped.
  // `replay` marks the candidates the last neutral run's plans touched
  // (rolled-back plans included). The skip needs `state` bitwise as that
  // run saw it, and a gate at least settles it, so reaching the gate drops
  // the record whether or not the bundle is adopted.
  std::optional<std::vector<std::uint8_t>> replay;
  std::vector<std::uint8_t> touched(candidates.size());
  // Degraded clients are a pure function of the ledger: only an adopt
  // changes them.
  std::vector<ClientId> bidders = degraded_clients(state.ledger(), k, opts);
  double total_delta = 0.0;
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    if (bidders.empty()) break;
    if (replay && (*replay)[c] == 0) {
      ++count.turn_on_skipped;
      continue;
    }
    const ServerId j = candidates[c];

    // Full-fidelity trial state (clone-try-swap boundary): bids mutate the
    // branch, probes run on the branch's view, and the whole bundle is
    // adopted or dropped at the gate. Under adjust_server_power `state` is
    // a cluster trial, so the branch is O(cluster).
    AllocState trial = state.branch();
    // Bidding phase: moves may individually lose P0 (it is sunk once the
    // first bidder lands on j), so allow per-move regressions on the trial
    // state and judge the bundle at the gate below. Under migration
    // pricing each accepted bid also carries its redirection charge, and
    // the bundle gate must clear the accepted bids' total.
    std::fill(touched.begin(), touched.end(), std::uint8_t{0});
    bool anyone_used_j = false;
    double bundle_penalty = 0.0;
    for (ClientId i : bidders) {
      ++count.turn_on_bids;
      const double before_move = trial.profit();
      const ClusterId old_cluster = trial.ledger().cluster_of(i);
      const auto old_placements = trial.ledger().placements(i);
      trial.clear(i);
      auto plan = assign_distribute(trial.view(), i, k, opts);
      if (!plan) {
        trial.assign(i, old_cluster, old_placements);
        ++count.turn_on_rollbacks;
        continue;
      }
      for (const model::Placement& p : plan->placements)
        for (std::size_t o = 0; o < candidates.size(); ++o)
          if (p.server == candidates[o]) touched[o] = 1;
      const double penalty =
          migration_penalty(opts, old_placements, plan->placements);
      trial.assign(i, k, plan->placements);
      const bool uses_j =
          std::any_of(plan->placements.begin(), plan->placements.end(),
                      [&](const auto& p) { return p.server == j; });
      const double after_move = trial.profit();
      // Tolerate paying P0 of the candidate on the move that opens it.
      const double sunk = (uses_j && !anyone_used_j)
                              ? cloud.server_class_of(j).cost_fixed
                              : 0.0;
      if (after_move + sunk + 1e-12 < before_move + penalty) {
        trial.assign(i, old_cluster, old_placements);
        ++count.turn_on_rollbacks;
        continue;
      }
      anyone_used_j = anyone_used_j || uses_j;
      bundle_penalty += penalty;
    }
    if (!anyone_used_j) {
      if (touched[c] == 0) replay = touched;  // a neutral run
      continue;
    }

    replay.reset();
    ++count.turn_on_bundles;
    const double gate_before = state.profit();
    const double gate_after = trial.profit();
    if (gate_after > gate_before + bundle_penalty + 1e-12) {
      total_delta += gate_after - gate_before;
      state.adopt(std::move(trial));
      ++count.commits;
      bidders = degraded_clients(state.ledger(), k, opts);
    }
  }
  if (counters != nullptr) *counters += count;
  return total_delta;
}

double turn_off_servers(AllocState& state, ClusterId k,
                        const AllocatorOptions& opts, PowerCounters* counters) {
  const Cloud& cloud = state.cloud();
  double total_delta = 0.0;
  PowerCounters count;

  // Rank active, non-pinned servers by value, worst first. Values are
  // precomputed once: server_value walks the server's hosted clients, so
  // evaluating it inside the sort comparator would cost O(C log C) passes.
  std::vector<std::pair<double, ServerId>> ranked;
  for (ServerId j : cloud.cluster(k).servers)
    if (state.ledger().active(j) && !cloud.server(j).background.keeps_on)
      ranked.emplace_back(server_value(state.ledger(), j), j);
  std::sort(ranked.begin(), ranked.end());

  // Shares on healthy servers sit up to share_growth x their preferred
  // size; evicted clients only fit if that surplus is reclaimed first.
  AllocatorOptions shrink = opts;
  shrink.share_growth = 1.0;

  // The shrunk cluster is the same for every candidate whose attempt does
  // not commit, so it is built once and shared: one branch + one share
  // sweep per pass instead of per candidate (rebuilt after a commit).
  // Shrinking the candidate itself is immaterial — its clients are evicted
  // before anything reads their shares, and its aggregates reset exactly
  // to zero when it empties.
  std::optional<AllocState> shrunk;
  const auto ensure_base = [&] {
    if (shrunk) return;
    shrunk.emplace(state.branch());
    for (ServerId other : cloud.cluster(k).servers)
      if (shrunk->ledger().active(other))
        adjust_resource_shares(*shrunk, other, shrink);
    shrunk->profit();  // settle before snapshotting
  };

  InsertionConstraints constraints;
  constraints.allow_inactive = false;  // reassign onto *active* servers

  int failures = 0;  // consecutive non-commits, for the patience exit
  for (const auto& [value, j] : ranked) {
    (void)value;
    if (opts.power_patience > 0 && failures >= opts.power_patience) break;
    if (!state.ledger().active(j)) continue;  // emptied by earlier shutdown
    ensure_base();
    constraints.exclude = j;
    ++count.turn_off_probes;

    // Probe the shutdown clone-free: evict and re-insert the candidate's
    // clients one at a time on a copy of the shrunk engine's view, pricing
    // each step with the delta pricer. The view mirrors the shrunk ledger
    // bitwise, so the plans transfer verbatim to the replay below.
    model::ResidualView probe = shrunk->view();
    const std::vector<ClientId> evicted =
        shrunk->ledger().clients_on(j);  // copy
    std::vector<InsertionPlan> plans;
    plans.reserve(evicted.size());
    double move_delta = 0.0;
    double eviction_penalty = 0.0;  // migration charges of the forced moves
    bool ok = true;
    for (ClientId i : evicted) {
      const std::vector<model::Placement>& old_ps =
          shrunk->ledger().placements(i);
      move_delta += removal_delta(probe, i, old_ps);
      probe.remove_client(i, old_ps);
      auto plan = assign_distribute(probe, i, shrunk->ledger().cluster_of(i),
                                    opts, constraints);
      if (!plan) {
        ok = false;
        break;
      }
      move_delta += insertion_delta(probe, i, plan->placements);
      eviction_penalty += migration_penalty(opts, old_ps, plan->placements);
      probe.add_client(i, plan->placements);
      plans.push_back(std::move(*plan));
    }
    if (!ok) {
      ++failures;
      continue;
    }

    // Screen: the shrink and re-grow sweeps on the survivors roughly
    // cancel at the gate, so the priced moves carry the decision; only
    // candidates within the margin pay for materialization.
    if (opts.power_screen_margin >= 0.0 &&
        move_delta - eviction_penalty < -opts.power_screen_margin) {
      ++count.turn_off_screened;
      ++failures;
      continue;
    }

    // Materialize: replay the probed plans on a branch of the shrunk
    // state, re-grow shares to the normal policy, and judge the exact
    // profit gate.
    ++count.turn_off_materialized;
    AllocState trial = shrunk->branch();
    for (std::size_t idx = 0; idx < evicted.size(); ++idx) {
      const ClientId i = evicted[idx];
      trial.clear(i);
      trial.assign(i, plans[idx].cluster, std::move(plans[idx].placements));
    }
    for (ServerId other : cloud.cluster(k).servers)
      if (trial.ledger().active(other))
        adjust_resource_shares(trial, other, opts);

    const double gate_before = state.profit();
    const double gate_after = trial.profit();
    if (gate_after > gate_before + eviction_penalty + 1e-12) {
      total_delta += gate_after - gate_before;
      state.adopt(std::move(trial));
      ++count.commits;
      shrunk.reset();
      failures = 0;
    } else {
      ++failures;
    }
  }
  if (counters != nullptr) *counters += count;
  return total_delta;
}

double adjust_server_power(AllocState& state, const AllocatorOptions& opts,
                           const dist::ParallelEval& eval,
                           PowerCounters* counters) {
  if (!opts.enable_turn_on && !opts.enable_turn_off) return 0.0;
  // Trials need settled caches. Settling up front changes no pass: every
  // branch the passes take settles before its first mutation, and a gate
  // settles the state itself. Only a sweep that reaches no gate would have
  // left the caller's repairs pending, so that case puts them back.
  const AllocState::PendingRepairs pending = state.settle_reversibly();
  const int num_clusters = state.cloud().num_clusters();
  // One trial per executor at a time: the pool's workers plus the calling
  // thread, which helps run a fan-out while it waits for it.
  const int window = eval.parallel() ? eval.num_workers() + 1 : 1;
  PowerCounters total;
  double delta = 0.0;
  std::vector<ClusterRun> runs;
  for (int next = 0; next < num_clusters;) {
    const int n = std::min(window, num_clusters - next);
    runs.clear();
    runs.resize(static_cast<std::size_t>(n));
    eval.for_n(n, [&](int t) {
      runs[static_cast<std::size_t>(t)] =
          run_cluster(state, ClusterId{next + t}, opts);
    });
    // In-order fold: a commit changes the profit scalars every later trial
    // started from, so those are dropped and run again from the merge.
    int folded = 0;
    while (folded < n) {
      ClusterRun& run = runs[static_cast<std::size_t>(folded++)];
      if (opts.enable_turn_on) delta += run.on;
      if (opts.enable_turn_off) delta += run.off;
      total += run.counters;
      if (run.counters.commits > 0) {
        state.merge_cluster(std::move(*run.trial));
        break;
      }
    }
    total.speculative_reruns += n - folded;
    next += folded;
  }
  if (total.turn_on_bundles + total.turn_off_materialized == 0)
    state.unsettle(pending);
  if (counters != nullptr) *counters += total;
  return delta;
}

}  // namespace cloudalloc::alloc
