// The cluster-parallel TurnON/TurnOFF sweep: cluster trials extract and
// merge bitwise, and the sweep reproduces the in-place sequential loop —
// profit, placements, cache state and work counters — at every worker
// count, including when several clusters commit in one window (the re-run
// path) and when the state enters with unsettled profit caches. The
// TurnOnReplay tests pin TurnON's neutral-run skip to a verbatim copy of
// the pass as it ran before the skip.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "alloc/adjust_dispersion.h"
#include "alloc/adjust_shares.h"
#include "alloc/allocator.h"
#include "alloc/assign_distribute.h"
#include "alloc/delta_price.h"
#include "alloc/initial.h"
#include "alloc/server_power.h"
#include "common/rng.h"
#include "dist/parallel_eval.h"
#include "dist/thread_pool.h"
#include "model/alloc_state.h"
#include "model/utility.h"
#include "serve/online.h"
#include "workload/churn.h"
#include "workload/scenario.h"

namespace cloudalloc::alloc {
namespace {

using model::AllocState;
using model::ClientId;
using model::ClusterId;
using model::Placement;
using model::ServerClassId;
using model::ServerId;

// Thread counts as the allocator counts them, the helping caller included:
// 2 runs on a 1-worker pool, the smallest parallel configuration.
constexpr int kWorkerCounts[] = {1, 2, 4, 8};

dist::ParallelEval eval_for(int threads) {
  return dist::ParallelEval(dist::shared_pool_for(threads));
}

/// The sweep as it ran before cluster trials: both passes over every
/// cluster, in place on the whole state. The oracle for every test here.
double sequential_sweep(AllocState& state, const AllocatorOptions& opts,
                        PowerCounters& counters) {
  double delta = 0.0;
  for (ClusterId k : state.cloud().cluster_ids()) {
    ++counters.cluster_visits;
    if (opts.enable_turn_on) delta += turn_on_servers(state, k, opts, &counters);
    if (opts.enable_turn_off)
      delta += turn_off_servers(state, k, opts, &counters);
  }
  return delta;
}

/// Bitwise equality of everything a later phase can observe: placements,
/// server aggregates, view rows, and the profit cache (settledness first,
/// since settling is itself an observable step).
void expect_same_state(AllocState& a, AllocState& b) {
  const model::Allocation& la = a.ledger();
  const model::Allocation& lb = b.ledger();
  for (ClientId i : a.cloud().client_ids()) {
    ASSERT_EQ(la.cluster_of(i), lb.cluster_of(i)) << "client " << i;
    const std::vector<Placement>& pa = la.placements(i);
    const std::vector<Placement>& pb = lb.placements(i);
    ASSERT_EQ(pa.size(), pb.size()) << "client " << i;
    for (std::size_t p = 0; p < pa.size(); ++p) {
      EXPECT_EQ(pa[p].server, pb[p].server);
      EXPECT_EQ(pa[p].psi, pb[p].psi);
      EXPECT_EQ(pa[p].phi_p, pb[p].phi_p);
      EXPECT_EQ(pa[p].phi_n, pb[p].phi_n);
    }
  }
  for (ServerId j : a.cloud().server_ids()) {
    EXPECT_EQ(la.used_phi_p(j), lb.used_phi_p(j)) << "server " << j;
    EXPECT_EQ(la.used_phi_n(j), lb.used_phi_n(j));
    EXPECT_EQ(la.used_disk(j), lb.used_disk(j));
    EXPECT_EQ(la.proc_load(j), lb.proc_load(j));
    EXPECT_EQ(la.clients_on(j), lb.clients_on(j));
    EXPECT_EQ(a.view().free_phi_p(j), b.view().free_phi_p(j));
    EXPECT_EQ(a.view().proc_load(j), b.view().proc_load(j));
  }
  for (ClusterId k : a.cloud().cluster_ids())
    EXPECT_EQ(a.view().insertion_candidates(k),
              b.view().insertion_candidates(k));
  EXPECT_EQ(la.profit_settled(), lb.profit_settled());
  EXPECT_EQ(a.profit(), b.profit());
  EXPECT_TRUE(a.aggregates_consistent());
}

PowerCounters without_reruns(PowerCounters c) {
  c.speculative_reruns = 0;
  return c;
}

/// Runs the cluster-parallel sweep at every worker count on branches of
/// `base` and checks each against the sequential oracle. Returns the
/// counters of the widest window.
PowerCounters expect_sweeps_match_oracle(const AllocState& base,
                                         const AllocatorOptions& opts) {
  AllocState oracle = base.branch();
  PowerCounters want;
  const double want_delta = sequential_sweep(oracle, opts, want);
  PowerCounters widest;
  for (int workers : kWorkerCounts) {
    SCOPED_TRACE(testing::Message() << workers << " workers");
    AllocState state = base.branch();
    PowerCounters got;
    const double delta =
        adjust_server_power(state, opts, eval_for(workers), &got);
    EXPECT_EQ(delta, want_delta);  // bitwise
    EXPECT_EQ(without_reruns(got), want);
    // Spelled out for the failure message; == above covers them too.
    EXPECT_EQ(got.turn_on_bids, want.turn_on_bids);
    EXPECT_EQ(got.turn_on_rollbacks, want.turn_on_rollbacks);
    EXPECT_EQ(got.turn_on_skipped, want.turn_on_skipped);
    if (workers == 1) {
      EXPECT_EQ(got.speculative_reruns, 0);
    }
    AllocState want_state = oracle.branch();  // comparing settles both
    expect_same_state(state, want_state);
    widest = got;
  }
  return widest;
}

/// Every cluster's clients crammed onto the cluster's first server with
/// slim shares: degraded everywhere, so TurnON commits in cluster after
/// cluster.
AllocState crammed_state(const model::Cloud& cloud) {
  AllocState state(cloud);
  const int num_clusters = cloud.num_clusters();
  for (ClientId i : cloud.client_ids()) {
    const ClusterId k{i.value() % num_clusters};
    const ServerId j = cloud.cluster(k).servers.front();
    const double share =
        0.9 / static_cast<double>((cloud.num_clients() + num_clusters - 1) /
                                  num_clusters);
    state.assign(i, k, {Placement{j, 1.0, share, share}});
  }
  return state;
}

model::Cloud small_cloud(std::uint64_t seed) {
  workload::ScenarioParams params;
  params.num_clients = 40;
  params.num_clusters = 6;
  params.servers_per_cluster = 6;
  return workload::make_scenario(params, seed);
}

/// The seed-10 initial solution of `cloud` with pending repairs on entry:
/// three clients moved in place without settling.
AllocState moved_without_settling(const model::Cloud& cloud,
                                  const AllocatorOptions& opts) {
  Rng rng(10);
  AllocState state(build_initial_solution(cloud, opts, rng));
  state.profit();
  for (ClientId i : {ClientId{3}, ClientId{17}, ClientId{29}}) {
    if (!state.ledger().is_assigned(i)) continue;
    const ClusterId k = state.ledger().cluster_of(i);
    const std::vector<Placement> ps = state.ledger().placements(i);
    state.clear(i);
    state.assign(i, k, ps);
  }
  return state;
}

TEST(ServerPowerParallel, ExtractThenMergeIsABitwiseIdentity) {
  const model::Cloud cloud = small_cloud(5);
  AllocatorOptions opts;
  Rng rng(5);
  AllocState state(build_initial_solution(cloud, opts, rng));
  state.profit();
  AllocState before = state.branch();
  for (ClusterId k : cloud.cluster_ids()) {
    model::ClusterTrial trial = state.extract_cluster(k);
    EXPECT_TRUE(trial.state().aggregates_consistent());
    EXPECT_EQ(trial.state().profit(), before.profit());
    state.merge_cluster(std::move(trial));
  }
  expect_same_state(state, before);
}

TEST(ServerPowerParallel, MergeAuditTripsOnACorruptedTrialRow) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const model::Cloud cloud = small_cloud(6);
  AllocatorOptions opts;
  Rng rng(6);
  AllocState state(build_initial_solution(cloud, opts, rng));
  state.profit();
  model::ClusterTrial trial = state.extract_cluster(ClusterId{1});
  trial.state().corrupt_view_for_test(ServerId{0}, 1e-6);
  EXPECT_DEATH(state.merge_cluster(std::move(trial)), "merge_cluster audit");
}

TEST(ServerPowerParallel, MatchesTheSequentialSweepOn1kAnd10kWitnesses) {
  for (int clients : {1000, 10000}) {
    SCOPED_TRACE(testing::Message() << clients << " clients");
    const model::Cloud cloud =
        workload::make_scenario(workload::scaled_params(clients), 11);
    AllocatorOptions opts;
    opts.num_initial_solutions = 1;
    opts.num_shards = 8;
    opts.cluster_fanout = 4;
    opts.num_threads = 4;
    // The witness solve's state as it enters its first sweep.
    Rng rng(opts.seed);
    AllocState state(
        build_initial_solution(cloud, opts, rng, eval_for(opts.num_threads)));
    state.profit();
    adjust_all_shares(state, opts);
    adjust_all_dispersions(state, opts);
    EXPECT_GT(expect_sweeps_match_oracle(state, opts).turn_on_skipped, 0);
  }
}

TEST(ServerPowerParallel, WitnessSolveIsBitwiseEqualAtEveryWorkerCount) {
  const model::Cloud cloud =
      workload::make_scenario(workload::scaled_params(1000), 11);
  std::vector<AllocatorResult> results;
  for (int workers : kWorkerCounts) {
    AllocatorOptions opts;
    opts.num_initial_solutions = 1;
    opts.max_local_search_rounds = 1;
    opts.num_shards = 8;
    opts.cluster_fanout = 4;
    opts.num_threads = workers;
    results.push_back(ResourceAllocator(opts).run(cloud));
  }
  for (const AllocatorResult& r : results) {
    EXPECT_EQ(r.report.final_profit, 2678.4588166295971);  // bitwise
    ASSERT_EQ(r.report.rounds.size(), results[0].report.rounds.size());
    std::int64_t skipped = 0;
    for (std::size_t round = 0; round < r.report.rounds.size(); ++round) {
      const PowerCounters& got = r.report.rounds[round].power;
      const PowerCounters& want = results[0].report.rounds[round].power;
      EXPECT_EQ(without_reruns(got), without_reruns(want));
      EXPECT_EQ(got.turn_on_bids, want.turn_on_bids);
      EXPECT_EQ(got.turn_on_rollbacks, want.turn_on_rollbacks);
      EXPECT_EQ(got.turn_on_skipped, want.turn_on_skipped);
      EXPECT_EQ(got.cluster_visits, cloud.num_clusters());
      skipped += got.turn_on_skipped;
    }
    EXPECT_GT(skipped, 0);
    AllocState a(r.allocation.clone());
    AllocState b(results[0].allocation.clone());
    expect_same_state(a, b);
  }
}

TEST(ServerPowerParallel, SeveralCommitsInOneWindowRerunTheRest) {
  const model::Cloud cloud = small_cloud(9);
  AllocatorOptions opts;
  AllocState state = crammed_state(cloud);
  state.profit();
  const PowerCounters widest = expect_sweeps_match_oracle(state, opts);
  EXPECT_GE(widest.commits, 2);
  EXPECT_GT(widest.speculative_reruns, 0);
}

TEST(ServerPowerParallel, DriftRebaseInsideATrialMatchesTheSequentialSweep) {
  // The rebase every 4096 repairs re-sums the whole cloud's caches; a
  // trial does it over its own rows plus the frozen state's. Start the
  // sweep at several distances from it so it lands inside committing
  // and non-committing trials alike.
  const model::Cloud cloud = small_cloud(9);
  AllocatorOptions opts;
  AllocState state = crammed_state(cloud);
  state.profit();
  for (std::size_t before_rebase : {1, 7, 40, 150, 600, 2000}) {
    SCOPED_TRACE(testing::Message() << before_rebase << " repairs to go");
    state.set_repairs_for_test(4096 - before_rebase);
    expect_sweeps_match_oracle(state, opts);
  }
}

TEST(ServerPowerParallel, UnsettledEntryMatchesTheSequentialSweep) {
  // Fresh assigns leave every repair pending; the first gate settles them.
  const model::Cloud crammed_cloud = small_cloud(9);
  AllocatorOptions opts;
  const AllocState crammed = crammed_state(crammed_cloud);
  ASSERT_FALSE(crammed.ledger().profit_settled());
  EXPECT_GT(expect_sweeps_match_oracle(crammed, opts).turn_on_bundles, 0);

  const model::Cloud cloud = small_cloud(10);
  const AllocState state = moved_without_settling(cloud, opts);
  ASSERT_FALSE(state.ledger().profit_settled());
  expect_sweeps_match_oracle(state, opts);

  // A sweep that reaches no profit gate leaves the repairs pending.
  AllocatorOptions no_gate = opts;
  no_gate.enable_turn_off = false;
  no_gate.degraded_utility_fraction = 0.0;  // no bidders, no bundles
  AllocState quiet = state.branch();
  PowerCounters counters;
  adjust_server_power(quiet, no_gate, eval_for(4), &counters);
  EXPECT_EQ(counters.turn_on_bundles, 0);
  EXPECT_FALSE(quiet.ledger().profit_settled());
  expect_sweeps_match_oracle(state, no_gate);
}

TEST(ServerPowerParallel, OnlineReplayMatchesAcrossThreadCounts) {
  const model::Cloud universe =
      workload::make_scenario(workload::scaled_params(400), 11);
  workload::ChurnParams churn;
  churn.epochs = 6;
  churn.initial_clients = 320;
  churn.arrival_rate = 2.0;
  churn.departure_probability = 0.01;
  churn.demand_change_probability = 0.02;
  const workload::ChurnStream stream =
      workload::make_churn_stream(universe, churn, 12);

  std::vector<std::unique_ptr<serve::OnlineServer>> servers;
  std::vector<std::vector<double>> profits;
  for (int threads : {1, 4}) {
    serve::OnlineOptions opts;
    opts.alloc.num_initial_solutions = 1;
    opts.alloc.max_local_search_rounds = 1;
    opts.alloc.num_shards = 8;
    opts.alloc.cluster_fanout = 4;
    opts.alloc.migration_cost = 2.0;
    opts.alloc.num_threads = threads;
    servers.push_back(std::make_unique<serve::OnlineServer>(
        universe, stream.initially_present, opts));
    serve::OnlineServer& server = *servers.back();
    std::vector<double>& seen = profits.emplace_back();
    server.start();
    seen.push_back(server.profit());
    for (const auto& events : stream.epochs) {
      server.step(events);
      seen.push_back(server.profit());
    }
  }
  EXPECT_EQ(profits[0], profits[1]);  // bitwise, epoch by epoch
  AllocState a(servers[0]->allocation().clone());
  AllocState b(servers[1]->allocation().clone());
  expect_same_state(a, b);
}

// --- TurnOnReplay: the neutral-run skip against the pass before it -------

/// Verbatim copy of degraded_clients as TurnON used it before the skip.
std::vector<ClientId> reference_degraded_clients(
    const model::Allocation& alloc, ClusterId k,
    const AllocatorOptions& opts) {
  const model::Cloud& cloud = alloc.cloud();
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

/// Verbatim copy of turn_on_servers before the neutral-run skip: every
/// candidate bids, and the degraded set is recomputed per candidate.
double reference_turn_on_servers(AllocState& state, ClusterId k,
                                 const AllocatorOptions& opts,
                                 PowerCounters* counters = nullptr) {
  const model::Cloud& cloud = state.cloud();
  PowerCounters count;

  // One inactive representative per server class present in this cluster.
  std::map<ServerClassId, ServerId> candidates;
  for (ServerId j : cloud.cluster(k).servers)
    if (!state.ledger().active(j) &&
        !candidates.count(cloud.server(j).server_class))
      candidates.emplace(cloud.server(j).server_class, j);
  if (candidates.empty()) return 0.0;

  double total_delta = 0.0;
  for (const auto& [cls, j] : candidates) {
    (void)cls;
    const std::vector<ClientId> bidders =
        reference_degraded_clients(state.ledger(), k, opts);
    if (bidders.empty()) break;

    AllocState trial = state.branch();
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
    if (!anyone_used_j) continue;

    ++count.turn_on_bundles;
    const double gate_before = state.profit();
    const double gate_after = trial.profit();
    if (gate_after > gate_before + bundle_penalty + 1e-12) {
      total_delta += gate_after - gate_before;
      state.adopt(std::move(trial));
      ++count.commits;
    }
  }
  if (counters != nullptr) *counters += count;
  return total_delta;
}

/// Runs TurnON over every cluster in order, once with the reference and
/// once with turn_on_servers, from the same entry state per cluster, and
/// checks delta, state (settledness first) and gate counters bitwise.
/// Each cluster starts from the reference's result of the one before.
/// Returns turn_on_servers' counters summed over the clusters.
PowerCounters expect_turn_on_matches_reference(const AllocState& base,
                                               const AllocatorOptions& opts) {
  PowerCounters total;
  AllocState cur = base.branch();
  for (ClusterId k : base.cloud().cluster_ids()) {
    SCOPED_TRACE(testing::Message() << "cluster " << k);
    AllocState want = cur.branch();
    AllocState got = cur.branch();
    PowerCounters want_count;
    PowerCounters got_count;
    const double want_delta =
        reference_turn_on_servers(want, k, opts, &want_count);
    const double delta = turn_on_servers(got, k, opts, &got_count);
    EXPECT_EQ(delta, want_delta);  // bitwise
    EXPECT_EQ(got_count.turn_on_bundles, want_count.turn_on_bundles);
    EXPECT_EQ(got_count.commits, want_count.commits);
    EXPECT_EQ(want_count.turn_on_skipped, 0);
    if (got_count.turn_on_skipped == 0) {
      EXPECT_EQ(got_count.turn_on_bids, want_count.turn_on_bids);
      EXPECT_EQ(got_count.turn_on_rollbacks, want_count.turn_on_rollbacks);
    } else {
      EXPECT_LT(got_count.turn_on_bids, want_count.turn_on_bids);
    }
    AllocState want_copy = want.branch();  // comparing settles both
    AllocState got_copy = got.branch();
    expect_same_state(got_copy, want_copy);
    total += got_count;
    cur = std::move(want);
  }
  return total;
}

TEST(TurnOnReplay, MatchesTheReferenceOnThe1kWitness) {
  const model::Cloud cloud =
      workload::make_scenario(workload::scaled_params(1000), 11);
  AllocatorOptions opts;
  opts.num_initial_solutions = 1;
  opts.num_shards = 8;
  opts.cluster_fanout = 4;
  opts.num_threads = 4;
  // The witness solve's state as it enters its first sweep.
  Rng rng(opts.seed);
  AllocState state(
      build_initial_solution(cloud, opts, rng, eval_for(opts.num_threads)));
  state.profit();
  adjust_all_shares(state, opts);
  adjust_all_dispersions(state, opts);
  const PowerCounters got = expect_turn_on_matches_reference(state, opts);
  EXPECT_GT(got.turn_on_bids, 0);
}

TEST(TurnOnReplay, MatchesTheReferenceWhereCandidatesCommit) {
  const model::Cloud cloud = small_cloud(9);
  AllocatorOptions opts;
  AllocState state = crammed_state(cloud);
  state.profit();
  EXPECT_GE(expect_turn_on_matches_reference(state, opts).commits, 2);
}

TEST(TurnOnReplay, ACommitAfterANeutralRunDropsTheRecord) {
  // In one of these clusters a bundle commits after a neutral run, and a
  // later candidate that the neutral run never touched then bids from the
  // new state and commits too: skipping it on the stale record would lose
  // that commit (a copy that keeps the record fails here).
  workload::ScenarioParams params;
  params.num_clients = 40;
  params.num_clusters = 3;
  params.servers_per_cluster = 8;
  const model::Cloud cloud = workload::make_scenario(params, 120);
  AllocatorOptions opts;
  AllocState state = crammed_state(cloud);
  state.profit();
  EXPECT_GT(expect_turn_on_matches_reference(state, opts).commits, 0);
}

TEST(TurnOnReplay, MatchesTheReferenceOnUnsettledEntry) {
  const model::Cloud crammed_cloud = small_cloud(9);
  AllocatorOptions opts;
  const AllocState crammed = crammed_state(crammed_cloud);
  ASSERT_FALSE(crammed.ledger().profit_settled());
  expect_turn_on_matches_reference(crammed, opts);

  const model::Cloud cloud = small_cloud(10);
  const AllocState state = moved_without_settling(cloud, opts);
  ASSERT_FALSE(state.ledger().profit_settled());
  expect_turn_on_matches_reference(state, opts);
}

TEST(TurnOnReplay, MatchesTheReferenceAcrossADriftRebase) {
  // The offsets of DriftRebaseInsideATrialMatchesTheSequentialSweep: the
  // rebase lands inside skipped, neutral and gated runs alike.
  const model::Cloud cloud = small_cloud(9);
  AllocatorOptions opts;
  AllocState state = crammed_state(cloud);
  state.profit();
  for (std::size_t before_rebase : {1, 7, 40, 150, 600, 2000}) {
    SCOPED_TRACE(testing::Message() << before_rebase << " repairs to go");
    state.set_repairs_for_test(4096 - before_rebase);
    expect_turn_on_matches_reference(state, opts);
  }
}

TEST(TurnOnReplay, MatchesTheReferenceOnOnlineChurnStates) {
  const model::Cloud universe =
      workload::make_scenario(workload::scaled_params(400), 11);
  workload::ChurnParams churn;
  churn.epochs = 4;
  churn.initial_clients = 320;
  churn.arrival_rate = 2.0;
  churn.departure_probability = 0.01;
  churn.demand_change_probability = 0.02;
  const workload::ChurnStream stream =
      workload::make_churn_stream(universe, churn, 12);
  serve::OnlineOptions opts;
  opts.alloc.num_initial_solutions = 1;
  opts.alloc.max_local_search_rounds = 1;
  opts.alloc.num_shards = 8;
  opts.alloc.cluster_fanout = 4;
  opts.alloc.migration_cost = 2.0;
  opts.alloc.num_threads = 4;
  serve::OnlineServer server(universe, stream.initially_present, opts);
  server.start();
  PowerCounters total;
  for (const auto& events : stream.epochs) {
    server.step(events);
    AllocState state(server.allocation().clone());
    total += expect_turn_on_matches_reference(state, opts.alloc);
  }
  EXPECT_GT(total.turn_on_skipped, 0);
}

/// One cluster of three servers: a crammed class-1 server, an inactive
/// class-0 server whose disk fits no client, and an inactive class-1
/// server. The class-0 candidate bids first and no plan can use it, so
/// its run is neutral — but its plans open the class-1 server, which must
/// therefore bid rather than be skipped.
model::Cloud neutral_run_cloud() {
  std::vector<model::ServerClass> classes;
  classes.push_back(model::ServerClass{ServerClassId{0}, "diskless",
                                       /*cap_p=*/4.0, /*cap_n=*/4.0,
                                       /*cap_m=*/0.1, /*cost_fixed=*/0.5,
                                       /*cost_per_util=*/1.0});
  classes.push_back(model::ServerClass{ServerClassId{1}, "normal",
                                       /*cap_p=*/6.0, /*cap_n=*/6.0,
                                       /*cap_m=*/10.0, /*cost_fixed=*/0.5,
                                       /*cost_per_util=*/1.0});
  std::vector<model::UtilityClass> utilities;
  utilities.push_back(model::UtilityClass{
      model::UtilityClassId{0}, std::make_shared<model::LinearUtility>(2.5, 0.6)});
  std::vector<model::Server> servers;
  model::Cluster cluster;
  cluster.id = ClusterId{0};
  cluster.name = "cluster-0";
  for (int s : {1, 0, 1}) {
    model::Server sv;
    sv.id = ServerId{static_cast<int>(servers.size())};
    sv.cluster = ClusterId{0};
    sv.server_class = ServerClassId{s};
    cluster.servers.push_back(sv.id);
    servers.push_back(std::move(sv));
  }
  std::vector<model::Client> clients;
  for (int i = 0; i < 4; ++i) {
    model::Client c;
    c.id = ClientId{i};
    c.utility_class = model::UtilityClassId{0};
    c.lambda_agreed = 1.0 + 0.5 * i;
    c.lambda_pred = c.lambda_agreed;
    c.alpha_p = 0.5 + 0.05 * i;
    c.alpha_n = 0.5;
    c.disk = 1.0;
    clients.push_back(std::move(c));
  }
  return model::Cloud(std::move(classes), std::move(servers), {cluster},
                      std::move(utilities), std::move(clients));
}

TEST(TurnOnReplay, ACandidateTheNeutralRunTouchedStillBids) {
  const model::Cloud cloud = neutral_run_cloud();
  const ServerId crammed{0};
  const ServerId diskless{1};
  const ServerId spare{2};
  for (ClientId i : cloud.client_ids())
    ASSERT_GT(cloud.client(i).disk, cloud.server_class_of(diskless).cap_m);
  AllocState state(cloud);
  for (ClientId i : cloud.client_ids())
    state.assign(i, ClusterId{0}, {Placement{crammed, 1.0, 0.2, 0.2}});
  state.profit();
  AllocatorOptions opts;

  AllocState want = state.branch();
  PowerCounters want_count;
  reference_turn_on_servers(want, ClusterId{0}, opts, &want_count);
  // The spare server's own run opens it and commits.
  ASSERT_EQ(want_count.commits, 1);
  ASSERT_TRUE(want.ledger().active(spare));
  ASSERT_FALSE(want.ledger().active(diskless));

  const PowerCounters got = expect_turn_on_matches_reference(state, opts);
  EXPECT_EQ(got.turn_on_skipped, 0);
  EXPECT_EQ(got.commits, 1);
}

}  // namespace
}  // namespace cloudalloc::alloc
