#include <vector>

#include <gtest/gtest.h>

#include "alloc/adjust_dispersion.h"
#include "alloc/adjust_shares.h"
#include "alloc/allocator.h"
#include "alloc/initial.h"
#include "common/rng.h"
#include "dist/parallel_eval.h"
#include "dist/thread_pool.h"
#include "model/alloc_state.h"
#include "model/evaluator.h"
#include "model/feasibility.h"
#include "workload/scenario.h"

namespace cloudalloc::alloc {
namespace {

using model::AllocState;
using model::ClientId;
using model::ClusterId;
using model::Placement;
using model::ServerId;

TEST(AdjustShares, ImprovesDeliberatelyBadSplit) {
  const auto cloud = workload::make_tiny_scenario(2);
  AllocatorOptions opts;
  AllocState state(cloud);
  // Two clients on server 0; client 1 (heavier load) starved, client 0
  // hogging. A rebalance must help.
  state.assign(model::ClientId{0}, model::ClusterId{0}, {Placement{model::ServerId{0}, 1.0, 0.80, 0.80}});
  state.assign(model::ClientId{1}, model::ClusterId{0}, {Placement{model::ServerId{0}, 1.0, 0.20, 0.20}});
  const double before = state.profit();
  const double delta = adjust_resource_shares(state, model::ServerId{0}, opts);
  EXPECT_GT(delta, 0.0);
  EXPECT_NEAR(state.profit(), before + delta, 1e-9);
  EXPECT_TRUE(model::is_feasible(state.ledger()));
}

TEST(AdjustShares, NoOpOnEmptyServer) {
  const auto cloud = workload::make_tiny_scenario(2);
  AllocatorOptions opts;
  AllocState state(cloud);
  EXPECT_DOUBLE_EQ(adjust_resource_shares(state, model::ServerId{0}, opts), 0.0);
}

TEST(AdjustShares, NeverDecreasesProfit) {
  workload::ScenarioParams params;
  params.num_clients = 30;
  params.servers_per_cluster = 6;
  const auto cloud = workload::make_scenario(params, 17);
  AllocatorOptions opts;
  Rng rng(17);
  AllocState state(build_initial_solution(cloud, opts, rng));
  const double before = state.profit();
  const double delta = adjust_all_shares(state, opts);
  EXPECT_GE(delta, 0.0);
  EXPECT_GE(state.profit(), before - 1e-9);
  EXPECT_TRUE(model::is_feasible(state.ledger()));
}

TEST(AdjustDispersion, NoOpForSingleSlice) {
  const auto cloud = workload::make_tiny_scenario(2);
  AllocatorOptions opts;
  AllocState state(cloud);
  state.assign(model::ClientId{0}, model::ClusterId{0}, {Placement{model::ServerId{0}, 1.0, 0.5, 0.5}});
  EXPECT_DOUBLE_EQ(adjust_dispersion_rates(state, model::ClientId{0}, opts), 0.0);
}

TEST(AdjustDispersion, RebalancesLopsidedSplit) {
  const auto cloud = workload::make_tiny_scenario(1);
  AllocatorOptions opts;
  AllocState state(cloud);
  // Client 0 split 90/10 over two servers with equal shares: convex
  // delay says closer-to-even (weighted by capacity) is better.
  state.assign(model::ClientId{0}, model::ClusterId{0},
               {Placement{model::ServerId{0}, 0.9, 0.4, 0.4}, Placement{model::ServerId{1}, 0.1, 0.4, 0.4}});
  const double before = state.profit();
  const double delta = adjust_dispersion_rates(state, model::ClientId{0}, opts);
  EXPECT_GE(delta, 0.0);
  EXPECT_GE(state.profit(), before - 1e-9);
  EXPECT_TRUE(model::is_feasible(state.ledger()));
}

TEST(AdjustDispersion, DropsNeedlessSecondServer) {
  // Very light client split over two servers: the linear P1 cost of the
  // second server can make consolidation worthwhile; at minimum the step
  // must not hurt.
  const auto cloud = workload::make_tiny_scenario(1);
  AllocatorOptions opts;
  AllocState state(cloud);
  state.assign(model::ClientId{0}, model::ClusterId{0},
               {Placement{model::ServerId{0}, 0.5, 0.45, 0.45}, Placement{model::ServerId{1}, 0.5, 0.05, 0.05}});
  const double before = state.profit();
  adjust_dispersion_rates(state, model::ClientId{0}, opts);
  EXPECT_GE(state.profit(), before - 1e-9);
  EXPECT_TRUE(model::is_feasible(state.ledger()));
}

TEST(AdjustDispersion, NeverDecreasesProfitOnScenarios) {
  workload::ScenarioParams params;
  params.num_clients = 30;
  params.servers_per_cluster = 6;
  const auto cloud = workload::make_scenario(params, 23);
  AllocatorOptions opts;
  Rng rng(23);
  AllocState state(build_initial_solution(cloud, opts, rng));
  const double before = state.profit();
  const double delta = adjust_all_dispersions(state, opts);
  EXPECT_GE(delta, 0.0);
  EXPECT_GE(state.profit(), before - 1e-9);
  EXPECT_TRUE(model::is_feasible(state.ledger()));
}

class AdjustProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AdjustProperty, RepeatedAdjustmentMonotoneAndFeasible) {
  workload::ScenarioParams params;
  params.num_clients = 20;
  params.servers_per_cluster = 5;
  const auto cloud = workload::make_scenario(params, GetParam());
  AllocatorOptions opts;
  Rng rng(GetParam());
  AllocState state(build_initial_solution(cloud, opts, rng));
  double profit_now = state.profit();
  for (int round = 0; round < 3; ++round) {
    adjust_all_shares(state, opts);
    adjust_all_dispersions(state, opts);
    const double next = state.profit();
    EXPECT_GE(next, profit_now - 1e-9);
    profit_now = next;
    ASSERT_TRUE(model::is_feasible(state.ledger()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdjustProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

// --- plans fanned out on the pool, commits in id order --------------------

/// Large enough against the witness's re-split gains that the gate
/// rejects some, small enough that others pass.
constexpr double kMigrationCost = 0.01;

// Thread counts as the allocator counts them, the helping caller included:
// 1 is the inline path, 2 the smallest pool.
constexpr int kThreadCounts[] = {1, 2, 3, 4};

dist::ParallelEval eval_for(int threads) {
  return dist::ParallelEval(dist::shared_pool_for(threads));
}

/// Bitwise equality of what a later phase can observe: placements, server
/// client lists (their order included), the profit cache's settledness and
/// the settled profit.
void expect_same_state(AllocState& a, AllocState& b) {
  const model::Allocation& la = a.ledger();
  const model::Allocation& lb = b.ledger();
  for (ClientId i : a.cloud().client_ids()) {
    ASSERT_EQ(la.cluster_of(i), lb.cluster_of(i)) << "client " << i;
    const std::vector<Placement>& pa = la.placements(i);
    const std::vector<Placement>& pb = lb.placements(i);
    ASSERT_EQ(pa.size(), pb.size()) << "client " << i;
    for (std::size_t p = 0; p < pa.size(); ++p) {
      EXPECT_EQ(pa[p].server, pb[p].server) << "client " << i;
      EXPECT_EQ(pa[p].psi, pb[p].psi) << "client " << i;
      EXPECT_EQ(pa[p].phi_p, pb[p].phi_p) << "client " << i;
      EXPECT_EQ(pa[p].phi_n, pb[p].phi_n) << "client " << i;
    }
  }
  for (ServerId j : a.cloud().server_ids()) {
    EXPECT_EQ(la.clients_on(j), lb.clients_on(j)) << "server " << j;
    EXPECT_EQ(la.used_phi_p(j), lb.used_phi_p(j)) << "server " << j;
    EXPECT_EQ(a.view().free_phi_n(j), b.view().free_phi_n(j));
  }
  EXPECT_EQ(la.profit_settled(), lb.profit_settled());
  EXPECT_EQ(a.profit(), b.profit());
}

/// adjust_all_dispersions inline and at every thread count against the
/// single-client loop on branches of `base`: same state, same delta, same
/// counters. Returns the inline run's counters.
DispersionCounters expect_dispersions_match_loop(const AllocState& base,
                                                 const AllocatorOptions& opts) {
  AllocState loop = base.branch();
  double want = 0.0;
  for (ClientId i : loop.cloud().client_ids())
    want += adjust_dispersion_rates(loop, i, opts);

  AllocState inline_run = base.branch();
  DispersionCounters want_counters;
  EXPECT_EQ(adjust_all_dispersions(inline_run, opts, {}, &want_counters),
            want);  // bitwise
  AllocState loop_copy = loop.branch();
  expect_same_state(inline_run, loop_copy);

  for (int threads : kThreadCounts) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    AllocState state = base.branch();
    DispersionCounters got;
    EXPECT_EQ(adjust_all_dispersions(state, opts, eval_for(threads), &got),
              want);
    EXPECT_EQ(got.solved, want_counters.solved);
    EXPECT_EQ(got.reverted, want_counters.reverted);
    AllocState want_state = loop.branch();  // comparing settles both
    expect_same_state(state, want_state);
  }
  return want_counters;
}

/// The same for adjust_all_shares against the single-server loop.
void expect_shares_match_loop(const AllocState& base,
                              const AllocatorOptions& opts) {
  AllocState loop = base.branch();
  double want = 0.0;
  for (ServerId j : loop.cloud().server_ids())
    if (loop.ledger().active(j)) want += adjust_resource_shares(loop, j, opts);

  AllocState inline_run = base.branch();
  EXPECT_EQ(adjust_all_shares(inline_run, opts), want);
  AllocState loop_copy = loop.branch();
  expect_same_state(inline_run, loop_copy);

  for (int threads : kThreadCounts) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    AllocState state = base.branch();
    EXPECT_EQ(adjust_all_shares(state, opts, eval_for(threads)), want);
    AllocState want_state = loop.branch();
    expect_same_state(state, want_state);
  }
}

AllocatorOptions witness_options(int threads) {
  AllocatorOptions opts;
  opts.num_initial_solutions = 1;
  opts.max_local_search_rounds = 1;
  opts.num_shards = 8;
  opts.cluster_fanout = 4;
  opts.num_threads = threads;
  return opts;
}

/// The 1k witness solve's state as it enters its first local-search round.
AllocState witness_entry_state(const model::Cloud& cloud,
                               const AllocatorOptions& opts) {
  Rng rng(opts.seed);
  AllocState state(build_initial_solution(cloud, opts, rng, eval_for(4)));
  state.profit();
  return state;
}

TEST(AdjustParallel, WitnessRoundMatchesTheSingleItemLoops) {
  const model::Cloud cloud =
      workload::make_scenario(workload::scaled_params(1000), 11);
  const AllocatorOptions opts = witness_options(4);
  AllocState state = witness_entry_state(cloud, opts);
  expect_shares_match_loop(state, opts);
  // Dispersion runs on what the round's share pass leaves.
  adjust_all_shares(state, opts);
  const DispersionCounters counters =
      expect_dispersions_match_loop(state, opts);
  EXPECT_GT(counters.solved, 0);
  EXPECT_LT(counters.solved, cloud.num_clients());
}

TEST(AdjustParallel, MigrationPenaltyRevertsMatchTheSingleItemLoop) {
  const model::Cloud cloud =
      workload::make_scenario(workload::scaled_params(1000), 11);
  AllocatorOptions opts = witness_options(4);
  AllocState state = witness_entry_state(cloud, opts);
  adjust_all_shares(state, opts);
  opts.migration_cost = kMigrationCost;
  const DispersionCounters counters =
      expect_dispersions_match_loop(state, opts);
  // Both outcomes of the gate are taken.
  EXPECT_GT(counters.reverted, 0);
  EXPECT_LT(counters.reverted, counters.solved);
}

TEST(AdjustParallel, ServerWhoseFloorsDoNotFitKeepsItsShares) {
  workload::ScenarioParams params;
  params.num_clients = 60;
  params.num_clusters = 3;
  params.servers_per_cluster = 6;
  const model::Cloud cloud = workload::make_scenario(params, 5);
  AllocatorOptions opts;
  Rng rng(5);
  AllocState state(build_initial_solution(cloud, opts, rng));
  // Cram cluster 0's clients onto its first server with slim shares: their
  // stability floors add up past the whole server.
  const ServerId crammed = cloud.cluster(ClusterId{0}).servers.front();
  std::vector<ClientId> moved;
  for (ClientId i : cloud.client_ids())
    if (state.ledger().cluster_of(i) == ClusterId{0}) moved.push_back(i);
  ASSERT_GE(moved.size(), 2u);
  const double slim = 0.5 / static_cast<double>(moved.size());
  for (ClientId i : moved)
    state.assign(i, ClusterId{0}, {Placement{crammed, 1.0, slim, slim}});
  state.profit();

  AllocState single = state.branch();
  EXPECT_EQ(adjust_resource_shares(single, crammed, opts), 0.0);
  for (ClientId i : moved) {
    EXPECT_EQ(single.ledger().placements(i)[0].phi_p, slim);
    EXPECT_EQ(single.ledger().placements(i)[0].phi_n, slim);
  }
  expect_shares_match_loop(state, opts);
}

TEST(AdjustParallel, RoundCountersAreEqualAtEveryThreadCount) {
  const model::Cloud cloud =
      workload::make_scenario(workload::scaled_params(1000), 11);
  std::vector<AllocatorReport> reports;
  for (int threads : kThreadCounts)
    reports.push_back(
        ResourceAllocator(witness_options(threads)).run(cloud).report);
  for (const AllocatorReport& r : reports) {
    EXPECT_EQ(r.final_profit, 2678.4588166295971);  // bitwise
    ASSERT_EQ(r.rounds.size(), reports[0].rounds.size());
    for (std::size_t round = 0; round < r.rounds.size(); ++round) {
      EXPECT_EQ(r.rounds[round].dispersion_solved,
                reports[0].rounds[round].dispersion_solved);
      EXPECT_EQ(r.rounds[round].dispersion_reverted,
                reports[0].rounds[round].dispersion_reverted);
      EXPECT_EQ(r.rounds[round].delta_shares,
                reports[0].rounds[round].delta_shares);
      EXPECT_EQ(r.rounds[round].delta_dispersion,
                reports[0].rounds[round].delta_dispersion);
    }
  }
  ASSERT_FALSE(reports[0].rounds.empty());
  EXPECT_GT(reports[0].rounds[0].dispersion_solved, 0);
}

}  // namespace
}  // namespace cloudalloc::alloc
