#include "alloc/delta_price.h"

#include <cmath>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "alloc/assign_distribute.h"
#include "alloc/options.h"
#include "model/alloc_state.h"
#include "model/allocation.h"
#include "model/evaluator.h"
#include "model/residual.h"
#include "workload/scenario.h"

namespace cloudalloc::alloc {
namespace {

using model::Allocation;
using model::ClientId;
using model::Cloud;
using model::ClusterId;
using model::ResidualView;
using model::ServerId;

// The delta pricer claims exactness against the full evaluator; a profit
// is O(10^2) here, so 1e-9 absolute leaves no room for anything but
// benign summation-order rounding.
constexpr double kTol = 1e-9;

/// Builds a half-loaded allocation: the first `placed` clients are
/// inserted greedily, the rest stay unassigned as probe material.
Allocation half_loaded(const Cloud& cloud, int placed,
                       const AllocatorOptions& opts) {
  model::AllocState state(cloud);
  for (int i_raw = 0; i_raw < placed; ++i_raw) {
    const ClientId i{i_raw};
    const auto plan = best_insertion(state.view(), i, opts);
    if (plan) state.assign(i, plan->cluster, plan->placements);
  }
  return std::move(state).release();
}

/// Full server-aggregate fingerprint of a view, for bitwise-restore
/// assertions (exact equality on every field the probes read).
std::vector<double> fingerprint(const ResidualView& view) {
  const Cloud& cloud = view.cloud();
  std::vector<double> fp;
  for (ServerId j : cloud.server_ids()) {
    fp.push_back(view.free_phi_p(j));
    fp.push_back(view.free_phi_n(j));
    fp.push_back(view.free_disk(j));
    fp.push_back(view.proc_load(j));
    fp.push_back(static_cast<double>(view.hosted_clients(j)));
  }
  return fp;
}

TEST(DeltaPriceTest, InsertionDeltaMatchesCloneOracle) {
  AllocatorOptions opts;
  for (std::uint64_t seed : {1, 5, 9, 23}) {
    workload::ScenarioParams params;
    params.num_clients = 60;
    params.background_probability = (seed % 2 == 1) ? 0.3 : 0.0;
    const Cloud cloud = workload::make_scenario(params, seed);
    const Allocation alloc = half_loaded(cloud, 30, opts);
    model::profit(alloc);  // settle caches before snapshotting
    const ResidualView view(alloc);

    int priced = 0;
    for (int i_raw = 30; i_raw < cloud.num_clients(); ++i_raw) {
      const ClientId i{i_raw};
      const auto plan = best_insertion(view, i, opts);
      if (!plan) continue;
      const double delta = insertion_delta(view, i, plan->placements);

      Allocation trial = alloc.clone();
      const double before = model::profit(trial);
      trial.assign(i, plan->cluster, plan->placements);
      const double after = model::profit(trial);
      EXPECT_NEAR(delta, after - before, kTol)
          << "seed=" << seed << " client=" << i;
      ++priced;
    }
    EXPECT_GT(priced, 0) << "seed=" << seed;
  }
}

TEST(DeltaPriceTest, RemovalDeltaMatchesCloneOracle) {
  AllocatorOptions opts;
  for (std::uint64_t seed : {2, 7, 13}) {
    workload::ScenarioParams params;
    params.num_clients = 60;
    params.background_probability = (seed % 2 == 1) ? 0.3 : 0.0;
    const Cloud cloud = workload::make_scenario(params, seed);
    const Allocation alloc = half_loaded(cloud, 40, opts);
    model::profit(alloc);
    const ResidualView view(alloc);

    int priced = 0;
    for (int i_raw = 0; i_raw < 40; ++i_raw) {
      const ClientId i{i_raw};
      if (!alloc.is_assigned(i)) continue;
      const double delta = removal_delta(view, i, alloc.placements(i));

      Allocation trial = alloc.clone();
      const double before = model::profit(trial);
      trial.clear(i);
      const double after = model::profit(trial);
      EXPECT_NEAR(delta, after - before, kTol)
          << "seed=" << seed << " client=" << i;
      ++priced;
    }
    EXPECT_GT(priced, 0) << "seed=" << seed;
  }
}

TEST(DeltaPriceTest, ReplaceDeltaMatchesOracleAndRestoresView) {
  AllocatorOptions opts;
  workload::ScenarioParams params;
  params.num_clients = 60;
  const Cloud cloud = workload::make_scenario(params, 3);
  const Allocation alloc = half_loaded(cloud, 40, opts);
  model::profit(alloc);
  ResidualView view(alloc);
  const std::vector<double> fp_before = fingerprint(view);

  InsertionConstraints constraints;
  int priced = 0;
  for (int i_raw = 0; i_raw < 40; ++i_raw) {
    const ClientId i{i_raw};
    if (!alloc.is_assigned(i)) continue;
    // Re-place into a different cluster so old and new placements differ.
    const ClusterId other{(alloc.cluster_of(i).value() + 1) %
                          cloud.num_clusters()};
    const auto old_ps = alloc.placements(i);

    // Price the insertion against the vacated state, like the passes do.
    ResidualView probe = view;
    probe.remove_client(i, old_ps);
    const auto plan = assign_distribute(probe, i, other, opts, constraints);
    if (!plan) continue;

    const double delta = replace_delta(view, i, old_ps, plan->placements);

    Allocation trial = alloc.clone();
    const double before = model::profit(trial);
    trial.clear(i);
    trial.assign(i, other, plan->placements);
    const double after = model::profit(trial);
    EXPECT_NEAR(delta, after - before, kTol) << "client=" << i;
    ++priced;
  }
  EXPECT_GT(priced, 0);

  // replace_delta speculates inside the view but must hand it back
  // bitwise-unchanged.
  const std::vector<double> fp_after = fingerprint(view);
  ASSERT_EQ(fp_before.size(), fp_after.size());
  for (std::size_t n = 0; n < fp_before.size(); ++n)
    EXPECT_EQ(fp_before[n], fp_after[n]) << "fingerprint slot " << n;
}

TEST(DeltaPriceTest, TopKContainsArgmaxOrFallback) {
  // With pruning on, every insertion either solves over a certified top-K
  // set — which must then contain every server the exact optimum uses —
  // or falls back to the exact scan.
  AllocatorOptions exact_opts;
  AllocatorOptions pruned_opts;
  pruned_opts.candidate_topk = 4;
  pruned_opts.candidate_backoff = false;  // deterministic attempt counts

  workload::ScenarioParams params;
  params.num_clients = 60;
  const Cloud cloud = workload::make_scenario(params, 17);
  const ResidualView view(half_loaded(cloud, 30, exact_opts));

  int attempts = 0;
  for (int i_raw = 30; i_raw < cloud.num_clients(); ++i_raw) {
    const ClientId i{i_raw};
    for (ClusterId k : cloud.cluster_ids()) {
      const auto exact = assign_distribute(view, i, k, exact_opts);
      if (!exact) continue;

      InsertionStats stats;
      const auto pruned = assign_distribute(view, i, k, pruned_opts, {},
                                            &stats);
      ASSERT_TRUE(pruned.has_value());
      ++attempts;
      if (stats.exact_fallbacks > 0) continue;  // exact scan ran — fine
      ASSERT_GT(stats.pruned_solves, 0);
      for (const auto& p : exact->placements) {
        const bool kept =
            std::find(stats.last_pruned_set.begin(),
                      stats.last_pruned_set.end(),
                      p.server) != stats.last_pruned_set.end();
        EXPECT_TRUE(kept) << "client=" << i << " cluster=" << k
                          << " argmax server " << p.server
                          << " missing from certified top-K set";
      }
    }
  }
  EXPECT_GT(attempts, 0);
}

TEST(DeltaPriceTest, PrunedEqualsFullScan) {
  // Certified-or-fallback means pruning may never change the answer: same
  // score, same placements, bit for bit.
  AllocatorOptions exact_opts;
  AllocatorOptions pruned_opts;
  pruned_opts.candidate_topk = 4;
  pruned_opts.candidate_backoff = false;  // deterministic attempt counts

  for (std::uint64_t seed : {17, 29}) {
    workload::ScenarioParams params;
    params.num_clients = 60;
    const Cloud cloud = workload::make_scenario(params, seed);
    const ResidualView view(half_loaded(cloud, 30, exact_opts));

    for (int i_raw = 30; i_raw < cloud.num_clients(); ++i_raw) {
      const ClientId i{i_raw};
      for (ClusterId k : cloud.cluster_ids()) {
        const auto exact = assign_distribute(view, i, k, exact_opts);
        const auto pruned = assign_distribute(view, i, k, pruned_opts);
        ASSERT_EQ(exact.has_value(), pruned.has_value());
        if (!exact) continue;
        EXPECT_EQ(exact->score, pruned->score);
        ASSERT_EQ(exact->placements.size(), pruned->placements.size());
        for (std::size_t n = 0; n < exact->placements.size(); ++n) {
          EXPECT_EQ(exact->placements[n].server, pruned->placements[n].server);
          EXPECT_EQ(exact->placements[n].psi, pruned->placements[n].psi);
          EXPECT_EQ(exact->placements[n].phi_p, pruned->placements[n].phi_p);
          EXPECT_EQ(exact->placements[n].phi_n, pruned->placements[n].phi_n);
        }
      }
    }
  }
}

TEST(DeltaPriceTest, TieHeavyTwinCertificationPrunesWithExclusions) {
  // Single-class clusters with identical residuals are the worst case for
  // a score-bound certificate (every candidate ties) and the best case
  // for twin certification: the K cut lands inside a run of bitwise
  // twins, the selection extends the run only up to G included members,
  // and certified() discharges the excluded twins. The pruned solve must
  // then actually run — real exclusions, no exact fallback — and still
  // match the full scan bit for bit.
  AllocatorOptions exact_opts;
  AllocatorOptions pruned_opts;
  pruned_opts.candidate_topk = 12;
  pruned_opts.candidate_backoff = false;  // deterministic attempt counts

  workload::ScenarioParams params;
  params.num_clients = 24;
  params.num_server_classes = 1;
  params.servers_per_cluster = 14;
  for (std::uint64_t seed : {31, 47}) {
    const Cloud cloud = workload::make_scenario(params, seed);
    const ResidualView view(Allocation{cloud});

    int pruned_with_exclusions = 0;
    for (ClientId i : cloud.client_ids()) {
      for (ClusterId k : cloud.cluster_ids()) {
        const auto exact = assign_distribute(view, i, k, exact_opts);
        InsertionStats stats;
        const auto pruned =
            assign_distribute(view, i, k, pruned_opts, {}, &stats);
        ASSERT_EQ(exact.has_value(), pruned.has_value());
        if (!exact) continue;
        if (stats.pruned_solves > 0 &&
            static_cast<int>(stats.last_pruned_set.size()) <
                params.servers_per_cluster)
          ++pruned_with_exclusions;
        EXPECT_EQ(exact->score, pruned->score);
        ASSERT_EQ(exact->placements.size(), pruned->placements.size());
        for (std::size_t n = 0; n < exact->placements.size(); ++n) {
          EXPECT_EQ(exact->placements[n].server, pruned->placements[n].server);
          EXPECT_EQ(exact->placements[n].psi, pruned->placements[n].psi);
          EXPECT_EQ(exact->placements[n].phi_p, pruned->placements[n].phi_p);
          EXPECT_EQ(exact->placements[n].phi_n, pruned->placements[n].phi_n);
        }
      }
    }
    EXPECT_GT(pruned_with_exclusions, 0) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace cloudalloc::alloc
