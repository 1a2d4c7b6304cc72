#include "alloc/assign_distribute.h"

#include <cmath>

#include <gtest/gtest.h>

#include "model/alloc_state.h"
#include "model/evaluator.h"
#include "model/feasibility.h"
#include "workload/scenario.h"

namespace cloudalloc::alloc {
namespace {

using model::AllocState;
using model::Placement;

class AssignDistributeTest : public ::testing::Test {
 protected:
  AssignDistributeTest() : cloud_(workload::make_tiny_scenario(4)) {}
  model::Cloud cloud_;
  AllocatorOptions opts_;
};

TEST_F(AssignDistributeTest, ProducesFeasiblePlan) {
  AllocState state(cloud_);
  const auto plan = assign_distribute(state.view(), model::ClientId{0}, model::ClusterId{0}, opts_);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->cluster, model::ClusterId{0});
  state.assign(model::ClientId{0}, plan->cluster, plan->placements);
  EXPECT_TRUE(model::is_feasible(state.ledger()));
  EXPECT_TRUE(std::isfinite(state.ledger().response_time(model::ClientId{0})));
}

TEST_F(AssignDistributeTest, PsiQuantizedOnGrid) {
  AllocState state(cloud_);
  opts_.psi_grid = 4;
  const auto plan = assign_distribute(state.view(), model::ClientId{0}, model::ClusterId{0}, opts_);
  ASSERT_TRUE(plan.has_value());
  for (const Placement& p : plan->placements) {
    const double quanta = p.psi * 4.0;
    EXPECT_NEAR(quanta, std::round(quanta), 1e-9);
  }
}

TEST_F(AssignDistributeTest, ScoreTracksRealProfitOrdering) {
  // Inserting into an empty cluster should look at least as good as
  // inserting into one whose servers are nearly saturated.
  AllocState state(cloud_);
  // Saturate cluster 0 shares with clients 1..3.
  state.assign(model::ClientId{1}, model::ClusterId{0}, {Placement{model::ServerId{0}, 1.0, 0.9, 0.9}});
  state.assign(model::ClientId{2}, model::ClusterId{0}, {Placement{model::ServerId{1}, 1.0, 0.9, 0.9}});
  const auto plan0 = assign_distribute(state.view(), model::ClientId{0}, model::ClusterId{0}, opts_);
  const auto plan1 = assign_distribute(state.view(), model::ClientId{0}, model::ClusterId{1}, opts_);
  ASSERT_TRUE(plan1.has_value());
  if (plan0) {
    EXPECT_GE(plan1->score, plan0->score);
  }
}

TEST_F(AssignDistributeTest, RespectsDiskConstraint) {
  // Fill server disk so the client cannot land there.
  AllocState state(cloud_);
  // Tiny scenario cluster 0 = servers {0 (cap_m 4), 1 (cap_m 6)}.
  // Client 3 disk = 1.25; others 0.5, 0.75, 1.0. Shares below are sized to
  // keep every queue stable so the fixture itself is feasible.
  state.assign(model::ClientId{0}, model::ClusterId{0}, {Placement{model::ServerId{0}, 1.0, 0.35, 0.35}});
  state.assign(model::ClientId{1}, model::ClusterId{0}, {Placement{model::ServerId{0}, 1.0, 0.35, 0.35}});
  state.assign(model::ClientId{2}, model::ClusterId{0}, {Placement{model::ServerId{1}, 1.0, 0.40, 0.40}});
  const auto plan = assign_distribute(state.view(), model::ClientId{3}, model::ClusterId{0}, opts_);
  ASSERT_TRUE(plan.has_value());
  AllocState trial = state.branch();
  trial.assign(model::ClientId{3}, model::ClusterId{0}, plan->placements);
  EXPECT_TRUE(model::is_feasible(trial.ledger()));
}

TEST_F(AssignDistributeTest, ExcludedServerNeverUsed) {
  AllocState state(cloud_);
  InsertionConstraints constraints;
  constraints.exclude = model::ServerId{0};
  const auto plan = assign_distribute(state.view(), model::ClientId{0}, model::ClusterId{0}, opts_, constraints);
  ASSERT_TRUE(plan.has_value());
  for (const Placement& p : plan->placements)
    EXPECT_NE(p.server, model::ServerId{0});
}

TEST_F(AssignDistributeTest, ActiveOnlyConstraintHonored) {
  AllocState state(cloud_);
  InsertionConstraints constraints;
  constraints.allow_inactive = false;
  // Nothing is active yet -> no candidates.
  EXPECT_FALSE(assign_distribute(state.view(), model::ClientId{0}, model::ClusterId{0}, opts_, constraints).has_value());
  // Activate server 1, then only server 1 is eligible.
  state.assign(model::ClientId{1}, model::ClusterId{0}, {Placement{model::ServerId{1}, 1.0, 0.3, 0.3}});
  const auto plan = assign_distribute(state.view(), model::ClientId{0}, model::ClusterId{0}, opts_, constraints);
  ASSERT_TRUE(plan.has_value());
  for (const Placement& p : plan->placements)
    EXPECT_EQ(p.server, model::ServerId{1});
}

TEST_F(AssignDistributeTest, ActivationCostDiscouragesNewServers) {
  // With one server already active and roomy, the plan should prefer it
  // over paying a second P0.
  AllocState state(cloud_);
  state.assign(model::ClientId{1}, model::ClusterId{0}, {Placement{model::ServerId{1}, 1.0, 0.2, 0.2}});
  const auto plan = assign_distribute(state.view(), model::ClientId{0}, model::ClusterId{0}, opts_);
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->placements.size(), 1u);
  EXPECT_EQ(plan->placements[0].server, model::ServerId{1});
}

TEST_F(AssignDistributeTest, HeavyClientSplitsAcrossServers) {
  // A demand that exceeds any single server's stable capacity must split.
  workload::ScenarioParams params;
  params.num_clients = 1;
  params.num_clusters = 1;
  params.num_server_classes = 1;
  params.servers_per_cluster = 4;
  params.lambda_lo = params.lambda_hi = 8.0;
  params.alpha_lo = params.alpha_hi = 1.0;  // demand 8 > cap <= 6
  const auto heavy = workload::make_scenario(params, 3);
  AllocState heavy_state(heavy);
  const auto plan = assign_distribute(heavy_state.view(), model::ClientId{0}, model::ClusterId{0}, opts_);
  ASSERT_TRUE(plan.has_value());
  EXPECT_GE(plan->placements.size(), 2u);
  heavy_state.assign(model::ClientId{0}, model::ClusterId{0}, plan->placements);
  EXPECT_TRUE(model::is_feasible(heavy_state.ledger()));
}

TEST_F(AssignDistributeTest, ReturnsNulloptWhenImpossible) {
  workload::ScenarioParams params;
  params.num_clients = 1;
  params.num_clusters = 1;
  params.num_server_classes = 1;
  params.servers_per_cluster = 1;
  params.lambda_lo = params.lambda_hi = 40.0;  // hopeless demand
  params.alpha_lo = params.alpha_hi = 1.0;
  const auto impossible = workload::make_scenario(params, 3);
  AllocState state(impossible);
  EXPECT_FALSE(assign_distribute(state.view(), model::ClientId{0}, model::ClusterId{0}, opts_).has_value());
}

TEST_F(AssignDistributeTest, BestInsertionPicksArgmaxCluster) {
  AllocState state(cloud_);
  // Saturate cluster 0 completely.
  state.assign(model::ClientId{1}, model::ClusterId{0}, {Placement{model::ServerId{0}, 1.0, 0.95, 0.95}});
  state.assign(model::ClientId{2}, model::ClusterId{0}, {Placement{model::ServerId{1}, 1.0, 0.95, 0.95}});
  const auto best = best_insertion(state.view(), model::ClientId{0}, opts_);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->cluster, model::ClusterId{1});
}

class AssignDistributeProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AssignDistributeProperty, CommittedPlansStayFeasible) {
  workload::ScenarioParams params;
  params.num_clients = 20;
  params.servers_per_cluster = 6;
  const auto cloud = workload::make_scenario(params, GetParam());
  AllocatorOptions opts;
  AllocState state(cloud);
  for (model::ClientId i : cloud.client_ids()) {
    const auto plan = best_insertion(state.view(), i, opts);
    if (!plan) continue;
    state.assign(i, plan->cluster, plan->placements);
    ASSERT_TRUE(model::is_feasible(state.ledger())) << "after client " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AssignDistributeProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace cloudalloc::alloc
