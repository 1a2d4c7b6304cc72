// Determinism guarantees of the simulator and the replication runner
// (mirrors test_dist_determinism.cpp for the allocator): a seed fully
// determines a SimulationReport, and run_replications is a pure function
// of (allocation, options) — independent of the worker thread count.
#include <algorithm>
#include <cstddef>
#include <iterator>
#include <vector>

#include <gtest/gtest.h>

#include "alloc/allocator.h"
#include "sim/replication.h"
#include "workload/scenario.h"

namespace cloudalloc::sim {
namespace {

// An Allocation references its Cloud, so the pair must live together.
struct Fixture {
  explicit Fixture(std::uint64_t seed)
      : cloud(workload::make_scenario(
            [] {
              workload::ScenarioParams params;
              params.num_clients = 12;
              params.servers_per_cluster = 4;
              return params;
            }(),
            seed)),
        allocation(alloc::ResourceAllocator().run(cloud).allocation) {}
  model::Cloud cloud;
  model::Allocation allocation;
};

void expect_identical(const SimulationReport& a, const SimulationReport& b) {
  EXPECT_EQ(a.total_completed, b.total_completed);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.mean_abs_rel_error, b.mean_abs_rel_error);
  ASSERT_EQ(a.clients.size(), b.clients.size());
  for (std::size_t c = 0; c < a.clients.size(); ++c) {
    const ClientSimStats& ca = a.clients[c];
    const ClientSimStats& cb = b.clients[c];
    EXPECT_EQ(ca.id, cb.id);
    EXPECT_EQ(ca.completed, cb.completed);
    EXPECT_EQ(ca.mean_response, cb.mean_response);
    EXPECT_EQ(ca.ci95, cb.ci95);
    EXPECT_EQ(ca.analytic_response, cb.analytic_response);
    EXPECT_EQ(ca.p50, cb.p50);
    EXPECT_EQ(ca.p95, cb.p95);
    EXPECT_EQ(ca.p99, cb.p99);
  }
  ASSERT_EQ(a.servers.size(), b.servers.size());
  for (std::size_t s = 0; s < a.servers.size(); ++s) {
    EXPECT_EQ(a.servers[s].id, b.servers[s].id);
    EXPECT_EQ(a.servers[s].measured_util_p, b.servers[s].measured_util_p);
    EXPECT_EQ(a.servers[s].analytic_util_p, b.servers[s].analytic_util_p);
  }
}

void expect_identical(const ReplicationReport& a, const ReplicationReport& b) {
  EXPECT_EQ(a.replications, b.replications);
  EXPECT_EQ(a.total_completed, b.total_completed);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.mean_abs_rel_error, b.mean_abs_rel_error);
  ASSERT_EQ(a.clients.size(), b.clients.size());
  for (std::size_t c = 0; c < a.clients.size(); ++c) {
    const ClientReplicationStats& ca = a.clients[c];
    const ClientReplicationStats& cb = b.clients[c];
    EXPECT_EQ(ca.id, cb.id);
    EXPECT_EQ(ca.observations, cb.observations);
    EXPECT_EQ(ca.completed_total, cb.completed_total);
    EXPECT_EQ(ca.mean_response, cb.mean_response);
    EXPECT_EQ(ca.ci95, cb.ci95);
    EXPECT_EQ(ca.p50, cb.p50);
    EXPECT_EQ(ca.p95, cb.p95);
    EXPECT_EQ(ca.p99, cb.p99);
  }
  ASSERT_EQ(a.servers.size(), b.servers.size());
  for (std::size_t s = 0; s < a.servers.size(); ++s) {
    EXPECT_EQ(a.servers[s].id, b.servers[s].id);
    EXPECT_EQ(a.servers[s].measured_util_p, b.servers[s].measured_util_p);
    EXPECT_EQ(a.servers[s].ci95, b.servers[s].ci95);
  }
}

TEST(SimDeterminism, SameSeedBitIdenticalReport) {
  const Fixture fx(41);
  SimOptions opts;
  opts.horizon = 600.0;
  opts.seed = 7;
  const auto a = simulate_allocation(fx.allocation, opts);
  const auto b = simulate_allocation(fx.allocation, opts);
  EXPECT_GT(a.total_completed, 0u);
  expect_identical(a, b);
}

TEST(SimDeterminism, DifferentSeedsDiffer) {
  const Fixture fx(43);
  SimOptions a_opts, b_opts;
  a_opts.horizon = b_opts.horizon = 600.0;
  a_opts.seed = 7;
  b_opts.seed = 8;
  const auto a = simulate_allocation(fx.allocation, a_opts);
  const auto b = simulate_allocation(fx.allocation, b_opts);
  ASSERT_FALSE(a.clients.empty());
  EXPECT_NE(a.clients[0].mean_response, b.clients[0].mean_response);
}

TEST(ReplicationSeeds, DeterministicAndDistinct) {
  const auto a = replication_seeds(99, 16);
  const auto b = replication_seeds(99, 16);
  EXPECT_EQ(a, b);
  for (std::size_t i = 0; i < a.size(); ++i)
    for (std::size_t j = i + 1; j < a.size(); ++j)
      EXPECT_NE(a[i], a[j]) << "replications " << i << " and " << j;
  // The schedule is a prefix property: raising R extends it, so cached
  // low-R results stay comparable.
  const auto prefix = replication_seeds(99, 4);
  EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), a.begin()));
}

// The acceptance bar of the parallel fan-out: every thread count must
// produce the 1-thread merged report bit for bit. The caller helps a pool
// of num_threads - 1 workers, so 2, 3 and 4 threads cover pools of 1, 2
// and 3 workers, and 8 (capped at the 8 replications) one of 7.
TEST(ReplicationDeterminism, IdenticalAtOneAndFourThreads) {
  const Fixture fx(47);
  ReplicationOptions opts;
  opts.sim.horizon = 400.0;
  opts.sim.seed = 3;
  opts.replications = 8;
  opts.num_threads = 1;
  const auto base = run_replications(fx.allocation, opts);
  EXPECT_EQ(base.replications, 8);
  EXPECT_GT(base.total_completed, 0u);
  for (int threads : {2, 3, 4, 8}) {
    ReplicationOptions topts = opts;
    topts.num_threads = threads;
    const auto run = run_replications(fx.allocation, topts);
    expect_identical(base, run);
  }
}

// Golden report: a fixed 12-client run_replications with tail percentiles
// on, compared bit for bit with hex-float literals recorded when the
// percentiles were still taken from fully sorted copies. ci95 is the
// Student-t half-width over the 8 per-replication means (t = 2.365 at 7
// degrees of freedom), recomputed from the same runs.
TEST(ReplicationGolden, TwelveClientReportIsBitExact) {
  const Fixture fx(61);
  ReplicationOptions opts;
  opts.sim.horizon = 400.0;
  opts.sim.seed = 17;
  opts.replications = 8;
  ASSERT_TRUE(opts.sim.collect_percentiles);

  struct Golden {
    int id;
    int observations;
    double mean_response, ci95, p50, p95, p99;
  };
  const Golden golden[] = {
      {0, 8,
       0x1.5d8c0c40d2022p-1, 0x1.15f8d83fd3357p-5,
       0x1.240cd2dabd18p-1, 0x1.a812117f1dc13p+0, 0x1.18b5c23ab86bdp+1},
      {1, 8,
       0x1.736204e5373b1p-1, 0x1.21494759e2347p-5,
       0x1.37ea679918ab8p-1, 0x1.c50a5e08ec51fp+0, 0x1.2e986e16c172dp+1},
      {2, 8,
       0x1.b50562b011fp-2, 0x1.2df3edae58fe3p-7,
       0x1.7432de6c8c258p-2, 0x1.0076309da1563p+0, 0x1.69d3a1555d66ep+0},
      {3, 8,
       0x1.0d7c7b96b3dfcp+0, 0x1.fed26afe805bp-5,
       0x1.c844000d1eb4p-1, 0x1.41ae11d25ebbdp+1, 0x1.bcb756dac95dp+1},
      {4, 8,
       0x1.776971aac62a5p-1, 0x1.a5a2c77949afdp-5,
       0x1.3461d359880e8p-1, 0x1.c8242158ed3c1p+0, 0x1.4346cd714092dp+1},
      {5, 8,
       0x1.163fd90060456p-1, 0x1.2c0bb3af322dfp-6,
       0x1.ce1559e236068p-2, 0x1.52191aca41797p+0, 0x1.eb91fea59f213p+0},
      {6, 8,
       0x1.d124ebc41b86fp-1, 0x1.8ae16325f3cffp-5,
       0x1.8aeb06c5f9038p-1, 0x1.1086856ad51cbp+1, 0x1.68d9f850a1646p+1},
      {7, 8,
       0x1.3b5daec7d349fp+0, 0x1.1f754c7f3821dp-4,
       0x1.0fd57ea5a8548p+0, 0x1.6e3ec52be42b2p+1, 0x1.e3a3325a9456ep+1},
      {8, 8,
       0x1.8ab53900798b6p-1, 0x1.f722a416bff13p-6,
       0x1.4640920422c48p-1, 0x1.e19efed661dc6p+0, 0x1.5501cbcad2094p+1},
      {9, 8,
       0x1.a32a86a0c251ap-1, 0x1.f35bafdce7a76p-5,
       0x1.5fae1e4f0e0f4p-1, 0x1.f8a3f8035c50fp+0, 0x1.4ec36a1b1b309p+1},
      {10, 8,
       0x1.490148b6da90fp-1, 0x1.9fd0037e413ap-6,
       0x1.1492f78378771p-1, 0x1.7f64a5b857a98p+0, 0x1.0811d05b4acd6p+1},
      {11, 8,
       0x1.792b6c51f6f6cp-1, 0x1.1f90d1c7950edp-4,
       0x1.30eb987a96e08p-1, 0x1.dba7c35a0e895p+0, 0x1.50eafd4fb32dbp+1},
  };
  for (int threads : {1, 4}) {
    opts.num_threads = threads;
    const ReplicationReport report = run_replications(fx.allocation, opts);
    EXPECT_EQ(report.total_completed, 95581u);
    EXPECT_EQ(report.events_executed, 318888u);
    EXPECT_EQ(report.mean_abs_rel_error, 0x1.0866cecf6924fp-6);
    ASSERT_EQ(report.clients.size(), std::size(golden));
    for (std::size_t c = 0; c < std::size(golden); ++c) {
      const ClientReplicationStats& got = report.clients[c];
      const Golden& want = golden[c];
      EXPECT_EQ(got.id.value(), want.id);
      EXPECT_EQ(got.observations, want.observations);
      EXPECT_EQ(got.mean_response, want.mean_response) << "client " << c;
      EXPECT_EQ(got.ci95, want.ci95) << "client " << c;
      EXPECT_EQ(got.p50, want.p50) << "client " << c;
      EXPECT_EQ(got.p95, want.p95) << "client " << c;
      EXPECT_EQ(got.p99, want.p99) << "client " << c;
    }
  }
}

TEST(ReplicationRunner, AcrossReplicationCiIsProper) {
  const Fixture fx(53);
  ReplicationOptions opts;
  opts.sim.horizon = 500.0;
  opts.sim.seed = 5;
  opts.replications = 8;
  const auto report = run_replications(fx.allocation, opts);
  ASSERT_FALSE(report.clients.empty());
  for (const auto& c : report.clients) {
    if (c.observations < 2) continue;
    EXPECT_GT(c.ci95, 0.0) << "client " << c.id;
    EXPECT_GT(c.mean_response, 0.0);
    EXPECT_LE(c.observations, opts.replications);
  }
}

TEST(ReplicationRunner, SingleReplicationMatchesDirectRun) {
  // R = 1 degenerates to one simulation at the first derived seed; the
  // merged means must equal that run's means exactly (and the
  // across-replication CI collapses to 0 with a single observation).
  const Fixture fx(59);
  ReplicationOptions opts;
  opts.sim.horizon = 400.0;
  opts.sim.seed = 11;
  opts.replications = 1;
  const auto merged = run_replications(fx.allocation, opts);
  SimOptions direct = opts.sim;
  direct.seed = replication_seeds(opts.sim.seed, 1)[0];
  const auto single = simulate_allocation(fx.allocation, direct);
  ASSERT_EQ(merged.clients.size(), single.clients.size());
  for (std::size_t c = 0; c < merged.clients.size(); ++c) {
    EXPECT_EQ(merged.clients[c].completed_total, single.clients[c].completed);
    if (single.clients[c].completed == 0) continue;
    EXPECT_DOUBLE_EQ(merged.clients[c].mean_response,
                     single.clients[c].mean_response);
    EXPECT_DOUBLE_EQ(merged.clients[c].ci95, 0.0);
  }
}

}  // namespace
}  // namespace cloudalloc::sim
