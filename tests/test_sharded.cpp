// Shard-count determinism of the sharded greedy (alloc/sharded.h): every
// plan in a block is priced against the frozen block snapshot, so the
// resulting allocation must be bit-identical at ANY shard count and
// thread count, with pruning on or off. Also covered: the cluster_fanout
// probe window is a pure function of the client id, and sharded results
// stay feasible. ShardedMerge.* pins the parallel merge: the window
// intersection rule and conflict map against brute force, bit-identity
// with the inline merge at 1-4 threads, and nested and concurrent callers.
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "alloc/allocator.h"
#include "alloc/initial.h"
#include "alloc/sharded.h"
#include "common/rng.h"
#include "dist/parallel_eval.h"
#include "dist/thread_pool.h"
#include "model/evaluator.h"
#include "model/feasibility.h"
#include "workload/scenario.h"

namespace cloudalloc::alloc {
namespace {

model::Cloud make_cloud(int clients, std::uint64_t seed) {
  workload::ScenarioParams params;
  params.num_clients = clients;
  params.servers_per_cluster = 10;
  return workload::make_scenario(params, seed);
}

std::vector<model::ClientId> shuffled_order(const model::Cloud& cloud,
                                            std::uint64_t seed) {
  std::vector<model::ClientId> order;
  for (model::ClientId i : cloud.client_ids()) order.push_back(i);
  Rng rng(seed);
  rng.shuffle(order);
  return order;
}

void expect_identical(const model::Allocation& a, const model::Allocation& b) {
  const auto& cloud = a.cloud();
  for (model::ClientId i : cloud.client_ids()) {
    ASSERT_EQ(a.is_assigned(i), b.is_assigned(i)) << "client " << i;
    if (!a.is_assigned(i)) continue;
    EXPECT_EQ(a.cluster_of(i), b.cluster_of(i));
    const auto& pa = a.placements(i);
    const auto& pb = b.placements(i);
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t s = 0; s < pa.size(); ++s) {
      EXPECT_EQ(pa[s].server, pb[s].server);
      EXPECT_EQ(pa[s].psi, pb[s].psi);
      EXPECT_EQ(pa[s].phi_p, pb[s].phi_p);
      EXPECT_EQ(pa[s].phi_n, pb[s].phi_n);
    }
  }
}

// The core contract: one greedy pass, same order, shard counts 1/2/4/8,
// pruning on and off — six runs, one allocation.
TEST(ShardedGreedy, BitIdenticalAcrossShardCountsAndPruning) {
  const auto cloud = make_cloud(90, 11);
  const auto order = shuffled_order(cloud, 7);

  AllocatorOptions base_opts;
  base_opts.num_shards = 1;
  const model::Allocation base =
      sharded_greedy_insert(model::Allocation(cloud), order, base_opts);
  const double base_profit = model::profit(base);
  EXPECT_GT(base_profit, 0.0);

  for (int shards : {1, 2, 4, 8}) {
    for (int topk : {10, 0}) {  // 0 disables candidate pruning entirely
      AllocatorOptions opts;
      opts.num_shards = shards;
      opts.candidate_topk = topk;
      const model::Allocation run =
          sharded_greedy_insert(model::Allocation(cloud), order, opts);
      EXPECT_EQ(model::profit(run), base_profit)
          << "shards " << shards << " topk " << topk;
      expect_identical(base, run);
    }
  }
}

// End to end: the full allocator (multi-start + local search) in sharded
// mode is a pure function of the scenario at any shard/thread count, with
// every probe window on the ring (5 clusters) and with fanout-4 windows on
// a 12-cluster ring, where the merge resolves window-disjoint clients
// concurrently. The merge's re-price counter is exact at every count too.
TEST(ShardedGreedy, FullAllocatorBitIdenticalAcrossShardsAndThreads) {
  workload::ScenarioParams wide;
  wide.num_clients = 80;
  wide.num_clusters = 12;
  wide.servers_per_cluster = 6;
  struct Case {
    model::Cloud cloud;
    int fanout;
  };
  const Case cases[] = {{make_cloud(60, 13), 0},
                        {workload::make_scenario(wide, 13), 4}};
  for (const Case& c : cases) {
    AllocatorOptions opts;
    opts.seed = 5;
    opts.num_initial_solutions = 2;
    opts.max_local_search_rounds = 3;
    opts.cluster_fanout = c.fanout;
    opts.num_shards = 1;
    opts.num_threads = 1;
    const auto base = ResourceAllocator(opts).run(c.cloud);

    for (int shards : {2, 4, 8}) {
      for (int threads : {1, 2, 4}) {
        AllocatorOptions sopts = opts;
        sopts.num_shards = shards;
        sopts.num_threads = threads;
        const auto run = ResourceAllocator(sopts).run(c.cloud);
        EXPECT_EQ(run.report.final_profit, base.report.final_profit)
            << "fanout " << c.fanout << " shards " << shards << " threads "
            << threads;
        EXPECT_EQ(run.report.merge_repriced, base.report.merge_repriced);
        expect_identical(base.allocation, run.allocation);
      }
    }
  }
}

TEST(ShardedGreedy, ProducesFeasibleAllocation) {
  const auto cloud = make_cloud(70, 17);
  const auto order = shuffled_order(cloud, 3);
  AllocatorOptions opts;
  opts.num_shards = 4;
  const model::Allocation alloc =
      sharded_greedy_insert(model::Allocation(cloud), order, opts);
  const auto violations = model::check_feasibility(alloc);
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : violations.front().describe());
}

TEST(ShardedGreedy, EmptyOrderIsANoOp) {
  const auto cloud = make_cloud(10, 19);
  AllocatorOptions opts;
  opts.num_shards = 4;
  const model::Allocation alloc =
      sharded_greedy_insert(model::Allocation(cloud), {}, opts);
  for (model::ClientId i : cloud.client_ids())
    EXPECT_FALSE(alloc.is_assigned(i));
}

// cluster_fanout restricts probing but stays deterministic and feasible:
// same options, two runs, identical allocations; the window never probes
// the same client into different clusters across shard counts.
TEST(ClusterFanout, DeterministicAndFeasible) {
  workload::ScenarioParams params;
  params.num_clients = 80;
  params.num_clusters = 10;
  params.servers_per_cluster = 6;
  const auto cloud = workload::make_scenario(params, 23);
  const auto order = shuffled_order(cloud, 5);

  AllocatorOptions opts;
  opts.num_shards = 1;
  opts.cluster_fanout = 3;
  const model::Allocation a =
      sharded_greedy_insert(model::Allocation(cloud), order, opts);
  EXPECT_TRUE(model::is_feasible(a));
  EXPECT_GT(model::profit(a), 0.0);

  for (int shards : {2, 8}) {
    AllocatorOptions sopts = opts;
    sopts.num_shards = shards;
    const model::Allocation b =
        sharded_greedy_insert(model::Allocation(cloud), order, sopts);
    expect_identical(a, b);
  }
}

// --- ShardedMerge: the parallel merge ------------------------------------

// The clusters a window covers, by walking the ring.
std::vector<int> window_clusters(const ProbeWindow& w, int num_clusters) {
  std::vector<int> out;
  for (int t = 0; t < w.width; ++t) out.push_back((w.start + t) % num_clusters);
  return out;
}

bool share_a_cluster(const ProbeWindow& a, const ProbeWindow& b,
                     int num_clusters) {
  for (int x : window_clusters(a, num_clusters))
    for (int y : window_clusters(b, num_clusters))
      if (x == y) return true;
  return false;
}

// The intersection predicate against explicit cluster sets, over every
// pair of starts on small rings: wrap-around, width 1 and windows that
// cover half the ring or more.
TEST(ShardedMerge, WindowIntersectionMatchesBruteForce) {
  for (int k = 1; k <= 11; ++k) {
    for (int width = 1; width <= k; ++width) {
      for (int sa = 0; sa < k; ++sa) {
        for (int sb = 0; sb < k; ++sb) {
          const ProbeWindow a{sa, width};
          const ProbeWindow b{sb, width};
          EXPECT_EQ(windows_intersect(a, b, k), share_a_cluster(a, b, k))
              << "K " << k << " width " << width << " starts " << sa << ","
              << sb;
          if (2 * width - 1 >= k) {
            EXPECT_TRUE(windows_intersect(a, b, k));
          }
        }
      }
    }
  }
}

// probe_window: a fanout of 0 or at least the ring probes the whole ring
// from cluster 0; a narrower one keeps its width and a start on the ring.
TEST(ShardedMerge, ProbeWindowShape) {
  for (int k = 1; k <= 9; ++k) {
    for (int fanout = 0; fanout <= k + 1; ++fanout) {
      for (int id = 0; id < 40; ++id) {
        const ProbeWindow w = probe_window(model::ClientId{id}, k, fanout);
        if (fanout == 0 || fanout >= k) {
          EXPECT_EQ(w.start, 0);
          EXPECT_EQ(w.width, k);
        } else {
          EXPECT_EQ(w.width, fanout);
          EXPECT_GE(w.start, 0);
          EXPECT_LT(w.start, k);
        }
      }
    }
  }
}

// The conflict map against the predicate: need[idx] is 1 + the last
// earlier position whose window intersects idx's, and a false return
// (a sequential chain) only when every pair of windows intersects.
TEST(ShardedMerge, ConflictHorizonMatchesBruteForce) {
  Rng rng(29);
  for (int k = 1; k <= 12; ++k) {
    for (int fanout = 0; fanout <= k + 1; ++fanout) {
      std::vector<model::ClientId> clients;
      for (int idx = 0; idx < 60; ++idx)
        clients.push_back(model::ClientId{static_cast<int>(rng.uniform_int(0, 4999))});
      std::vector<int> need;
      const bool disjoint = conflict_horizon(
          clients.data(), static_cast<int>(clients.size()), k, fanout, need);
      ASSERT_EQ(need.size(), clients.size());
      for (std::size_t idx = 0; idx < clients.size(); ++idx) {
        const ProbeWindow wi = probe_window(clients[idx], k, fanout);
        int want = 0;
        for (std::size_t j = 0; j < idx; ++j)
          if (windows_intersect(probe_window(clients[j], k, fanout), wi, k))
            want = static_cast<int>(j) + 1;
        if (disjoint) {
          EXPECT_EQ(need[idx], want) << "K " << k << " fanout " << fanout;
        } else {
          EXPECT_EQ(need[idx], static_cast<int>(idx));
          EXPECT_EQ(want, static_cast<int>(idx));
        }
      }
      EXPECT_EQ(disjoint, fanout > 0 && 2 * fanout - 1 < k);
    }
  }
}

model::Cloud merge_cloud() {
  // More clients than the 1024-client block, on a 16-cluster ring whose
  // capacity runs out, so later blocks re-price many stale plans.
  workload::ScenarioParams params;
  params.num_clients = 1300;
  params.num_clusters = 16;
  params.servers_per_cluster = 8;
  return workload::make_scenario(params, 31);
}

// Every thread count matches the inline run, for windows narrower than
// the ring (fanout 1, 3 and 5 on 16 clusters, wrapping past the last),
// with allow_rejection on and off, and for the chains fanout 0 and a
// fanout with 2F-1 >= K.
TEST(ShardedMerge, BitIdenticalAcrossThreadCounts) {
  const auto cloud = merge_cloud();
  const auto order = shuffled_order(cloud, 37);
  for (int fanout : {1, 3, 5, 0, 9}) {
    for (bool reject : {false, true}) {
      AllocatorOptions opts;
      opts.num_shards = 4;
      opts.cluster_fanout = fanout;
      opts.allow_rejection = reject;
      int inline_repriced = 0;
      const model::Allocation inline_run = sharded_greedy_insert(
          model::Allocation(cloud), order, opts, {}, &inline_repriced);
      if (fanout == 3) {
        EXPECT_GT(inline_repriced, 0);
      }
      for (int threads = 1; threads <= 4; ++threads) {
        int repriced = 0;
        const model::Allocation run = sharded_greedy_insert(
            model::Allocation(cloud), order, opts,
            dist::ParallelEval(dist::shared_pool_for(threads)), &repriced);
        EXPECT_EQ(model::profit(run), model::profit(inline_run))
            << "fanout " << fanout << " reject " << reject << " threads "
            << threads;
        EXPECT_EQ(repriced, inline_repriced);
        expect_identical(inline_run, run);
      }
    }
  }
}

// The merge's executors never block, so it finishes and matches when run
// from inside a pool task (its fan-out nests) and from two callers
// sharing one pool at once.
TEST(ShardedMerge, NestedAndConcurrentCallersFinishAndMatch) {
  const auto cloud = merge_cloud();
  const auto order = shuffled_order(cloud, 41);
  AllocatorOptions opts;
  opts.num_shards = 4;
  opts.cluster_fanout = 3;
  const model::Allocation want =
      sharded_greedy_insert(model::Allocation(cloud), order, opts);

  dist::ThreadPool* pool = dist::shared_pool_for(3);
  ASSERT_NE(pool, nullptr);
  const dist::ParallelEval eval(pool);

  std::optional<model::Allocation> nested;
  pool->submit([&] {
        nested = sharded_greedy_insert(model::Allocation(cloud), order, opts,
                                       eval);
      }).get();
  ASSERT_TRUE(nested.has_value());
  expect_identical(want, *nested);

  std::optional<model::Allocation> first, second;
  std::thread other([&] {
    first = sharded_greedy_insert(model::Allocation(cloud), order, opts, eval);
  });
  second = sharded_greedy_insert(model::Allocation(cloud), order, opts, eval);
  other.join();
  ASSERT_TRUE(first.has_value() && second.has_value());
  expect_identical(want, *first);
  expect_identical(want, *second);
}

}  // namespace
}  // namespace cloudalloc::alloc
