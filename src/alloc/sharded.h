// Sharded (block-synchronous) greedy construction for 100k-client scale.
//
// The historical greedy inserts clients strictly sequentially: each probe
// prices against the state left by every earlier insertion, which is
// inherently serial. This variant trades a bounded amount of pricing
// staleness for parallelism: clients are consumed in fixed-size blocks,
// every client in a block is priced with best_insertion against a FROZEN
// ResidualView snapshot of the block start (the shards — each shard
// copies the flat snapshot and probes its slice of the block on
// dist::ParallelEval), and the resulting plans are then merged in block
// order through MoveEngine: a capacity revalidation (fits) against the
// live engine, a live re-price when the snapshot plan no longer fits, and
// an unconditional apply (the greedy serves every feasible client;
// admission control stays the allow_rejection check, as in the
// sequential path).
//
// The merge runs its live re-prices in parallel: a client's revalidation
// and re-price read only its cluster_fanout probe window, so it may run as
// soon as every earlier client whose window intersects its own is
// committed, while one committer applies the plans strictly in block
// order. When every pair of windows intersects (fanout 0, or windows
// covering half the ring), or `eval` is inline, the same loop runs on the
// caller alone.
//
// Determinism: every plan is a pure function of the frozen snapshot
// values — shard boundaries only partition WHO computes it — each
// re-price sees exactly the window state the sequential merge gave it,
// and the commit order is the fixed client order, so the resulting
// allocation is bit-identical at any shard count and any thread count. It
// is NOT the sequential greedy's allocation (block snapshots price a
// little staler than the live state); num_shards = 0 in AllocatorOptions
// keeps the historical path.
#pragma once

#include <vector>

#include "alloc/options.h"
#include "dist/parallel_eval.h"
#include "model/allocation.h"

namespace cloudalloc::alloc {

/// One sharded greedy pass over `order` starting from `base` (which
/// carries background load and possibly earlier epochs' state). Uses
/// max(1, opts.num_shards) shards per block on `eval`. When
/// `merge_repriced` is non-null, adds the number of snapshot plans that
/// failed `fits` at merge time and were re-priced live.
model::Allocation sharded_greedy_insert(const model::Allocation& base,
                                        const std::vector<model::ClientId>& order,
                                        const AllocatorOptions& opts,
                                        const dist::ParallelEval& eval = {},
                                        int* merge_repriced = nullptr);

/// The merge's conflict map over clients[0..len): need[idx] is 1 + the
/// position of the last earlier client whose probe window (probe_window)
/// intersects client idx's, or 0 when none does. Returns false, with
/// need[idx] = idx, when every pair of windows intersects.
bool conflict_horizon(const model::ClientId* clients, int len,
                      int num_clusters, int fanout, std::vector<int>& need);

}  // namespace cloudalloc::alloc
