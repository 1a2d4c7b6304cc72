// Adjust_DispersionRates (Section V-B): the dual of Adjust_ResourceShares.
// With GPS shares frozen, one client's traffic split psi over its current
// slices is re-optimized by the convex dispersion solver. Slices driven to
// (near) zero are dropped, releasing their shares and disk — this is the
// paper's consolidation lever inside a cluster.
//
// Each re-split is a plan and a commit. The plan (items, solve, new
// placements) reads only client i's own slices, their server classes and
// the cloud constants, none of which another client's commit touches; so
// adjust_all_dispersions plans every split client on the ParallelEval pool
// from the state as it enters, then commits in client-id order on the
// caller — settle profit, assign, the migration-penalty gate and revert —
// exactly the single-client loop, bit for bit at every worker count
// (DESIGN.md §7, §9).
#pragma once

#include <cstdint>

#include "alloc/options.h"
#include "dist/parallel_eval.h"
#include "model/alloc_state.h"

namespace cloudalloc::alloc {

/// Work counters of one adjust_all_dispersions pass. Both are pure
/// functions of the input state, equal at every worker count.
struct DispersionCounters {
  std::int64_t solved = 0;    ///< convex solves (clients with >= 2 slices)
  std::int64_t reverted = 0;  ///< re-splits undone by the profit gate
};

/// Re-splits client i's traffic across its current servers. Returns the
/// realized profit delta (0 when skipped or reverted).
double adjust_dispersion_rates(model::AllocState& state, model::ClientId i,
                               const AllocatorOptions& opts);

/// Runs the adjustment for every assigned client (plans fanned out on
/// `eval`, commits in client-id order); returns the total delta.
double adjust_all_dispersions(model::AllocState& state,
                              const AllocatorOptions& opts,
                              const dist::ParallelEval& eval = {},
                              DispersionCounters* counters = nullptr);

}  // namespace cloudalloc::alloc
