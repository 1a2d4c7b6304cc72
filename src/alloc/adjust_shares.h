// Adjust_ResourceShares (Section V-B-1): per-server convex reallocation of
// GPS shares with dispersion rates frozen. For each resource (processing,
// communication) the shares of all slices on the server are re-balanced by
// the KKT water-filling solver; the paper shows the minimization form is
// convex, so the closed form + bisection is exact for the linearized
// utility. Applied only when it does not decrease the true (clipped)
// profit, which keeps the outer local search monotone.
//
// Each server's rebalance is a plan and a commit. The plan reads only the
// clients on j, the psi of their slices on j and the cloud constants —
// never a share — so another server's commit leaves it valid, except that
// assign() re-lists a re-assigned client last on each of its servers and
// the solver's sums follow that order. adjust_all_shares plans every
// active server on the ParallelEval pool from the state as it enters,
// then commits in server-id order on the caller, planning again any server
// whose client order moved: bit for bit the single-server loop at every
// worker count (DESIGN.md §7, §9).
#pragma once

#include "alloc/options.h"
#include "dist/parallel_eval.h"
#include "model/alloc_state.h"

namespace cloudalloc::alloc {

/// Re-balances both resources' shares on server j. Returns the profit
/// delta actually realized (0 when the step was skipped or reverted).
double adjust_resource_shares(model::AllocState& state, model::ServerId j,
                              const AllocatorOptions& opts);

/// Runs adjust_resource_shares over every active server (plans fanned out
/// on `eval`, commits in server-id order); returns the total realized
/// profit delta.
double adjust_all_shares(model::AllocState& state,
                         const AllocatorOptions& opts,
                         const dist::ParallelEval& eval = {});

}  // namespace cloudalloc::alloc
