// TurnON_servers / TurnOFF_servers (Section V-B-2): the integer moves of
// the local search, trading utility improvements against server operation
// cost.
//
// TurnON: for each server class with an inactive unit in the cluster, one
// candidate server is provisionally opened; degraded clients "bid" by
// re-running their full insertion with the candidate available, with the
// fixed cost P0 treated as sunk during bidding (the paper's decomposition)
// and charged at the commit gate: the whole bundle is kept only if true
// profit improved. A candidate run in which no plan placed a slice on the
// candidate is the candidate-independent trajectory; it is discarded, and
// every later candidate that trajectory never touched is skipped without
// bidding, since it would replay the same plans and be discarded too
// (DESIGN.md "Cluster trials and the in-order commit").
//
// TurnOFF: active servers are ranked by their approximated utility
// contribution, lowest first; each candidate's clients are evicted and
// re-inserted over the remaining *active* servers of the cluster, and the
// shutdown is committed only if true profit improved.
// Sweep (adjust_server_power): both passes stay inside one cluster, so
// each cluster runs on a cluster-scoped trial (AllocState::extract_cluster)
// and clusters run concurrently on the ParallelEval pool, up to one trial
// per executor (the workers and the helping caller), all extracted from
// the frozen state. Results fold in cluster
// order; the first cluster that committed anything is merged and the
// clusters after it are run again from the merged state. That replays the
// sequential sweep bit for bit at any worker count (DESIGN.md "Cluster
// trials and the in-order commit").
#pragma once

#include <cstdint>

#include "alloc/options.h"
#include "dist/parallel_eval.h"
#include "model/alloc_state.h"

namespace cloudalloc::alloc {

/// Deterministic work counters of the TurnON/TurnOFF passes. Every field
/// but speculative_reruns is a pure function of the input state, equal at
/// every worker count; re-runs count trials thrown away because an earlier
/// cluster in the same window committed (always 0 with one worker).
struct PowerCounters {
  std::int64_t cluster_visits = 0;
  std::int64_t commits = 0;  ///< bundles and shutdowns adopted
  std::int64_t turn_on_bids = 0;  ///< bids run; a skipped candidate runs none
  std::int64_t turn_on_rollbacks = 0;
  std::int64_t turn_on_skipped = 0;  ///< candidates answered by a neutral run
  std::int64_t turn_on_bundles = 0;  ///< bundles judged at the profit gate
  std::int64_t turn_off_probes = 0;
  std::int64_t turn_off_screened = 0;
  std::int64_t turn_off_materialized = 0;
  std::int64_t speculative_reruns = 0;

  PowerCounters& operator+=(const PowerCounters& o);
  friend bool operator==(const PowerCounters&,
                         const PowerCounters&) = default;
};

/// One TurnON pass over cluster k. Returns the realized profit delta.
double turn_on_servers(model::AllocState& state, model::ClusterId k,
                       const AllocatorOptions& opts,
                       PowerCounters* counters = nullptr);

/// One TurnOFF pass over cluster k. Returns the realized profit delta.
double turn_off_servers(model::AllocState& state, model::ClusterId k,
                        const AllocatorOptions& opts,
                        PowerCounters* counters = nullptr);

/// Runs both passes over every cluster (see the sweep note above);
/// returns the total delta, summed in cluster order.
double adjust_server_power(model::AllocState& state,
                           const AllocatorOptions& opts,
                           const dist::ParallelEval& eval = {},
                           PowerCounters* counters = nullptr);

}  // namespace cloudalloc::alloc
