// AllocState: the transactional allocation-state engine.
//
// One AllocState owns BOTH state representations the heuristic needs and
// keeps them bitwise-synchronized behind a single mutation API:
//
//   - the `ledger` Allocation — authoritative placements, incremental
//     profit caches, and the materialization/serialization surface, and
//   - the `view` ResidualView — the flat SoA residual arrays every
//     speculative probe (Assign_Distribute, delta pricing) runs against.
//
// The lifecycle every layer follows is propose -> delta-price -> commit /
// rollback: speculation happens on the view with the bitwise Undo log
// (remove_client/add_client/restore round-trips are lossless), and only a
// committed move goes through assign()/clear(), which mutate the ledger
// and then resync the touched servers' view entries from it — resync
// rather than replay, because the ledger's own remove/add arithmetic can
// drift by ulps while the view's restore is exact. A view probe against a
// synced engine is therefore bit-identical to probing the ledger itself
// (the accessors evaluate the same expressions over the same bits).
//
// Copies happen only at documented boundaries:
//   - extract_cluster()/merge_cluster(): a cluster-scoped trial for the
//     moves that never leave one cluster (TurnON/TurnOFF). The trial is a
//     standalone engine over a one-cluster slice of the cloud holding only
//     that cluster's rows plus the running profit scalars, so it costs
//     O(cluster), not O(cloud); merging copies the rows back bitwise.
//   - branch()/adopt(): full-fidelity trial states for clone-try-swap
//     phases (TurnON/TurnOFF branch their cluster trial). A branch carries
//     the ledger's exact cache state, so a swapped-in branch is bitwise
//     what mutating in place and rolling forward would have produced.
//   - checkpoint()/materialize(): best-so-far tracking. A Checkpoint is
//     placements + the tracked profit scalar only — no caches, no
//     aggregates — and materialize() rebuilds a plain Allocation from it
//     at report/serialize boundaries. The materialized allocation's
//     incrementally-derived aggregates may differ from the historical
//     state by ulps (summation order), which is why the profit REPORTED
//     for a checkpoint is the carried scalar, not a re-evaluation.
//
// Invariant contract: aggregates_consistent() revalidates the engine
// against a from-scratch recomputation — ledger aggregates within a
// relative tolerance of recomputed sums (incremental maintenance may
// drift by ulps; emptied servers reset exactly), and the view bitwise
// equal to the ledger. check_invariants() CHECKs it (always compiled);
// debug_check_invariants() is the NDEBUG-gated form the allocator and the
// distributed manager call at phase boundaries.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "model/allocation.h"
#include "model/residual.h"

namespace cloudalloc::model {

class ClusterTrial;

class AllocState {
 public:
  /// Empty state over `cloud`.
  explicit AllocState(const Cloud& cloud) : ledger_(cloud), view_(ledger_) {}

  /// Adopts an existing allocation as the ledger (no copy when moved in).
  explicit AllocState(Allocation ledger)
      : ledger_(std::move(ledger)), view_(ledger_) {}

  AllocState(AllocState&&) = default;
  AllocState& operator=(AllocState&&) = default;

  const Cloud& cloud() const { return ledger_.cloud(); }

  /// Authoritative read surface: placements, response times, profit
  /// caches. Mutate only through the engine.
  const Allocation& ledger() const { return ledger_; }

  /// The SoA probe surface. Mutable access is for SPECULATION ONLY:
  /// remove_client/add_client excursions must be bitwise undone
  /// (restore()) before the next engine operation, or the view desyncs.
  ResidualView& view() { return view_; }
  const ResidualView& view() const { return view_; }

  // --- committed mutations (ledger + view stay in lockstep) --------------

  /// Allocation::assign + resync of every touched server's view entry.
  void assign(ClientId i, ClusterId k, std::vector<Placement> ps);

  /// Allocation::clear + resync.
  void clear(ClientId i);

  /// model::profit(ledger) — settles the ledger's caches. Call sites map
  /// 1:1 onto the pre-engine profit calls: the cache-repair sequence (and
  /// with it the rebase schedule) is part of the bit-identity contract.
  double profit();

  // --- trial states (clone-try-swap boundaries) --------------------------

  /// Full-fidelity copy — ledger caches and view included — for phases
  /// that speculate on a whole trial state and swap it in on success.
  AllocState branch() const { return AllocState(*this); }

  /// Swaps a branch in (the engine equivalent of `alloc = std::move(t)`).
  void adopt(AllocState&& other) {
    ledger_ = std::move(other.ledger_);
    view_ = std::move(other.view_);
  }

  // --- cluster-scoped trials (see ClusterTrial) -------------------------

  /// Copies cluster k's rows out into a standalone trial: the ledger rows
  /// of its servers and of the clients placed on them, those servers' view
  /// rows, the matching revenue/cost cache entries, and the running
  /// profit_total/repair count unchanged. The state must be settled
  /// (profit_settled()) and must stay frozen while the trial lives: the
  /// trial's drift rebase reads the other clusters' cache rows from it.
  /// Pure reads, so several trials may be extracted and run concurrently.
  ClusterTrial extract_cluster(ClusterId k) const;

  /// Copies a settled trial's rows and profit scalars back over cluster
  /// k's, bitwise (no assign replay), then audits the merged rows — view
  /// equal to ledger, carried total equal to the trial's — in every build
  /// mode, at O(cluster) cost. The trial must have been extracted from
  /// this state, with no other change to it since.
  void merge_cluster(ClusterTrial&& trial);

  /// Pending cache repairs set aside by settle_reversibly().
  struct PendingRepairs {
    std::vector<ClientId> clients;
    std::vector<double> revenue;  ///< cache values the repairs overwrote
    std::vector<ServerId> servers;
    std::vector<double> cost;
    double profit_total = 0.0;
    std::size_t repairs = 0;
  };

  /// Settles the profit caches (like profit()) and returns what that
  /// replaced, so unsettle() can put the unsettled state back bit for bit.
  PendingRepairs settle_reversibly();

  /// Undoes settle_reversibly(); only valid with no mutation in between.
  void unsettle(const PendingRepairs& pending);

  // --- placement checkpoints (best-so-far tracking) ----------------------

  /// Placements plus the tracked profit scalar; far cheaper than an
  /// Allocation clone (no caches, no per-server lists).
  struct Checkpoint {
    std::vector<ClusterId> cluster_of;
    std::vector<std::vector<Placement>> placements;
    double profit = 0.0;
  };

  Checkpoint checkpoint(double profit) const;

  /// Rebuilds a plain Allocation from a checkpoint — the only place the
  /// engine hands out allocation-state copies (report/serialize
  /// boundaries). See the class comment on ulp-level aggregate drift.
  Allocation materialize(const Checkpoint& ckpt) const;

  /// Steals the ledger (engine is dead afterwards).
  Allocation release() && { return std::move(ledger_); }

  // --- invariant checker -------------------------------------------------

  /// From-scratch revalidation: recomputed per-server sums vs the
  /// ledger's incremental aggregates (relative tolerance `tol`), hosted
  /// counts exact, and the view bitwise equal to the ledger.
  bool aggregates_consistent(double tol = 1e-9) const;

  /// CHECK(aggregates_consistent()) — always compiled.
  void check_invariants() const;

  /// Phase-boundary form: compiled out under NDEBUG (release builds).
  void debug_check_invariants() const {
#ifndef NDEBUG
    check_invariants();
#endif
  }

  /// Test hook: perturbs one ledger aggregate so invariant tests can
  /// prove the checker trips. Never called outside tests.
  void corrupt_aggregate_for_test(ServerId j, double delta);

  /// Test hook: perturbs one view row (processing share in use) so tests
  /// can prove the merge audit trips. Never called outside tests.
  void corrupt_view_for_test(ServerId j, double delta);

  /// Test hook: sets the ledger's repair count since its last drift
  /// rebase, so tests can place the rebase inside a cluster trial.
  void set_repairs_for_test(std::size_t repairs);

 private:
  AllocState(const AllocState&) = default;

  /// The release-mode merge audit (see merge_cluster).
  void audit_merged_cluster(ClusterId k, double trial_total) const;

  Allocation ledger_;
  ResidualView view_;
  std::vector<ServerId> touched_;  ///< scratch for resync batching
};

/// One cluster's rows of a parent AllocState as a standalone engine over a
/// one-cluster slice of the cloud (Cloud::cluster_slice), made by
/// AllocState::extract_cluster. In the slice the cluster is ClusterId{0}
/// and clients/servers are renumbered in ascending parent-id order, so a
/// move run on state() performs the same floating-point operations, in
/// the same order, as on the parent — profit repairs included, since the
/// running total and repair count come along. Client-indexed inputs
/// (e.g. AllocatorOptions::insertable) must be remapped through
/// parent_clients().
class ClusterTrial {
 public:
  ClusterTrial(ClusterTrial&&) = default;
  ClusterTrial& operator=(ClusterTrial&&) = default;

  AllocState& state() { return state_; }

  /// Slice client id -> parent client id (ascending).
  const std::vector<ClientId>& parent_clients() const {
    return origin_->clients;
  }

 private:
  friend class AllocState;

  ClusterTrial(ClusterId k, std::unique_ptr<const Cloud> cloud,
               std::unique_ptr<Allocation::SliceOrigin> origin,
               AllocState state)
      : cluster_(k),
        cloud_(std::move(cloud)),
        origin_(std::move(origin)),
        state_(std::move(state)) {}

  ClusterId cluster_;  ///< the cluster's id in the parent
  std::unique_ptr<const Cloud> cloud_;  ///< the slice state_ runs over
  std::unique_ptr<Allocation::SliceOrigin> origin_;
  AllocState state_;
};

}  // namespace cloudalloc::model
