// ResidualView: a flat SoA snapshot of the per-server residual state an
// insertion probe needs — free shares, free disk, offered processing load,
// and hosted-client counts — detached from the full Allocation.
//
// The view exists so the heuristic's hot loops (Assign_Distribute probing,
// reassignment move pricing) can speculate WITHOUT cloning an Allocation:
// copying a view is a handful of flat vector copies (no per-client
// placement vectors, no profit caches), and removing/re-adding one
// client's footprint is O(#placements) on plain arrays. The arithmetic
// mirrors Allocation's aggregate maintenance operation-for-operation
// (including the reset-to-zero guard when a server empties), so a view
// kept in sync with an Allocation reports bit-identical residuals.
//
// Exact rollback: add_client/remove_client optionally record the touched
// entries in an Undo; restore() writes the saved values back verbatim, so
// a speculate-then-restore cycle is bitwise lossless (a -= x; a += x; is
// not). The reassignment passes lean on this to probe hundreds of clients
// against one shared view copy without accumulating drift.
//
// Candidate index: the view is the only home of the insertion-candidate
// order Assign_Distribute prunes with. Each cluster carries a hierarchical
// (bucketed) residual index over its servers, ordered most-promising
// first for a fresh insertion by the exact comparator
//
//   rate = free_phi_p * cap_p DESC, marginal cost (P1 / Cp) ASC, id DESC.
//
// Id DESCENDING: among servers whose score rows are bitwise twins, the
// grouped-knapsack DP's strictly-greater update lets the later-scanned
// row (= higher id, clusters list servers ascending) steal tied quanta,
// so the exact traceback lands on the highest ids. Ranking twins
// high-id-first makes the pruned top-K prefix coincide with the servers
// the exact solve would pick, which is what lets Assign_Distribute's
// certificate treat excluded lower-id twins as redundant.
//
// Servers hash into rate buckets; a query materializes an exactly-ordered
// prefix by sorting only the buckets it actually consumes, and a mutation
// re-buckets only the touched servers — so maintaining and querying the
// top of the order stays sub-linear in the cluster's server count instead
// of re-sorting the whole cluster after every move. ordered_prefix() is
// the primary query; insertion_candidates() is the full-order special
// case. The order is advisory: Assign_Distribute certifies its pruned
// result against a score bound, so a stale order costs prune quality,
// never correctness.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "model/allocation.h"

namespace cloudalloc::model {

class ResidualView {
 public:
  /// Captures the allocation's current server aggregates (a pure read of
  /// `alloc`). The view does not observe later mutations of `alloc`;
  /// callers keep it in sync via add_client/remove_client or rebuild it.
  explicit ResidualView(const Allocation& alloc);

  /// Copies the residual arrays but NOT the candidate index: the copy
  /// starts with an empty (lazily rebuilt) index. Scratch copies in the
  /// snapshot phases touch a handful of clusters each, and rebuilding
  /// those on demand is far cheaper than cloning every cluster's bucket
  /// structure — and a freshly built index produces the exact same order
  /// as an incrementally maintained one, so results cannot differ.
  ResidualView(const ResidualView& other);
  ResidualView& operator=(const ResidualView& other);
  ResidualView(ResidualView&&) = default;
  ResidualView& operator=(ResidualView&&) = default;

  const Cloud& cloud() const { return *cloud_; }

  // --- read API (mirrors the Allocation accessors the probes use) --------

  double free_phi_p(ServerId j) const {
    return 1.0 - (used_p_[j] + bg_p_[j]);
  }
  double free_phi_n(ServerId j) const {
    return 1.0 - (used_n_[j] + bg_n_[j]);
  }
  double free_disk(ServerId j) const {
    return cap_m_[j] - (used_disk_[j] + bg_disk_[j]);
  }
  double proc_load(ServerId j) const { return load_p_[j]; }
  bool active(ServerId j) const {
    return hosted_[j] > 0 || keeps_on_[j] != 0;
  }
  int hosted_clients(ServerId j) const { return hosted_[j]; }
  bool keeps_on(ServerId j) const { return keeps_on_[j] != 0; }

  /// The first min(n, cluster size) servers of cluster k in the exact
  /// insertion-candidate order (see the class comment), materialized from
  /// the bucketed index; the returned vector may be longer than n. This is
  /// a const-but-mutating lazy cache, so views must not be shared across
  /// threads while probing — copy one per worker instead.
  const std::vector<ServerId>& ordered_prefix(ClusterId k,
                                              std::size_t n) const;

  /// Full candidate order of cluster k — ordered_prefix over the whole
  /// cluster.
  const std::vector<ServerId>& insertion_candidates(ClusterId k) const;

  /// Batched eq.-8 free-disk screen over cluster k's servers (SIMD lanes,
  /// common/simd.h): ok[idx] = free_disk(servers[idx]) + eps >= need for
  /// idx in cluster order, resizing `ok` to the cluster size. Returns
  /// false — leaving `ok` untouched — when the cluster's server ids are
  /// not one contiguous ascending range (the scenario generators build
  /// contiguous clusters; hand-built clouds may not), in which case the
  /// caller falls back to per-server free_disk() tests. The comparison is
  /// the scalar test's exact operation chain, so the mask never admits or
  /// drops a server the scalar filter would not.
  bool screen_free_disk(ClusterId k, double need, double eps,
                        std::vector<std::uint8_t>& ok) const;

  // --- speculative mutation with exact rollback ---------------------------

  /// Saved per-server state for bitwise-exact restore. Reusable across
  /// calls; each record call clears it first.
  struct Undo {
    struct Entry {
      ServerId server = kNoServer;
      double used_p = 0.0;
      double used_n = 0.0;
      double used_disk = 0.0;
      double load_p = 0.0;
      int hosted = 0;
    };
    std::vector<Entry> entries;
  };

  /// Removes client i's footprint (`ps` must be its current placements in
  /// this view). Mirrors Allocation::remove_footprint's arithmetic.
  void remove_client(ClientId i, const std::vector<Placement>& ps,
                     Undo* undo = nullptr);

  /// Adds client i's footprint. Mirrors Allocation::add_footprint.
  void add_client(ClientId i, const std::vector<Placement>& ps,
                  Undo* undo = nullptr);

  /// Writes the saved entries back verbatim (bitwise-exact rollback).
  void restore(const Undo& undo);

  /// Re-copies server j's aggregates from `alloc`, making the view bitwise
  /// equal to the allocation for that server. Callers that mirror an
  /// Allocation use this after a rollback on the allocation side: the
  /// allocation's remove/add round trip does not restore its aggregates to
  /// the last bit, so mirroring the ops would leave the view on the
  /// pre-rollback values instead of the allocation's actual (drifted) ones.
  void resync_server(const Allocation& alloc, ServerId j);

 private:
  friend class AllocState;

  /// Rate buckets per cluster. 16 keeps the dirty-rebucket bookkeeping in
  /// one machine word and the per-bucket sorts a few elements deep on the
  /// paper-sized clusters while still cutting large clusters' sorts ~16x.
  static constexpr int kNumBuckets = 16;

  /// Per-cluster bucketed candidate index. Buckets partition the servers
  /// by quantized rate key (monotone: a strictly larger rate never lands
  /// in a later bucket, and equal rates always share a bucket), so
  /// concatenating the buckets in order, each sorted by the exact
  /// comparator, reproduces the exact full order. `prefix` caches the
  /// materialized front; `dirty` holds servers whose rate changed since
  /// they were bucketed.
  struct ClusterIndex {
    bool built = false;
    std::uint32_t unsorted = 0;  ///< bit b: buckets[b] needs sorting
    std::array<std::vector<ServerId>, kNumBuckets> buckets;
    std::vector<ServerId> prefix;
    int prefix_buckets = 0;  ///< buckets already consumed into prefix
    std::vector<ServerId> dirty;
    double inv_scale = 0.0;  ///< kNumBuckets / max possible rate
  };

  void record(const std::vector<Placement>& ps, Undo* undo) const;
  void mark_server_dirty(ServerId j);
  int bucket_for(ServerId j, const ClusterIndex& ix) const;
  void build_index(ClusterId k) const;
  void flush_dirty(ClusterId k) const;

  const Cloud* cloud_;
  // Mutable residual state (client-only aggregates, background excluded —
  // exactly Allocation::ServerAgg's representation).
  IdVector<ServerId, double> used_p_, used_n_, used_disk_, load_p_;
  IdVector<ServerId, int> hosted_;
  // Immutable per-server constants, flattened for locality.
  IdVector<ServerId, double> bg_p_, bg_n_, bg_disk_, cap_m_;
  IdVector<ServerId, std::uint8_t> keeps_on_;
  // Immutable per-server sort-key constants (class capacity and marginal
  // cost) and per-cluster contiguous-range bases (first server id, or -1).
  IdVector<ServerId, double> cap_p_, marg_;
  IdVector<ClusterId, int> contig_base_;
  // Lazy hierarchical candidate index (see ordered_prefix).
  mutable IdVector<ClusterId, ClusterIndex> index_;
  mutable IdVector<ServerId, std::int8_t> bucket_of_;
  mutable IdVector<ServerId, std::uint8_t> dirty_flag_;
};

}  // namespace cloudalloc::model
