#include "alloc/sharded.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <thread>
#include <utility>

#include "alloc/assign_distribute.h"
#include "alloc/move_engine.h"
#include "alloc/scratch.h"
#include "common/check.h"
#include "common/prof.h"
#include "common/sync.h"
#include "model/alloc_state.h"
#include "model/residual.h"

namespace cloudalloc::alloc {

using model::Allocation;
using model::ClientId;
using model::ResidualView;

namespace {

/// Clients priced per frozen snapshot. Fixed (never derived from the shard
/// or worker count) so the block partition — and with it every snapshot a
/// plan is priced against — is a pure function of the client order. Larger
/// blocks amortize the per-shard snapshot copy over more probes but price
/// staler, which costs live re-prices at merge time.
constexpr int kBlock = 1024;

/// Polls of the commit frontier before a waiting executor yields its core.
constexpr int kSpinsBeforeYield = 64;

/// The merge of one priced block, run by one or more executors at once.
///
/// Resolving client idx — `fits`, then a live best_insertion when the
/// snapshot plan no longer fits — reads only the view rows of idx's probe
/// window, and committing it writes only rows of that window. So idx may
/// be resolved as soon as every earlier client whose window intersects
/// its own is committed (`committed_ >= need[idx]`): the clients still
/// uncommitted before idx touch none of the rows it reads, and idx sees
/// exactly the state the sequential loop gave it. The same rule keeps two
/// threads off one cluster's lazy candidate index. Commits — the apply,
/// the per-insertion profit settle and the allow_rejection gate — run in
/// strict block order under one committer at a time.
///
/// No executor ever blocks: a claimed client is always held by a running
/// executor, an executor only waits on clients before its claim, and
/// every waiter tries to become the committer (which claims and resolves
/// the next client itself when nobody has). Executors that have not
/// started yet hold nothing, so a busy or nested pool cannot deadlock it.
class BlockMerge {
 public:
  BlockMerge(model::AllocState& state, MoveEngine& mover,
             const AllocatorOptions& opts, const ClientId* clients,
             std::vector<std::optional<InsertionPlan>>& plans,
             const std::vector<int>& need, double& profit_now)
      : state_(state),
        mover_(mover),
        opts_(opts),
        clients_(clients),
        plans_(plans),
        need_(need),
        len_(static_cast<int>(plans.size())),
        ready_(plans.size()),
        profit_now_(profit_now) {}

  /// One executor: claim the next client, wait until its window is
  /// settled, resolve it, offer to commit; then help until the block is
  /// committed. An exception (a failed allocation) abandons the merge: it
  /// leaves a claim unresolved, so the other executors stop waiting and
  /// the exception reaches the caller instead of a hang.
  void run() {
    try {
      for (int idx = next_.fetch_add(1, std::memory_order_relaxed);
           idx < len_; idx = next_.fetch_add(1, std::memory_order_relaxed)) {
        if (!wait_for(need_[static_cast<std::size_t>(idx)])) return;
        resolve(idx);
        ready_[static_cast<std::size_t>(idx)].store(1,
                                                    std::memory_order_release);
        try_commit();
      }
      wait_for(len_);
    } catch (...) {
      abandoned_.store(true, std::memory_order_relaxed);
      throw;
    }
  }

  /// Snapshot plans that failed `fits` and were re-priced live.
  int repriced() const { return repriced_.load(std::memory_order_relaxed); }

 private:
  void resolve(int idx) {
    std::optional<InsertionPlan>& plan = plans_[static_cast<std::size_t>(idx)];
    const ClientId i = clients_[idx];
    if (!plan || mover_.fits(i, *plan)) return;
    repriced_.fetch_add(1, std::memory_order_relaxed);
    plan = best_insertion(state_.view(), i, opts_);
  }

  // Same admission rule as the sequential greedy: every feasible client
  // is served unless allow_rejection screens a money-losing score.
  void commit(int idx) REQUIRES(commit_mu_) {
    const std::optional<InsertionPlan>& plan =
        plans_[static_cast<std::size_t>(idx)];
    if (!plan) return;
    const ClientId i = clients_[idx];
    CHECK(!state_.ledger().is_assigned(i));
    if (opts_.allow_rejection && plan->score < 0.0) return;
    mover_.apply(i, plan, profit_now_);
  }

  /// Commits every resolved client at the frontier, claiming and
  /// resolving the frontier client itself when no executor has; returns
  /// at once when another thread is the committer.
  void try_commit() {
    if (!commit_mu_.try_lock()) return;
    try {
      int c = committed_.load(std::memory_order_relaxed);
      while (c < len_) {
        if (ready_[static_cast<std::size_t>(c)].load(
                std::memory_order_acquire) == 0) {
          int unclaimed = c;
          if (!next_.compare_exchange_strong(unclaimed, c + 1,
                                             std::memory_order_relaxed))
            break;  // its executor publishes it and offers to commit
          resolve(c);
        }
        commit(c);
        committed_.store(++c, std::memory_order_release);
      }
    } catch (...) {
      commit_mu_.unlock();
      throw;
    }
    commit_mu_.unlock();
  }

  /// Waits until `target` clients are committed; false when the merge
  /// was abandoned instead.
  bool wait_for(int target) {
    for (int polls = 0;; ++polls) {
      const int c = committed_.load(std::memory_order_acquire);
      if (c >= target) return true;
      if (abandoned_.load(std::memory_order_relaxed)) return false;
      if (ready_[static_cast<std::size_t>(c)].load(std::memory_order_relaxed) !=
              0 ||
          next_.load(std::memory_order_relaxed) <= c)
        try_commit();
      if (polls >= kSpinsBeforeYield) std::this_thread::yield();
    }
  }

  model::AllocState& state_;
  MoveEngine& mover_;
  const AllocatorOptions& opts_;
  const ClientId* clients_;
  std::vector<std::optional<InsertionPlan>>& plans_;
  const std::vector<int>& need_;
  const int len_;
  std::atomic<int> next_{0};       ///< next unclaimed block position
  std::atomic<int> committed_{0};  ///< clients committed, in block order
  std::atomic<int> repriced_{0};
  std::atomic<bool> abandoned_{false};
  std::vector<std::atomic<std::uint8_t>> ready_;  ///< resolved, per client
  sync::Mutex commit_mu_;
  double& profit_now_ GUARDED_BY(commit_mu_);
};

}  // namespace

bool conflict_horizon(const ClientId* clients, int len, int num_clusters,
                      int fanout, std::vector<int>& need) {
  need.resize(static_cast<std::size_t>(len));
  const int width = probe_window(ClientId{0}, num_clusters, fanout).width;
  if (num_clusters <= 0 || 2 * width - 1 >= num_clusters) {
    for (int idx = 0; idx < len; ++idx) need[static_cast<std::size_t>(idx)] = idx;
    return false;
  }
  // last[s]: 1 + the last position seen so far whose window starts at s.
  std::vector<int> last(static_cast<std::size_t>(num_clusters), 0);
  for (int idx = 0; idx < len; ++idx) {
    const int s = probe_window(clients[idx], num_clusters, fanout).start;
    int after = 0;
    for (int d = 1 - width; d < width; ++d)
      after = std::max(
          after, last[static_cast<std::size_t>((s + d + num_clusters) %
                                               num_clusters)]);
    need[static_cast<std::size_t>(idx)] = after;
    last[static_cast<std::size_t>(s)] = idx + 1;
  }
  return true;
}

Allocation sharded_greedy_insert(const Allocation& base,
                                 const std::vector<ClientId>& order,
                                 const AllocatorOptions& opts,
                                 const dist::ParallelEval& eval,
                                 int* merge_repriced) {
  // analyze: allow(allocation-copy) -- greedy-base boundary: the sharded
  // solve's settled state starts as one private copy of the base.
  model::AllocState state{base.clone()};
  MoveEngine mover(state, opts);
  const int shards = std::max(1, opts.num_shards);
  const int n = static_cast<int>(order.size());
  const int num_clusters = state.cloud().num_clusters();
  double profit_now = state.profit();

  std::vector<std::optional<InsertionPlan>> plans;
  std::vector<int> need;
  for (int b0 = 0; b0 < n; b0 += kBlock) {
    const int len = std::min(kBlock, n - b0);
    const ClientId* clients = order.data() + b0;

    // Freeze: settle the engine so the snapshot reads are pure, then price
    // the whole block against it. Each shard leases a pooled scratch view
    // refreshed to this block's snapshot (never shared between concurrent
    // shards, so the lazy candidate index stays private); every plan is a
    // pure function of the snapshot values, so neither the shard grain
    // nor the scheduling can change a single plan bit.
    {
      PROF_ZONE("sharded.price_block");
      profit_now = state.profit();
      CHECK(state.ledger().profit_settled());
      const ResidualView& frozen = state.view();
      const std::uint64_t stamp = ViewScratchPool::next_stamp();
      plans.assign(static_cast<std::size_t>(len), std::nullopt);
      const int grain = (len + shards - 1) / shards;
      eval.for_chunks(len, grain, [&](int begin, int end) {
        ViewScratchPool::Lease lease =
            ViewScratchPool::instance().acquire(frozen, stamp);
        const ResidualView& scratch = lease.view();
        for (int idx = begin; idx < end; ++idx)
          plans[static_cast<std::size_t>(idx)] =
              best_insertion(scratch, clients[idx], opts);
      });
    }

    // Merge in block order against the live engine (see BlockMerge).
    // Earlier merges may have consumed the capacity a snapshot plan
    // assumed, so each plan is revalidated and re-priced live when it no
    // longer fits. When every pair of windows intersects, or there is no
    // pool, the same loop runs on the caller alone.
    PROF_ZONE("sharded.merge_block");
    const bool any_disjoint =
        conflict_horizon(clients, len, num_clusters, opts.cluster_fanout, need);
    BlockMerge merge(state, mover, opts, clients, plans, need, profit_now);
    if (any_disjoint && eval.parallel()) {
      eval.for_n(eval.num_workers() + 1, [&](int) { merge.run(); });
    } else {
      merge.run();
    }
    if (merge_repriced != nullptr) *merge_repriced += merge.repriced();
  }
  return std::move(state).release();
}

}  // namespace cloudalloc::alloc
