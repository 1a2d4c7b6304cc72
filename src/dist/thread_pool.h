// Work-stealing job system used to emulate the paper's parallel cluster
// agents on one machine and to run the allocator's parallel evaluation
// fan-outs (multi-start greedy, snapshot reassign, sharded pricing).
//
// Execution model: each worker owns a deque of small POD task records
// backed by its own arena (common/arena.h) — no per-task heap allocation
// and no type erasure on the fan-out path (the caller's std::function is
// created once per fan-out and shared by reference; each task is a
// {kind, range, batch, fn} record). The owner pushes and pops at the
// tail (LIFO, cache-warm); idle workers steal from the head of a random
// victim's deque (FIFO, oldest first). A blocked fan-out caller — worker
// or external thread — helps execute tasks instead of sleeping, which is
// also what makes nested parallel_for from a worker thread legal: the
// worker runs its own chunks and steals the rest back, it never parks
// with work outstanding.
//
// Determinism contract (unchanged from the original pool): chunk
// boundaries are a pure function of (n, grain) — never of the worker
// count or the scheduling — so per-chunk state (RNG streams, scratch
// copies) yields bit-identical results at any pool size, including the
// inline path. Stealing changes WHERE a chunk runs, never what it
// computes.
//
// Exception contract: the parallel_for variants drain (run) every task
// before propagating the lowest-index stored exception, so a throwing
// task can never race the caller's destroyed captures.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "common/arena.h"
#include "common/sync.h"

namespace cloudalloc::dist {

class ThreadPool {
 public:
  /// Spawns `workers` threads (at least 1).
  explicit ThreadPool(int workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_workers() const { return static_cast<int>(threads_.size()); }
  int workers() const { return num_workers(); }

  /// Process-wide reusable pool with `workers` threads: repeated solves
  /// (online epochs, benches, the distributed manager's rounds) share one
  /// warm pool per worker count instead of paying thread spawn/join per
  /// call. Pools live until process exit; concurrent fan-outs from
  /// different callers are safe (batches are independent).
  static ThreadPool& shared(int workers);

  /// Enqueues a task; the future resolves when it has run. This is the
  /// cold-path entry (tests, one-off jobs): the callable is heap-boxed.
  /// Fan-outs go through parallel_for*, which allocate nothing per task.
  std::future<void> submit(std::function<void()> task);

  /// Runs fn(0..n-1) across the pool and blocks until all complete; the
  /// calling thread helps execute. Every task is drained before the
  /// lowest-index stored exception is rethrown. Safe to call from a
  /// worker thread (nested fan-outs run to completion via helping).
  void parallel_for(int n, const std::function<void(int)>& fn);

  /// Chunked variant: fn(begin, end) over ranges of `grain` consecutive
  /// indices (last chunk may be shorter). Chunk boundaries depend only on
  /// (n, grain) — see the determinism contract above. Same
  /// drain-before-rethrow contract as parallel_for.
  void parallel_for_chunked(int n, int grain,
                            const std::function<void(int, int)>& fn);

  /// Drains all queued tasks and joins the workers. Idempotent; the
  /// destructor calls it. submit() after shutdown() is a programmer error.
  void shutdown();

 private:
  struct Batch;

  /// One schedulable unit. POD: lives inline in the deque rings.
  struct Task {
    enum class Kind : std::uint8_t { kIndex, kChunk, kHeap };
    Kind kind;
    int begin = 0;    ///< kIndex: the index; kChunk: range start
    int end = 0;      ///< kChunk: range end (exclusive)
    int slot = 0;     ///< error-slot ordinal within the batch
    Batch* batch = nullptr;
    const void* fn = nullptr;  ///< caller's std::function, by pointer
    void* heap = nullptr;      ///< kHeap: boxed packaged_task
  };

  /// Per-worker deque: a mutex-guarded ring of Task records whose storage
  /// grows from the worker's arena. Owner end = tail, thief end = head.
  /// Every field — including the arena the ring grows from — is touched
  /// only under `mutex`, and the annotations make that a compile-time
  /// contract under clang -Wthread-safety.
  struct Deque {
    sync::Mutex mutex;
    common::Arena arena GUARDED_BY(mutex);
    Task* ring GUARDED_BY(mutex) = nullptr;
    std::size_t capacity GUARDED_BY(mutex) = 0;  ///< power of two
    std::size_t head GUARDED_BY(mutex) = 0;      ///< steal end (FIFO)
    std::size_t tail GUARDED_BY(mutex) = 0;      ///< owner end (LIFO)

    // false when ring must grow first
    bool push(const Task& task) REQUIRES(mutex);
    void grow_and_push(const Task& task) REQUIRES(mutex);
  };

  void worker_loop(int self);
  /// Pops from own deque (workers) then sweeps victims from a per-thread
  /// random start. Returns false when every deque came up empty.
  bool try_run_one(int self);
  void run_task(const Task& task);
  void enqueue(const Task& task, int self);
  void help_until_done(Batch& batch, int self);
  void fan_out(int tasks, Task::Kind kind, int grain, const void* fn);

  std::vector<std::unique_ptr<Deque>> deques_;
  std::vector<std::thread> threads_;
  std::atomic<int> pending_{0};  ///< tasks enqueued and not yet taken
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint32_t> scatter_{0};  ///< external-push round robin
  sync::Mutex sleep_mutex_;
  sync::CondVar sleep_cv_;
};

/// Maps an options-level thread count to the number of executors: 0 means
/// "use the hardware concurrency", anything else is clamped to at least 1.
inline int resolve_threads(int num_threads) {
  if (num_threads > 0) return num_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

/// The shared pool for fan-outs run by `executors` threads in all. The
/// caller helps execute its own fan-out, so the pool holds executors - 1
/// workers: `executors` threads busy, never one more than asked for. Null
/// for one executor or fewer (the fan-out runs inline).
inline ThreadPool* shared_pool_for(int executors) {
  return executors > 1 ? &ThreadPool::shared(executors - 1) : nullptr;
}

}  // namespace cloudalloc::dist
