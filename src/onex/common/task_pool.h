#ifndef ONEX_COMMON_TASK_POOL_H_
#define ONEX_COMMON_TASK_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace onex {

/// Completion handle for a task submitted with TaskPool::SubmitWithHandle.
/// Copyable (handles share one completion record); a default-constructed
/// handle is empty and reports done. Wait() parks the caller — it does not
/// help drain the pool — so waiting from inside a pool task on a saturated
/// pool can stall; callers inside the pool should poll done() or structure
/// the work as ParallelFor instead.
class TaskHandle {
 public:
  TaskHandle() = default;

  bool valid() const { return state_ != nullptr; }

  /// True once the task body has returned (always true for empty handles).
  bool done() const;

  /// Blocks until the task body has returned. No-op for empty handles.
  void Wait() const;

 private:
  friend class TaskPool;
  struct State {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
  };
  explicit TaskHandle(std::shared_ptr<State> state)
      : state_(std::move(state)) {}

  std::shared_ptr<State> state_;
};

/// Work-stealing thread pool (DESIGN.md §6) behind base construction, the
/// engine's batch APIs and the server's request execution. A process holds
/// two kinds: the process-wide Shared() pool, sized to the hardware, on
/// which onexd's reactor runs requests; and each Engine's own pool, which
/// runs BATCH fan-out, base builds, async preparations, regroups and
/// checkpoints. Either way a fixed set of OS threads serves many callers;
/// a single query always runs on one thread.
///
/// Structure: every worker owns a deque. Submitters push to the queues
/// round-robin; a worker pops from the back of its own queue (LIFO, cache
/// warm) and steals from the front of a sibling's queue (FIFO, oldest work
/// first) when its own runs dry.
///
/// Deadlock freedom: ParallelFor callers never park while work is
/// outstanding — they drain the iteration counter themselves and then help
/// execute queued pool tasks until their own tasks retire. Nested
/// ParallelFor from inside a pool task is therefore safe: some caller always
/// makes progress.
///
/// Workers start lazily on the first parallel call, so constructing a pool
/// (e.g. embedded in an Engine) costs nothing until parallelism is used.
class TaskPool {
 public:
  /// `threads` = worker count; 0 = one per hardware core. Workers are
  /// spawned on first use, not here.
  explicit TaskPool(std::size_t threads = 0);

  /// Joins all workers. Pending tasks are completed first.
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Number of workers this pool will run (spawned or not).
  std::size_t worker_count() const { return target_workers_; }

  /// Enqueues one fire-and-forget task.
  void Submit(std::function<void()> task);

  /// Enqueues one task and returns a handle the caller can poll or wait on —
  /// how the engine's dataset registry tracks asynchronous preparation jobs
  /// (DESIGN.md §11).
  TaskHandle SubmitWithHandle(std::function<void()> task);

  /// Runs body(i) for every i in [0, n), distributing iterations over up to
  /// `max_concurrency` threads (0 = pool width + caller). Blocks until all
  /// iterations finish; the caller participates, so the call completes even
  /// on a pool with zero free workers. Iterations are claimed dynamically in
  /// index order; any iteration may run on any thread, so bodies must only
  /// write to disjoint, index-addressed state (results land deterministic).
  void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& body,
                   std::size_t max_concurrency = 0);

  /// The process-wide pool, created on first use, sized to the hardware.
  static TaskPool& Shared();

 private:
  struct WorkerQueue {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  void EnsureStarted();
  void WorkerLoop(std::size_t self);
  /// Pops one task (own queue back first for `self` < workers, else steals a
  /// front task round-robin). Returns false when every queue is empty.
  bool TryRunOneTask(std::size_t self);

  const std::size_t target_workers_;
  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;                 ///< Guards startup + sleep/wake.
  std::condition_variable wake_;
  bool started_ = false;
  bool shutdown_ = false;
  std::size_t next_queue_ = 0;       ///< Round-robin submission cursor.
  /// Tasks submitted but not yet finished executing. Workers only exit on
  /// shutdown when this reaches zero, so the destructor's "pending tasks
  /// complete first" guarantee holds even for tasks enqueued before any
  /// worker had its first look at the queues.
  std::atomic<std::size_t> pending_{0};
};

}  // namespace onex

#endif  // ONEX_COMMON_TASK_POOL_H_
