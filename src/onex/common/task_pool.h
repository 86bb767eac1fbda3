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
/// handle is empty and reports done. Wait() parks the caller: it does not
/// run other pool work. Only threads outside the pool wait on a handle (the
/// registry's destructor drain, tests); a pool task that waited on a job
/// queued behind it could stall the pool, so none does.
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

/// Work-stealing thread pool (DESIGN.md §6). The library uses one per
/// process, Shared(), sized to the hardware: onexd's reactor runs requests
/// on it, and the engine runs BATCH fan-out, base builds, drift regroups
/// and background checkpoints on it. A fixed set of OS threads serves many
/// callers; a single query always runs on one thread.
///
/// Structure: every worker owns a deque. Submitters push to the queues
/// round-robin; a worker pops from the back of its own queue (LIFO, cache
/// warm) and steals from the front of a sibling's queue (FIFO, oldest work
/// first) when its own runs dry.
///
/// Join contract: a ParallelFor caller drains the iteration counter itself,
/// then waits only for its own lanes that have already started. It never
/// runs a queued task, its own or anyone's, so a caller holding a lock can
/// never pick up a request that takes the same lock. Lanes that start after
/// the caller returned find the counter exhausted and do nothing. Nested
/// ParallelFor from inside a pool task is therefore safe: a caller only
/// waits on lanes that are running, and a running lane finishes.
///
/// Workers start lazily on the first parallel call, so constructing a pool
/// costs nothing until parallelism is used.
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
  /// how the engine's dataset registry tracks its background regroups and
  /// checkpoints (DESIGN.md §11).
  TaskHandle SubmitWithHandle(std::function<void()> task);

  /// Runs body(i) for every i in [0, n), distributing iterations over up to
  /// `max_concurrency` threads (0 = pool width + caller). Blocks until all
  /// iterations finish; the caller participates, so the call completes even
  /// on a pool with zero free workers: lanes still queued when the caller
  /// has run every remaining iteration are not waited for and later retire
  /// without calling `body`. Iterations are claimed dynamically in
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
  /// Pops one task for worker `self` (own queue back first, else steals a
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
