#include "onex/common/task_pool.h"

#include <atomic>
#include <chrono>
#include <cstddef>
#include <utility>

namespace onex {
namespace {

std::size_t HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

}  // namespace

TaskPool::TaskPool(std::size_t threads)
    : target_workers_(threads == 0 ? HardwareThreads() : threads) {
  queues_.reserve(target_workers_);
  for (std::size_t i = 0; i < target_workers_; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void TaskPool::EnsureStarted() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (started_) return;
  started_ = true;
  workers_.reserve(target_workers_);
  for (std::size_t i = 0; i < target_workers_; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

void TaskPool::Submit(std::function<void()> task) {
  EnsureStarted();
  pending_.fetch_add(1);
  std::size_t slot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    slot = next_queue_;
    next_queue_ = (next_queue_ + 1) % queues_.size();
  }
  {
    std::lock_guard<std::mutex> lock(queues_[slot]->mutex);
    queues_[slot]->tasks.push_back(std::move(task));
  }
  wake_.notify_one();
}

bool TaskHandle::done() const {
  if (state_ == nullptr) return true;
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->done;
}

void TaskHandle::Wait() const {
  if (state_ == nullptr) return;
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->cv.wait(lock, [this] { return state_->done; });
}

TaskHandle TaskPool::SubmitWithHandle(std::function<void()> task) {
  auto state = std::make_shared<TaskHandle::State>();
  Submit([state, task = std::move(task)] {
    task();
    {
      std::lock_guard<std::mutex> lock(state->mutex);
      state->done = true;
    }
    state->cv.notify_all();
  });
  return TaskHandle(std::move(state));
}

bool TaskPool::TryRunOneTask(std::size_t self) {
  std::function<void()> task;
  // Own queue first, newest task (back): it is the one whose data is still
  // hot in this worker's cache.
  {
    std::lock_guard<std::mutex> lock(queues_[self]->mutex);
    if (!queues_[self]->tasks.empty()) {
      task = std::move(queues_[self]->tasks.back());
      queues_[self]->tasks.pop_back();
    }
  }
  if (!task) {
    // Steal the oldest task (front) from a sibling, scanning round-robin
    // from the slot after ours so thieves spread across victims.
    const std::size_t start = self + 1;
    for (std::size_t k = 0; k < queues_.size() && !task; ++k) {
      WorkerQueue& q = *queues_[(start + k) % queues_.size()];
      std::lock_guard<std::mutex> lock(q.mutex);
      if (!q.tasks.empty()) {
        task = std::move(q.tasks.front());
        q.tasks.pop_front();
      }
    }
  }
  if (!task) return false;
  task();
  // Last task out wakes the pool: shutting-down workers (and the
  // destructor) park on wake_ until pending_ drains.
  if (pending_.fetch_sub(1) == 1) wake_.notify_all();
  return true;
}

void TaskPool::WorkerLoop(std::size_t self) {
  while (true) {
    if (TryRunOneTask(self)) continue;
    std::unique_lock<std::mutex> lock(mutex_);
    // Exit only when shutdown is flagged AND nothing is left to run: a
    // worker whose first (empty) queue scan raced ahead of the initial
    // Submit burst must not retire while those tasks sit queued.
    if (shutdown_ && pending_.load() == 0) return;
    // Timed wait as lost-wakeup insurance: a Submit that raced our queue
    // scan has already notified, so the 50ms cap keeps the worker live.
    wake_.wait_for(lock, std::chrono::milliseconds(50));
  }
}

void TaskPool::ParallelFor(std::size_t n,
                           const std::function<void(std::size_t)>& body,
                           std::size_t max_concurrency) {
  if (n == 0) return;
  std::size_t width =
      max_concurrency == 0 ? target_workers_ + 1 : max_concurrency;
  width = std::min(width, n);
  if (width <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  struct State {
    std::atomic<std::size_t> next{0};    ///< Next unclaimed iteration.
    std::atomic<std::size_t> active{0};  ///< Helper lanes inside drain.
    std::mutex mutex;
    std::condition_variable done;
  };
  auto state = std::make_shared<State>();

  const std::size_t helpers = width - 1;  // the caller takes one lane
  for (std::size_t h = 0; h < helpers; ++h) {
    // A lane announces itself before it claims an iteration. The caller
    // returns only after the counter is exhausted and no lane is active,
    // so a lane that claims an index < n is always waited for, and a lane
    // that starts after the caller returned claims nothing and never
    // touches `body`, whose frame may be gone.
    Submit([state, &body, n] {
      state->active.fetch_add(1);
      std::size_t i;
      while ((i = state->next.fetch_add(1)) < n) body(i);
      if (state->active.fetch_sub(1) == 1) {
        std::lock_guard<std::mutex> lock(state->mutex);
        state->done.notify_all();
      }
    });
  }

  std::size_t i;
  while ((i = state->next.fetch_add(1)) < n) body(i);

  // Join only our own lanes that already started: they are running on
  // some thread and finish without needing this one. Queued lanes and
  // every other pool task are left alone, so a join never runs foreign
  // work on the caller's thread (and never re-enters a lock it holds).
  std::unique_lock<std::mutex> lock(state->mutex);
  state->done.wait(lock, [&] { return state->active.load() == 0; });
}

TaskPool& TaskPool::Shared() {
  static TaskPool pool(0);
  return pool;
}

}  // namespace onex
