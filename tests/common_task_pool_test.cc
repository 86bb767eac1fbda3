#include "onex/common/task_pool.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <future>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace onex {
namespace {

/// A one-shot latch: Wait() blocks until Open() has been called.
class Gate {
 public:
  /// Notifies under the lock, so a waiter that returns (and may destroy
  /// the gate) cannot do so before Open() is done with it.
  void Open() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
    cv_.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return open_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
};

/// Occupies one worker of `pool` until `gate` opens; returns once the task
/// is running, so everything submitted afterwards waits in the queues.
void HoldWorker(TaskPool* pool, Gate* gate) {
  Gate running;
  pool->Submit([&running, gate] {
    running.Open();
    gate->Wait();
  });
  running.Wait();
}

TEST(TaskPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  TaskPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(TaskPoolTest, ParallelForZeroAndOneAreTrivial) {
  TaskPool pool(2);
  int calls = 0;
  pool.ParallelFor(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(TaskPoolTest, MaxConcurrencyOneRunsInline) {
  TaskPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  bool all_inline = true;
  pool.ParallelFor(
      64,
      [&](std::size_t) {
        if (std::this_thread::get_id() != caller) all_inline = false;
      },
      /*max_concurrency=*/1);
  EXPECT_TRUE(all_inline);
}

TEST(TaskPoolTest, IndexAddressedWritesProduceDeterministicResults) {
  TaskPool pool(8);
  constexpr std::size_t kN = 512;
  std::vector<double> a(kN), b(kN);
  auto fill = [](std::vector<double>* out) {
    return [out](std::size_t i) {
      (*out)[i] = static_cast<double>(i) * 1.5 + 1.0;
    };
  };
  pool.ParallelFor(kN, fill(&a));
  pool.ParallelFor(kN, fill(&b), /*max_concurrency=*/3);
  EXPECT_EQ(a, b);
  EXPECT_DOUBLE_EQ(std::accumulate(a.begin(), a.end(), 0.0),
                   1.5 * (kN * (kN - 1)) / 2.0 + kN);
}

TEST(TaskPoolTest, NestedParallelForDoesNotDeadlock) {
  TaskPool pool(2);  // fewer workers than outer iterations forces nesting
  std::atomic<int> total{0};
  pool.ParallelFor(4, [&](std::size_t) {
    pool.ParallelFor(8, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(TaskPoolTest, SubmittedTasksAllRunBeforeDestruction) {
  std::atomic<int> ran{0};
  {
    TaskPool pool(3);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1); });
    }
  }  // destructor drains the queues
  EXPECT_EQ(ran.load(), 100);
}

TEST(TaskPoolTest, SubmitWakesASleepingWorker) {
  TaskPool pool(1);
  std::mutex m;
  std::condition_variable cv;
  bool done = false;
  pool.Submit([&] {
    std::lock_guard<std::mutex> lock(m);
    done = true;
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(m);
  EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(5), [&] { return done; }));
}

TEST(TaskPoolTest, SharedPoolIsUsableAndStable) {
  TaskPool& a = TaskPool::Shared();
  TaskPool& b = TaskPool::Shared();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.worker_count(), 1u);
  std::atomic<int> total{0};
  a.ParallelFor(10, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 10);
}

TEST(TaskPoolTest, ManyConcurrentParallelForsFromExternalThreads) {
  TaskPool pool(4);
  constexpr int kCallers = 6;
  std::vector<std::thread> callers;
  std::atomic<int> total{0};
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      for (int round = 0; round < 5; ++round) {
        pool.ParallelFor(50, [&](std::size_t) { total.fetch_add(1); });
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(total.load(), kCallers * 5 * 50);
}

TEST(TaskPoolTest, JoinRunsNoForeignTask) {
  // A join that helped by running any queued task would run `foreign` on
  // the caller's thread — and a caller holding a lock could so re-enter it
  // through an unrelated request. The join runs only its own lanes.
  TaskPool pool(1);
  Gate gate;
  HoldWorker(&pool, &gate);
  std::thread::id foreign_thread;
  const TaskHandle foreign = pool.SubmitWithHandle(
      [&foreign_thread] { foreign_thread = std::this_thread::get_id(); });

  std::atomic<int> calls{0};
  pool.ParallelFor(8, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 8);
  EXPECT_FALSE(foreign.done()) << "the join ran a task it does not own";

  gate.Open();
  foreign.Wait();
  EXPECT_NE(foreign_thread, std::this_thread::get_id());
}

TEST(TaskPoolTest, CallerReturnsBeforeUnstartedLanes) {
  // The only worker is held, and a second held task waits in the queue
  // ahead of ParallelFor's lanes: the caller must run all 64 iterations
  // itself and return without waiting for (or running) anything queued.
  std::atomic<int> calls{0};
  std::atomic<int> off_caller{0};
  Gate gate;
  {
    TaskPool pool(1);
    HoldWorker(&pool, &gate);
    pool.Submit([&gate] { gate.Wait(); });

    std::promise<void> returned;
    std::future<void> returned_future = returned.get_future();
    std::thread caller([&] {
      // `body` lives in this frame only; the lanes still queued when
      // ParallelFor returns run after the frame is gone.
      const std::thread::id self = std::this_thread::get_id();
      auto body = [&calls, &off_caller, self](std::size_t) {
        calls.fetch_add(1);
        if (std::this_thread::get_id() != self) off_caller.fetch_add(1);
      };
      pool.ParallelFor(64, body);
      returned.set_value();
    });
    const bool returned_in_time =
        returned_future.wait_for(std::chrono::seconds(5)) ==
        std::future_status::ready;
    EXPECT_TRUE(returned_in_time)
        << "ParallelFor waited on queued work while its worker was held";
    EXPECT_EQ(calls.load(), 64);
    EXPECT_EQ(off_caller.load(), 0);
    gate.Open();
    caller.join();
  }  // the destructor runs every queued task, stale lanes included
  EXPECT_EQ(calls.load(), 64) << "a stale lane called body";
}

}  // namespace
}  // namespace onex
