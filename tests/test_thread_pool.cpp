// Tests of the reusable thread pool (src/support/thread_pool.hpp):
//   P1  construction/size, zero-worker rejection, default_jobs sanity
//   P2  FIFO ordering: one worker makes the pool a strict serial executor
//   P3  results and exceptions travel through futures; a throwing task
//       does not poison the pool or unwind a worker
//   P4  destruction drains the queue — every queued task runs exactly once
//   P5  many tasks across many workers all run exactly once (wait_all)
//   P6  parallel_for_chunks partitions [0, n) into contiguous ranges that
//       cover every index exactly once, clamps chunk counts, and rethrows
//       a chunk's failure after the others finished; with no pool the
//       same ranges run inline, in order
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "support/thread_pool.hpp"

namespace ndf {
namespace {

TEST(ThreadPool, SizeAndZeroWorkersRejected) {  // P1
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_THROW(ThreadPool(0), CheckError);
  EXPECT_GE(ThreadPool::default_jobs(), 1u);
}

TEST(ThreadPool, SingleWorkerRunsTasksInSubmissionOrder) {  // P2
  std::vector<int> order;
  {
    ThreadPool pool(1);
    std::vector<std::future<void>> futs;
    for (int i = 0; i < 64; ++i)
      futs.push_back(pool.submit([i, &order] { order.push_back(i); }));
    wait_all(futs);
  }
  ASSERT_EQ(order.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, FuturesCarryResults) {  // P3
  ThreadPool pool(4);
  std::vector<std::future<int>> futs;
  for (int i = 0; i < 32; ++i)
    futs.push_back(pool.submit([i] { return i * i; }));
  for (int i = 0; i < 32; ++i) EXPECT_EQ(futs[i].get(), i * i);
}

TEST(ThreadPool, ExceptionPropagatesWithoutPoisoningThePool) {  // P3
  ThreadPool pool(2);
  auto bad = pool.submit(
      []() -> int { throw std::runtime_error("task failed"); });
  EXPECT_THROW(bad.get(), std::runtime_error);
  // The worker survived; the pool still runs work after the throw.
  auto good = pool.submit([] { return 7; });
  EXPECT_EQ(good.get(), 7);
}

TEST(ThreadPool, WaitAllRethrowsFirstFailureInSubmissionOrder) {  // P3
  ThreadPool pool(2);
  std::vector<std::future<void>> futs;
  futs.push_back(pool.submit([] {}));
  futs.push_back(pool.submit([] { throw std::invalid_argument("second"); }));
  futs.push_back(pool.submit([] { throw std::runtime_error("third"); }));
  try {
    wait_all(futs);
    FAIL() << "expected the first stored exception";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "second");
  }
}

TEST(ThreadPool, DestructionDrainsQueuedTasks) {  // P4
  std::atomic<int> ran{0};
  {
    // One slow worker guarantees tasks are still queued when the
    // destructor runs; drain semantics say they all execute anyway.
    ThreadPool pool(1);
    for (int i = 0; i < 32; ++i)
      pool.submit([&ran] {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        ran.fetch_add(1, std::memory_order_relaxed);
      });
  }
  EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPool, ParallelForChunksCoversEveryIndexOnce) {  // P6
  ThreadPool pool(4);
  for (const std::size_t n : {1u, 7u, 100u, 1000u}) {
    for (const std::size_t chunks : {1u, 3u, 16u, 2000u}) {
      std::vector<std::atomic<int>> hits(n);
      for (auto& h : hits) h.store(0);
      std::atomic<std::size_t> ranges{0};
      parallel_for_chunks(&pool, n, chunks,
                          [&](std::size_t b, std::size_t e) {
                            EXPECT_LT(b, e);
                            ranges.fetch_add(1, std::memory_order_relaxed);
                            for (std::size_t i = b; i < e; ++i)
                              hits[i].fetch_add(1, std::memory_order_relaxed);
                          });
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " chunks=" << chunks
                                     << " i=" << i;
      // Chunk counts are clamped to [1, n], never oversplit into empties.
      EXPECT_EQ(ranges.load(), std::min(std::max<std::size_t>(chunks, 1), n));
    }
  }
  // n == 0 is a no-op, not a division by zero.
  parallel_for_chunks(&pool, 0, 4, [](std::size_t, std::size_t) { FAIL(); });
}

TEST(ThreadPool, ParallelForChunksWithoutPoolRunsSameRangesInline) {  // P6
  ThreadPool pool(1);  // one worker: ranges run in submission order
  for (const std::size_t n : {1u, 7u, 100u}) {
    for (const std::size_t chunks : {1u, 3u, 16u, 2000u}) {
      std::vector<std::pair<std::size_t, std::size_t>> pooled, inlined;
      parallel_for_chunks(&pool, n, chunks, [&](std::size_t b, std::size_t e) {
        pooled.emplace_back(b, e);
      });
      const std::thread::id caller = std::this_thread::get_id();
      parallel_for_chunks(nullptr, n, chunks,
                          [&](std::size_t b, std::size_t e) {
                            EXPECT_EQ(std::this_thread::get_id(), caller);
                            inlined.emplace_back(b, e);
                          });
      EXPECT_EQ(inlined, pooled) << "n=" << n << " chunks=" << chunks;
    }
  }
}

TEST(ThreadPool, ParallelForChunksRethrowsAfterSiblingsFinish) {  // P6
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  try {
    parallel_for_chunks(&pool, 100, 10, [&](std::size_t b, std::size_t) {
      if (b == 0) throw std::runtime_error("chunk zero failed");
      completed.fetch_add(1, std::memory_order_relaxed);
    });
    FAIL() << "expected the chunk's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk zero failed");
  }
  // wait_all semantics: every sibling chunk ran to completion before the
  // rethrow handed control back.
  EXPECT_EQ(completed.load(), 9);
}

TEST(ThreadPool, WorkerStatsAccountForEveryTask) {
  ThreadPool pool(3);
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 60; ++i)
    futs.push_back(pool.submit([] {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }));
  wait_all(futs);
  const auto stats = pool.worker_stats();
  ASSERT_EQ(stats.size(), 3u);
  std::size_t tasks = 0;
  for (const auto& w : stats) {
    tasks += w.tasks;
    EXPECT_GE(w.busy_s, 0.0);
    if (w.tasks > 0) {
      EXPECT_GT(w.busy_s, 0.0);
    }
  }
  EXPECT_EQ(tasks, 60u);
}

TEST(ThreadPool, ManyTasksAcrossManyWorkersRunExactlyOnce) {  // P5
  std::atomic<int> ran{0};
  ThreadPool pool(8);
  std::vector<std::future<void>> futs;
  futs.reserve(500);
  for (int i = 0; i < 500; ++i)
    futs.push_back(pool.submit(
        [&ran] { ran.fetch_add(1, std::memory_order_relaxed); }));
  wait_all(futs);
  EXPECT_EQ(ran.load(), 500);
}

}  // namespace
}  // namespace ndf
