// A small reusable fixed-size thread pool: FIFO task queue, futures for
// results and exception propagation, drain-on-destruction semantics. This
// is the execution substrate of the grid fan-out (src/exp/fanout), but it
// is deliberately generic — any subsystem that wants to fan
// independent work across cores can own one.
//
// Semantics worth knowing:
//   - Tasks start in submission order (FIFO); with one worker the pool is
//     a strict serial executor, which tests exploit.
//   - A task's exception is captured into its future and rethrown by
//     future::get(); it never unwinds a worker thread.
//   - The destructor runs every task still queued, then joins. Queued work
//     is never silently dropped — a sweep that throws mid-fan-out can let
//     the pool go out of scope while tasks it no longer cares about are
//     pending, and they finish before any data they touch is destroyed.
//   - submit() after destruction has begun is a CheckError (it would race
//     the drain), not a silent no-op.
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "support/check.hpp"

namespace ndf {

class ThreadPool {
 public:
  /// Spawns exactly `threads` workers (>= 1; throws CheckError on 0 — a
  /// zero-size pool would deadlock every submit).
  explicit ThreadPool(std::size_t threads);

  /// Drains the queue (every queued task runs), then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues `f` and returns the future of its result. The callable runs
  /// exactly once on some worker; exceptions surface from future::get().
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    // packaged_task is move-only and std::function requires copyable
    // callables, so the task rides in a shared_ptr. The accounting guard
    // lives *inside* the packaged_task, so its stats update completes
    // before the future is satisfied: worker_stats() after wait_all()
    // counts every finished task, with no window where a waiter observes
    // the result but not the accounting.
    auto task = std::make_shared<std::packaged_task<R()>>(
        [this, fn = std::forward<F>(f)]() mutable -> R {
          const AccountingGuard guard(this);
          return fn();
        });
    std::future<R> fut = task->get_future();
    enqueue([task] { (*task)(); });
    return fut;
  }

  /// Hardware concurrency clamped to >= 1 (the standard allows 0 for
  /// "unknown"). The default worker count for `--jobs=0` / unset.
  static std::size_t default_jobs();

  /// Per-worker self-profiling: wall-clock spent inside tasks and tasks
  /// executed, accumulated since construction. Everything not busy_s since
  /// the pool started is idle (queue waits + cv sleeps) — the imbalance
  /// signal `ndf_sweep --phase-times` prints per worker.
  struct WorkerStats {
    double busy_s = 0.0;
    std::size_t tasks = 0;
  };

  /// Snapshot of every worker's stats (index = worker). Taken under the
  /// queue lock; safe to call while tasks run, but a quiescent pool (after
  /// wait_all) gives exact totals.
  std::vector<WorkerStats> worker_stats();

 private:
  /// Times one task and books it to the executing worker on destruction —
  /// including when the task throws. Runs inside the packaged_task (see
  /// submit), which is what orders the update before future satisfaction.
  struct AccountingGuard {
    explicit AccountingGuard(ThreadPool* p)
        : pool(p), t0(std::chrono::steady_clock::now()) {}
    ~AccountingGuard();
    AccountingGuard(const AccountingGuard&) = delete;
    AccountingGuard& operator=(const AccountingGuard&) = delete;
    ThreadPool* pool;
    std::chrono::steady_clock::time_point t0;
  };

  void enqueue(std::function<void()> fn);
  void worker_loop(std::size_t worker);

  /// Index of the pool worker executing on this thread (set by
  /// worker_loop; SIZE_MAX on non-worker threads, where the guard books
  /// nothing).
  static thread_local std::size_t tls_worker_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<WorkerStats> stats_;  // guarded by mu_
  std::vector<std::thread> workers_;
};

/// Waits for every future, then rethrows the first stored exception (in
/// submission order, so failures are reported deterministically). Waiting
/// on all before rethrowing matters: the caller's data must not be torn
/// down while sibling tasks still run.
template <typename T>
void wait_all(std::vector<std::future<T>>& futs) {
  for (auto& f : futs) f.wait();
  for (auto& f : futs) f.get();
}

/// Splits [0, n) into at most `chunks` contiguous ranges (sizes differing
/// by at most one) and runs `body(begin, end)` once per range, with
/// begin < end. One task per *range* instead of per index is the point:
/// anything the body hoists out of its index loop (a reused simulator
/// core, scratch buffers) is amortized over the whole range. With a pool,
/// each range is one pool task, dequeued FIFO, so passing more chunks than
/// workers trades amortization span for dynamic load balance; the call
/// blocks until every range completed and failures rethrow in submission
/// (= index) order, after all siblings finished with the caller's data
/// (wait_all semantics). With `pool` null the same ranges run inline, in
/// order, on the calling thread, and a failure propagates at once.
template <typename Body>
void parallel_for_chunks(ThreadPool* pool, std::size_t n, std::size_t chunks,
                         Body&& body) {
  if (n == 0) return;
  chunks = std::min(std::max<std::size_t>(chunks, 1), n);
  const std::size_t base = n / chunks, extra = n % chunks;
  std::vector<std::future<void>> futs;
  if (pool != nullptr) futs.reserve(chunks);
  std::size_t begin = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t end = begin + base + (c < extra ? 1 : 0);
    if (pool != nullptr)
      futs.push_back(pool->submit([begin, end, &body] { body(begin, end); }));
    else
      body(begin, end);
    begin = end;
  }
  wait_all(futs);
}

}  // namespace ndf
