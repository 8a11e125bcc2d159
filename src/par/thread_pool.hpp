// Persistent thread pool with OpenMP-style static-schedule parallel loops
// and reductions. This is the execution engine behind the "OpenMP" lane of
// the DSLs: a team of threads is created once and reused by every parallel
// region (as OpenMP runtimes do), so per-region cost is a condition-variable
// wakeup plus a join barrier, not thread creation. Inside a region the team
// can also synchronise at barriers (barrier()), so a sequence of dependent
// sweeps runs as one region instead of one region per sweep.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <functional>
#include <utility>
#include <mutex>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace bwlab::par {

/// Process-wide pool occupancy snapshot, aggregated over every live
/// ThreadPool: relaxed-atomic reads, safe from any thread while regions
/// run. This is the bwlive sampler's view of the execution engine (it is
/// registered as a `pool.*` telemetry provider on first pool creation).
struct PoolCensus {
  long long pools = 0;           ///< live ThreadPool instances
  long long threads = 0;         ///< team members across live pools
  long long active_workers = 0;  ///< members currently inside a task
  long long queued = 0;          ///< members signaled but not yet running
  long long regions = 0;         ///< parallel regions executed (cumulative)
};

PoolCensus pool_census();

class ThreadPool {
 public:
  /// Creates a team of `threads` (>= 1). The calling thread acts as team
  /// member 0; `threads - 1` workers are spawned.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return threads_; }

  /// Members of *this* pool currently executing a task. Lock-free
  /// (relaxed) — callable concurrently with run() from a sampler thread.
  int active_workers() const {
    return active_.load(std::memory_order_relaxed);
  }
  /// Workers signaled for the current region that have not yet picked the
  /// task up — the pool's queue depth. Lock-free (relaxed).
  int queued() const { return queued_.load(std::memory_order_relaxed); }
  /// Parallel regions this pool has executed (cumulative). Lock-free.
  count_t regions() const {
    return regions_.load(std::memory_order_relaxed);
  }

  /// Executes `fn(tid)` on every team member (tid in [0, size())) and
  /// returns when all are done.
  void run(const std::function<void(int)>& fn);

  /// Team barrier: returns once every member of the current region has
  /// called it. Callable only from inside run(), and then by every member
  /// the same number of times (a member with no work still arrives).
  /// Writes made by any member before the barrier are visible to every
  /// member after it. Waiters spin briefly, then park, like the region
  /// hand-off. A no-op on a team of one.
  void barrier();

  /// Parallel loop over [begin, end), static schedule (one contiguous
  /// chunk per team member, see chunk()).
  template <class F>
  void parallel_for(idx_t begin, idx_t end, F&& f) {
    if (end <= begin) return;
    const idx_t n = end - begin;
    if (threads_ == 1 || n == 1) {
      for (idx_t i = begin; i < end; ++i) f(i);
      return;
    }
    run([&](int tid) {
      const auto [lo, hi] = chunk(begin, end, tid);
      for (idx_t i = lo; i < hi; ++i) f(i);
    });
  }

  /// Parallel sum-reduction of `f(i)` over [begin, end).
  template <class F>
  double parallel_reduce_sum(idx_t begin, idx_t end, F&& f) {
    if (end <= begin) return 0.0;
    if (threads_ == 1) {
      double s = 0.0;
      for (idx_t i = begin; i < end; ++i) s += f(i);
      return s;
    }
    std::vector<double> partial(static_cast<std::size_t>(threads_), 0.0);
    run([&](int tid) {
      const auto [lo, hi] = chunk(begin, end, tid);
      double s = 0.0;
      for (idx_t i = lo; i < hi; ++i) s += f(i);
      partial[static_cast<std::size_t>(tid)] = s;
    });
    double total = 0.0;
    for (double s : partial) total += s;
    return total;
  }

  /// [lo, hi) sub-range assigned to team member `tid` by the static
  /// schedule (balanced to within one iteration).
  std::pair<idx_t, idx_t> chunk(idx_t begin, idx_t end, int tid) const {
    const idx_t n = end - begin;
    const idx_t t = threads_;
    const idx_t base = n / t, rem = n % t;
    const idx_t lo = begin + tid * base + std::min<idx_t>(tid, rem);
    return {lo, lo + base + (tid < rem ? 1 : 0)};
  }

 private:
  void worker_loop(int tid);

  int threads_;
  int trace_rank_;  ///< rank track of the creating thread (bwtrace)
  std::vector<std::thread> workers_;

  // Region hand-off. generation_ and pending_ are atomics so both sides
  // can spin on them briefly before parking on the condition variables;
  // they still change only under mu_, so no wake-up is lost.
  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  const std::function<void(int)>* task_ = nullptr;
  std::atomic<count_t> generation_{0};
  std::atomic<int> pending_{0};
  std::atomic<bool> shutdown_{false};

  // Team barrier (barrier()): arrivals count up to threads_; the last
  // arrival resets the count and advances the phase under mu_, so a
  // parked waiter cannot miss it.
  std::condition_variable cv_barrier_;
  std::atomic<int> barrier_arrived_{0};
  std::atomic<count_t> barrier_phase_{0};

  // Sampler-visible occupancy mirrors (see PoolCensus). Kept separate
  // from pending_/generation_ so readers never need mu_.
  std::atomic<int> active_{0};
  std::atomic<int> queued_{0};
  std::atomic<count_t> regions_{0};
};

}  // namespace bwlab::par
