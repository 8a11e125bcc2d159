#include "par/thread_pool.hpp"

#include <chrono>
#include <map>
#include <string>

#include "common/live.hpp"
#include "common/trace.hpp"

namespace bwlab::par {

namespace {

// Process-wide census: every live pool contributes, so the bwlive sampler
// sees total occupancy without enumerating pools (relaxed atomics only).
std::atomic<long long> g_pools{0};
std::atomic<long long> g_threads{0};
std::atomic<long long> g_active{0};
std::atomic<long long> g_queued{0};
std::atomic<long long> g_regions{0};
std::once_flag g_census_provider_once;

/// Registered once, never removed: reads only the global atomics, so it
/// stays valid after every pool is gone.
void register_census_provider() {
  std::call_once(g_census_provider_once, [] {
    live::add_provider([](std::map<std::string, double>& kv) {
      const PoolCensus c = pool_census();
      kv["pool.pools"] = static_cast<double>(c.pools);
      kv["pool.threads"] = static_cast<double>(c.threads);
      kv["pool.active_workers"] = static_cast<double>(c.active_workers);
      kv["pool.queued"] = static_cast<double>(c.queued);
      kv["pool.regions"] = static_cast<double>(c.regions);
    });
  });
}

/// Spins (with a CPU relax hint) until `done()` or kSpinBudget passes;
/// returns done(). Back-to-back regions and team barriers then hand off
/// without a futex sleep and wake-up each. The budget bounds the CPU an
/// idle worker burns when nothing follows.
constexpr std::chrono::microseconds kSpinBudget{50};

template <class Done>
bool spin_until(Done&& done) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
  do {
    for (int i = 0; i < 64; ++i) {
      if (done()) return true;
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
  } while (std::chrono::steady_clock::now() < deadline);
  return done();
}

/// Brackets one team member's task execution in the per-pool and global
/// active counts (exception-safe: a throwing task must not wedge the
/// census).
class ActiveGuard {
 public:
  explicit ActiveGuard(std::atomic<int>& pool_active) : pool_(pool_active) {
    pool_.fetch_add(1, std::memory_order_relaxed);
    g_active.fetch_add(1, std::memory_order_relaxed);
  }
  ~ActiveGuard() {
    pool_.fetch_sub(1, std::memory_order_relaxed);
    g_active.fetch_sub(1, std::memory_order_relaxed);
  }
  ActiveGuard(const ActiveGuard&) = delete;
  ActiveGuard& operator=(const ActiveGuard&) = delete;

 private:
  std::atomic<int>& pool_;
};

}  // namespace

PoolCensus pool_census() {
  PoolCensus c;
  c.pools = g_pools.load(std::memory_order_relaxed);
  c.threads = g_threads.load(std::memory_order_relaxed);
  c.active_workers = g_active.load(std::memory_order_relaxed);
  c.queued = g_queued.load(std::memory_order_relaxed);
  c.regions = g_regions.load(std::memory_order_relaxed);
  return c;
}

ThreadPool::ThreadPool(int threads)
    : threads_(threads), trace_rank_(trace::current_rank()) {
  BWLAB_REQUIRE(threads >= 1, "thread pool needs >= 1 thread, got " << threads);
  register_census_provider();
  g_pools.fetch_add(1, std::memory_order_relaxed);
  g_threads.fetch_add(threads, std::memory_order_relaxed);
  workers_.reserve(static_cast<std::size_t>(threads - 1));
  for (int t = 1; t < threads; ++t)
    workers_.emplace_back([this, t] { worker_loop(t); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_.store(true, std::memory_order_release);
  }
  cv_start_.notify_all();
  for (std::thread& w : workers_) w.join();
  g_pools.fetch_sub(1, std::memory_order_relaxed);
  g_threads.fetch_sub(threads_, std::memory_order_relaxed);
}

void ThreadPool::run(const std::function<void(int)>& fn) {
  trace::TraceSpan span(trace::Cat::Region, "pool.run");
  regions_.fetch_add(1, std::memory_order_relaxed);
  g_regions.fetch_add(1, std::memory_order_relaxed);
  if (threads_ == 1) {
    ActiveGuard guard(active_);
    fn(0);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    task_ = &fn;
    pending_.store(threads_ - 1, std::memory_order_relaxed);
    queued_.store(threads_ - 1, std::memory_order_relaxed);
    g_queued.fetch_add(threads_ - 1, std::memory_order_relaxed);
    // Publishes task_ and pending_ to workers spinning on the generation.
    generation_.fetch_add(1, std::memory_order_release);
  }
  cv_start_.notify_all();
  {
    ActiveGuard guard(active_);
    fn(0);  // member 0 is the caller
  }
  const auto joined = [this] {
    return pending_.load(std::memory_order_acquire) == 0;
  };
  if (!spin_until(joined)) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, joined);
  }
  task_ = nullptr;
}

void ThreadPool::barrier() {
  if (threads_ == 1) return;
  const count_t phase = barrier_phase_.load(std::memory_order_acquire);
  if (barrier_arrived_.fetch_add(1, std::memory_order_acq_rel) ==
      threads_ - 1) {
    barrier_arrived_.store(0, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mu_);
      barrier_phase_.fetch_add(1, std::memory_order_release);
    }
    cv_barrier_.notify_all();
    return;
  }
  const auto released = [&] {
    return barrier_phase_.load(std::memory_order_acquire) != phase;
  };
  if (!spin_until(released)) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_barrier_.wait(lock, released);
  }
}

void ThreadPool::worker_loop(int tid) {
  // Workers belong to the rank that created the pool: same Chrome pid,
  // tid = team member index (0 is the rank's own thread).
  trace::set_thread_track(trace_rank_, tid,
                          "rank " + std::to_string(trace_rank_) + " worker " +
                              std::to_string(tid));
  count_t seen = 0;
  for (;;) {
    const auto signaled = [&] {
      return shutdown_.load(std::memory_order_acquire) ||
             generation_.load(std::memory_order_acquire) != seen;
    };
    if (!spin_until(signaled)) {
      std::unique_lock<std::mutex> lock(mu_);
      cv_start_.wait(lock, signaled);
    }
    if (shutdown_.load(std::memory_order_acquire)) return;
    seen = generation_.load(std::memory_order_acquire);
    const std::function<void(int)>* task = task_;
    queued_.fetch_sub(1, std::memory_order_relaxed);
    g_queued.fetch_sub(1, std::memory_order_relaxed);
    {
      // Recorded on the worker's own track: shows worker occupancy per
      // parallel region in the trace.
      trace::TraceSpan span(trace::Cat::Region, "pool.task");
      ActiveGuard guard(active_);
      (*task)(tid);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1)
        cv_done_.notify_one();
    }
  }
}

}  // namespace bwlab::par
