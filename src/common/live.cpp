#include "common/live.hpp"


#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "common/instrument.hpp"
#include "common/metrics.hpp"
#include "common/resil.hpp"
#include "common/trace.hpp"

namespace bwlab::live {

namespace {

using Clock = std::chrono::steady_clock;

/// Per-rank step counters. Fixed-size so bump_step is one bounds check +
/// one relaxed fetch_add, with no allocation or lock on the hot path.
constexpr int kMaxRanks = 512;
std::array<std::atomic<std::uint64_t>, kMaxRanks> g_steps{};
std::atomic<int> g_max_rank{-1};
std::atomic<std::uint64_t> g_loop_bytes{0};

/// One raw sample: the key -> value map exactly as collected. Export to
/// the dense TimeSeries matrix happens in series().
struct RawSample {
  double t = 0;
  std::map<std::string, double> kv;
};

/// Session state. g_mu guards everything below; rank threads only take it
/// inside add/remove_provider (run start/end), never on a hot path.
std::mutex g_mu;
std::condition_variable g_cv;
bool g_running = false;
bool g_stop = false;
Config g_cfg;
Clock::time_point g_epoch;
std::deque<RawSample> g_ring;
std::uint64_t g_dropped = 0;
std::map<int, Provider> g_providers;
int g_next_provider = 0;
std::thread g_sampler;

double elapsed_s() {
  return std::chrono::duration<double>(Clock::now() - g_epoch).count();
}

/// The built-in sources: metrics registry, trace drops, datmove mirror,
/// resil counters, step/loop-byte counters. All relaxed-atomic reads
/// (the registry snapshot takes the registry map mutex, which rank hot
/// paths do not hold — instrument references are hoisted at first use).
void collect_builtin(std::map<std::string, double>& kv) {
  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  for (const auto& [name, v] : snap.counters)
    kv["counter." + name] = static_cast<double>(v);
  for (const auto& [name, v] : snap.gauges) kv["gauge." + name] = v;
  kv["trace.dropped_events"] =
      static_cast<double>(trace::dropped_events_now());
  if (datmove::enabled() || datmove::cum_bytes() > 0)
    kv["datmove.cum_bytes"] = static_cast<double>(datmove::cum_bytes());
  if (resil::active()) {
    const resil::Stats st = resil::stats();
    kv["resil.retries"] = static_cast<double>(st.retries);
    kv["resil.recovered"] = static_cast<double>(st.recovered);
    kv["resil.degraded"] = static_cast<double>(st.degraded_events);
    kv["resil.backoffs"] = static_cast<double>(st.backoff_waits);
    kv["resil.rollbacks"] = static_cast<double>(st.rollbacks);
  }
  kv["live.loop_bytes"] =
      static_cast<double>(g_loop_bytes.load(std::memory_order_relaxed));
  const int max_rank = g_max_rank.load(std::memory_order_relaxed);
  for (int r = 0; r <= std::min(max_rank, kMaxRanks - 1); ++r)
    kv[rank_key(r, "steps")] = static_cast<double>(
        g_steps[static_cast<std::size_t>(r)].load(std::memory_order_relaxed));
}

void render_status(const RawSample& s, const std::vector<StallFlag>& flags) {
  const auto find = [&](const char* k) {
    const auto it = s.kv.find(k);
    return it == s.kv.end() ? 0.0 : it->second;
  };
  std::ostringstream stalls;
  if (flags.empty()) stalls << "-";
  for (std::size_t i = 0; i < flags.size(); ++i)
    stalls << (i == 0 ? "" : ",") << flags[i].rank;
  std::fprintf(stderr,
               "\r[bwlive t=%6.1fs] bw %7.2f GB/s (%5.1f%% of roof) "
               "msgs %8.0f  stalling: %s  drops trace=%.0f samples=%.0f   ",
               s.t, find("live.bw_bytes_per_s") / 1e9,
               100.0 * find("live.roof_fraction"), find("counter.comm.messages"),
               stalls.str().c_str(), find("trace.dropped_events"),
               find("live.dropped_samples"));
  std::fflush(stderr);
}

/// The ring from sample `first` on, in canonical export form. Dense rows
/// with carry-forward: a key a provider stopped contributing (its
/// run_ranks World ended) keeps its last value, so cumulative counters
/// stay monotone; before first sight it reads 0. Caller holds g_mu.
TimeSeries series_locked(std::size_t first) {
  TimeSeries ts;
  ts.interval_ms = g_cfg.interval_ms;
  ts.roof_bytes_per_s = g_cfg.roof_bytes_per_s;
  ts.dropped_samples = g_dropped;
  const auto begin = g_ring.begin() + static_cast<std::ptrdiff_t>(first);
  std::set<std::string> keyset;
  for (auto s = begin; s != g_ring.end(); ++s)
    for (const auto& [k, v] : s->kv) {
      (void)v;
      keyset.insert(k);
    }
  ts.keys.assign(keyset.begin(), keyset.end());
  std::map<std::string, double> carried;
  for (auto s = begin; s != g_ring.end(); ++s) {
    ts.times.push_back(s->t);
    std::vector<double> row;
    row.reserve(ts.keys.size());
    for (const std::string& k : ts.keys) {
      const auto it = s->kv.find(k);
      if (it != s->kv.end()) carried[k] = it->second;
      const auto c = carried.find(k);
      row.push_back(c == carried.end() ? 0.0 : c->second);
    }
    ts.values.push_back(std::move(row));
  }
  return ts;
}

/// Takes one sample. Caller holds g_mu.
void take_sample_locked() {
  RawSample s;
  s.t = elapsed_s();
  collect_builtin(s.kv);
  for (const auto& [id, p] : g_providers) {
    (void)id;
    p(s.kv);
  }
  // Windowed bandwidth: exact counted bytes when bwmem is armed, the
  // modeled per-loop useful bytes otherwise.
  double bw = 0;
  if (!g_ring.empty()) {
    const RawSample& prev = g_ring.back();
    const double dt = s.t - prev.t;
    const char* src =
        s.kv.count("datmove.cum_bytes") ? "datmove.cum_bytes"
                                        : "live.loop_bytes";
    const auto cur = s.kv.find(src);
    const auto was = prev.kv.find(src);
    if (dt > 0 && cur != s.kv.end() && was != prev.kv.end())
      bw = std::max(0.0, (cur->second - was->second) / dt);
  }
  const double roof = g_cfg.roof_bytes_per_s;
  s.kv["live.bw_bytes_per_s"] = bw;
  s.kv["live.roof_fraction"] = roof > 0 ? bw / roof : 0.0;
  s.kv["live.dropped_samples"] = static_cast<double>(g_dropped);
  if (g_ring.size() >= std::max<std::size_t>(g_cfg.ring_capacity, 2)) {
    g_ring.pop_front();
    ++g_dropped;
  }
  g_ring.push_back(std::move(s));
  // Stall flags: the offline classifier over the trailing windows.
  const auto windows =
      static_cast<std::size_t>(std::max(g_cfg.stall_windows, 0));
  const std::vector<StallFlag> flags = classify_stalls(
      series_locked(g_ring.size() - std::min(g_ring.size(), windows + 1)),
      windows);
  RawSample& cur = g_ring.back();
  cur.kv["live.stalled_ranks"] = static_cast<double>(flags.size());
  if (g_cfg.status_line) render_status(cur, flags);
}

void sampler_main() {
  std::unique_lock<std::mutex> lock(g_mu);
  const auto interval =
      std::chrono::milliseconds(std::max<long long>(g_cfg.interval_ms, 1));
  auto next = g_epoch + interval;
  for (;;) {
    if (g_cv.wait_until(lock, next, [] { return g_stop; })) return;
    take_sample_locked();
    next += interval;
    // Sampling slower than the interval (a debugger stop, a loaded
    // machine): skip the missed ticks instead of bursting to catch up.
    const auto now = Clock::now();
    while (next < now) next += interval;
  }
}

}  // namespace

namespace detail {

void bump_step(int rank) {
  if (rank < 0 || rank >= kMaxRanks) return;
  g_steps[static_cast<std::size_t>(rank)].fetch_add(
      1, std::memory_order_relaxed);
  int cur = g_max_rank.load(std::memory_order_relaxed);
  while (rank > cur && !g_max_rank.compare_exchange_weak(
                           cur, rank, std::memory_order_relaxed)) {
  }
}

void bump_loop_bytes(std::uint64_t bytes) {
  g_loop_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

}  // namespace detail

int add_provider(Provider p) {
  std::lock_guard<std::mutex> lock(g_mu);
  const int id = g_next_provider++;
  g_providers.emplace(id, std::move(p));
  return id;
}

void remove_provider(int id) {
  // Acquiring g_mu waits out any in-flight sample, so the provider's
  // captured state (e.g. a run_ranks World) may die once this returns.
  std::lock_guard<std::mutex> lock(g_mu);
  g_providers.erase(id);
}

void start(const Config& cfg) {
  std::lock_guard<std::mutex> lock(g_mu);
  BWLAB_REQUIRE(!g_running, "bwlive sampler already running");
  BWLAB_REQUIRE(cfg.interval_ms > 0,
                "bwlive interval must be positive, got " << cfg.interval_ms);
  g_cfg = cfg;
  g_ring.clear();
  g_dropped = 0;
  for (auto& s : g_steps) s.store(0, std::memory_order_relaxed);
  g_max_rank.store(-1, std::memory_order_relaxed);
  g_loop_bytes.store(0, std::memory_order_relaxed);
  g_stop = false;
  g_epoch = Clock::now();
  g_sampler = std::thread(sampler_main);
  g_running = true;
  detail::g_on.enable();
}

void stop() {
  std::thread sampler;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    if (!g_running) return;
    // Final sample: the exit-time aggregates, so the series' last
    // cumulative values match what the run report stores.
    take_sample_locked();
    detail::g_on.disable();
    g_stop = true;
    sampler = std::move(g_sampler);
  }
  g_cv.notify_all();
  if (sampler.joinable()) sampler.join();
  std::lock_guard<std::mutex> lock(g_mu);
  if (g_cfg.status_line) std::fprintf(stderr, "\n");
  g_running = false;
}

bool running() {
  std::lock_guard<std::mutex> lock(g_mu);
  return g_running;
}

void sample_now() {
  std::lock_guard<std::mutex> lock(g_mu);
  if (!g_running) return;
  take_sample_locked();
}

TimeSeries series() {
  std::lock_guard<std::mutex> lock(g_mu);
  return series_locked(0);
}

std::uint64_t rank_steps(int rank) {
  if (rank < 0 || rank >= kMaxRanks) return 0;
  return g_steps[static_cast<std::size_t>(rank)].load(
      std::memory_order_relaxed);
}

std::uint64_t loop_bytes() {
  return g_loop_bytes.load(std::memory_order_relaxed);
}

}  // namespace bwlab::live
