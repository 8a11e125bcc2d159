#include "common/memtier.hpp"

#include <algorithm>
#include <mutex>
#include <unordered_set>

#include "common/error.hpp"

namespace bwlab::memtier {

namespace detail {
Gate g_on;
}  // namespace detail

namespace {

std::mutex g_mu;
Config g_cfg;
std::vector<Placement> g_allocs;
std::unordered_set<std::string> g_seen;

void validate(const Config& cfg) {
  BWLAB_REQUIRE(!cfg.tiers.empty(), "memtier: config needs at least one tier");
  BWLAB_REQUIRE(cfg.numa_domains >= 1,
                "memtier: numa_domains must be >= 1, got " << cfg.numa_domains);
  if (cfg.policy == "auto" || cfg.policy == "firsttouch") return;
  bool found = false;
  for (const Tier& t : cfg.tiers) found = found || t.name == cfg.policy;
  BWLAB_REQUIRE(found, "memtier: policy '" << cfg.policy
                       << "' names no tier of this machine"
                       << " (expected auto|firsttouch or a tier name)");
}

}  // namespace

std::vector<Placement> place(const Config& cfg, std::vector<Placement> allocs) {
  validate(cfg);
  const std::size_t n = cfg.tiers.size();
  std::size_t pinned = n;
  for (std::size_t i = 0; i < n; ++i)
    if (cfg.tiers[i].name == cfg.policy) pinned = i;
  // Remaining packable capacity per tier. First-touch pages land in the
  // allocating NUMA domain, so each domain packs only its SNC slice.
  std::vector<double> remaining;
  for (const Tier& t : cfg.tiers)
    remaining.push_back(cfg.policy == "firsttouch"
                            ? t.capacity_bytes / cfg.numa_domains
                            : t.capacity_bytes);
  for (Placement& a : allocs) {
    const auto bytes = static_cast<double>(a.bytes);
    std::size_t t = pinned;
    if (t == n) {
      // A tier that cannot hold the dat is skipped whole, mirroring a
      // page-granular but dat-contiguous placement.
      t = 0;
      while (t + 1 < n && cfg.tiers[t].capacity_bytes > 0 &&
             remaining[t] < bytes)
        ++t;
    }
    if (cfg.tiers[t].capacity_bytes > 0)
      remaining[t] = std::max(0.0, remaining[t] - bytes);
    a.tier = cfg.tiers[t].name;
  }
  return allocs;
}

void install(Config cfg) {
  validate(cfg);
  std::lock_guard<std::mutex> lock(g_mu);
  g_cfg = std::move(cfg);
  g_allocs.clear();
  g_seen.clear();
  detail::g_on.enable();
}

void uninstall() {
  detail::g_on.disable();
  std::lock_guard<std::mutex> lock(g_mu);
  g_cfg = Config{};
  g_allocs.clear();
  g_seen.clear();
}

namespace detail {

void record(const std::string& name, std::uint64_t bytes) {
  std::lock_guard<std::mutex> lock(g_mu);
  if (g_cfg.tiers.empty()) return;  // raced with uninstall()
  if (g_seen.insert(name).second) g_allocs.push_back({name, "", bytes});
}

}  // namespace detail

std::vector<Placement> allocations() {
  std::lock_guard<std::mutex> lock(g_mu);
  return g_allocs;
}

std::vector<Placement> placements() {
  std::lock_guard<std::mutex> lock(g_mu);
  if (g_cfg.tiers.empty()) return {};
  return place(g_cfg, g_allocs);
}

Config config() {
  std::lock_guard<std::mutex> lock(g_mu);
  return g_cfg;
}

}  // namespace bwlab::memtier
