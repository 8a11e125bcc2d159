// memtier: the one dat -> memory-tier placement engine (the executable
// half of the memory-mode model). place() is the packer: a pure function
// from a Config and the allocations in order to a tier per dat. Two
// callers share it, so a policy name has one meaning everywhere:
//  - the live allocator. ops::Dat and op2::Dat call on_alloc() from their
//    constructors; while a Config is installed the allocations are
//    recorded and placements() packs them.
//  - the DataMoveProfiler's what-if (core/datmove.cpp), which replays the
//    counted dats in first-touch order when no allocator is installed.
// Like every always-on layer the hook is compiled in and gated: the
// disabled fast path is one relaxed load plus a branch (asserted < 5 ns
// by bench/gb_memtier_overhead).
//
// This lives in common (not core/sim) so the ops/op2 runtimes can call
// the hook without a dependency cycle; core adapts sim::MachineModel
// tiers into the Config.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/gate.hpp"

namespace bwlab::memtier {

/// One placement target, fastest first (mirrors sim::MemoryTier without
/// pulling sim into the common layer). capacity_bytes == 0 = unbounded.
struct Tier {
  std::string name;
  double capacity_bytes = 0;
  double bw_bytes_per_s = 0;
};

/// One dat's allocation and, once placed, its tier.
struct Placement {
  std::string dat;          ///< dat name
  std::string tier;         ///< assigned tier ("" before place())
  std::uint64_t bytes = 0;  ///< bytes of the deciding (first) allocation
};

/// Placement configuration: place()'s input; install() arms it live.
struct Config {
  /// Placement policy (--place):
  ///   auto        pack the fastest tier to its node capacity in
  ///               allocation order; overflow moves to the next tier
  ///   hbm | ddr   pin every dat to the named tier
  ///   firsttouch  OS first-touch: pages land in the allocating NUMA
  ///               domain's tier slice, so packing is bounded by
  ///               capacity/numa_domains per tier (SNC-4 quarters it)
  std::string policy = "auto";
  /// Tiers, fastest first (sim::MachineModel::tiers adapted by core).
  std::vector<Tier> tiers;
  /// Total NUMA domains (sockets x numa_per_socket); the firsttouch
  /// policy divides tier capacity by this.
  int numa_domains = 1;
};

/// The packer: returns `allocs` (in allocation order) with each tier set.
/// auto and firsttouch put a dat on the first tier, fastest first, that is
/// unbounded or still has room for it; when none has, the slowest tier
/// takes it (DRAM never refuses an allocation). A pin puts every dat on
/// the named tier. Throws bwlab::Error for an empty tier list,
/// numa_domains < 1, or a policy that is neither auto, firsttouch nor a
/// tier of `cfg`.
std::vector<Placement> place(const Config& cfg, std::vector<Placement> allocs);

/// Validates (as place() does) and installs `cfg`, clears the recorded
/// allocations, opens the gate.
void install(Config cfg);
/// Closes the gate and drops the config and all recorded allocations.
void uninstall();

namespace detail {
extern Gate g_on;
void record(const std::string& name, std::uint64_t bytes);
}  // namespace detail

/// True while a placement config is installed.
inline bool enabled() { return detail::g_on.enabled(); }

/// Allocation hook called by the dat constructors. Disabled fast path:
/// one relaxed load + branch.
inline void on_alloc(const std::string& name, std::uint64_t bytes) {
  if (!detail::g_on.enabled()) return;
  detail::record(name, bytes);
}

/// The recorded allocations in order, tiers unset. Allocations are keyed
/// by dat name and the FIRST one wins: per-rank replicas of the same
/// logical dat do not debit tier capacity once per rank, and re-runs with
/// the same config reproduce the same tier map.
std::vector<Placement> allocations();
/// place(config(), allocations()): the live tier map; empty while off.
std::vector<Placement> placements();
/// The installed config (valid while enabled()).
Config config();

}  // namespace bwlab::memtier
