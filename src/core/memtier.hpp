// The "memtier" run-report section: how the machine's memory mode priced
// the run's counted working set (HBM capacity, hit fraction, tiered
// bandwidth, spill estimate) and the bwmem x roofline join split per tier
// (core/attribution.cpp tier_roof_join). Where each dat lived is the
// "datmove" section's dats[].tier and tiers[], the one per-tier
// attribution; the join reads its dat -> tier map from there.
// Schema-versioned and stored-value-only like every other section, so
// write -> parse -> write is bitwise.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "common/instrument.hpp"
#include "common/json.hpp"
#include "common/memtier.hpp"
#include "common/table.hpp"
#include "core/attribution.hpp"
#include "core/datmove.hpp"
#include "sim/machine.hpp"

namespace bwlab::core {

inline constexpr int kMemTierSchemaVersion = 2;

/// The "memtier" section (RunReport::memtier, gated by has_memtier).
struct MemTierSection {
  bool present = false;
  int schema_version = kMemTierSchemaVersion;
  std::string machine_id;  ///< machine (or variant) the run modeled
  std::string mode;        ///< "hbmonly" | "flat" | "cache"
  bool snc = false;        ///< sub-NUMA clustering partitions the tiers
  std::string place;       ///< placement policy (--place)
  count_t working_set_bytes = 0;  ///< sum of counted dat footprints
  double hbm_capacity_bytes = 0;  ///< node HBM capacity (0 when absent)
  /// BandwidthModel::hbm_service_fraction at the run's working set: the
  /// flat-mode packing fraction or the cache-mode hit curve.
  double hbm_hit_fraction = 0;
  /// Reuse-histogram bytes whose stack distance exceeds the HBM capacity
  /// — the traffic a transparent HBM cache of that size cannot serve.
  count_t est_spill_bytes = 0;
  /// Mode-aware DRAM bandwidth at the run's working set (node scope).
  double tiered_bw_bytes_per_s = 0;
  std::vector<LoopTierRoofs> loop_roofs;  ///< first-execution order
};

/// Builds the section from the run's counted bytes (bwmem) and machine
/// model; without counting the working set, pricing and spill stay 0.
/// The per-tier loop roofs join `dm`'s dat -> tier map and are empty
/// without it.
MemTierSection build_memtier_section(const Instrumentation& instr,
                                     const sim::MachineModel& m,
                                     const std::string& place,
                                     const DatMoveReport* dm = nullptr);

/// Adapts `m`'s tiers into a memtier::Config (node capacities, SNC-aware
/// numa_domains) with policy `place`: the live allocator's and datmove's
/// what-if config alike.
memtier::Config memtier_config(const sim::MachineModel& m,
                               const std::string& place);

/// Console table: the per-tier loop roofs.
Table memtier_roof_table(const MemTierSection& s);

/// JSON writer (the "memtier" object of the run report).
void write_json(std::ostream& os, const MemTierSection& s, int indent);
/// Inverse of write_json; throws bwlab::Error on malformed input.
MemTierSection memtier_from_json(const json::Value& v);

}  // namespace bwlab::core
