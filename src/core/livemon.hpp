// bwlive analysis: the machine-model join and the per-rank renders for
// live telemetry (common/live.hpp collects; this layer interprets).
//
// The roof the live bandwidth is compared against is the MachineModel's
// achieved STREAM-triad node bandwidth — the paper's Figure 1 plateau and
// the denominator of every roof-fraction in the repo — not the theoretical
// peak, so "100% of roof" means "as fast as STREAM", the honest ceiling
// for a bandwidth-bound code.
//
// Stall flags come from live::classify_stalls (common/timeseries.hpp),
// the same rule the sampler applies while the run is going.
#pragma once

#include <cstddef>
#include <string>

#include "common/timeseries.hpp"

namespace bwlab::sim {
struct MachineModel;
}

namespace bwlab::core {

/// The bandwidth roof live telemetry is measured against: the machine's
/// achieved STREAM-triad node bandwidth in bytes/s.
double live_roof_bytes_per_s(const sim::MachineModel& machine);

/// Per-rank table of the last sample (rank, steps, msgs, MB sent,
/// pending irecvs, mailbox, blocked op, stall flag) — what bwtop and the
/// run_app summary both print.
std::string live_rank_table(const live::TimeSeries& ts, std::size_t windows);

/// One-line bandwidth summary of the last window: current bytes/s from
/// the exact (datmove) counter when present, the modeled loop bytes
/// otherwise, plus the roof fraction when the series carries a roof.
std::string live_rate_line(const live::TimeSeries& ts);

}  // namespace bwlab::core
