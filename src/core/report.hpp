// Small report helpers shared by the figure generators: normalization to
// the per-application best (Figures 3/4 are slowdown heatmaps), row
// ordering by average, speedup tables, and the bwtrace run-summary report
// (top-N loops, Figure 8 effective-bandwidth table, JSON export).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/instrument.hpp"
#include "common/metrics.hpp"
#include "common/stats.hpp"
#include "common/timeseries.hpp"
#include "common/table.hpp"
#include "common/trace.hpp"
#include "core/attribution.hpp"
#include "core/causal.hpp"
#include "core/datmove.hpp"
#include "core/memtier.hpp"

namespace bwlab::core {

/// times[row][col] -> slowdown vs the column's best (>= 1.0 everywhere,
/// exactly 1.0 for each column's winner).
std::vector<std::vector<double>> normalize_columns_to_best(
    const std::vector<std::vector<double>>& times);

/// Row indices sorted ascending by the row's mean value (the ordering of
/// Figures 3 and 4).
std::vector<std::size_t> order_rows_by_mean(
    const std::vector<std::vector<double>>& values);

/// Mean and median of all entries (the paper's §5 "mean slowdown vs best
/// 1.25, median 1.12" summary).
struct SlowdownSummary {
  double mean = 0;
  double median = 0;
};
SlowdownSummary summarize_slowdowns(
    const std::vector<std::vector<double>>& normalized);

// --- Run-summary reporting (bwtrace) ----------------------------------------

/// The `top_n` loops by host time: calls, seconds, useful GB moved, and
/// effective bandwidth. Rows are ordered descending by host_seconds.
Table top_loops_table(const Instrumentation& instr, std::size_t top_n = 10);

/// Per-loop effective bandwidth in the Figure 8 convention (useful bytes /
/// kernel host seconds, comm excluded), in first-execution order.
Table effective_bw_table(const Instrumentation& instr);

// --- Run report as a value (bwdiff input) ------------------------------------
//
// Everything the run-report JSON holds, as plain data: write_run_report_json
// on a RunReport reproduces the bytes parse_run_report read (round-trip is
// bitwise — every section serializes stored values, never re-derived ones),
// and make_run_report snapshots the live process state (instrumentation,
// metrics registry, resilience counters, tracer drop counts) into the same
// struct so the live and offline paths share one writer.

/// Who/what/how of the run, stamped into the report when the caller
/// provides it (run_app does). Deliberately timestamp-free so reports are
/// byte-comparable across identical runs.
struct RunProvenance {
  bool present = false;   ///< section existed / should be written
  std::string git_sha;    ///< benchjson::git_sha(): $BWBENCH_GIT_SHA or build
  std::string machine;    ///< machine model or host identifier
  std::string cmdline;    ///< full CLI line that produced the run
  std::uint64_t seed = 0;
};

/// One "loops" entry. effective_bw_gbs is stored, not re-derived from
/// bytes/host_seconds, so reprinting a parsed report is exact.
struct ReportLoop {
  std::string name;
  count_t calls = 0;
  count_t points = 0;
  count_t bytes = 0;
  double flops = 0;
  seconds_t host_seconds = 0;
  double effective_bw_gbs = 0;
  std::string pattern;
  int max_radius = 0;
  int ndims = 2;
};

/// One "exchanges" entry (halo traffic of one Dat).
struct ReportExchange {
  std::string dat;
  count_t exchanges = 0;
  count_t messages = 0;
  count_t bytes = 0;
  count_t bytes_received = 0;
  int halo_depth = 0;
  count_t elem_bytes = 0;
};

/// The "tiling" section (written only when the run executed tiled chains).
struct TilingSection {
  bool present = false;
  count_t chains = 0;
  count_t tiles = 0;
  idx_t tile_height = 0;
  bool auto_tuned = false;
  double row_bytes = 0;
  double cache_budget_bytes = 0;
};

/// The "resil" section (written only when the resilience policy was
/// active): policy knobs plus recovery counters.
struct ResilSection {
  bool present = false;
  int retry_max = 0;
  long long timeout_us = 0;
  long long backoff_us = 0;
  long long backoff_cap_us = 0;
  bool degraded = false;
  std::uint64_t seed = 0;
  long long retries = 0;
  long long recovered = 0;
  long long degraded_events = 0;
  long long backoff_waits = 0;
  long long rollbacks = 0;
  long long buddy_restores = 0;
  count_t buddy_bytes = 0;
};

/// The "trace" health section (written only when the tracer had events):
/// dropped-event totals per thread, so truncated timelines are visible.
struct TraceSection {
  bool present = false;
  std::uint64_t dropped_events = 0;
  std::vector<trace::ThreadDrops> threads;
};

struct RunReport {
  RunProvenance provenance;
  std::vector<ReportLoop> loops;
  std::vector<ReportExchange> exchanges;
  seconds_t total_loop_seconds = 0;
  TilingSection tiling;
  bool has_attribution = false;
  AttributionReport attribution;
  bool has_metrics = false;
  MetricsSnapshot metrics;
  causal::CausalSection causal;  ///< .present gates the section
  bool has_datmove = false;
  DatMoveReport datmove;
  /// The bwmem x memory-mode "memtier" section (written when run_app
  /// modeled placement): tier map, mode pricing, per-tier loop roofs.
  bool has_memtier = false;
  MemTierSection memtier;
  ResilSection resil;
  TraceSection trace_health;
  /// The bwlive "timeseries" section (written only when a run sampled):
  /// the schema-versioned telemetry series, stored verbatim so reprinting
  /// a parsed report is exact.
  bool has_timeseries = false;
  live::TimeSeries timeseries;
};

/// Snapshots the live run state into a RunReport: instrumentation records,
/// the optional metrics registry / attribution / causal / datmove sections,
/// plus the process-wide resil counters (when resil::active()) and tracer
/// drop counts (when any events were recorded).
RunReport make_run_report(const Instrumentation& instr,
                          const MetricsRegistry* metrics = nullptr,
                          const AttributionReport* attr = nullptr,
                          const causal::Report* causal_rep = nullptr,
                          const DatMoveReport* datmove = nullptr,
                          const RunProvenance* provenance = nullptr,
                          const live::TimeSeries* timeseries = nullptr,
                          const MemTierSection* memtier = nullptr);

/// Serializes `r` as the run-report JSON. Absent sections (present/has_*
/// false) are omitted entirely, so a report without them is byte-identical
/// to the pre-RunReport format.
void write_run_report_json(std::ostream& os, const RunReport& r);

/// write_run_report_json to `path`; throws bwlab::Error if unwritable.
void write_run_report_json_file(const std::string& path, const RunReport& r);

/// Parses a run report previously written by write_run_report_json back
/// into a RunReport — ALL sections (provenance, loops, exchanges, tiling,
/// attribution, metrics, causal, datmove, resil, trace). Writing the
/// result reproduces the input bitwise. Throws bwlab::Error on malformed
/// input.
RunReport parse_run_report(std::istream& is);

/// parse_run_report from `path`; throws bwlab::Error if unreadable.
RunReport read_run_report(const std::string& path);

}  // namespace bwlab::core
