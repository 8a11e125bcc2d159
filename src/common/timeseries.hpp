// bwlive sample storage: a run's telemetry as a time series of cumulative
// counter snapshots. The sampler (common/live.hpp) appends one sample per
// interval; this module is the value side — the canonical key/value
// matrix, windowed-rate helpers, and the schema-versioned JSON that
// becomes both the run report's "timeseries" section and the standalone
// TIMESERIES_<app>.json that tools/bwtop renders.
//
// Timestamps are run-relative steady-clock seconds (t = 0 at
// live::start()): wall-clock timestamps would make reports
// machine/locale-dependent and can jump under NTP, while run-relative
// steady time is exactly the x-axis every derived rate needs. The *schema*
// (key set, field layout) is deterministic for a given app/config even
// though the timestamps and sample count are not: keys are exported in
// sorted order and samples are dense (missing keys carry the last seen
// value forward, 0 before first sight).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace bwlab::json {
struct Value;
}

namespace bwlab::live {

/// Bumped whenever the timeseries JSON layout changes incompatibly
/// (benchjson convention); readers reject other major versions.
inline constexpr int kTimeseriesSchemaVersion = 1;

/// The exported series: `keys` in sorted order, one aligned value row per
/// sample. Every value is a cumulative counter or an instantaneous gauge
/// sampled at `times[i]` seconds after the sampler started.
struct TimeSeries {
  long long interval_ms = 0;      ///< configured sampling interval
  double roof_bytes_per_s = 0;    ///< MachineModel STREAM-triad roof (0 = unknown)
  std::uint64_t dropped_samples = 0;  ///< ring overwrites (oldest evicted)
  std::vector<std::string> keys;
  std::vector<double> times;                 ///< run-relative seconds
  std::vector<std::vector<double>> values;   ///< [sample][key index]

  std::size_t size() const { return times.size(); }
  bool empty() const { return times.empty(); }

  /// Index of `key` in keys, or -1 when absent.
  int key_index(const std::string& key) const;
  double value(std::size_t sample, int key) const;
  /// Value of `key` at `sample`; 0 when the key is absent.
  double value(std::size_t sample, const std::string& key) const;
  /// Value of `key` at the last sample; 0 when absent or empty.
  double last(const std::string& key) const;

  /// Windowed rate (value[i] - value[i-1]) / (t[i] - t[i-1]);
  /// 0 for sample 0, a missing key, or a non-positive window.
  double rate(std::size_t sample, int key) const;
  double rate(std::size_t sample, const std::string& key) const;
  /// Rate over the last window.
  double last_rate(const std::string& key) const;

  /// Ranks that contributed any "rank.<R>." key, ascending.
  std::vector<int> ranks() const;
};

/// Key of one per-rank quantity, e.g. rank_key(3, "steps") ->
/// "rank.3.steps". The sampler and the readers must agree on these.
std::string rank_key(int rank, const std::string& what);

/// One stalling rank: flat for `windows` consecutive trailing windows,
/// i.e. no observed progress since `since_s` (run-relative seconds).
struct StallFlag {
  int rank = -1;
  std::size_t windows = 0;
  double since_s = 0;
};

/// The one stall rule, run by the sampler on its trailing samples and by
/// bwtop on a saved series: ranks whose progress counters are flat across
/// the last `windows` windows of `ts` (needs windows + 1 trailing
/// samples; fewer samples or no per-rank keys => no flags). Progress =
/// any of rank.<R>.steps / .msgs_sent / .bytes_sent changing. The window
/// count is shorter than the bwfault watchdog's grace period, so the flag
/// precedes a WatchdogError (tests assert the ordering).
std::vector<StallFlag> classify_stalls(const TimeSeries& ts,
                                       std::size_t windows);

/// Writes the timeseries JSON object (schema_version, interval_ms,
/// roof_bytes_per_s, dropped_samples, keys, samples). `indent` is the
/// object's base indentation (2 inside the run report). The writer prints
/// stored values with default stream formatting, so parse -> reprint is
/// bitwise (the run-report round-trip convention).
void write_timeseries_json(std::ostream& os, const TimeSeries& ts,
                           int indent);

/// Parses an object written by write_timeseries_json; throws bwlab::Error
/// on malformed input or an unsupported schema_version.
TimeSeries timeseries_from_json(const json::Value& v);

/// A standalone TIMESERIES_<app>.json: app/git_sha provenance wrapping
/// the same timeseries object.
struct TimeSeriesFile {
  std::string app;
  std::string git_sha;
  TimeSeries series;
};

void write_timeseries_file(const std::string& path, const TimeSeries& ts,
                           const std::string& app, const std::string& git_sha);
TimeSeriesFile parse_timeseries_file(std::istream& is);
TimeSeriesFile read_timeseries_file(const std::string& path);

}  // namespace bwlab::live
