#include "common/timeseries.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <set>
#include <sstream>

#include "common/error.hpp"
#include "common/json.hpp"

namespace bwlab::live {

int TimeSeries::key_index(const std::string& key) const {
  const auto it = std::lower_bound(keys.begin(), keys.end(), key);
  if (it == keys.end() || *it != key) return -1;
  return static_cast<int>(it - keys.begin());
}

double TimeSeries::value(std::size_t sample, int key) const {
  if (key < 0 || sample >= values.size()) return 0;
  const std::vector<double>& row = values[sample];
  const auto k = static_cast<std::size_t>(key);
  return k < row.size() ? row[k] : 0;
}

double TimeSeries::value(std::size_t sample, const std::string& key) const {
  return value(sample, key_index(key));
}

double TimeSeries::last(const std::string& key) const {
  return empty() ? 0 : value(size() - 1, key);
}

double TimeSeries::rate(std::size_t sample, int key) const {
  if (sample == 0 || sample >= size() || key < 0) return 0;
  const double dt = times[sample] - times[sample - 1];
  if (dt <= 0) return 0;
  return (value(sample, key) - value(sample - 1, key)) / dt;
}

double TimeSeries::rate(std::size_t sample, const std::string& key) const {
  return rate(sample, key_index(key));
}

double TimeSeries::last_rate(const std::string& key) const {
  return empty() ? 0 : rate(size() - 1, key_index(key));
}

std::vector<int> TimeSeries::ranks() const {
  std::set<int> out;
  for (const std::string& k : keys) {
    if (k.rfind("rank.", 0) != 0) continue;
    const std::size_t dot = k.find('.', 5);
    if (dot == std::string::npos) continue;
    try {
      out.insert(std::stoi(k.substr(5, dot - 5)));
    } catch (...) {
      // not a rank.<N>.* key; ignore
    }
  }
  return {out.begin(), out.end()};
}

std::string rank_key(int rank, const std::string& what) {
  return "rank." + std::to_string(rank) + "." + what;
}

namespace {

/// True when rank `r` made no observable progress between samples i-1
/// and i: every progress key the series carries for it is flat. A rank
/// with no progress keys at all is never flagged (nothing to judge).
bool window_flat(const TimeSeries& ts, int r, std::size_t i) {
  bool any_key = false;
  for (const char* what : {"steps", "msgs_sent", "bytes_sent"}) {
    const int k = ts.key_index(rank_key(r, what));
    if (k < 0) continue;
    any_key = true;
    if (ts.value(i, k) != ts.value(i - 1, k)) return false;
  }
  return any_key;
}

}  // namespace

std::vector<StallFlag> classify_stalls(const TimeSeries& ts,
                                       std::size_t windows) {
  std::vector<StallFlag> out;
  if (windows == 0 || ts.size() < windows + 1) return out;
  for (const int r : ts.ranks()) {
    std::size_t flat = 0;
    for (std::size_t i = ts.size() - 1; i > 0; --i) {
      if (!window_flat(ts, r, i)) break;
      ++flat;
    }
    if (flat >= windows)
      out.push_back(StallFlag{r, flat, ts.times[ts.size() - 1 - flat]});
  }
  return out;
}

void write_timeseries_json(std::ostream& os, const TimeSeries& ts,
                           int indent) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  os << "{\n"
     << pad << "  \"schema_version\": " << kTimeseriesSchemaVersion
     << ", \"interval_ms\": " << ts.interval_ms
     << ", \"roof_bytes_per_s\": " << ts.roof_bytes_per_s
     << ", \"dropped_samples\": " << ts.dropped_samples << ",\n"
     << pad << "  \"keys\": [";
  bool first = true;
  for (const std::string& k : ts.keys) {
    os << (first ? "\"" : ", \"");
    first = false;
    json::write_string(os, k);
    os << '"';
  }
  os << "],\n" << pad << "  \"samples\": [";
  first = true;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    os << (first ? "\n" : ",\n") << pad << "    {\"t\": " << ts.times[i]
       << ", \"v\": [";
    first = false;
    bool vfirst = true;
    for (const double v : ts.values[i]) {
      os << (vfirst ? "" : ", ") << v;
      vfirst = false;
    }
    os << "]}";
  }
  os << (first ? "]" : "\n" + pad + "  ]") << "\n" << pad << "}";
}

TimeSeries timeseries_from_json(const json::Value& v) {
  const int schema = static_cast<int>(json::num_field(v, "schema_version"));
  BWLAB_REQUIRE(schema == kTimeseriesSchemaVersion,
                "unsupported timeseries schema_version "
                    << schema << " (this build reads "
                    << kTimeseriesSchemaVersion << ")");
  TimeSeries ts;
  ts.interval_ms = static_cast<long long>(json::num_field(v, "interval_ms"));
  ts.roof_bytes_per_s = json::num_field(v, "roof_bytes_per_s");
  ts.dropped_samples = json::count_field(v, "dropped_samples");
  for (const json::Value& k : json::arr_field(v, "keys").arr)
    ts.keys.push_back(k.str);
  for (const json::Value& s : json::arr_field(v, "samples").arr) {
    ts.times.push_back(json::num_field(s, "t"));
    std::vector<double> row;
    for (const json::Value& x : json::arr_field(s, "v").arr)
      row.push_back(x.num);
    BWLAB_REQUIRE(row.size() == ts.keys.size(),
                  "timeseries sample has " << row.size() << " values for "
                                           << ts.keys.size() << " keys");
    ts.values.push_back(std::move(row));
  }
  return ts;
}

void write_timeseries_file(const std::string& path, const TimeSeries& ts,
                           const std::string& app,
                           const std::string& git_sha) {
  std::ofstream os(path);
  BWLAB_REQUIRE(os.good(), "cannot open timeseries output file '" << path
                                                                  << "'");
  os << "{\n  \"schema_version\": " << kTimeseriesSchemaVersion
     << ",\n  \"app\": \"";
  json::write_string(os, app);
  os << "\",\n  \"git_sha\": \"";
  json::write_string(os, git_sha);
  os << "\",\n  \"timeseries\": ";
  write_timeseries_json(os, ts, 2);
  os << "\n}\n";
  BWLAB_REQUIRE(os.good(), "failed writing timeseries to '" << path << "'");
}

TimeSeriesFile parse_timeseries_file(std::istream& is) {
  const json::Value root = json::parse(is);
  BWLAB_REQUIRE(root.kind == json::Value::Kind::Obj,
                "timeseries file must be a JSON object");
  const json::Value* ts = root.find("timeseries");
  BWLAB_REQUIRE(ts != nullptr, "timeseries file has no \"timeseries\" member");
  TimeSeriesFile f;
  f.app = json::str_field(root, "app");
  f.git_sha = json::str_field(root, "git_sha");
  f.series = timeseries_from_json(*ts);
  return f;
}

TimeSeriesFile read_timeseries_file(const std::string& path) {
  std::ifstream is(path);
  BWLAB_REQUIRE(is.good(), "cannot open timeseries file '" << path << "'");
  return parse_timeseries_file(is);
}

}  // namespace bwlab::live
