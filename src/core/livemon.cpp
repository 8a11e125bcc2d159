#include "core/livemon.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "par/simmpi.hpp"
#include "sim/machine.hpp"

namespace bwlab::core {

double live_roof_bytes_per_s(const sim::MachineModel& machine) {
  return machine.stream_triad_node;
}

std::string live_rank_table(const live::TimeSeries& ts,
                            std::size_t windows) {
  std::ostringstream os;
  const std::vector<int> ranks = ts.ranks();
  if (ranks.empty()) return "";
  std::vector<int> stalled;
  for (const live::StallFlag& f : live::classify_stalls(ts, windows))
    stalled.push_back(f.rank);
  os << "  rank      steps       msgs    MB sent  pend  mbox  op\n";
  for (const int r : ranks) {
    const bool is_stalled =
        std::find(stalled.begin(), stalled.end(), r) != stalled.end();
    os << "  " << std::setw(4) << r << "  " << std::setw(9)
       << static_cast<long long>(ts.last(live::rank_key(r, "steps")))
       << "  " << std::setw(9)
       << static_cast<long long>(ts.last(live::rank_key(r, "msgs_sent")))
       << "  " << std::setw(9) << std::fixed << std::setprecision(2)
       << ts.last(live::rank_key(r, "bytes_sent")) / 1e6 << "  "
       << std::setw(4)
       << static_cast<long long>(ts.last(live::rank_key(r, "pending_irecv")))
       << "  " << std::setw(4)
       << static_cast<long long>(ts.last(live::rank_key(r, "mailbox")))
       << "  "
       << par::blocked_op_name(
              static_cast<int>(ts.last(live::rank_key(r, "blocked_op"))))
       << (is_stalled ? "  ** STALLING **" : "") << "\n";
    os.unsetf(std::ios::fixed);
    os << std::setprecision(6);
  }
  return os.str();
}

std::string live_rate_line(const live::TimeSeries& ts) {
  std::ostringstream os;
  if (ts.empty()) return "no samples";
  const bool exact = ts.key_index("datmove.cum_bytes") >= 0;
  const double bw =
      ts.last_rate(exact ? "datmove.cum_bytes" : "live.loop_bytes");
  os << std::fixed << std::setprecision(2) << bw / 1e9 << " GB/s ("
     << (exact ? "exact" : "modeled") << ")";
  if (ts.roof_bytes_per_s > 0)
    os << ", " << std::setprecision(1)
       << 100.0 * bw / ts.roof_bytes_per_s << "% of the "
       << std::setprecision(0) << ts.roof_bytes_per_s / 1e9
       << " GB/s STREAM roof";
  return os.str();
}

}  // namespace bwlab::core
