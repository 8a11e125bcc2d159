// Layer probes: timed calls into single public functions of one layer,
// run in a phase of their own so they never overlap a timed app call.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace bwlab::hostbench {

struct ProbeStat {
  double p50 = 0;
  double p99 = 0;
  std::size_t n = 0;  ///< timed samples (after warm-up)
};

/// Linear-interpolated quantile q in [0, 1] of `v` (copied and sorted).
double quantile(std::vector<double> v, double q);

struct ProbeSizes {
  idx_t grid_n = 2048;  ///< structured probes: field extent
  idx_t mesh_n = 96;    ///< op2 probes: hex mesh scale
  std::size_t triad_n = 0;  ///< doubles per BabelStream array
  int threads = 4;      ///< the workload's core count
  std::uint64_t seed = 1;
};

/// Runs every probe. Each entry is named by its metric and carries the
/// unit the name ends in (_us, _ms, _s, _gbs).
std::vector<std::pair<std::string, ProbeStat>> run_probes(
    const ProbeSizes& sizes);

}  // namespace bwlab::hostbench
