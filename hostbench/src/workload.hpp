// The four named workloads of the host benchmark and the calls that run
// them through the applications' public entry points. Why each workload
// exists, and which layer metrics it is meant to move, is written down in
// hostbench/README.md.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "apps/app_common.hpp"
#include "core/causal.hpp"

namespace bwlab::hostbench {

struct Workload {
  std::string name;
  std::string app;  ///< "clover2d" or "mgcfd"
  apps::Options opt;
  /// trace + causal + datmove armed on every call, with the full post-run
  /// analysis (run_app --trace --causal --datmove)
  bool observed = false;
  /// Whether the generated inputs change with the benchmark seed.
  bool seed_dependent = false;
  double cells = 0;  ///< cells updated per step (finest mesh for mgcfd)
  /// Relative checksum tolerance against the serial eager reference.
  double rel_tol = 0;
  int cores() const { return opt.ranks * opt.threads; }
};

const std::vector<std::string>& workload_names();

/// The named workload. `tiny` shrinks the problem and step count for the
/// benchmark's self-test. The seed reaches the program only through
/// Options::seed.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool tiny);

/// The single-rank, single-thread, eager configuration of the same
/// problem: the correctness reference and the serial baseline.
apps::Options reference_options(const Workload& w);

/// True when `checksum` agrees with the reference within w.rel_tol.
bool checksum_matches(const Workload& w, double checksum, double reference);

/// One app call through `apps::<app>::run`.
apps::Result run_app(const Workload& w, const apps::Options& opt);

/// What the post-run work after one call cost, component by component.
struct PostRun {
  double total_s = 0;
  double trace_write_s = 0;
  double causal_s = 0;
  double datmove_s = 0;
  double report_s = 0;  ///< core::attribute + core::make_run_report
  core::causal::Report causal;  ///< filled when the call was traced
};

/// Observability a call runs under.
enum class Arming {
  Off,     ///< nothing armed; post-run is attribute + report
  Traced,  ///< bwtrace on; post-run adds causal analysis
  /// bwtrace + datmove on; post-run adds the trace file write, causal
  /// analysis and the datmove analysis (clover2d-observed)
  Observed,
};

/// Arms the layers of `a` before a call. `trace_buffer` bounds each
/// thread's trace buffer (events).
void arm(Arming a, std::size_t trace_buffer);

/// The post-run work run_app does after a call made under `a`, timed.
/// Disarms what arm() armed. The trace file goes to `trace_path`.
PostRun post_run(const Workload& w, const apps::Result& r, Arming a,
                 const std::string& trace_path);

}  // namespace bwlab::hostbench
