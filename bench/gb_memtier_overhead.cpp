// Microbenchmark of the memtier allocator's disabled fast path. Every
// ops::Dat / op2::Dat constructor calls memtier::on_alloc(); with no
// placement config installed that hook must cost one relaxed atomic load
// (the shared common/gate.hpp Gate) plus a branch — the name/bytes
// arguments must not be touched. This binary measures the hook both ways
// and FAILS if the disabled median exceeds the same 5 ns budget the
// other gb_*_overhead guards enforce, so it runs under `ctest -L bench`.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/bench_common.hpp"
#include "common/memtier.hpp"
#include "core/memtier.hpp"
#include "sim/machine.hpp"

using namespace bwlab;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  bench::Runner run(cli, "gb_memtier_overhead");

  constexpr std::uint64_t kIters = 20'000'000;
  constexpr double kBudgetNs = 5.0;

  // The constructor site as ops::Dat emits it: a named dat of a fixed
  // footprint. The name lives outside the loop like the member it is.
  const std::string name = "bench.dat";
  std::uint64_t bytes = 4096;

  memtier::uninstall();
  const double disabled_ns =
      run.time_ns_per_iter("alloc_hook.disabled", kIters, [&] {
        memtier::on_alloc(name, bytes);
        ++bytes;  // defeat loop-invariant hoisting of the call site
      });

  // Enabled path for reference only (map insert on first sight, lookup
  // after): measured, recorded, not asserted.
  const memtier::Config cfg =
      core::memtier_config(sim::machine_by_id("max9480-flat"), "auto");
  memtier::install(cfg);
  const double enabled_ns =
      run.time_ns_per_iter("alloc_hook.enabled", kIters / 200, [&] {
        memtier::on_alloc(name, bytes);
      });
  const std::size_t decisions = memtier::placements().size();
  memtier::uninstall();

  // Deterministic config facts for the bwbench gate: the flat-mode MAX
  // exposes two placement targets and one decision per logical dat.
  run.record_value("model.flat_tiers", "tiers", benchjson::Better::Higher,
                   static_cast<double>(cfg.tiers.size()));
  run.record_value("model.decisions_per_dat", "n", benchjson::Better::Lower,
                   static_cast<double>(decisions));

  std::printf("alloc hook, disabled: %.3f ns (budget %.1f ns)\n", disabled_ns,
              kBudgetNs);
  std::printf("alloc hook, enabled:  %.3f ns (reference only)\n", enabled_ns);
  run.finish();

  if (disabled_ns >= kBudgetNs) {
    std::fprintf(stderr,
                 "FAIL: disabled alloc hook %.3f ns >= %.1f ns budget\n",
                 disabled_ns, kBudgetNs);
    return EXIT_FAILURE;
  }
  if (decisions != 1) {
    std::fprintf(stderr,
                 "FAIL: %zu placement decisions for one repeated dat "
                 "(first-allocation-wins broken)\n",
                 decisions);
    return EXIT_FAILURE;
  }
  std::printf("PASS\n");
  return 0;
}
