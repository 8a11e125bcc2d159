// Microbenchmark of the bwfault no-plan fast path. The contract that
// makes it safe to compile the injection hooks into Comm::send and every
// app step loop is that with NO plan installed each hook costs a single
// relaxed atomic load plus a branch. This binary measures both hooks and
// a real 2-rank send/recv ping-pong with and without an inert plan
// (faults targeting ranks that never send), and FAILS (non-zero exit) if
//   * the inactive on_send/on_step hook exceeds its 5 ns budget, or
//   * the hooked send/recv round-trip regresses by more than 25% against
//     the same loop with the plan cleared. The two ping-pongs run as
//     interleaved A/B repetitions and the regression must also pass
//     bwbench's noise rule (disjoint median ± 3·MAD intervals, as in
//     bench_compare), so one noisy median cannot fail the gate.
// Timing/recording goes through bench::Runner (same warmup/repetition
// policy and median statistic as every other gb_* bench); --bench-json
// emits the BENCH_*.json trajectory.
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "bench/bench_common.hpp"
#include "common/fault.hpp"
#include "par/simmpi.hpp"

using namespace bwlab;

namespace {

/// One 2-rank ping-pong pass: `msgs` round trips per rank.
void pingpong(int msgs) {
  par::RunOptions ro;
  ro.watchdog_grace_ms = 0;  // measure the raw message path
  par::run_ranks(
      2,
      [msgs](par::Comm& c) {
        double payload[8] = {};
        const int peer = 1 - c.rank();
        for (int i = 0; i < msgs; ++i) {
          if (c.rank() == 0) {
            c.send(peer, 1, payload, sizeof payload);
            c.recv(peer, 2, payload, sizeof payload);
          } else {
            c.recv(peer, 1, payload, sizeof payload);
            c.send(peer, 2, payload, sizeof payload);
          }
        }
      },
      ro);
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  bench::Runner run(cli, "gb_fault_overhead");

  constexpr std::uint64_t kIters = 20'000'000;
  constexpr double kHookBudgetNs = 5.0;
  constexpr double kSendRegressionBudget = 1.25;
  constexpr int kMsgs = 20'000;

  fault::clear();
  double payload[8] = {};
  const double send_hook_ns =
      run.time_ns_per_iter("hook.on_send", kIters, [&payload] {
        if (fault::active())
          (void)fault::on_send(0, 1, 0, payload, sizeof payload);
      });
  const double step_hook_ns =
      run.time_ns_per_iter("hook.on_step", kIters, [] {
        fault::on_step(0, 0);
      });

  // Per-message cost: each measured repetition is one full ping-pong run
  // (2 * kMsgs messages), converted to ns per message below. No plan (A)
  // and the inert plan (B) alternate. The inert plan's entries target
  // rank 3 of a 2-rank run, so the hook takes its slow path bookkeeping
  // decision but never fires.
  auto [base_s, hooked_s] = run.measure_ab(
      [] {
        fault::clear();
        pingpong(kMsgs);
      },
      [] {
        fault::install(fault::FaultPlan::parse("drop:rank=3,msg=0", 7));
        pingpong(kMsgs);
        fault::clear();
      });
  for (std::vector<double>* v : {&base_s, &hooked_s})
    for (double& s : *v) s = s * 1e9 / (2.0 * kMsgs);
  const benchjson::Metric base{"pingpong.no_plan", "ns",
                               benchjson::Better::Lower, base_s};
  const benchjson::Metric hooked{"pingpong.inert_plan", "ns",
                                 benchjson::Better::Lower, hooked_s};
  for (const benchjson::Metric* m : {&base, &hooked})
    run.record(m->name, m->unit, m->better, m->samples);
  const benchjson::MetricDelta pp =
      bench::ab_gate("gb_fault_overhead", base, hooked,
                     kSendRegressionBudget - 1.0, 200.0);

  std::printf("fault on_send hook, no plan: %.3f ns (budget %.1f ns)\n",
              send_hook_ns, kHookBudgetNs);
  std::printf("fault on_step hook, no plan: %.3f ns (budget %.1f ns)\n",
              step_hook_ns, kHookBudgetNs);
  std::printf("send/recv ping-pong (median ± MAD): %.1f ± %.1f ns no plan, "
              "%.1f ± %.1f ns inert plan (budget %.0f%%, gate %s)\n",
              pp.base_median, pp.base_mad, pp.cand_median, pp.cand_mad,
              (kSendRegressionBudget - 1.0) * 100.0,
              benchjson::to_string(pp.verdict));
  run.finish();

  bool ok = true;
  if (send_hook_ns >= kHookBudgetNs || step_hook_ns >= kHookBudgetNs) {
    std::fprintf(stderr, "FAIL: inactive fault hook over %.1f ns budget\n",
                 kHookBudgetNs);
    ok = false;
  }
  // Thread scheduling makes single ping-pong timings noisy; compare
  // median to median with a generous bound, and only where the noise
  // intervals separate — this is a regression trip wire for accidental
  // locking on the no-fault path, not a profiler.
  if (pp.verdict == benchjson::Verdict::Regressed) {
    std::fprintf(stderr,
                 "FAIL: inert fault plan slowed send/recv %.1f -> %.1f ns\n",
                 pp.base_median, pp.cand_median);
    ok = false;
  }
  if (!ok) return EXIT_FAILURE;
  std::printf("PASS\n");
  return 0;
}
