// Microbenchmark of the bwresil disabled fast path. The contract that
// makes it safe to compile the resilience hooks into Comm::send (sequence
// stamping + replay logging) and Comm::recv (the timed, retrying collect)
// is that with NO policy installed each hook costs a single relaxed
// atomic load plus a branch — the same budget bwfault and bwtrace hold.
// This binary measures the disabled-path guard and a real 2-rank
// send/recv ping-pong with the policy off and on, and FAILS (non-zero
// exit) if
//   * the disabled-path Comm hook exceeds its 5 ns budget, or
//   * a disabled policy slows the send/recv round-trip by more than 25%
//     + 200 ns against the same loop with the policy cleared, with
//     disjoint median ± 3·MAD intervals (bench::ab_gate; they are the
//     same code path, so this is the accidental-locking trip wire).
// The resil-on ping-pong is recorded for the trajectory (it pays the
// replay-log copy by design) but carries no budget here.
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "bench/bench_common.hpp"
#include "common/resil.hpp"
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
  bench::Runner run(cli, "gb_resil_overhead");

  constexpr std::uint64_t kIters = 20'000'000;
  constexpr double kHookBudgetNs = 5.0;
  constexpr double kSendRegressionBudget = 1.25;
  constexpr int kMsgs = 20'000;

  resil::clear();
  // The exact guard Comm::send and Comm::recv evaluate per message while
  // the policy is uninstalled; the counter bump is dead with the policy
  // off, so the measured cost is the load + branch.
  const double hook_ns =
      run.time_ns_per_iter("hook.active", kIters, [] {
        if (resil::active()) resil::count_retry();
      });

  // Per-message cost: each measured repetition is one full ping-pong run
  // (2 * kMsgs messages), converted to ns per message below. No policy
  // (A) and an installed disabled policy (B), which must be
  // indistinguishable from clear(), alternate, so a busy host episode
  // lands on both sides instead of skewing one.
  resil::Policy off;
  off.enabled = false;
  auto [base_s, off_s] = run.measure_ab(
      [] {
        resil::clear();
        pingpong(kMsgs);
      },
      [&off] {
        resil::install(off);
        pingpong(kMsgs);
        resil::clear();
      });
  for (std::vector<double>* v : {&base_s, &off_s})
    for (double& s : *v) s = s * 1e9 / (2.0 * kMsgs);
  const benchjson::Metric base{"pingpong.no_policy", "ns",
                               benchjson::Better::Lower, base_s};
  const benchjson::Metric off_m{"pingpong.disabled_policy", "ns",
                                benchjson::Better::Lower, off_s};
  for (const benchjson::Metric* m : {&base, &off_m})
    run.record(m->name, m->unit, m->better, m->samples);
  const benchjson::MetricDelta pp =
      bench::ab_gate("gb_resil_overhead", base, off_m,
                     kSendRegressionBudget - 1.0, 200.0);

  // Enabled path, no faults: pays the sequence stamp + replay-log copy.
  // Recorded for the trajectory; no budget asserted here.
  resil::Policy on;
  on.enabled = true;
  resil::install(on);
  std::vector<double> on_s = run.measure(1, [] { pingpong(kMsgs); });
  for (double& s : on_s) s = s * 1e9 / (2.0 * kMsgs);
  const double on_ns = run.record("pingpong.enabled", "ns",
                                  benchjson::Better::Lower, on_s);
  resil::clear();

  std::printf("resil Comm hook, no policy: %.3f ns (budget %.1f ns)\n",
              hook_ns, kHookBudgetNs);
  std::printf("send/recv ping-pong (median ± MAD): %.1f ± %.1f ns no policy, "
              "%.1f ± %.1f ns disabled policy (budget %.0f%%, gate %s), "
              "%.1f ns enabled\n",
              pp.base_median, pp.base_mad, pp.cand_median, pp.cand_mad,
              (kSendRegressionBudget - 1.0) * 100.0,
              benchjson::to_string(pp.verdict), on_ns);
  run.finish();

  bool ok = true;
  if (hook_ns >= kHookBudgetNs) {
    std::fprintf(stderr, "FAIL: disabled resil hook over %.1f ns budget\n",
                 kHookBudgetNs);
    ok = false;
  }
  // Thread scheduling makes single ping-pong timings noisy; compare
  // median to median with a generous bound, and only where the noise
  // intervals separate — a trip wire for accidental locking on the
  // resil-off path, not a profiler.
  if (pp.verdict == benchjson::Verdict::Regressed) {
    std::fprintf(stderr,
                 "FAIL: disabled resil policy slowed send/recv "
                 "%.1f -> %.1f ns\n",
                 pp.base_median, pp.cand_median);
    ok = false;
  }
  if (!ok) return EXIT_FAILURE;
  std::printf("PASS\n");
  return 0;
}
