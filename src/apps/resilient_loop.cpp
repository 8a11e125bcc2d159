#include "apps/resilient_loop.hpp"

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/live.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"

namespace bwlab::apps {

namespace {

bool checkpoint_due(const ResilientLoop& lp, long long it) {
  return lp.checkpoint_every > 0 && lp.store != nullptr &&
         (it + 1) % lp.checkpoint_every == 0 && it + 1 < lp.iterations;
}

/// The armed loop's step top: fires this rank's step faults, then agrees
/// across ranks on which rank failed (-1 when all are healthy).
int health_check(const ResilientLoop& lp, long long it) {
  double failed = -1;
  try {
    fault::on_step(lp.rank, it);
    live::on_step(lp.rank);
  } catch (const par::RankFailure&) {
    failed = lp.rank;
  }
  if (lp.comm != nullptr) failed = lp.comm->allreduce_max(failed);
  return static_cast<int>(failed);
}

/// Localized rollback after the health check reported a failed rank.
/// Returns the agreed resume step. Symmetric across ranks by
/// construction: commits (and their buddy mirrors) happen at the same
/// steps everywhere, so every rank computes the same resume step.
long long rollback(const ResilientLoop& lp, int failed_rank) {
  trace::TraceSpan span(trace::Cat::Fault, "recovery:rollback");
  // One rollback *event* spans all ranks; count it once.
  if (lp.rank == 0) {
    static Counter& rollbacks =
        MetricsRegistry::global().counter("recovery.rollbacks");
    rollbacks.inc();
    resil::count_rollback();
  }
  if (lp.rank == failed_rank) {
    // The failed rank's own state (store included) is considered lost;
    // its buddy holds the serialized snapshot.
    if (lp.store != nullptr && resil::buddy_has(lp.rank)) {
      resil::buddy_restore(lp.rank, *lp.store);
      lp.restore();
      return lp.store->step() + 1;
    }
    lp.reinit();
    return 0;
  }
  if (lp.store != nullptr && lp.store->valid()) {
    trace::TraceSpan rspan(trace::Cat::Fault, "recovery:restore");
    lp.restore();
    return lp.store->step() + 1;
  }
  lp.reinit();
  return 0;
}

}  // namespace

bool rollback_armed(int checkpoint_every) {
  return checkpoint_every > 0 || resil::active();
}

std::vector<long long> run_resilient_loop(const ResilientLoop& lp) {
  BWLAB_REQUIRE(lp.step != nullptr, "resilient loop needs a step hook");
  const bool armed = rollback_armed(lp.checkpoint_every);
  std::vector<long long> executed;
  // Armed iterations stay in lockstep across ranks (one health allreduce
  // per loop turn), so the allreduce counts always match up.
  long long it = 0;
  while (it < lp.iterations) {
    if (armed) {
      const int failed = health_check(lp, it);
      if (failed >= 0) {
        it = rollback(lp, failed);
        continue;
      }
      // Crash faults only fire at step tops, so this step runs
      // crash-free on every rank; drops and delays inside it are
      // survived by the resilient Comm layer when a policy is installed.
    } else {
      fault::on_step(lp.rank, it);
      live::on_step(lp.rank);
    }
    lp.step(it);
    executed.push_back(it);
    if (checkpoint_due(lp, it)) {  // implies armed
      lp.capture(it);
      resil::buddy_mirror(lp.rank, *lp.store);
    }
    ++it;
  }
  return executed;
}

RunRecovery::RunRecovery(const Options& opt)
    : armed_(rollback_armed(opt.checkpoint_every)), before_(resil::stats()) {
  if (armed_) resil::buddy_resize(opt.ranks > 0 ? opt.ranks : 1);
}

void RunRecovery::report(Result& result) const {
  if (!armed_) return;
  const resil::Stats now = resil::stats();
  result.metrics["rollbacks"] =
      static_cast<double>(now.rollbacks - before_.rollbacks);
  result.metrics["buddy_restores"] =
      static_cast<double>(now.buddy_restores - before_.buddy_restores);
}

}  // namespace bwlab::apps
