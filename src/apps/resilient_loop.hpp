// bwresil: the shared step loop of the distributed apps, and the one way
// a crashed rank is recovered.
//
// Rollback is armed when checkpointing is on (checkpoint_every > 0) or a
// resil policy is installed; rollback_armed() is the single test.
//
//  * unarmed: fault::on_step at the top of every step and nothing else —
//    no extra communication, and an injected crash propagates out of
//    run_ranks as a RankFailure.
//
//  * armed: every iteration opens with a health allreduce. Crash faults
//    fire only at step tops (fault::on_step), so a rank that catches its
//    own RankFailure flags itself in that allreduce *before* any step
//    work starts — no point-to-point traffic is ever in flight at
//    rollback time. All ranks then roll back symmetrically to the last
//    committed checkpoint: the failed rank restores its store from its
//    buddy's mirror (rank+1 mod N holds the serialized bytes), surviving
//    ranks restore from their local stores, and everyone resumes at
//    checkpoint step + 1 (or re-initializes to step 0 when no checkpoint
//    exists). The world is never torn down.
//
// The health allreduce doubles as the per-step lockstep barrier that
// keeps checkpoint steps, buddy mirrors and the resume step globally
// agreed. Every checkpoint commit also mirrors the serialized store to
// the buddy board. The executed step sequence is returned so tests can
// assert exact step accounting across recoveries.
#pragma once

#include <functional>
#include <vector>

#include "apps/app_common.hpp"
#include "common/resil.hpp"
#include "common/snapshot.hpp"
#include "par/simmpi.hpp"

namespace bwlab::apps {

/// One rank's step-loop configuration. The hooks close over the rank's
/// solver: `step` runs one full time step (halo exchanges, collectives
/// and all), `capture` commits a checkpoint of every evolving field at
/// the given step, `restore` copies the store's committed snapshot back
/// into the fields, `reinit` rebuilds the initial (step-0) state.
struct ResilientLoop {
  int rank = 0;
  par::Comm* comm = nullptr;  ///< null for single-rank runs
  long long iterations = 0;
  int checkpoint_every = 0;   ///< commit every K completed steps (0 = off)
  fault::SnapshotStore* store = nullptr;  ///< this rank's checkpoint store
  std::function<void(long long)> step;
  std::function<void(long long)> capture;
  std::function<void()> restore;
  std::function<void()> reinit;
};

/// True when a crash is recovered by rollback: checkpoints are on or a
/// resil policy is installed.
bool rollback_armed(int checkpoint_every);

/// Runs the loop (armed or not, see above) and returns the sequence of
/// steps this rank executed (rolled-back steps included, in execution
/// order) — the step-accounting witness.
std::vector<long long> run_resilient_loop(const ResilientLoop& lp);

/// Per-run recovery bookkeeping for an app's run(). When rollback is
/// armed for `opt`, construction sizes the buddy board for opt.ranks
/// (discarding any earlier run's mirrors) and report() records this
/// run's `rollbacks` and `buddy_restores` in the result.
class RunRecovery {
 public:
  explicit RunRecovery(const Options& opt);
  void report(Result& result) const;

 private:
  bool armed_;
  resil::Stats before_;
};

}  // namespace bwlab::apps
