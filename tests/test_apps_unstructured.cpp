// Physics validation of the unstructured applications (MG-CFD, Volna) and
// the compute-bound miniBUDE: free-stream preservation, well-balancedness,
// conservation, and exact agreement of the serial / vec / colored lanes.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/mgcfd/mgcfd.hpp"
#include "apps/minibude/minibude.hpp"
#include "apps/volna/volna.hpp"

namespace bwlab::apps {
namespace {

double rel_diff(double a, double b) {
  return std::abs(a - b) / std::max({std::abs(a), std::abs(b), 1e-30});
}

// --- MG-CFD ------------------------------------------------------------------

TEST(MgCfd, FreeStreamPreservedExactly) {
  // Uniform flow through interior fluxes, far-field boundaries and the
  // multigrid cycle must stay uniform to round-off.
  Options o;
  o.n = 8;
  o.iterations = 5;
  o.scenario = 1;  // no perturbation
  const Result r = mgcfd::run(o);
  EXPECT_LT(r.metric("max_drift"), 1e-13);
}

class MgCfdModes : public ::testing::TestWithParam<int> {};

TEST_P(MgCfdModes, AgreesWithSerial) {
  Options o;
  o.n = 8;
  o.iterations = 3;
  const Result ref = mgcfd::run(o);
  Options v = o;
  v.exec_mode = GetParam();
  if (GetParam() == 2) v.threads = 3;
  const Result r = mgcfd::run(v);
  // vec is bitwise (same scatter order); colored reorders fp additions.
  if (GetParam() == 1) {
    EXPECT_EQ(r.checksum, ref.checksum);
  } else {
    EXPECT_LT(rel_diff(r.checksum, ref.checksum), 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, MgCfdModes, ::testing::Values(1, 2));

TEST(MgCfd, ColoredBitwiseEqualAcrossTeamSizes) {
  // Colored results depend on the execution plan only. n=24 has ~80 face
  // blocks, so every color's blocks are split over the team.
  Options o;
  o.n = 24;
  o.iterations = 3;
  o.exec_mode = 2;
  o.threads = 1;
  const Result ref = mgcfd::run(o);
  for (int threads : {2, 3, 4, 8}) {
    o.threads = threads;
    EXPECT_EQ(mgcfd::run(o).checksum, ref.checksum) << threads;
  }
}

TEST(MgCfd, PerturbationDecaysTowardFreeStream) {
  Options o;
  o.n = 10;
  o.iterations = 1;
  const Result one = mgcfd::run(o);
  o.iterations = 20;
  const Result many = mgcfd::run(o);
  // Far-field boundaries + dissipation damp the density bump.
  EXPECT_LT(many.metric("max_drift"), one.metric("max_drift"));
}

TEST(MgCfd, DeterministicForFixedSeed) {
  Options o;
  o.n = 8;
  o.iterations = 3;
  const Result a = mgcfd::run(o);
  const Result b = mgcfd::run(o);
  EXPECT_EQ(a.checksum, b.checksum);
}

TEST(MgCfd, PartitionStatsReported) {
  Options o;
  o.n = 10;
  o.iterations = 1;
  const Result r = mgcfd::run(o);
  EXPECT_GT(r.metric("cut_fraction"), 0.0);
  EXPECT_LT(r.metric("cut_fraction"), 0.5);
}

TEST(MgCfd, FluxKernelIsGatherScatter) {
  Options o;
  o.n = 8;
  o.iterations = 1;
  const Result r = mgcfd::run(o);
  bool found = false;
  for (const LoopRecord* rec : r.instr.loops_in_order())
    if (rec->name == "compute_flux") {
      EXPECT_EQ(rec->pattern, Pattern::GatherScatter);
      found = true;
    }
  EXPECT_TRUE(found);
}

// --- Volna ---------------------------------------------------------------------

TEST(Volna, LakeAtRestStaysAtRest) {
  // Well-balancedness over the radial-shelf bathymetry: still water stays
  // still to single-precision round-off.
  Options o;
  o.n = 24;
  o.iterations = 15;
  const Result r = volna::run_lake_at_rest(o);
  EXPECT_LT(r.metric("speed_max"), 5e-3);
  EXPECT_LT(std::abs(r.metric("eta_max")), 0.05);
}

TEST(Volna, MassConservedWithReflectiveWalls) {
  Options o;
  o.n = 24;
  o.iterations = 20;
  const Result r = volna::run(o);
  EXPECT_LT(rel_diff(r.metric("mass"), r.metric("mass_initial")), 1e-6);
}

TEST(Volna, TsunamiHumpSpreadsAndDecays) {
  Options o;
  o.n = 32;
  o.iterations = 40;
  const Result r = volna::run(o);
  EXPECT_GT(r.metric("speed_max"), 0.01);  // waves propagate
  EXPECT_LT(r.metric("eta_max"), r.metric("eta_max_initial"));
}

TEST(Volna, VecModeBitwiseEqualsSerial) {
  Options o;
  o.n = 20;
  o.iterations = 8;
  const Result ref = volna::run(o);
  Options v = o;
  v.exec_mode = 1;
  EXPECT_EQ(volna::run(v).checksum, ref.checksum);
}

TEST(Volna, DistributedRanksMatchSerial) {
  // Owner-compute over SimMPI ranks (op2/dist) vs the single-process run:
  // same physics, different float summation order.
  Options o;
  o.n = 20;
  o.iterations = 10;
  const Result serial = volna::run(o);
  for (int ranks : {2, 4}) {
    Options d = o;
    d.ranks = ranks;
    const Result r = volna::run(d);
    EXPECT_LT(rel_diff(r.checksum, serial.checksum), 1e-5) << ranks;
    EXPECT_LT(rel_diff(r.metric("mass"), serial.metric("mass")), 1e-6)
        << ranks;
    EXPECT_LT(rel_diff(r.metric("eta_max"), serial.metric("eta_max")), 1e-3)
        << ranks;
  }
}

TEST(Volna, DistributedLakeAtRestStillWellBalanced) {
  Options o;
  o.n = 16;
  o.iterations = 10;
  o.ranks = 3;
  const Result r = volna::run_lake_at_rest(o);
  EXPECT_LT(r.metric("speed_max"), 5e-3);
}

TEST(Volna, ColoredBitwiseEqualAcrossTeamSizes) {
  Options o;
  o.n = 64;  // ~48 edge blocks
  o.iterations = 8;
  o.exec_mode = 2;
  o.threads = 1;
  const Result ref = volna::run(o);
  for (int threads : {2, 3, 4, 8}) {
    o.threads = threads;
    EXPECT_EQ(volna::run(o).checksum, ref.checksum) << threads;
  }
}

TEST(Volna, ColoredModeMatchesWithinRoundoff) {
  Options o;
  o.n = 20;
  o.iterations = 8;
  const Result ref = volna::run(o);
  Options c = o;
  c.exec_mode = 2;
  c.threads = 4;
  EXPECT_LT(rel_diff(volna::run(c).checksum, ref.checksum), 1e-4);
}

// --- miniBUDE -------------------------------------------------------------------

TEST(MiniBude, LanePathBitwiseEqualsScalar) {
  Options o;
  o.n = 2;
  o.iterations = 1;
  const Result scalar = minibude::run(o);
  Options lanes = o;
  lanes.exec_mode = 1;
  EXPECT_EQ(minibude::run(lanes).checksum, scalar.checksum);
}

TEST(MiniBude, ThreadedMatchesSerial) {
  Options o;
  o.n = 2;
  o.iterations = 1;
  const Result ref = minibude::run(o);
  Options t = o;
  t.threads = 4;
  // Per-pose energies are independent; threading changes nothing.
  EXPECT_EQ(minibude::run(t).checksum, ref.checksum);
}

TEST(MiniBude, TranslationInvariance) {
  // Shifting protein and ligand together leaves every pose energy
  // unchanged (the force field depends only on pair distances).
  minibude::Deck deck = minibude::make_deck(1, 99);
  const float e0 = minibude::pose_energy_scalar(deck, 3);
  for (std::size_t i = 0; i < deck.nprot(); ++i) {
    deck.prot_x[i] += 5.0f;
    deck.prot_y[i] -= 2.0f;
  }
  // Shift the pose translation identically (ligand transforms are
  // relative to the pose, so shift the pose origin).
  deck.pose[3][3] += 5.0f;
  deck.pose[4][3] -= 2.0f;
  const float e1 = minibude::pose_energy_scalar(deck, 3);
  EXPECT_NEAR(e1, e0, std::abs(e0) * 1e-4f);
}

TEST(MiniBude, EnergiesFiniteAndDeterministic) {
  Options o;
  o.n = 1;
  o.iterations = 1;
  const Result a = minibude::run(o);
  const Result b = minibude::run(o);
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_TRUE(std::isfinite(a.metric("best_energy")));
  EXPECT_LE(a.metric("best_energy"), a.metric("mean_energy"));
}

TEST(MiniBude, DeckScalesLinearly) {
  const minibude::Deck d1 = minibude::make_deck(1, 5);
  const minibude::Deck d2 = minibude::make_deck(2, 5);
  EXPECT_EQ(d2.nprot(), 2 * d1.nprot());
  EXPECT_EQ(d2.nposes(), 2 * d1.nposes());
  EXPECT_EQ(d1.nlig(), d2.nlig());  // ligand size is fixed
}

TEST(MiniBude, ComputePatternRecorded) {
  Options o;
  o.n = 1;
  o.iterations = 1;
  const Result r = minibude::run(o);
  const auto loops = r.instr.loops_in_order();
  ASSERT_EQ(loops.size(), 1u);
  EXPECT_EQ(loops[0]->pattern, Pattern::Compute);
  EXPECT_GT(loops[0]->flops, 1e6);
}

}  // namespace
}  // namespace bwlab::apps
