// Tests for the mini-OP2 unstructured substrate: sets/maps/dats, greedy
// coloring and execution plans, the three execution modes, RCB
// partitioning, and the synthetic mesh generators (geometry closure
// invariants, multigrid maps).
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/metrics.hpp"
#include "op2/meshgen.hpp"
#include "op2/par_loop.hpp"
#include "op2/partition.hpp"

namespace bwlab::op2 {
namespace {

TEST(Map, ValidatesEntries) {
  Set a("a", 4), c("c", 3);
  EXPECT_NO_THROW(Map("ok", a, c, 2, {0, 1, 2, -1, 0, 0, 1, 2}));
  EXPECT_THROW(Map("bad_size", a, c, 2, {0, 1}), Error);
  EXPECT_THROW(Map("oob", a, c, 1, {0, 1, 2, 3}), Error);
}

TEST(Dat, LayoutAndFill) {
  Set cells("cells", 5);
  Dat<double> q(cells, "q", 3, 1.5);
  EXPECT_EQ(q.dim(), 3);
  EXPECT_DOUBLE_EQ(q.at(4, 2), 1.5);
  q.fill_indexed([](idx_t e, int c) { return double(10 * e + c); });
  EXPECT_DOUBLE_EQ(q.ptr(2)[1], 21.0);
}

// --- Mesh generators ---------------------------------------------------------

class TriMeshSizes
    : public ::testing::TestWithParam<std::pair<idx_t, idx_t>> {};

TEST_P(TriMeshSizes, EulerCountsAndClosure) {
  const auto [nx, ny] = GetParam();
  const TriMesh m = make_tri_mesh(nx, ny, 2.0, 1.0, 7);
  EXPECT_EQ(m.ncells, 2 * nx * ny);
  EXPECT_EQ(m.nedges, 3 * nx * ny + nx + ny);
  // Total area equals the rectangle.
  double area = 0;
  for (double a : m.cell_area) area += a;
  EXPECT_NEAR(area, 2.0 * 1.0, 1e-12);
  // Per-cell normal closure: sum of outward n*len over each cell's edges
  // vanishes (divergence of a constant field is zero).
  std::vector<double> sx(static_cast<std::size_t>(m.ncells), 0.0);
  std::vector<double> sy(static_cast<std::size_t>(m.ncells), 0.0);
  for (idx_t e = 0; e < m.nedges; ++e) {
    const idx_t c0 = m.edge_cells[static_cast<std::size_t>(2 * e)];
    const idx_t c1 = m.edge_cells[static_cast<std::size_t>(2 * e + 1)];
    const double fx = m.edge_nx[static_cast<std::size_t>(e)] *
                      m.edge_len[static_cast<std::size_t>(e)];
    const double fy = m.edge_ny[static_cast<std::size_t>(e)] *
                      m.edge_len[static_cast<std::size_t>(e)];
    sx[static_cast<std::size_t>(c0)] += fx;
    sy[static_cast<std::size_t>(c0)] += fy;
    if (c1 >= 0) {
      sx[static_cast<std::size_t>(c1)] -= fx;
      sy[static_cast<std::size_t>(c1)] -= fy;
    }
  }
  for (idx_t c = 0; c < m.ncells; ++c) {
    EXPECT_NEAR(sx[static_cast<std::size_t>(c)], 0.0, 1e-12);
    EXPECT_NEAR(sy[static_cast<std::size_t>(c)], 0.0, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, TriMeshSizes,
                         ::testing::Values(std::pair<idx_t, idx_t>{1, 1},
                                           std::pair<idx_t, idx_t>{4, 3},
                                           std::pair<idx_t, idx_t>{9, 16}));

TEST(TriMesh, RenumberingPermutesButPreservesGeometry) {
  const TriMesh a = make_tri_mesh(6, 6, 1.0, 1.0, 0);
  const TriMesh b = make_tri_mesh(6, 6, 1.0, 1.0, 99);
  // Same multiset of centroids, different order.
  std::multiset<double> ca(a.cell_cx.begin(), a.cell_cx.end());
  std::multiset<double> cb(b.cell_cx.begin(), b.cell_cx.end());
  EXPECT_EQ(ca, cb);
  EXPECT_NE(a.cell_cx, b.cell_cx);
}

TEST(HexMesh, CountsVolumesAndClosure) {
  const HexMesh m = make_hex_mesh(4, 3, 2, 5);
  EXPECT_EQ(m.ncells, 24);
  // interior faces: (ni-1)nj nk + ni(nj-1)nk + ni nj(nk-1) = 46;
  // boundary faces: 2(nj nk + ni nk + ni nj) = 52.
  EXPECT_EQ(m.nfaces, 46 + 52);
  double vol = 0;
  for (double v : m.cell_vol) vol += v;
  EXPECT_NEAR(vol, 1.0, 1e-12);
  // Normal closure per cell in 3-D.
  std::vector<std::array<double, 3>> s(static_cast<std::size_t>(m.ncells),
                                       {0, 0, 0});
  for (idx_t f = 0; f < m.nfaces; ++f) {
    const idx_t c0 = m.face_cells[static_cast<std::size_t>(2 * f)];
    const idx_t c1 = m.face_cells[static_cast<std::size_t>(2 * f + 1)];
    const double a = m.face_area[static_cast<std::size_t>(f)];
    const double n[3] = {m.face_nx[static_cast<std::size_t>(f)] * a,
                         m.face_ny[static_cast<std::size_t>(f)] * a,
                         m.face_nz[static_cast<std::size_t>(f)] * a};
    for (int d = 0; d < 3; ++d) {
      s[static_cast<std::size_t>(c0)][static_cast<std::size_t>(d)] += n[d];
      if (c1 >= 0)
        s[static_cast<std::size_t>(c1)][static_cast<std::size_t>(d)] -= n[d];
    }
  }
  for (const auto& v : s)
    for (double x : v) EXPECT_NEAR(x, 0.0, 1e-12);
}

TEST(HexMesh, MultigridMapCoversAllFineCells) {
  const idx_t ni = 6, nj = 4, nk = 4;
  const auto perm = hex_permutation(ni * nj * nk, 11);
  const MgLevel lvl = coarsen_hex(ni, nj, nk, perm, 13);
  EXPECT_EQ(lvl.coarse.ncells, 3 * 2 * 2);
  EXPECT_EQ(static_cast<idx_t>(lvl.fine_to_coarse.size()), ni * nj * nk);
  // Every coarse cell receives the right number of fine cells (8 each).
  std::vector<int> counts(static_cast<std::size_t>(lvl.coarse.ncells), 0);
  for (idx_t c : lvl.fine_to_coarse) {
    ASSERT_GE(c, 0);
    ASSERT_LT(c, lvl.coarse.ncells);
    ++counts[static_cast<std::size_t>(c)];
  }
  for (int n : counts) EXPECT_EQ(n, 8);
}

// --- Coloring ---------------------------------------------------------------

class ColoringMeshes : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ColoringMeshes, ValidAndCompact) {
  const TriMesh m = make_tri_mesh(12, 10, 1.0, 1.0, GetParam());
  Set cells("cells", m.ncells), edges("edges", m.nedges);
  Map e2c("e2c", edges, cells, 2, m.edge_cells);
  const Coloring col = color_set(edges, {&e2c});
  EXPECT_TRUE(col.validate({&e2c}));
  EXPECT_GE(col.num_colors, 3);   // triangles have 3 edges
  EXPECT_LE(col.num_colors, 12);  // greedy stays compact
  // Every element appears in exactly one color class.
  std::size_t total = 0;
  for (const auto& v : col.by_color) total += v.size();
  EXPECT_EQ(total, static_cast<std::size_t>(m.nedges));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColoringMeshes,
                         ::testing::Values(0u, 3u, 17u, 123u));

TEST(Coloring, DetectsInvalidManually) {
  Set a("a", 2), c("c", 1);
  Map m("m", a, c, 1, {0, 0});  // both elements hit target 0
  Coloring bad;
  bad.num_colors = 1;
  bad.color = {0, 0};
  bad.by_color = {{0, 1}};
  EXPECT_FALSE(bad.validate({&m}));
}

// --- Execution plans ----------------------------------------------------------

TEST(Plan, HexFacesGetBlockColoring) {
  const HexMesh m = make_hex_mesh(24, 24, 12, 5);  // permuted cells
  Set cells("cells", m.ncells), faces("faces", m.nfaces);
  Map fc("face_cells", faces, cells, 2, m.face_cells);
  const Plan p = build_plan(faces, {&fc});
  EXPECT_EQ(p.block_size, kPlanBlock);
  EXPECT_GT(p.num_colors(), 1);
  EXPECT_LE(p.num_colors(), 16);
  EXPECT_TRUE(p.validate({&fc}));
}

TEST(Plan, ScatteredFineToCoarseFallsBackToElementBlocks) {
  // Fine cells are randomly permuted, so each of the 216 blocks of fine
  // cells hits coarse cells shared with nearly every other block.
  const idx_t ni = 48, nj = 48, nk = 24;
  const auto perm = hex_permutation(ni * nj * nk, 5);
  const MgLevel lvl = coarsen_hex(ni, nj, nk, perm, 9);
  Set fine("fine", ni * nj * nk), coarse("coarse", lvl.coarse.ncells);
  Map f2c("f2c", fine, coarse, 1, lvl.fine_to_coarse);
  const Plan p = build_plan(fine, {&f2c});
  EXPECT_EQ(p.block_size, 1);
  EXPECT_EQ(p.num_colors(), 8);  // eight fine cells per coarse cell
  EXPECT_TRUE(p.validate({&f2c}));
}

TEST(Plan, TriEdgesValidAndCoverTheSet) {
  for (std::uint64_t seed : {0u, 3u, 17u}) {
    const TriMesh m = make_tri_mesh(64, 40, 1.0, 1.0, seed);
    Set cells("cells", m.ncells), edges("edges", m.nedges);
    Map e2c("e2c", edges, cells, 2, m.edge_cells);
    const Plan p = build_plan(edges, {&e2c});
    EXPECT_EQ(p.block_size, kPlanBlock) << seed;
    EXPECT_TRUE(p.validate({&e2c})) << seed;
    EXPECT_EQ(static_cast<idx_t>(p.blocks.size()),
              ceil_div(m.nedges, kPlanBlock));
  }
}

TEST(Plan, ValidateCatchesBadPlans) {
  const TriMesh m = make_tri_mesh(64, 40, 1.0, 1.0, 3);
  Set cells("cells", m.ncells), edges("edges", m.nedges);
  Map e2c("e2c", edges, cells, 2, m.edge_cells);
  const Plan good = build_plan(edges, {&e2c});
  ASSERT_TRUE(good.validate({&e2c}));
  ASSERT_GE(good.num_colors(), 2);

  Plan merged = good;  // colors 0 and 1 fused: neighbouring blocks race
  merged.color_start.erase(merged.color_start.begin() + 1);
  EXPECT_FALSE(merged.validate({&e2c}));

  Plan twice = good;  // one block run twice, another never
  twice.blocks[1] = twice.blocks[0];
  EXPECT_FALSE(twice.validate({&e2c}));

  // Two one-element blocks hitting the same target in one color.
  Set a("a", 2), c("c", 1);
  Map both("both", a, c, 1, {0, 0});
  Plan bad;
  bad.set_size = 2;
  bad.blocks = {0, 1};
  bad.color_start = {0, 2};
  EXPECT_FALSE(bad.validate({&both}));
  bad.block_size = 2;  // one block of both elements runs serially: fine
  bad.blocks = {0};
  bad.color_start = {0, 1};
  EXPECT_TRUE(bad.validate({&both}));
}

TEST(PlanCache, OnePlanPerSetAndMapsAcrossCalls) {
  Counter& built = MetricsRegistry::global().counter("op2.plans_built");
  const TriMesh m = make_tri_mesh(16, 16, 1.0, 1.0, 7);
  Set cells("cells", m.ncells), edges("edges", m.nedges);
  Map e2c("e2c", edges, cells, 2, m.edge_cells);
  Dat<double> acc(cells, "acc", 1, 0.0);
  Runtime rt(2);
  const auto inc_loop = [&](const Map& map) {
    par_loop(rt, {"inc", 1.0}, edges, Mode::Colored,
             [](double* a, double* b) {
               a[0] += 1.0;
               b[0] += 1.0;
             },
             inc_via(acc, map, 0), inc_via(acc, map, 1));
  };
  const count_t before = built.value();
  for (int i = 0; i < 5; ++i) inc_loop(e2c);
  EXPECT_EQ(rt.plans().size(), 1u);
  EXPECT_EQ(built.value() - before, 1u);

  // A new map over the same set, even with equal entries, is a new key.
  const Map same_entries("e2c_again", edges, cells, 2, m.edge_cells);
  inc_loop(same_entries);
  inc_loop(same_entries);
  EXPECT_EQ(rt.plans().size(), 2u);
  EXPECT_EQ(built.value() - before, 2u);
  const Map copy = e2c;  // copies draw fresh ids too
  EXPECT_NE(copy.id(), e2c.id());

  // Direct loops need no plan.
  par_loop(rt, {"direct", 1.0}, cells, Mode::Colored,
           [](double* a) { a[0] *= 0.5; }, read_write(acc));
  EXPECT_EQ(rt.plans().size(), 2u);
}

// --- par_loop modes -----------------------------------------------------------

struct EdgeSumFixture {
  TriMesh mesh;
  Set cells{"cells", mesh.ncells};
  Set edges{"edges", mesh.nedges};
  Map e2c{"e2c", edges, cells, 2, mesh.edge_cells};
  Dat<double> q{cells, "q", 2};
  Dat<double> acc{cells, "acc", 2};

  explicit EdgeSumFixture(idx_t nx = 10, idx_t ny = 8)
      : mesh(make_tri_mesh(nx, ny, 1.0, 1.0, 21)) {
    q.fill_indexed([](idx_t e, int c) { return double(e % 13) + 0.5 * c; });
    acc.fill(0.0);
  }
  void run(Runtime& rt, Mode mode) {
    par_loop(rt, {"edge_sum", 6.0}, edges, mode,
             [](const double* a, const double* b, double* ia, double* ib) {
               for (int c = 0; c < 2; ++c) {
                 const double f = a[c] - b[c];
                 ia[c] += f;
                 ib[c] -= f;
               }
             },
             read_via(q, e2c, 0), read_via(q, e2c, 1), inc_via(acc, e2c, 0),
             inc_via(acc, e2c, 1));
  }
  double checksum() const {
    double s = 0;
    for (idx_t e = 0; e < mesh.ncells; ++e)
      s += acc.at(e, 0) * double(e + 1) + acc.at(e, 1);
    return s;
  }
};

TEST(ParLoopModes, SerialVecColoredAgree) {
  double ref = 0;
  {
    Runtime rt(1);
    EdgeSumFixture f;
    f.run(rt, Mode::Serial);
    ref = f.checksum();
    EXPECT_NE(ref, 0.0);
  }
  {
    Runtime rt(1);
    EdgeSumFixture f;
    f.run(rt, Mode::Vec);
    EXPECT_DOUBLE_EQ(f.checksum(), ref);
  }
  for (int threads : {1, 4}) {
    Runtime rt(threads);
    EdgeSumFixture f;
    f.run(rt, Mode::Colored);
    EXPECT_NEAR(f.checksum(), ref, std::abs(ref) * 1e-12);
  }
}

TEST(ParLoopModes, ColoredBitwiseEqualAcrossTeamSizes) {
  // Increments into each target follow the plan's order whatever the
  // team. 60x40 quads give 30 blocks of edges, so colors split over teams.
  double ref = 0;
  for (int threads : {1, 2, 3, 4, 8}) {
    Runtime rt(threads);
    EdgeSumFixture f(60, 40);
    // Inexact values, so a different increment order shows in the bits.
    f.q.fill_indexed([](idx_t e, int c) { return std::sin(0.1 * e + c); });
    for (int i = 0; i < 3; ++i) f.run(rt, Mode::Colored);
    if (threads == 1) ref = f.checksum();
    EXPECT_EQ(f.checksum(), ref) << threads;
  }
}

TEST(ParLoopModes, BoundaryTargetsDiscarded) {
  // Increments through -1 map entries must vanish without touching data.
  TriMesh mesh = make_tri_mesh(3, 3, 1.0, 1.0, 0);
  Set cells("cells", mesh.ncells), edges("edges", mesh.nedges);
  Map e2c("e2c", edges, cells, 2, mesh.edge_cells);
  Dat<double> acc(cells, "acc", 1);
  acc.fill(0.0);
  Runtime rt(1);
  for (Mode mode : {Mode::Serial, Mode::Vec}) {
    par_loop(rt, {"inc1", 0.0}, edges, mode,
             [](double* a, double* b) {
               a[0] += 1.0;
               b[0] += 1.0;
             },
             inc_via(acc, e2c, 0), inc_via(acc, e2c, 1));
  }
  // Each cell has 3 edges; both runs add 1 per incident edge per side.
  for (idx_t c = 0; c < mesh.ncells; ++c)
    EXPECT_DOUBLE_EQ(acc.at(c), 6.0) << c;
}

TEST(ParLoopModes, GlobalReductions) {
  Set cells("cells", 1000);
  Dat<double> q(cells, "q", 1);
  q.fill_indexed([](idx_t e, int) { return double(e); });
  Runtime rt(3);
  for (Mode mode : {Mode::Serial, Mode::Vec, Mode::Colored}) {
    double s = 0, mx = -1e300;
    par_loop(rt, {"red", 1.0}, cells, mode,
             [](const double* a, double& sum, double& m) {
               sum += a[0];
               m = std::max(m, a[0]);
             },
             read(q), reduce_sum(s), reduce_max(mx));
    EXPECT_DOUBLE_EQ(s, 999.0 * 1000.0 / 2.0) << to_string(mode);
    EXPECT_DOUBLE_EQ(mx, 999.0);
  }
}

TEST(ParLoopModes, InstrumentationPatterns) {
  EdgeSumFixture f;
  Runtime rt(1);
  f.run(rt, Mode::Serial);
  const LoopRecord& rec = rt.instr().loop("edge_sum");
  EXPECT_EQ(rec.pattern, Pattern::GatherScatter);
  EXPECT_EQ(rec.points, static_cast<count_t>(f.mesh.nedges));
  EXPECT_GT(rec.bytes, 0u);
}

// --- RCB partitioning ----------------------------------------------------------

class RcbParts : public ::testing::TestWithParam<int> {};

TEST_P(RcbParts, BalancedAndLowCut) {
  const int parts = GetParam();
  const TriMesh m = make_tri_mesh(24, 24, 1.0, 1.0, 3);
  const Partition p = rcb_partition(m.cell_cx, m.cell_cy, {}, parts);
  const auto sizes = p.part_sizes();
  ASSERT_EQ(static_cast<int>(sizes.size()), parts);
  idx_t mn = m.ncells, mx = 0;
  for (idx_t s : sizes) {
    mn = std::min(mn, s);
    mx = std::max(mx, s);
  }
  EXPECT_LE(mx - mn, std::max<idx_t>(2, m.ncells / parts / 8));
  // Geometric bisection keeps the cut a small fraction of edges.
  EXPECT_LT(p.cut_fraction(m.edge_cells), 0.35) << parts;
}

INSTANTIATE_TEST_SUITE_P(Parts, RcbParts, ::testing::Values(2, 4, 8, 16));

TEST(Rcb, CutGrowsSublinearlyWithParts) {
  const TriMesh m = make_tri_mesh(32, 32, 1.0, 1.0, 3);
  const double c4 =
      rcb_partition(m.cell_cx, m.cell_cy, {}, 4).cut_fraction(m.edge_cells);
  const double c16 =
      rcb_partition(m.cell_cx, m.cell_cy, {}, 16).cut_fraction(m.edge_cells);
  EXPECT_GT(c16, c4);
  EXPECT_LT(c16, 4.0 * c4);  // sublinear in parts
}

}  // namespace
}  // namespace bwlab::op2
