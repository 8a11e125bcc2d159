#include "apps/mgcfd/mgcfd.hpp"

#include <cmath>

#include "common/timer.hpp"
#include "op2/meshgen.hpp"
#include "op2/par_loop.hpp"
#include "op2/partition.hpp"

namespace bwlab::apps::mgcfd {

namespace {

constexpr double kGamma = 1.4;
constexpr double kCfl = 0.4;
constexpr int kNv = 5;  // rho, rho*u, rho*v, rho*w, rho*E

// Free-stream state (Mach ~0.3 axial flow).
constexpr double kFsRho = 1.0;
constexpr double kFsU = 0.3;
constexpr double kFsP = 1.0 / kGamma;

void freestream(double* q) {
  q[0] = kFsRho;
  q[1] = kFsRho * kFsU;
  q[2] = 0.0;
  q[3] = 0.0;
  q[4] = kFsP / (kGamma - 1.0) + 0.5 * kFsRho * kFsU * kFsU;
}

/// Rusanov (local Lax-Friedrichs) flux through a face with unit normal n
/// and area A, accumulated into out[5]. Shared by all execution modes.
inline void rusanov(const double* ql, const double* qr, double nx, double ny,
                    double nz, double area, double* out) {
  auto point_flux = [nx, ny, nz](const double* q, double* f, double& lambda) {
    const double ir = 1.0 / q[0];
    const double u = q[1] * ir, v = q[2] * ir, w = q[3] * ir;
    const double vn = u * nx + v * ny + w * nz;
    const double p =
        (kGamma - 1.0) * (q[4] - 0.5 * (q[1] * q[1] + q[2] * q[2] +
                                        q[3] * q[3]) * ir);
    const double c = std::sqrt(kGamma * p * ir);
    lambda = std::abs(vn) + c;
    f[0] = q[0] * vn;
    f[1] = q[1] * vn + p * nx;
    f[2] = q[2] * vn + p * ny;
    f[3] = q[3] * vn + p * nz;
    f[4] = (q[4] + p) * vn;
  };
  double fl[kNv], fr[kNv], laml, lamr;
  point_flux(ql, fl, laml);
  point_flux(qr, fr, lamr);
  const double lam = std::max(laml, lamr);
  for (int v = 0; v < kNv; ++v)
    out[v] = area * (0.5 * (fl[v] + fr[v]) - 0.5 * lam * (qr[v] - ql[v]));
}

/// One multigrid level: mesh sets/maps/geometry plus solution fields.
struct Level {
  op2::HexMesh mesh;
  std::unique_ptr<op2::Set> cells, faces;
  std::unique_ptr<op2::Map> face_cells;
  std::unique_ptr<op2::Dat<double>> q, res, step, face_geom, cell_vol;

  void build(op2::HexMesh m) {
    mesh = std::move(m);
    cells = std::make_unique<op2::Set>("cells", mesh.ncells);
    faces = std::make_unique<op2::Set>("faces", mesh.nfaces);
    face_cells = std::make_unique<op2::Map>("face_cells", *faces, *cells, 2,
                                            mesh.face_cells);
    q = std::make_unique<op2::Dat<double>>(*cells, "q", kNv);
    res = std::make_unique<op2::Dat<double>>(*cells, "res", kNv);
    step = std::make_unique<op2::Dat<double>>(*cells, "step", 1);
    face_geom = std::make_unique<op2::Dat<double>>(*faces, "face_geom", 4);
    cell_vol = std::make_unique<op2::Dat<double>>(*cells, "vol", 1);
    for (idx_t f = 0; f < mesh.nfaces; ++f) {
      face_geom->at(f, 0) = mesh.face_nx[static_cast<std::size_t>(f)];
      face_geom->at(f, 1) = mesh.face_ny[static_cast<std::size_t>(f)];
      face_geom->at(f, 2) = mesh.face_nz[static_cast<std::size_t>(f)];
      face_geom->at(f, 3) = mesh.face_area[static_cast<std::size_t>(f)];
    }
    for (idx_t c = 0; c < mesh.ncells; ++c) {
      cell_vol->at(c) = mesh.cell_vol[static_cast<std::size_t>(c)];
      freestream(q->ptr(c));
    }
    res->fill(0.0);
    step->fill(0.0);
  }
};

struct Solver {
  op2::Runtime& rt;
  op2::Mode mode;
  Level fine, coarse;
  std::unique_ptr<op2::Map> f2c;           // fine cell -> coarse cell
  std::unique_ptr<op2::Dat<double>> q_old;  // coarse q before smoothing

  Solver(op2::Runtime& r, op2::Mode m, idx_t n, std::uint64_t seed)
      : rt(r), mode(m) {
    const idx_t ni = n, nj = n, nk = std::max<idx_t>(n / 2, 2);
    fine.build(op2::make_hex_mesh(ni, nj, nk, seed));
    const auto perm = op2::hex_permutation(ni * nj * nk, seed);
    op2::MgLevel lvl = op2::coarsen_hex(ni, nj, nk, perm, seed ^ 0x9e3779b9);
    coarse.build(std::move(lvl.coarse));
    f2c = std::make_unique<op2::Map>("f2c", *fine.cells, *coarse.cells, 1,
                                     lvl.fine_to_coarse);
    q_old = std::make_unique<op2::Dat<double>>(*coarse.cells, "q_old", kNv);
    // Build the Colored plans in setup, not in the first timed cycle.
    if (mode == op2::Mode::Colored) {
      rt.plans().get(*fine.faces, {fine.face_cells.get()});
      rt.plans().get(*coarse.faces, {coarse.face_cells.get()});
      rt.plans().get(*fine.cells, {f2c.get()});
    }
  }

  void compute_step_factor(Level& l) {
    op2::par_loop(
        rt, {"compute_step_factor", 20.0}, *l.cells, mode,
        [](const double* q, const double* vol, double* sf) {
          const double ir = 1.0 / q[0];
          const double speed = std::sqrt((q[1] * q[1] + q[2] * q[2] +
                                          q[3] * q[3]) * ir * ir);
          const double p =
              (kGamma - 1.0) * (q[4] - 0.5 * (q[1] * q[1] + q[2] * q[2] +
                                              q[3] * q[3]) * ir);
          const double c = std::sqrt(kGamma * p * ir);
          sf[0] = kCfl * std::cbrt(vol[0]) / (speed + c);
        },
        op2::read(*l.q), op2::read(*l.cell_vol), op2::write(*l.step));
  }

  void compute_flux(Level& l) {
    op2::par_loop(
        rt, {"compute_flux", 110.0}, *l.faces, mode,
        [](const double* geom, const double* ql, const double* qr, double* rl,
           double* rr) {
          double qfs[kNv], flux[kNv];
          const double* right = qr;
          if (qr[0] <= 0.0) {  // boundary face: far-field ghost state
            freestream(qfs);
            right = qfs;
          }
          rusanov(ql, right, geom[0], geom[1], geom[2], geom[3], flux);
          for (int v = 0; v < kNv; ++v) {
            rl[v] -= flux[v];
            rr[v] += flux[v];
          }
        },
        op2::read(*l.face_geom), op2::read_via(*l.q, *l.face_cells, 0),
        op2::read_via(*l.q, *l.face_cells, 1),
        op2::inc_via(*l.res, *l.face_cells, 0),
        op2::inc_via(*l.res, *l.face_cells, 1));
  }

  void time_step(Level& l) {
    op2::par_loop(
        rt, {"time_step", 12.0}, *l.cells, mode,
        [](const double* sf, const double* vol, double* q, double* res) {
          const double f = sf[0] / vol[0];
          for (int v = 0; v < kNv; ++v) {
            q[v] += f * res[v];
            res[v] = 0.0;
          }
        },
        op2::read(*l.step), op2::read(*l.cell_vol),
        op2::read_write(*l.q), op2::read_write(*l.res));
  }

  void smooth(Level& l) {
    compute_step_factor(l);
    compute_flux(l);
    time_step(l);
  }

  /// Volume-weighted restriction of the fine solution onto the coarse
  /// level (MG-CFD's down-transfer), remembering the pre-smoothing state.
  void restrict_to_coarse() {
    op2::par_loop(
        rt, {"mg_zero_coarse", 0.0}, *coarse.cells, mode,
        [](double* qc, double* vc) {
          for (int v = 0; v < kNv; ++v) qc[v] = 0.0;
          vc[0] = 0.0;
        },
        op2::write(*coarse.q), op2::write(*coarse.cell_vol));
    op2::par_loop(
        rt, {"mg_restrict", 12.0}, *fine.cells, mode,
        [](const double* qf, const double* vf, double* qc, double* vc) {
          for (int v = 0; v < kNv; ++v) qc[v] += qf[v] * vf[0];
          vc[0] += vf[0];
        },
        op2::read(*fine.q), op2::read(*fine.cell_vol),
        op2::inc_via(*coarse.q, *f2c, 0), op2::inc_via(*coarse.cell_vol, *f2c, 0));
    op2::par_loop(
        rt, {"mg_average", 5.0}, *coarse.cells, mode,
        [](double* qc, const double* vc, double* qo) {
          for (int v = 0; v < kNv; ++v) {
            qc[v] /= vc[0];
            qo[v] = qc[v];
          }
        },
        op2::read_write(*coarse.q), op2::read(*coarse.cell_vol),
        op2::write(*q_old));
  }

  /// Prolong the coarse correction back to the fine level.
  void prolong_correction() {
    op2::par_loop(
        rt, {"mg_prolong", 10.0}, *fine.cells, mode,
        [](const double* qc, const double* qo, double* qf) {
          for (int v = 0; v < kNv; ++v) qf[v] += qc[v] - qo[v];
        },
        op2::read_via(*coarse.q, *f2c, 0), op2::read_via(*q_old, *f2c, 0),
        op2::read_write(*fine.q));
  }

  /// One MG-CFD cycle: fine smooth, restrict, coarse smooth, prolong.
  void cycle() {
    smooth(fine);
    restrict_to_coarse();
    smooth(coarse);
    prolong_correction();
  }

  struct Summary {
    double mass = 0, res_norm = 0, max_drift = 0;
  };
  Summary summary() {
    Summary s;
    op2::par_loop(
        rt, {"summary", 14.0}, *fine.cells, op2::Mode::Serial,
        [](const double* q, const double* vol, double& mass, double& drift) {
          mass += q[0] * vol[0];
          double fs[kNv];
          freestream(fs);
          for (int v = 0; v < kNv; ++v)
            drift = std::max(drift, std::abs(q[v] - fs[v]));
        },
        op2::read(*fine.q), op2::read(*fine.cell_vol),
        op2::reduce_sum(s.mass), op2::reduce_max(s.max_drift));
    return s;
  }

  double checksum() {
    double sq = 0;
    op2::par_loop(
        rt, {"checksum", 2.0}, *fine.cells, op2::Mode::Serial,
        [](const double* q, double& s) {
          for (int v = 0; v < kNv; ++v) s += q[v] * q[v];
        },
        op2::read(*fine.q), op2::reduce_sum(sq));
    return sq;
  }

  /// Density perturbation for non-trivial dynamics tests.
  void perturb() {
    for (idx_t c = 0; c < fine.mesh.ncells; ++c) {
      const double x = fine.mesh.cell_cx[static_cast<std::size_t>(c)] - 0.5;
      const double y = fine.mesh.cell_cy[static_cast<std::size_t>(c)] - 0.5;
      const double z = fine.mesh.cell_cz[static_cast<std::size_t>(c)] - 0.5;
      const double r2 = (x * x + y * y + z * z) / 0.04;
      fine.q->at(c, 0) += 0.05 * std::exp(-r2);
    }
  }
};

}  // namespace

Result run(const Options& opt) {
  apply_robustness(opt);
  Result result;
  const op2::Mode mode = opt.exec_mode == 1 ? op2::Mode::Vec
                         : opt.exec_mode == 2 ? op2::Mode::Colored
                                              : op2::Mode::Serial;
  op2::Runtime rt(opt.threads);
  Solver s(rt, mode, opt.n, opt.seed);
  // scenario 1: pure free-stream (exact preservation test); default adds a
  // density perturbation for non-trivial dynamics.
  if (opt.scenario != 1) s.perturb();
  const Solver::Summary s0 = s.summary();
  Timer timer;
  for (int it = 0; it < opt.iterations; ++it) {
    fault::on_step(0, it);
    s.cycle();
  }
  result.elapsed = timer.elapsed();
  const Solver::Summary s1 = s.summary();
  result.metrics["mass"] = s1.mass;
  result.metrics["mass_initial"] = s0.mass;
  result.metrics["max_drift"] = s1.max_drift;
  result.metrics["res_norm"] = s1.res_norm;
  // Partition statistics feed the unstructured communication model.
  {
    op2::Partition part = op2::rcb_partition(
        s.fine.mesh.cell_cx, s.fine.mesh.cell_cy, s.fine.mesh.cell_cz,
        std::max(opt.ranks, 8));
    result.metrics["cut_fraction"] = part.cut_fraction(s.fine.mesh.face_cells);
  }
  result.checksum = s.checksum();
  result.instr = rt.instr();
  return result;
}

}  // namespace bwlab::apps::mgcfd
