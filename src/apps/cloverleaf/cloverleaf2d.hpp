// CloverLeaf 2D reproduction [11]: explicit compressible-Euler
// hydrodynamics on a staggered structured grid (cell-centered density,
// energy, pressure; node-centered velocities), with the classic CloverLeaf
// step structure: ideal-gas EoS, artificial viscosity, Lagrangian
// PdV + acceleration, directionally-split donor-cell advection with a
// remap, per-step dt reduction, explicit reflective-boundary kernels (the
// "many small boundary kernels" responsible for the SYCL gap in §5.1),
// and a field summary. Double precision, as in the paper.
//
// The standard test problem is a square domain with a high-energy region
// in the corner (the CloverLeaf "bm" deck shape). Total mass is conserved
// to round-off by the flux-form advection — the primary validation.
#pragma once

#include "apps/app_common.hpp"

namespace bwlab::apps::clover2d {

/// Halo depth of every field in tiled mode: exactly the step chain's
/// TilingRecord::needed_depth (eager mode uses 2).
constexpr int kTiledHaloDepth = 13;

/// Runs the solver; Options::tiled routes the main Lagrangian chain
/// through the OPS tiling executor (Figure 9).
Result run(const Options& opt);

}  // namespace bwlab::apps::clover2d
